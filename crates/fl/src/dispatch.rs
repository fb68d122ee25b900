//! The dispatch half of a round, shared by both drivers.
//!
//! [`RoundDriver`](crate::RoundDriver) and
//! [`AsyncDriver`](crate::AsyncDriver) differ in *when* a report arrives
//! and in what they record about a fault; what happens to a selected
//! client between selection and the event queue is the same in both and
//! lives here once: the fault plan's verdict, the protocol's penalty, the
//! worker-side report task ([`FlSystem::run_reports`]) and the
//! [`Delivery`] that carries the result.

use crate::compress::{Compressor, InFlight, UplinkCharge};
use crate::faults::{FaultKind, FaultPlan};
use crate::protocol::FlProtocol;
use crate::runtime::Delivery;
use crate::system::{FlSystem, ReportOrder};
use std::sync::Arc;

/// Train, corrupt and encode the reports of one dispatch.
///
/// Returns one entry per position of `active`: the fault the plan
/// scheduled for that client, and the client's [`Delivery`] — `None` for a
/// dropout (never trained: it never reports) and for a straggler whose
/// report `outlived(delay)` says the run ends before (trained, but neither
/// encoded nor charged: its bytes never transfer). The caller owns the
/// arrival rule and the fault observations.
#[allow(clippy::too_many_arguments)]
pub(crate) fn dispatch_reports(
    system: &FlSystem,
    protocol: &mut dyn FlProtocol,
    plan: Option<&FaultPlan>,
    compressor: Option<&(dyn Compressor + Send + Sync)>,
    active: &[usize],
    mut masks: Vec<Vec<bool>>,
    round: usize,
    outlived: impl Fn(usize) -> bool,
) -> Vec<(Option<FaultKind>, Option<Delivery>)> {
    let faults: Vec<Option<FaultKind>> = active
        .iter()
        .map(|&c| plan.and_then(|p| p.fault_at(round, c)))
        .collect();
    let arrives = |fault: Option<FaultKind>| match fault {
        Some(FaultKind::Dropout) => false,
        Some(FaultKind::Straggler { delay }) => !outlived(delay),
        Some(FaultKind::Corruption(_)) | None => true,
    };
    // Dropped clients never report, so their local compute is skipped
    // outright; stragglers and corrupted clients still train.
    let reporting: Vec<usize> = (0..active.len())
        .filter(|&pos| faults[pos] != Some(FaultKind::Dropout))
        .collect();
    let clients: Vec<usize> = reporting.iter().map(|&pos| active[pos]).collect();
    let penalties: Vec<_> = clients
        .iter()
        .map(|&c| protocol.local_regularizer(system, c, round))
        .collect();
    // Mask-then-compress: the protocol's mask picked the units, the codec
    // prices them.
    let orders: Vec<ReportOrder<'_>> = reporting
        .iter()
        .map(|&pos| ReportOrder {
            corruption: match faults[pos] {
                Some(FaultKind::Corruption(kind)) => Some(kind),
                _ => None,
            },
            encode: arrives(faults[pos]).then_some(masks[pos].as_slice()),
        })
        .collect();
    let reports = system.run_reports(&clients, round, &penalties, &orders, compressor);

    // The dispatch-time broadcast every encoded report of this wave decodes
    // against, however many rounds or versions later it arrives.
    let reference = compressor.map(|_| Arc::new(system.global.clone()));
    let sizes = system.unit_sizes();
    let mut out: Vec<_> = faults.iter().map(|&fault| (fault, None)).collect();
    for (pos, (ret, report)) in reporting.into_iter().zip(reports) {
        if !arrives(faults[pos]) {
            continue;
        }
        let mask = std::mem::take(&mut masks[pos]);
        let (charge, payload) = match (report, &reference) {
            (Some(report), Some(reference)) => {
                let reference = Arc::clone(reference);
                (report.charge(), Some(InFlight { report, reference }))
            }
            _ => (UplinkCharge::from_mask(&mask, &sizes), None),
        };
        out[pos].1 = Some(Delivery {
            client: ret.client,
            dispatch_pos: pos,
            dispatch_round: round,
            ret,
            mask,
            charge,
            payload,
        });
    }
    out
}
