//! The traced run: one lockstep round loop rebuilt from the public pieces
//! `RoundDriver` itself uses, with a span around each call.
//!
//! The replay covers what the sync workloads configure — no fault plan,
//! optional codec — and must reproduce the driver's curve, ledger and
//! final parameters bit for bit; otherwise it measures another program and
//! the traced run fails its check.

use crate::trace::Trace;
use fedda_fl::compress::decode_arrival;
use fedda_fl::runtime::Delivery;
use fedda_fl::{
    ActivationSnapshot, Delta, FlProtocol, FlSystem, InFlight, RoundEval, RunResult, UplinkCharge,
    WeightedReturn,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Counts taken at the same boundaries as the spans.
#[derive(Default)]
pub struct ReplayCounts {
    pub mask_density_sum: f64,
    pub active_clients: usize,
    pub aggregate_scalars: usize,
    pub compress_bytes_in: usize,
    pub compress_bytes_out: usize,
}

pub fn replay(
    protocol: &mut dyn FlProtocol,
    system: &mut FlSystem,
    trace: &mut Trace,
) -> Result<(RunResult, ReplayCounts), String> {
    assert!(
        system.config().faults.is_none(),
        "the replay has no fault path"
    );
    protocol
        .validate()
        .map_err(|e| format!("invalid {} configuration: {e}", protocol.name()))?;
    let compressor = system.config().compression.map(|c| c.build());
    let rounds = system.config().rounds;
    let eval_every = system.config().eval_every.max(1);
    let mut rng = StdRng::seed_from_u64(system.config().seed ^ protocol.seed_tweak());
    protocol.begin(system, &mut rng);

    let mut result = RunResult::default();
    let mut counts = ReplayCounts::default();
    for round in 0..rounds {
        let r = Some(round);
        let round_span = trace.begin("fl.round", r);

        let (active, masks) = trace.span("fl.select", r, || {
            let active = protocol.select_clients(system, round, &mut rng);
            let masks = protocol.build_masks(system, &active, round, &mut rng);
            (active, masks)
        });
        let mask_density = mean_mask_density(&masks);
        counts.mask_density_sum += mask_density;
        counts.active_clients += active.len();

        let broadcast = trace.span("fl.broadcast_clone", r, || {
            compressor
                .is_some()
                .then(|| Arc::new(system.global.clone()))
        });
        let sizes = system.unit_sizes();
        let penalties: Vec<_> = active
            .iter()
            .map(|&c| protocol.local_regularizer(system, c, round))
            .collect();
        let returns = trace.span("fl.local_round", r, || {
            system.run_local_round_with(&active, round, &penalties)
        });

        let mut deliveries: Vec<Delivery> = trace.span("fl.compress", r, || {
            returns
                .into_iter()
                .enumerate()
                .map(|(pos, ret)| {
                    let mask = masks[pos].clone();
                    let (charge, payload) = match (&compressor, &broadcast) {
                        (Some(comp), Some(reference)) => {
                            let report = comp.compress(&Delta {
                                updated: &ret.params,
                                reference,
                                mask: &mask,
                            });
                            let charge = report.charge();
                            let inflight = InFlight {
                                report,
                                reference: Arc::clone(reference),
                            };
                            (charge, Some(inflight))
                        }
                        _ => (UplinkCharge::from_mask(&mask, &sizes), None),
                    };
                    Delivery {
                        client: ret.client,
                        dispatch_pos: pos,
                        dispatch_round: round,
                        ret,
                        mask,
                        charge,
                        payload,
                    }
                })
                .collect()
        });
        if compressor.is_some() {
            for d in &deliveries {
                counts.compress_bytes_in += 4 * UplinkCharge::from_mask(&d.mask, &sizes).scalars;
                counts.compress_bytes_out += d.charge.bytes;
            }
        }
        trace.span("fl.decode", r, || {
            deliveries.iter_mut().for_each(decode_arrival)
        });

        let charges: Vec<UplinkCharge> = deliveries.iter().map(|d| d.charge).collect();
        counts.aggregate_scalars += deliveries
            .iter()
            .map(|d| UplinkCharge::from_mask(&d.mask, &sizes).scalars)
            .sum::<usize>();
        trace.span("fl.aggregate", r, || {
            let contributions: Vec<WeightedReturn<'_>> = deliveries
                .iter()
                .map(|d| WeightedReturn {
                    ret: &d.ret,
                    mask: &d.mask,
                    scale: 1.0,
                })
                .collect();
            system.aggregate_weighted(&contributions);
        });
        let comm = trace.span("fl.comm_account", r, || {
            system.round_comm_charges(active.len(), &charges)
        });
        if !active.is_empty() || comm.has_uplink() {
            result.comm.push(comm);
        }

        let returns: Vec<_> = deliveries.into_iter().map(|d| d.ret).collect();
        let outcome = trace.span("fl.post_aggregate", r, || {
            protocol.post_aggregate(system, &active, &returns, round, &mut rng)
        });
        if protocol.traces_activation() {
            result.activation_trace.push(ActivationSnapshot {
                active_clients: active.clone(),
                mask_density,
                deactivated: outcome.deactivated,
                reactivated: outcome.reactivated,
                restarted: outcome.restarted,
            });
        }
        if (round + 1) % eval_every == 0 || round + 1 == rounds {
            let eval = trace.span("fl.eval", r, || system.evaluate_global(round));
            result.curve.push(RoundEval {
                round,
                roc_auc: eval.roc_auc,
                mrr: eval.mrr,
            });
            result.final_eval = eval;
        }
        trace.end(round_span);
    }
    Ok((result, counts))
}

fn mean_mask_density(masks: &[Vec<bool>]) -> f64 {
    if masks.is_empty() {
        return 0.0;
    }
    let per_mask = |m: &Vec<bool>| m.iter().filter(|&&b| b).count() as f64 / m.len().max(1) as f64;
    masks.iter().map(per_mask).sum::<f64>() / masks.len() as f64
}
