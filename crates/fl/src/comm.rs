//! Communication accounting.
//!
//! Table 3 of the paper reports the **total number of transmitted
//! parameters** (parameter *units*, i.e. named tensors — FedAvg with `M=4`
//! clients, 40 rounds and 65 units transmits `4 × 40 × 65 = 10,400`). We
//! track both unit counts (the paper's measure) and raw scalar counts, for
//! uplink (client → server gradients) and downlink (server → client model
//! broadcast) separately.
//!
//! Under fault injection (`FlConfig::faults`) the counters record bytes
//! that actually moved: downlink still covers every *selected* client (the
//! broadcast happens before the server can know who will fail), while
//! uplink covers only reports that arrived — fresh survivors, corrupted
//! reports (received, then rejected) and stale straggler arrivals, but not
//! dropouts or reports still held (or never delivered) by a straggler.

// Invariant D5 (DESIGN.md §6): byte accounting never truncates silently.
#![warn(clippy::cast_possible_truncation)]

/// Communication counters of one round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundComm {
    /// Clients activated this round.
    pub active_clients: usize,
    /// Parameter units uploaded by clients (the paper's Table 3 measure).
    pub uplink_units: usize,
    /// Scalars uploaded by clients.
    pub uplink_scalars: usize,
    /// Uplink payload bytes on the wire — `4 × uplink_scalars` on the
    /// uncompressed path, the codec's wire size under
    /// [`Compression`](crate::Compression).
    pub uplink_bytes: usize,
    /// Parameter units broadcast to clients.
    pub downlink_units: usize,
    /// Scalars broadcast to clients.
    pub downlink_scalars: usize,
}

impl RoundComm {
    /// Whether any uplink traffic was charged this round (units, scalars
    /// or bytes — a fully-compressed-away report charges none of them).
    pub fn has_uplink(&self) -> bool {
        self.uplink_units > 0 || self.uplink_scalars > 0 || self.uplink_bytes > 0
    }
}

/// Cumulative communication log of one federated run.
#[derive(Clone, Debug, Default)]
pub struct CommLog {
    rounds: Vec<RoundComm>,
}

impl CommLog {
    /// Append one round's counters.
    pub fn push(&mut self, round: RoundComm) {
        self.rounds.push(round);
    }

    /// Per-round records.
    pub fn rounds(&self) -> &[RoundComm] {
        &self.rounds
    }

    /// Total uplink units across all rounds — the paper's "total amount of
    /// transmitted gradients".
    pub fn total_uplink_units(&self) -> usize {
        self.rounds.iter().map(|r| r.uplink_units).sum()
    }

    /// Total uplink scalars.
    pub fn total_uplink_scalars(&self) -> usize {
        self.rounds.iter().map(|r| r.uplink_scalars).sum()
    }

    /// Total uplink payload bytes — the AUC-vs-bytes frontier's x axis.
    pub fn total_uplink_bytes(&self) -> usize {
        self.rounds.iter().map(|r| r.uplink_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_accumulate() {
        let mut log = CommLog::default();
        log.push(RoundComm {
            active_clients: 4,
            uplink_units: 260,
            uplink_scalars: 1000,
            uplink_bytes: 4000,
            downlink_units: 260,
            downlink_scalars: 1000,
        });
        log.push(RoundComm {
            active_clients: 2,
            uplink_units: 100,
            uplink_scalars: 400,
            uplink_bytes: 1600,
            downlink_units: 130,
            downlink_scalars: 500,
        });
        assert_eq!(log.total_uplink_units(), 360);
        assert_eq!(log.total_uplink_scalars(), 1400);
        assert_eq!(log.total_uplink_bytes(), 5600);
    }

    #[test]
    fn has_uplink_checks_every_counter() {
        assert!(!RoundComm::default().has_uplink());
        for (u, s, b) in [(1, 0, 0), (0, 1, 0), (0, 0, 1)] {
            let rc = RoundComm {
                uplink_units: u,
                uplink_scalars: s,
                uplink_bytes: b,
                ..Default::default()
            };
            assert!(rc.has_uplink(), "{rc:?}");
        }
    }

    #[test]
    fn fedavg_table3_arithmetic() {
        // FedAvg, M=4, T=40, N=65 units → 10,400 (paper's Table 3 cell).
        let mut log = CommLog::default();
        for _ in 0..40 {
            log.push(RoundComm {
                active_clients: 4,
                uplink_units: 4 * 65,
                ..Default::default()
            });
        }
        assert_eq!(log.total_uplink_units(), 10_400);
    }
}
