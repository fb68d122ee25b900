//! Structured round events.
//!
//! The engine ([`run`](crate::run)) emits one [`RoundEvent`] per
//! communication round to a pluggable [`EventSink`], so a run's behaviour
//! (active set, mask density, comm volume, evaluation, wall-time) is
//! observable without scraping stdout. Sinks are deliberately dumb: the
//! driver owns the loop, a sink only records or renders. Events arrive in
//! round order, each once its round's evaluation (if due) is known.

use crate::comm::RoundComm;
use crate::faults::FaultObserved;
use crate::system::RoundEval;

/// Everything the driver knows about one finished round.
#[derive(Clone, Debug)]
pub struct RoundEvent {
    /// Round index (0-based).
    pub round: usize,
    /// Clients activated this round (sorted ascending for every built-in
    /// protocol).
    pub active_clients: Vec<usize>,
    /// Mean fraction of parameter units requested per active client
    /// (`0.0` when no client was active, e.g. the Global baseline).
    pub mask_density: f64,
    /// Uplink/downlink counters of the round.
    pub comm: RoundComm,
    /// Clients deactivated during the round (dynamic-activation protocols).
    pub deactivated: Vec<usize>,
    /// Clients reactivated during the round.
    pub reactivated: Vec<usize>,
    /// Whether a full activation reset fired this round.
    pub restarted: bool,
    /// Faults the driver observed this round (dropouts, held/arrived
    /// stragglers, rejected corruptions); empty when fault injection is
    /// off.
    pub faults: Vec<FaultObserved>,
    /// Global evaluation, when the round fell on the evaluation cadence
    /// (`FlConfig::eval_every`; the final round always evaluates).
    pub eval: Option<RoundEval>,
    /// Wall-clock milliseconds since the previous event was emitted (since
    /// the run started, for round 0). A round's event goes out once its
    /// evaluation has joined — beside the next round's client reports — so
    /// this is not "time since this round's dispatch", which would count
    /// that pool call twice: the events' `wall_ms` sum to the run's wall
    /// time, and the sum through an event is when its evaluation was known.
    pub wall_ms: f64,
}

/// Receiver of per-round driver events.
///
/// Implementations must not assume evaluation data is present every round —
/// `eval` is `None` off the evaluation cadence.
pub trait EventSink {
    /// Called once before round 0 of a run.
    fn begin_run(&mut self, protocol: &str, rounds: usize) {
        let _ = (protocol, rounds);
    }

    /// Called after every round.
    fn on_round(&mut self, event: &RoundEvent);
}

/// Collects every event in memory — the test/analysis sink.
#[derive(Debug, Default)]
pub struct MemorySink {
    /// `(protocol name, configured rounds)` per observed run, in order.
    pub runs: Vec<(String, usize)>,
    /// Every event, across runs, in emission order.
    pub events: Vec<RoundEvent>,
}

impl MemorySink {
    /// Empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EventSink for MemorySink {
    fn begin_run(&mut self, protocol: &str, rounds: usize) {
        self.runs.push((protocol.to_string(), rounds));
    }

    fn on_round(&mut self, event: &RoundEvent) {
        self.events.push(event.clone());
    }
}

/// Streams one compact line per round to stderr (keeps stdout clean for
/// tables and JSON reports).
#[derive(Debug, Default)]
pub struct StderrSink;

impl EventSink for StderrSink {
    fn begin_run(&mut self, protocol: &str, rounds: usize) {
        eprintln!("[{protocol}] {rounds} rounds");
    }

    fn on_round(&mut self, event: &RoundEvent) {
        let eval = match &event.eval {
            Some(e) => format!("auc {:.4} mrr {:.4}", e.roc_auc, e.mrr),
            None => "-".into(),
        };
        let mut flags = match (event.restarted, event.deactivated.len()) {
            (true, _) => " restart".to_string(),
            (false, 0) => String::new(),
            (false, d) => format!(" -{d} client(s)"),
        };
        if !event.faults.is_empty() {
            flags.push_str(&format!(" !{} fault(s)", event.faults.len()));
        }
        eprintln!(
            "  r{:03} | active {:2} | density {:.2} | up {:6}u {:8}B / down {:6}u | {} | {:.1}ms{}",
            event.round,
            event.active_clients.len(),
            event.mask_density,
            event.comm.uplink_units,
            event.comm.uplink_bytes,
            event.comm.downlink_units,
            eval,
            event.wall_ms,
            flags,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(round: usize) -> RoundEvent {
        RoundEvent {
            round,
            active_clients: vec![0, 2],
            mask_density: 0.75,
            comm: RoundComm {
                active_clients: 2,
                uplink_units: 10,
                uplink_scalars: 100,
                uplink_bytes: 400,
                downlink_units: 20,
                downlink_scalars: 200,
            },
            deactivated: vec![],
            reactivated: vec![],
            restarted: false,
            faults: vec![],
            eval: None,
            wall_ms: 1.5,
        }
    }

    #[test]
    fn memory_sink_records_runs_and_events() {
        let mut sink = MemorySink::new();
        sink.begin_run("FedAvg", 3);
        sink.on_round(&event(0));
        sink.on_round(&event(1));
        sink.begin_run("FedDA 2 (Explore)", 2);
        sink.on_round(&event(0));
        assert_eq!(sink.runs.len(), 2);
        assert_eq!(sink.runs[0], ("FedAvg".to_string(), 3));
        assert_eq!(sink.events.len(), 3);
        assert_eq!(sink.events[1].round, 1);
    }

    #[test]
    fn stderr_sink_is_callable() {
        let mut sink = StderrSink;
        sink.begin_run("FedAvg", 1);
        sink.on_round(&event(0));
    }
}
