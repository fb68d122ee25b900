//! Non-federated baselines: `Global` (centralised training on the whole
//! training graph — the paper's upper bound) and `Local` (each client
//! trains alone — the lower bound; scores are averaged over clients).
//!
//! `Global` is a round protocol — one outer step per round, evaluated on
//! the shared cadence — so it runs on the same engine
//! ([`run`](crate::run)) as the federated protocols via
//! [`GlobalProtocol`]: it selects no clients (its comm log stays empty) and
//! does all its training in the post-aggregation hook, directly on
//! `system.global`. `Local` has no round structure (clients never
//! communicate, models are only scored at the end) and stays a plain
//! function.

use crate::engine::run_or_panic;
use crate::protocol::{FlProtocol, StepOutcome};
use crate::system::{ClientReturn, FlSystem, RunResult};
use fedda_hetgraph::{EdgeIndex, HeteroGraph, LinkExample, LinkSampler};
use fedda_hgn::{train_local, GraphView, TrainConfig};
use fedda_metrics::MeanStd;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// XOR tweak (with the client index shifted left 8) deriving each isolated
/// client's training RNG in [`run_local_only`] from `FlConfig::seed`.
pub const LOCAL_STREAM_TWEAK: u64 = 0x0001_0CA1;

/// Train the model centrally on the global training graph for
/// `system.config().rounds` outer steps (each of `E` local epochs, to match
/// the federated compute budget), evaluating on the configured cadence.
pub fn run_global(system: &mut FlSystem) -> RunResult {
    run_or_panic("Global", &mut GlobalProtocol::new(), system)
}

/// The centralised "server trains alone" pieces, cloned out of the system
/// once per run (the sampler borrows the graph, so it is rebuilt per round).
struct GlobalState {
    graph: HeteroGraph,
    view: GraphView,
    index: EdgeIndex,
    positives: Vec<LinkExample>,
    train: TrainConfig,
}

/// The `Global` upper bound as an [`FlProtocol`]: no clients, no masks, no
/// communication — one centralised training step per round in
/// [`post_aggregate`](FlProtocol::post_aggregate).
pub struct GlobalProtocol {
    state: Option<GlobalState>,
}

impl GlobalProtocol {
    /// A fresh per-run instance (state is cloned from the system in
    /// `begin`).
    pub fn new() -> Self {
        Self { state: None }
    }
}

impl Default for GlobalProtocol {
    fn default() -> Self {
        Self::new()
    }
}

impl FlProtocol for GlobalProtocol {
    fn name(&self) -> String {
        "Global".into()
    }

    fn seed_tweak(&self) -> u64 {
        0x61_0B_A1
    }

    fn begin(&mut self, system: &FlSystem, _rng: &mut StdRng) {
        // The "server" trains directly on the evaluation (global training)
        // graph: rebuild the pieces the clients normally own.
        let graph = system.eval_graph().clone();
        let view = GraphView::new(&graph, system.model.uses_self_loops());
        let index = system.eval_index().clone();
        let positives = LinkSampler::with_index(&graph, index.clone()).all_positives();
        self.state = Some(GlobalState {
            graph,
            view,
            index,
            positives,
            train: system.config().train.clone(),
        });
    }

    fn select_clients(
        &mut self,
        _system: &FlSystem,
        _round: usize,
        _rng: &mut StdRng,
    ) -> Vec<usize> {
        Vec::new()
    }

    fn build_masks(
        &mut self,
        _system: &FlSystem,
        _active: &[usize],
        _round: usize,
        _rng: &mut StdRng,
    ) -> Vec<Vec<bool>> {
        Vec::new()
    }

    fn post_aggregate(
        &mut self,
        system: &mut FlSystem,
        _active: &[usize],
        _returns: &[ClientReturn],
        _round: usize,
        rng: &mut StdRng,
    ) -> StepOutcome {
        #[expect(
            clippy::expect_used,
            reason = "the engine calls begin() before any round hook; a missing state is a protocol-engine bug"
        )]
        let state = self.state.as_ref().expect("begin() initialises the state");
        let sampler = LinkSampler::with_index(&state.graph, state.index.clone());
        train_local(
            system.model.as_ref(),
            &mut system.global,
            &state.view,
            &sampler,
            &state.positives,
            &state.train,
            rng,
        );
        StepOutcome::default()
    }
}

/// Per-client local-only result.
#[derive(Clone, Debug, Default)]
pub struct LocalResult {
    /// Final global-test AUC of each client's locally-trained model.
    pub aucs: Vec<f64>,
    /// Final global-test MRR of each client's locally-trained model.
    pub mrrs: Vec<f64>,
}

impl LocalResult {
    /// Mean ± std of client AUCs (the paper reports Local averaged over
    /// clients).
    pub fn auc_summary(&self) -> MeanStd {
        MeanStd::of(&self.aucs)
    }

    /// Mean ± std of client MRRs.
    pub fn mrr_summary(&self) -> MeanStd {
        MeanStd::of(&self.mrrs)
    }
}

/// Train each client alone (same per-round compute as the federated runs,
/// no communication) and evaluate every client's model on the global test
/// set.
pub fn run_local_only(system: &FlSystem) -> LocalResult {
    let cfg = system.config().clone();
    let mut result = LocalResult::default();
    for (i, client) in system.clients.iter().enumerate() {
        let mut params = system.global.clone();
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ LOCAL_STREAM_TWEAK ^ (i as u64) << 8);
        let sampler = client.sampler();
        for _round in 0..cfg.rounds {
            train_local(
                system.model.as_ref(),
                &mut params,
                &client.view,
                &sampler,
                &client.positives,
                &cfg.train,
                &mut rng,
            );
        }
        let eval = system.evaluate_params(&params, cfg.rounds);
        result.aucs.push(eval.roc_auc);
        result.mrrs.push(eval.mrr);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::tests::tiny_system;

    #[test]
    fn global_baseline_trains_and_records_curve() {
        let mut sys = tiny_system(2, 31);
        let before = sys.global.flatten();
        let result = run_global(&mut sys);
        assert_eq!(result.curve.len(), sys.config().rounds);
        assert_ne!(
            sys.global.flatten(),
            before,
            "global training must move parameters"
        );
        assert!(result.final_eval.roc_auc > 0.0);
    }

    #[test]
    fn global_baseline_ignores_fault_injection() {
        // The Global protocol selects no clients, so even an aggressive
        // fault schedule has nobody to strike: no fault events, identical
        // trained parameters.
        let mut plain = tiny_system(2, 33);
        let r_plain = run_global(&mut plain);
        let mut faulty = tiny_system(2, 33);
        faulty.set_faults(Some(crate::faults::FaultConfig {
            dropout: 0.9,
            ..Default::default()
        }));
        let r_faulty = run_global(&mut faulty);
        assert!(r_faulty.faults.is_empty());
        assert_eq!(plain.global.flatten(), faulty.global.flatten());
        for (a, b) in r_plain.curve.iter().zip(&r_faulty.curve) {
            assert_eq!(a.roc_auc.to_bits(), b.roc_auc.to_bits());
        }
    }

    #[test]
    fn local_baseline_covers_every_client() {
        let sys = tiny_system(3, 32);
        let result = run_local_only(&sys);
        assert_eq!(result.aucs.len(), 3);
        assert_eq!(result.mrrs.len(), 3);
        let s = result.auc_summary();
        assert_eq!(s.n, 3);
        assert!(s.mean > 0.0);
    }
}
