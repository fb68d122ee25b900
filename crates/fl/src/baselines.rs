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
//! function. Both train in the federation's worker slot 0, the workspace
//! the clients' first worker trains in.

use crate::protocol::{FlProtocol, StepOutcome};
use crate::system::{ClientReturn, FlSystem};
use fedda_hetgraph::{LinkExample, LinkSampler};
use fedda_metrics::MeanStd;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// XOR tweak (with the client index shifted left 8) deriving each isolated
/// client's training RNG in [`run_local_only`] from `FlConfig::seed`.
pub const LOCAL_STREAM_TWEAK: u64 = 0x0001_0CA1;

/// The `Global` upper bound as an [`FlProtocol`]: no clients, no masks, no
/// communication — one centralised training step per round (`E` local
/// epochs, the federated compute budget) in
/// [`post_aggregate`](FlProtocol::post_aggregate), on the federation's
/// evaluation graph (the global training split).
pub struct GlobalProtocol {
    /// Every edge of the evaluation graph, read in `begin`.
    positives: Arc<[LinkExample]>,
}

impl GlobalProtocol {
    /// A fresh per-run instance (its positives are read in `begin`).
    pub fn new() -> Self {
        Self {
            positives: Arc::new([]),
        }
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
        let index = system.eval_index().clone();
        self.positives = LinkSampler::with_index(system.eval_graph(), index)
            .all_positives()
            .into();
    }

    fn select_clients(
        &mut self,
        _system: &FlSystem,
        _round: usize,
        _rng: &mut StdRng,
    ) -> Vec<usize> {
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
        system.train_global(&self.positives, rng);
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
/// set; training and evaluation both run in worker slot 0.
pub fn run_local_only(system: &FlSystem) -> LocalResult {
    let cfg = system.config();
    let mut result = LocalResult::default();
    for (i, client) in system.clients.iter().enumerate() {
        let seed = cfg.seed ^ LOCAL_STREAM_TWEAK ^ (i as u64) << 8;
        let (model, client) = (Arc::clone(&system.model), client.clone());
        let (global, train, rounds) = (system.global.clone(), cfg.train.clone(), cfg.rounds);
        let params = system.on_slot0(move |slot| {
            let (mut params, mut rng) = (global.clone(), StdRng::seed_from_u64(seed));
            let sampler = client.sampler();
            for _round in 0..rounds {
                slot.workspace.train(
                    model.as_ref(),
                    &mut params,
                    &client.view,
                    &sampler,
                    &client.positives,
                    &train,
                    None,
                    &mut rng,
                );
            }
            params
        });
        let eval = system.evaluate_params(&params, cfg.rounds);
        result.aucs.push(eval.roc_auc);
        result.mrrs.push(eval.mrr);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::tests::{run_sync, tiny_system, tiny_system_with};

    #[test]
    fn global_baseline_trains_and_records_curve() {
        let mut sys = tiny_system(2, 31);
        let before = sys.global.flatten();
        let result = run_sync(&mut GlobalProtocol::new(), &mut sys);
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
        let r_plain = run_sync(&mut GlobalProtocol::new(), &mut plain);
        let mut faulty = tiny_system_with(2, 33, |cfg| {
            cfg.faults = Some(crate::faults::FaultConfig {
                dropout: 0.9,
                ..Default::default()
            });
        });
        let r_faulty = run_sync(&mut GlobalProtocol::new(), &mut faulty);
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
