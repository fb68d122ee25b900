//! Whole-run laws: two configurations that the design says describe the
//! same run must leave the same `Fingerprint`, bit for bit, and the
//! configurations that the same argument says differ must differ. Each law
//! runs under both runtimes on the shared `common` federation.

mod common;

use common::Fingerprint;
use fedda_fl::{AsyncConfig, FedAvg, FedProx, FlProtocol, RuntimeMode};

const SCALE: f64 = 0.0015;
const M: usize = 4;
const ROUNDS: usize = 3;
const SEED: u64 = 7;

/// The fingerprint of `protocol` on the test federation under `mode`, with
/// `local_epochs` of local training per round.
fn fingerprint(
    mode: &RuntimeMode,
    protocol: &mut dyn FlProtocol,
    local_epochs: usize,
) -> Fingerprint {
    let (split, clients) = common::dataset(SCALE, SEED, M);
    let mut system = common::system(&split, clients, SEED, |cfg| {
        cfg.rounds = ROUNDS;
        cfg.train.local_epochs = local_epochs;
    });
    let result = fedda_fl::run(mode, protocol, &mut system, None).expect("valid configuration");
    common::fingerprint(&result, &system)
}

#[test]
fn fedprox_without_its_proximal_term_is_fedavg() {
    // μ = 0 adds no penalty gradient, and at full participation the cohort
    // is every client whatever the protocol's seed tweak draws. Two local
    // epochs take the second step away from the broadcast anchor, where a
    // μ > 0 penalty would first act.
    let no_prox = || FedProx {
        mu: 0.0,
        client_fraction: 1.0,
    };
    let modes = [
        RuntimeMode::Sync,
        RuntimeMode::Async(AsyncConfig::default()),
    ];
    for mode in &modes {
        for epochs in [1, 2] {
            assert_eq!(
                fingerprint(mode, &mut no_prox(), epochs),
                fingerprint(mode, &mut FedAvg::vanilla(), epochs),
                "{mode:?}, E = {epochs}"
            );
        }
    }
    // With partial participation the two seed tweaks draw different
    // cohorts, so the law does not extend there.
    let mut partial = FedProx {
        mu: 0.0,
        client_fraction: 0.6,
    };
    assert_ne!(
        fingerprint(&RuntimeMode::Sync, &mut partial, 1),
        fingerprint(&RuntimeMode::Sync, &mut FedAvg::with_fractions(0.6, 1.0), 1)
    );
}
