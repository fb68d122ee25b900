//! Test-only federation fixture shared by the `fedda-fl` integration
//! suites: the seeded DBLP-like federation every golden, chaos and
//! determinism suite runs on, the tiny Simple-HGN configuration they all
//! train, and one bit-exact fingerprint of a run to compare two runs by.
//! Each suite keeps its own constants (scale, seed, clients, rounds) and
//! states its differences from the baseline configuration as an `edit`.
//! Included by `mod common;` from each suite, and by `#[path]` into the
//! crate's own test build (`src/lib.rs`, where `fedda_fl` names the crate
//! itself), so the in-crate tests run on the same federation; never in the
//! library proper.

#![allow(
    dead_code,
    reason = "each suite, and the in-crate tests, use a subset of the fixture"
)]

use fedda_data::{dblp_like, partition_non_iid, ClientData, PartitionConfig, PresetOptions};
use fedda_fl::compress::{decode_arrival, Compressed, CompressedUnit, Payload};
use fedda_fl::runtime::Delivery;
use fedda_fl::{
    ActivationSnapshot, ClientReturn, Compression, Delta, FaultObserved, FlConfig, FlSystem,
    InFlight, MemorySink, RoundComm, RoundEvent, RunResult,
};
use fedda_hetgraph::split::{split_edges, EdgeSplit};
use fedda_hgn::{HgnConfig, TrainConfig};
use fedda_tensor::{Matrix, ParamSet};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A DBLP-like graph at `scale`, its 15 % test split and its training
/// edges cut into `m` non-IID clients (the paper's partition defaults), all
/// drawn from `seed`.
pub fn dataset(scale: f64, seed: u64, m: usize) -> (EdgeSplit, Vec<ClientData>) {
    let g = dblp_like(&PresetOptions { scale, seed }).graph;
    let mut rng = StdRng::seed_from_u64(seed);
    let split = split_edges(&g, 0.15, &mut rng);
    let pcfg = PartitionConfig::paper_defaults(m, g.schema().num_edge_types(), seed);
    let clients = partition_non_iid(&split.train, &pcfg);
    (split, clients)
}

/// The federation of `clients` over `split`, seeded with `seed`: a
/// one-layer Simple-HGN (hidden 4, 2 heads, edge embedding 4), one local
/// epoch at lr 5e-3 and 3 evaluation negatives, then `edit` applied to
/// that configuration.
pub fn system(
    split: &EdgeSplit,
    clients: Vec<ClientData>,
    seed: u64,
    edit: impl FnOnce(&mut FlConfig),
) -> FlSystem {
    let mut cfg = FlConfig {
        model: HgnConfig {
            hidden_dim: 4,
            num_layers: 1,
            num_heads: 2,
            edge_emb_dim: 4,
            ..Default::default()
        },
        train: TrainConfig {
            local_epochs: 1,
            lr: 5e-3,
            ..Default::default()
        },
        eval_negatives: 3,
        seed,
        ..Default::default()
    };
    edit(&mut cfg);
    FlSystem::new(&split.train, &split.test, clients, cfg)
}

/// Everything observable about a run, in bit-exact form.
#[derive(Debug, PartialEq)]
pub struct Fingerprint {
    pub curve: Vec<(usize, u64, u64)>,
    pub comm: Vec<RoundComm>,
    pub activation: Vec<ActivationSnapshot>,
    pub faults: Vec<FaultObserved>,
    pub final_params: Vec<u32>,
}

/// The fingerprint of `result`, the run that left `system` as it is.
pub fn fingerprint(result: &RunResult, system: &FlSystem) -> Fingerprint {
    Fingerprint {
        curve: (result.curve.iter())
            .map(|e| (e.round, e.roc_auc.to_bits(), e.mrr.to_bits()))
            .collect(),
        comm: result.comm.rounds().to_vec(),
        activation: result.activation_trace.clone(),
        faults: result.faults.clone(),
        final_params: (system.global.flatten().iter())
            .map(|x| x.to_bits())
            .collect(),
    }
}

/// Downlink units over the whole run, folded from the per-round ledger.
pub fn downlink_units(result: &RunResult) -> usize {
    result.comm.rounds().iter().map(|r| r.downlink_units).sum()
}

/// The event stream in comparable form: wall time, the one field that is
/// not a function of the seed, zeroed; `f64`'s `Debug` round-trips, so equal
/// strings are equal bits.
pub fn events(sink: &MemorySink) -> Vec<String> {
    let timeless = |e: &RoundEvent| RoundEvent {
        wall_ms: 0.0,
        ..e.clone()
    };
    (sink.events.iter())
        .map(|e| format!("{:?}", timeless(e)))
        .collect()
}

/// `TopK`'s kept scalars per unit of `len`: `⌊frac·len⌋`, written out
/// apart from the codec.
pub fn k_of(frac: f64, len: usize) -> usize {
    (frac * len as f64).floor() as usize
}

/// One unit as a one-unit set: what a report of that unit is encoded from.
fn unit_set(values: &[f32]) -> ParamSet {
    let mut set = ParamSet::new();
    set.add("unit", Matrix::from_vec(1, values.len(), values.to_vec()));
    set
}

/// A report of one unit, masked in, through `codec`: no entry when the
/// codec kept nothing of the unit.
pub fn encode_report(codec: &Compression, updated: &[f32], reference: &[f32]) -> Compressed {
    codec.compress(&Delta {
        updated: &unit_set(updated),
        reference: &unit_set(reference),
        mask: &[true],
    })
}

/// The payload one unit encodes to under `codec`, or `None` when the codec
/// kept nothing of it.
pub fn encode_unit(codec: &Compression, updated: &[f32], reference: &[f32]) -> Option<Payload> {
    let report = encode_report(codec, updated, reference);
    report.units.into_iter().next().map(|cu| cu.payload)
}

/// `payload` decoded over `reference`, as an arrival is read
/// (`decode_arrival`).
pub fn decode_unit(payload: &Payload, reference: &[f32]) -> Vec<f32> {
    let report = Compressed {
        units: vec![CompressedUnit {
            unit: 0,
            payload: payload.clone(),
        }],
    };
    let mut arrival = Delivery {
        client: 0,
        dispatch_pos: 0,
        dispatch_round: 0,
        ret: ClientReturn {
            client: 0,
            params: ParamSet::new(),
            unit_delta: Vec::new(),
            encoded: None,
        },
        mask: vec![true],
        charge: report.charge(),
        payload: Some(InFlight {
            report,
            reference: Arc::new(unit_set(reference)),
        }),
    };
    decode_arrival(&mut arrival);
    arrival.ret.params.values().to_vec()
}
