//! Cross-check of the analytic per-codec byte model (ROADMAP item 4(b),
//! `analysis::report_bytes`) against the communication ledger: on a FedAvg
//! run with full participation and full masks, every selected client
//! uploads every unit each round, so the ledgered uplink bytes must equal
//! `rounds × M × report_bytes(unit_lens, codec)` exactly — no tolerance,
//! the closed form mirrors `Payload::wire_bytes` byte for byte.

mod common;

use fedda_fl::analysis::report_bytes;
use fedda_fl::{Compression, FedAvg, FlSystem, RuntimeMode};

const SCALE: f64 = 0.0015;
const M: usize = 4;
const ROUNDS: usize = 3;
const SEED: u64 = 7;

fn small_system(codec: Option<Compression>) -> FlSystem {
    let (split, clients) = common::dataset(SCALE, SEED, M);
    common::system(&split, clients, SEED, |cfg| {
        cfg.rounds = ROUNDS;
        cfg.eval_negatives = 2;
        cfg.compression = codec;
    })
}

fn unit_lens(system: &FlSystem) -> Vec<usize> {
    system.global.iter().map(|(_, p)| p.len()).collect()
}

fn ledgered_bytes(codec: Option<Compression>) -> (usize, Vec<usize>) {
    let mut sys = small_system(codec);
    let lens = unit_lens(&sys);
    let result = fedda_fl::run(&RuntimeMode::Sync, &mut FedAvg::vanilla(), &mut sys, None).unwrap();
    (result.comm.total_uplink_bytes(), lens)
}

#[test]
fn uncompressed_ledger_matches_closed_form() {
    let (bytes, lens) = ledgered_bytes(None);
    assert_eq!(bytes, ROUNDS * M * report_bytes(&lens, None));
}

#[test]
fn identity_ledger_matches_closed_form() {
    let (bytes, lens) = ledgered_bytes(Some(Compression::Identity));
    assert_eq!(
        bytes,
        ROUNDS * M * report_bytes(&lens, Some(&Compression::Identity))
    );
    // Identity frames the same bytes as the uncompressed path.
    assert_eq!(
        report_bytes(&lens, Some(&Compression::Identity)),
        report_bytes(&lens, None)
    );
}

#[test]
fn f16_ledger_matches_closed_form() {
    let (bytes, lens) = ledgered_bytes(Some(Compression::QuantF16));
    assert_eq!(
        bytes,
        ROUNDS * M * report_bytes(&lens, Some(&Compression::QuantF16))
    );
}

#[test]
fn i8_ledger_matches_closed_form() {
    let (bytes, lens) = ledgered_bytes(Some(Compression::QuantI8));
    assert_eq!(
        bytes,
        ROUNDS * M * report_bytes(&lens, Some(&Compression::QuantI8))
    );
}

#[test]
fn topk_ledger_matches_closed_form() {
    let codec = Compression::TopK { frac: 0.25 };
    let (bytes, lens) = ledgered_bytes(Some(codec));
    assert_eq!(bytes, ROUNDS * M * report_bytes(&lens, Some(&codec)));
    // The per-unit floor makes TopK no dearer than 2·frac·raw.
    let topk = report_bytes(&lens, Some(&codec));
    let raw = report_bytes(&lens, None);
    assert!(2 * topk <= raw, "topk {topk} B against raw {raw} B");
}
