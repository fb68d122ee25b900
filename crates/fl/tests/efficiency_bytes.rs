//! Cross-check of the analytic per-codec byte model (ROADMAP item 4(b))
//! against the communication ledger: on a FedAvg run with full
//! participation and full masks, every selected client uploads every unit
//! each round, so the ledgered uplink bytes must equal
//! `rounds × M × report_bytes(unit_lens, codec)` exactly — no tolerance.
//! The closed form is written here from the wire format, apart from the
//! codec it checks.

mod common;

use fedda_fl::{Compression, FedAvg, FlSystem, RuntimeMode};

/// Exact wire bytes of one fully-transmitted parameter unit of `len`
/// scalars under `codec`: `None`/`Identity` 4·len, `QuantF16` 2·len,
/// `QuantI8` 1·len, `TopK` 8 bytes per kept scalar with `k = ⌊frac·len⌋`.
/// Per-unit metadata (the `QuantI8` scale, the `TopK` length header) is
/// excluded by the same convention the ledger uses.
fn unit_bytes(len: usize, codec: Option<&Compression>) -> usize {
    match codec {
        None | Some(Compression::Identity) => 4 * len,
        Some(Compression::QuantF16) => 2 * len,
        Some(Compression::QuantI8) => len,
        Some(Compression::TopK { frac }) => 8 * common::k_of(*frac, len),
    }
}

/// Exact wire bytes of one full (all units, no masking) client report
/// whose units have `unit_lens` scalars each, under `codec`.
fn report_bytes(unit_lens: &[usize], codec: Option<&Compression>) -> usize {
    unit_lens.iter().map(|&len| unit_bytes(len, codec)).sum()
}

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

#[test]
fn unit_bytes_matches_codec_wire_format() {
    assert_eq!(unit_bytes(10, None), 40);
    assert_eq!(unit_bytes(10, Some(&Compression::Identity)), 40);
    assert_eq!(unit_bytes(10, Some(&Compression::QuantF16)), 20);
    assert_eq!(unit_bytes(10, Some(&Compression::QuantI8)), 10);
    // k = floor(0.25 * 10) = 2 kept scalars at 8 bytes each.
    assert_eq!(unit_bytes(10, Some(&Compression::TopK { frac: 0.25 })), 16);
    assert_eq!(unit_bytes(3, Some(&Compression::TopK { frac: 0.25 })), 0);
}

#[test]
fn codec_byte_factor_against_raw() {
    let lens = [10, 7, 3];
    let raw = report_bytes(&lens, None);
    assert_eq!(raw, 80);
    assert_eq!(report_bytes(&lens, Some(&Compression::Identity)), raw);
    assert_eq!(
        report_bytes(&lens, Some(&Compression::QuantF16)),
        raw / 2,
        "f16 halves the wire"
    );
    assert_eq!(report_bytes(&lens, Some(&Compression::QuantI8)), raw / 4);
    // TopK floors per unit: k = 5 + 3 + 1 = 9 of 20 scalars, 8 B each.
    let topk = report_bytes(&lens, Some(&Compression::TopK { frac: 0.5 }));
    assert_eq!(topk, 72);
    assert_eq!(report_bytes(&[], Some(&Compression::QuantI8)), 0);
}
