//! Golden-curve regression tests: seeded runs of every protocol pinned to
//! the exact AUC/MRR curves and uplink totals they produced *before* the
//! `FlProtocol`/`RoundDriver` refactor. The driver must reproduce these
//! bit-for-bit — same RNG stream derivations, same round structure.
//!
//! If a PR intentionally changes training numerics, regenerate the pins:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test -p fedda-fl --test golden_curves -- --nocapture
//! ```
//!
//! and paste the printed literals back into this file.

use fedda_data::{dblp_like, partition_non_iid, PartitionConfig, PresetOptions};
use fedda_fl::{
    baselines, AsyncConfig, AsyncDriver, Compression, FedAdam, FedAvg, FedDa, FedDyn, FedProx,
    FlConfig, FlSystem, RoundDriver, RunResult,
};
use fedda_hetgraph::split::split_edges;
use fedda_hgn::{HgnConfig, TrainConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

const M: usize = 5;
const ROUNDS: usize = 5;
const SEED: u64 = 42;

fn golden_system() -> FlSystem {
    golden_system_with_epochs(1)
}

/// The golden federation with a configurable local-epoch count. The
/// FedProx pins use two local epochs: with a single local gradient step
/// the client starts exactly at the broadcast anchor, the proximal
/// gradient `μ(θ − θ^t)` is identically zero, and the pin would be
/// vacuously equal to a FedAvg trajectory.
fn golden_system_with_epochs(local_epochs: usize) -> FlSystem {
    let g = dblp_like(&PresetOptions {
        scale: 0.0015,
        seed: SEED,
        ..Default::default()
    })
    .graph;
    let mut rng = StdRng::seed_from_u64(SEED);
    let split = split_edges(&g, 0.15, &mut rng);
    let pcfg = PartitionConfig::paper_defaults(M, g.schema().num_edge_types(), SEED);
    let clients = partition_non_iid(&split.train, &pcfg);
    let cfg = FlConfig {
        rounds: ROUNDS,
        model: HgnConfig {
            hidden_dim: 4,
            num_layers: 1,
            num_heads: 2,
            edge_emb_dim: 4,
            ..Default::default()
        },
        train: TrainConfig {
            local_epochs,
            lr: 5e-3,
            ..Default::default()
        },
        eval_negatives: 3,
        seed: SEED,
        parallel: true,
        ..Default::default()
    };
    FlSystem::new(&split.train, &split.test, clients, cfg)
}

/// Pinned expectation for one protocol.
struct Golden {
    name: &'static str,
    auc: &'static [f64],
    mrr: &'static [f64],
    uplink_units: usize,
}

fn check(result: &RunResult, golden: &Golden) {
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        let aucs: Vec<f64> = result.curve.iter().map(|e| e.roc_auc).collect();
        let mrrs: Vec<f64> = result.curve.iter().map(|e| e.mrr).collect();
        println!("// --- {} ---", golden.name);
        println!("auc: &{aucs:?},");
        println!("mrr: &{mrrs:?},");
        println!("uplink_units: {},", result.comm.total_uplink_units());
        return;
    }
    assert_eq!(
        result.curve.len(),
        golden.auc.len(),
        "{}: curve length",
        golden.name
    );
    for (i, eval) in result.curve.iter().enumerate() {
        assert_eq!(eval.round, i, "{}: round index", golden.name);
        assert_eq!(
            eval.roc_auc.to_bits(),
            golden.auc[i].to_bits(),
            "{}: AUC at round {i}: {} != {}",
            golden.name,
            eval.roc_auc,
            golden.auc[i]
        );
        assert_eq!(
            eval.mrr.to_bits(),
            golden.mrr[i].to_bits(),
            "{}: MRR at round {i}: {} != {}",
            golden.name,
            eval.mrr,
            golden.mrr[i]
        );
    }
    assert_eq!(
        result.comm.total_uplink_units(),
        golden.uplink_units,
        "{}: total uplink units",
        golden.name
    );
    assert_eq!(
        result.final_eval.roc_auc.to_bits(),
        golden.auc.last().unwrap().to_bits(),
        "{}: final eval matches last curve point",
        golden.name
    );
}

#[test]
fn golden_fedavg_vanilla() {
    let mut sys = golden_system();
    let result = FedAvg::vanilla().run(&mut sys);
    check(
        &result,
        &Golden {
            name: "FedAvg",
            auc: &[
                0.5345061697781892,
                0.5586623139331556,
                0.5791141115078577,
                0.5895839876898322,
                0.5994022051584416,
            ],
            mrr: &[
                0.5556128437290417,
                0.5683140509725034,
                0.5747191482226709,
                0.5863388665325302,
                0.5975994858037131,
            ],
            uplink_units: 625,
        },
    );
}

#[test]
fn golden_fedavg_half_half() {
    let mut sys = golden_system();
    let result = FedAvg::with_fractions(0.5, 0.5).run(&mut sys);
    check(
        &result,
        &Golden {
            name: "FedAvg(C=0.5,D=0.5)",
            auc: &[
                0.5233126556679671,
                0.5468911867133947,
                0.5665509259259259,
                0.5736594760923391,
                0.5926152080715907,
            ],
            mrr: &[
                0.5503912363067303,
                0.5605480102839273,
                0.5634864744019689,
                0.5760381734853584,
                0.5938729599821168,
            ],
            uplink_units: 195,
        },
    );
}

#[test]
fn golden_fedda_restart() {
    let mut sys = golden_system();
    let result = FedDa::restart().run(&mut sys);
    check(
        &result,
        &Golden {
            name: "FedDA-Restart",
            auc: &[
                0.5345061697781892,
                0.5507348997479924,
                0.5620398840618043,
                0.5790008619137884,
                0.589422694552815,
            ],
            mrr: &[
                0.5556128437290417,
                0.5603426112228945,
                0.5644967024368447,
                0.5814581936060824,
                0.5892759333780476,
            ],
            uplink_units: 466,
        },
    );
}

#[test]
fn golden_fedda_explore() {
    let mut sys = golden_system();
    let result = FedDa::explore().run(&mut sys);
    check(
        &result,
        &Golden {
            name: "FedDA-Explore",
            auc: &[
                0.5345061697781892,
                0.5507348997479924,
                0.5685399400839046,
                0.5874738601798585,
                0.6009091192958481,
            ],
            mrr: &[
                0.5556128437290417,
                0.5603426112228945,
                0.5684202436843299,
                0.5879135926671153,
                0.5973270176615267,
            ],
            uplink_units: 392,
        },
    );
}

#[test]
fn golden_async_fedavg_vanilla() {
    // The buffered-asynchronous runtime gets its own pins: K = 2 with
    // γ = 0.9 on the same seeded federation. These seal the async event
    // order, staleness weighting and arrival accounting bit-for-bit.
    let mut sys = golden_system();
    let result = AsyncDriver::new(AsyncConfig { k: 2, gamma: 0.9 })
        .run(&mut FedAvg::vanilla(), &mut sys)
        .expect("golden async run");
    check(
        &result,
        &Golden {
            name: "async FedAvg (K=2, gamma=0.9)",
            auc: &[
                0.5363554730836768,
                0.5405683809429346,
                0.5435644153129523,
                0.5537101554291843,
                0.5769569736494082,
            ],
            mrr: &[
                0.5577366979655723,
                0.555626816454283,
                0.5555248155600281,
                0.5638944779789864,
                0.5853635703107553,
            ],
            uplink_units: 250,
        },
    );
}

#[test]
fn golden_async_fedda_explore() {
    let mut sys = golden_system();
    let result = AsyncDriver::new(AsyncConfig { k: 2, gamma: 0.9 })
        .run(&mut FedDa::explore().protocol(), &mut sys)
        .expect("golden async run");
    check(
        &result,
        &Golden {
            name: "async FedDA-Explore (K=2, gamma=0.9)",
            auc: &[
                0.5363554730836768,
                0.5405683809429346,
                0.5324176245527416,
                0.5680113463120927,
                0.5456701230465737,
            ],
            mrr: &[
                0.5577366979655723,
                0.555626816454283,
                0.5440601945003364,
                0.5758062262463689,
                0.5588573105298466,
            ],
            uplink_units: 239,
        },
    );
}

#[test]
fn golden_fedprox() {
    // Two local epochs so the proximal gradient actually bites (see
    // `golden_system_with_epochs`); μ = 0.1 is inside the paper's sweep.
    let mut sys = golden_system_with_epochs(2);
    let result = FedProx::new(0.1).run(&mut sys);
    check(
        &result,
        &Golden {
            name: "FedProx(mu=0.1)",
            auc: &[
                0.5607446025920783,
                0.5925200393807813,
                0.6061676773604591,
                0.6174080296200783,
                0.6238501119523611,
            ],
            mrr: &[
                0.5691496199418747,
                0.5899578023697762,
                0.5960163760339834,
                0.6089341605186692,
                0.6171822602280367,
            ],
            uplink_units: 625,
        },
    );
}

#[test]
fn golden_feddyn() {
    let mut sys = golden_system();
    let result = FedDyn::new(0.01).run(&mut sys);
    check(
        &result,
        &Golden {
            name: "FedDyn(alpha=0.01)",
            auc: &[
                0.5626007364610196,
                0.6121640510774611,
                0.6305923372787586,
                0.6411825232170277,
                0.6434809217196764,
            ],
            mrr: &[
                0.5693061144645665,
                0.5992859937402212,
                0.6168203666443116,
                0.6259780907668244,
                0.6405865750055906,
            ],
            uplink_units: 625,
        },
    );
}

#[test]
fn golden_fedadam() {
    let mut sys = golden_system();
    let result = FedAdam::new(0.01).run(&mut sys);
    check(
        &result,
        &Golden {
            name: "FedAdam(lr=0.01)",
            auc: &[
                0.5642674513434284,
                0.6036691261287076,
                0.6222254136451468,
                0.630703520483884,
                0.6332669907682926,
            ],
            mrr: &[
                0.5723381958417184,
                0.5936172591102192,
                0.6119061591772876,
                0.6156704113570325,
                0.6281955622624652,
            ],
            uplink_units: 625,
        },
    );
}

#[test]
fn golden_async_fedprox() {
    let mut sys = golden_system_with_epochs(2);
    let result = AsyncDriver::new(AsyncConfig { k: 2, gamma: 0.9 })
        .run(&mut FedProx::new(0.1), &mut sys)
        .expect("golden async run");
    check(
        &result,
        &Golden {
            name: "async FedProx(mu=0.1) (K=2, gamma=0.9)",
            auc: &[
                0.5629403704438419,
                0.5718306644772128,
                0.5703008478623436,
                0.583364960564115,
                0.6121060199879507,
            ],
            mrr: &[
                0.5723954840152037,
                0.5739562374245495,
                0.5700047507265831,
                0.584979320366646,
                0.6156270959087875,
            ],
            uplink_units: 250,
        },
    );
}

#[test]
fn golden_async_feddyn() {
    let mut sys = golden_system();
    let result = AsyncDriver::new(AsyncConfig { k: 2, gamma: 0.9 })
        .run(&mut FedDyn::new(0.01).protocol(), &mut sys)
        .expect("golden async run");
    check(
        &result,
        &Golden {
            name: "async FedDyn(alpha=0.01) (K=2, gamma=0.9)",
            auc: &[
                0.548277504096042,
                0.5498108794918704,
                0.5589690004922597,
                0.5727839011770152,
                0.5991398885619402,
            ],
            mrr: &[
                0.5630183881064172,
                0.559752962217753,
                0.562309970936733,
                0.5730214621059709,
                0.6025108987256895,
            ],
            uplink_units: 250,
        },
    );
}

#[test]
fn golden_async_fedadam() {
    let mut sys = golden_system();
    let result = AsyncDriver::new(AsyncConfig { k: 2, gamma: 0.9 })
        .run(&mut FedAdam::new(0.01).protocol(), &mut sys)
        .expect("golden async run");
    check(
        &result,
        &Golden {
            name: "async FedAdam(lr=0.01) (K=2, gamma=0.9)",
            auc: &[
                0.5569088107150991,
                0.5667173850353031,
                0.5660040216520825,
                0.5678609591167243,
                0.5839737991065853,
            ],
            mrr: &[
                0.5702660406885772,
                0.571706628660856,
                0.5707802369774216,
                0.5734797674938535,
                0.5921710820478445,
            ],
            uplink_units: 250,
        },
    );
}

/// Run one protocol on the golden federation with and without `Identity`
/// compression and insist the two runs are byte-for-byte the same — the
/// whole Compressor stage (encode at dispatch, decode at arrival, charge
/// accounting) must be invisible under the lossless codec. The only
/// permitted difference is none at all: even the comm ledger matches,
/// because `Identity`'s wire cost is exactly the uncompressed 4 bytes per
/// masked scalar.
fn assert_identity_is_invisible(name: &str, run: impl Fn(&mut FlSystem) -> RunResult) {
    let mut plain_sys = golden_system();
    let plain = run(&mut plain_sys);
    let mut ident_sys = golden_system();
    ident_sys.set_compression(Some(Compression::Identity));
    let ident = run(&mut ident_sys);

    assert_eq!(plain.curve.len(), ident.curve.len(), "{name}: curve length");
    for (p, i) in plain.curve.iter().zip(&ident.curve) {
        assert_eq!(p.round, i.round, "{name}: round index");
        assert_eq!(
            p.roc_auc.to_bits(),
            i.roc_auc.to_bits(),
            "{name}: AUC diverged at round {}",
            p.round
        );
        assert_eq!(
            p.mrr.to_bits(),
            i.mrr.to_bits(),
            "{name}: MRR diverged at round {}",
            p.round
        );
    }
    assert_eq!(
        plain.comm.rounds(),
        ident.comm.rounds(),
        "{name}: comm ledgers diverged"
    );
    for rc in ident.comm.rounds() {
        assert_eq!(
            rc.uplink_bytes,
            4 * rc.uplink_scalars,
            "{name}: Identity must charge exactly 4 bytes per masked scalar"
        );
    }
    assert_eq!(
        plain.activation_trace, ident.activation_trace,
        "{name}: activation traces diverged"
    );
    let plain_bits: Vec<u32> = plain_sys
        .global
        .flatten()
        .iter()
        .map(|x| x.to_bits())
        .collect();
    let ident_bits: Vec<u32> = ident_sys
        .global
        .flatten()
        .iter()
        .map(|x| x.to_bits())
        .collect();
    assert_eq!(plain_bits, ident_bits, "{name}: final parameters diverged");
}

#[test]
fn golden_identity_compression_matches_uncompressed_fedavg() {
    assert_identity_is_invisible("FedAvg + ident", |sys| FedAvg::vanilla().run(sys));
}

#[test]
fn golden_identity_compression_matches_uncompressed_fedda_explore() {
    assert_identity_is_invisible("FedDA-Explore + ident", |sys| FedDa::explore().run(sys));
}

#[test]
fn golden_identity_compression_matches_uncompressed_async() {
    // The async runtime's own arrival path (staleness weighting, buffered
    // aggregation) must be equally blind to the lossless codec.
    for (name, which) in [
        ("async FedAvg + ident", 0usize),
        ("async FedDA-Explore + ident", 1),
    ] {
        assert_identity_is_invisible(name, |sys| {
            let acfg = AsyncConfig { k: 2, gamma: 0.9 };
            match which {
                0 => AsyncDriver::new(acfg).run(&mut FedAvg::vanilla(), sys),
                _ => AsyncDriver::new(acfg).run(&mut FedDa::explore().protocol(), sys),
            }
            .expect("golden async run")
        });
    }
}

/// Pinned trajectory of one lossy-codec run: the curve and uplink units
/// as in [`Golden`], plus the ledgered wire bytes and an FNV-1a fingerprint
/// of the final parameters' bit patterns. Recorded on the commit *before*
/// the q8 kernel, top-k selection and arrival decode were rewritten, so
/// those rewrites are held to the old bytes and the old floats.
struct CodecGolden {
    golden: Golden,
    uplink_bytes: usize,
    params_fnv: u64,
}

fn params_fnv(system: &FlSystem) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in system.global.flatten() {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn check_codec(result: &RunResult, system: &FlSystem, pin: &CodecGolden) {
    check(result, &pin.golden);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        println!("uplink_bytes: {},", result.comm.total_uplink_bytes());
        println!("params_fnv: {:#018x},", params_fnv(system));
        return;
    }
    assert_eq!(
        result.comm.total_uplink_bytes(),
        pin.uplink_bytes,
        "{}: total uplink bytes",
        pin.golden.name
    );
    assert_eq!(
        params_fnv(system),
        pin.params_fnv,
        "{}: final-parameter fingerprint",
        pin.golden.name
    );
}

fn run_codec(compression: Compression, asynchronous: bool) -> (RunResult, FlSystem) {
    let mut sys = golden_system();
    sys.set_compression(Some(compression));
    let mut protocol = FedDa::explore().protocol();
    let result = if asynchronous {
        AsyncDriver::new(AsyncConfig { k: 2, gamma: 0.9 }).run(&mut protocol, &mut sys)
    } else {
        RoundDriver::new().run(&mut protocol, &mut sys)
    }
    .expect("golden codec run");
    (result, sys)
}

#[test]
fn golden_q8_fedda_explore() {
    let (result, sys) = run_codec(Compression::QuantI8, false);
    check_codec(
        &result,
        &sys,
        &CodecGolden {
            golden: Golden {
                name: "FedDA-Explore + q8",
                auc: &[
                    0.534506284577575,
                    0.5556316675483259,
                    0.579279996620306,
                    0.5915067626022174,
                    0.6015209426223486,
                ],
                mrr: &[
                    0.5556128437290417,
                    0.566095182204339,
                    0.5733987256874598,
                    0.5886862843729057,
                    0.6008188016990856,
                ],
                uplink_units: 443,
            },
            uplink_bytes: 18008,
            params_fnv: 0x4959_c081_b624_1754,
        },
    );
}

#[test]
fn golden_topk_fedda_explore() {
    let (result, sys) = run_codec(Compression::TopK { frac: 0.25 }, false);
    check_codec(
        &result,
        &sys,
        &CodecGolden {
            golden: Golden {
                name: "FedDA-Explore + topk:0.25",
                auc: &[
                    0.5151271150638835,
                    0.5227712617646411,
                    0.5299614916940348,
                    0.5371513198255784,
                    0.5487376774339306,
                ],
                mrr: &[
                    0.5421571093226029,
                    0.545591605186677,
                    0.5449139280125209,
                    0.5546207802369788,
                    0.5652554214173946,
                ],
                uplink_units: 406,
            },
            uplink_bytes: 35936,
            params_fnv: 0x4fcb_bd2c_b1b7_27db,
        },
    );
}

#[test]
fn golden_async_q8_fedda_explore() {
    let (result, sys) = run_codec(Compression::QuantI8, true);
    check_codec(
        &result,
        &sys,
        &CodecGolden {
            golden: Golden {
                name: "async FedDA-Explore + q8 (K=2, gamma=0.9)",
                auc: &[
                    0.5363554730836768,
                    0.5405683809429346,
                    0.5435638987157163,
                    0.5537101554291843,
                    0.5769826313121295,
                ],
                mrr: &[
                    0.5577366979655723,
                    0.555626816454283,
                    0.5558182427900751,
                    0.5638944779789864,
                    0.5853635703107553,
                ],
                uplink_units: 241,
            },
            uplink_bytes: 9984,
            params_fnv: 0x9993_1119_32a5_1aa1,
        },
    );
}

#[test]
fn golden_async_topk_fedda_explore() {
    let (result, sys) = run_codec(Compression::TopK { frac: 0.25 }, true);
    check_codec(
        &result,
        &sys,
        &CodecGolden {
            golden: Golden {
                name: "async FedDA-Explore + topk:0.25 (K=2, gamma=0.9)",
                auc: &[
                    0.5155856238106784,
                    0.5168248831801451,
                    0.5163892195111199,
                    0.5181785401375388,
                    0.5286605850544057,
                ],
                mrr: &[
                    0.5427928683210379,
                    0.5411412921976315,
                    0.5360216856695743,
                    0.5425902638050537,
                    0.5482268611670028,
                ],
                uplink_units: 222,
            },
            uplink_bytes: 19936,
            params_fnv: 0x9c0b_0612_1172_96aa,
        },
    );
}

#[test]
fn golden_global_baseline() {
    let mut sys = golden_system();
    let result = baselines::run_global(&mut sys);
    check(
        &result,
        &Golden {
            name: "Global",
            auc: &[
                0.6515513759395182,
                0.6749441615787579,
                0.716991158610505,
                0.7519739180387489,
                0.7539756749285489,
            ],
            mrr: &[
                0.6348074558461893,
                0.6606234630002241,
                0.698883579253298,
                0.7244676391683443,
                0.728164822266935,
            ],
            uplink_units: 0,
        },
    );
}
