//! The flat parameter layout against the per-unit arithmetic it replaced.
//!
//! A `ParamSet` is one value buffer under a shared layout, and every pass
//! over it — Eq. 6, the optimiser step, gradient clipping, the proximal
//! penalty, the per-unit distances FedDA scores with, each codec's encode
//! and arrival decode — must give each scalar the operations it got when
//! every unit was a matrix of its own, in the same order. Each reference
//! below is written that old way, over `Vec<Vec<f32>>` units, and the two
//! must agree by `to_bits` on random layouts: 1–6 units of awkward shapes
//! (empty and single-scalar ones included), signed zeros, subnormals and
//! one huge value per set.

use fedda_data::{dblp_like, partition_non_iid, PartitionConfig, PresetOptions};
use fedda_fl::compress::{decode_arrival, Compressed, CompressedUnit};
use fedda_fl::runtime::Delivery;
use fedda_fl::{
    AggWeighting, ClientReturn, Compression, Delta, FlConfig, FlSystem, InFlight, WeightedReturn,
};
use fedda_hetgraph::split::split_edges;
use fedda_hgn::{apply_penalty_grads, HgnConfig, Penalty};
use fedda_tensor::{Adam, Matrix, ParamId, ParamSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::sync::Arc;

/// A set as it was stored before the flat buffer: one vector per unit.
type Units = Vec<Vec<f32>>;

/// 1–6 units, each `rows × cols` from sizes that straddle the kernels'
/// lane widths; a zero row count makes an empty unit.
fn shapes_strategy() -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0usize..5, 0usize..5), 1..7).prop_map(|picks| {
        (picks.into_iter())
            .map(|(r, c)| ([0, 1, 2, 3, 7][r], [1, 2, 5, 13, 33][c]))
            .collect()
    })
}

/// A scalar from the families a reordered pass would betray: signed zeros,
/// subnormals, and magnitudes over seven decades.
fn awkward(rng: &mut StdRng) -> f32 {
    let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
    match rng.gen_range(0u32..8) {
        0 => 0.0,
        1 => -0.0,
        2 => sign * f32::from_bits(rng.gen_range(1u32..0x0080_0000)),
        _ => sign * rng.gen_range(0.0f32..1.0) * 10f32.powi(rng.gen_range(-3i32..4)),
    }
}

/// Per-unit values for `shapes`, one of them ±10³⁰.
fn units_of(shapes: &[(usize, usize)], rng: &mut StdRng) -> Units {
    units_with(shapes, rng, 1e30)
}

/// Per-unit values for `shapes`, one of them `±huge`.
fn units_with(shapes: &[(usize, usize)], rng: &mut StdRng, huge: f32) -> Units {
    let mut units: Units = (shapes.iter())
        .map(|&(r, c)| (0..r * c).map(|_| awkward(rng)).collect())
        .collect();
    let filled: Vec<usize> = (0..units.len()).filter(|&k| !units[k].is_empty()).collect();
    if !filled.is_empty() {
        let unit = &mut units[filled[rng.gen_range(0..filled.len())]];
        let at = rng.gen_range(0..unit.len());
        unit[at] = if rng.gen::<bool>() { huge } else { -huge };
    }
    units
}

/// A fresh layout holding `units`.
fn set_of(shapes: &[(usize, usize)], units: &Units) -> ParamSet {
    let mut ps = ParamSet::new();
    for (k, (&(rows, cols), unit)) in shapes.iter().zip(units).enumerate() {
        ps.add(format!("u{k}"), Matrix::from_vec(rows, cols, unit.clone()));
    }
    ps
}

/// A set under `layout`'s layout holding `units`.
fn with_values(layout: &ParamSet, units: &Units) -> ParamSet {
    let mut ps = layout.clone();
    ps.values_mut().copy_from_slice(&units.concat());
    ps
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Eq. 6 as it was: one `f64` accumulator per unit.
fn aggregate_reference(global: &mut Units, contributions: &[(&Units, &[bool], f64)]) {
    let mut weight_sums = vec![0.0f64; global.len()];
    let mut sums: Vec<Vec<f64>> = global.iter().map(|u| vec![0.0; u.len()]).collect();
    for &(units, mask, w) in contributions {
        for (k, unit) in units.iter().enumerate() {
            if mask[k] {
                weight_sums[k] += w;
                for (s, &v) in sums[k].iter_mut().zip(unit) {
                    *s += w * f64::from(v);
                }
            }
        }
    }
    for (k, unit) in global.iter_mut().enumerate() {
        if weight_sums[k] > 0.0 {
            let inv = 1.0 / weight_sums[k];
            for (x, &s) in unit.iter_mut().zip(&sums[k]) {
                *x = (s * inv) as f32;
            }
        }
    }
}

/// One Adam step as it was: per-unit moments, every scalar indexed.
fn adam_reference(
    t: i32,
    lr: f32,
    values: &mut Units,
    grads: &Units,
    moments: &mut [(Vec<f32>, Vec<f32>)],
) {
    let (bc1, bc2) = (1.0 - 0.9f32.powi(t), 1.0 - 0.999f32.powi(t));
    for ((value, grad), (m, v)) in values.iter_mut().zip(grads).zip(moments) {
        for i in 0..grad.len() {
            let g = grad[i];
            m[i] = 0.9 * m[i] + (1.0 - 0.9) * g;
            v[i] = 0.999 * v[i] + (1.0 - 0.999) * g * g;
            value[i] -= lr * (m[i] / bc1) / ((v[i] / bc2).sqrt() + 1e-8);
        }
    }
}

/// Gradient clipping as it was: each unit's squared norm, then their sum.
fn clip_reference(grads: &mut Units, max_norm: f32) {
    let norm_sq: f32 = (grads.iter())
        .map(|u| u.iter().map(|&g| g * g).sum::<f32>())
        .sum();
    let norm = norm_sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let s = max_norm / norm;
        grads.iter_mut().flatten().for_each(|g| *g *= s);
    }
}

/// The penalty gradient as it was: unit by unit, the linear term read at a
/// running offset.
fn penalty_reference(
    theta: &Units,
    grads: &mut Units,
    anchor: &Units,
    mu: f32,
    linear: Option<&[f32]>,
) {
    let mut offset = 0;
    for ((t, g), r) in theta.iter().zip(grads).zip(anchor) {
        for i in 0..t.len() {
            let lin = linear.map_or(0.0, |l| l[offset + i]);
            g[i] += mu * (t[i] - r[i]) + lin;
        }
        offset += t.len();
    }
}

fn l2_reference(a: &Units, b: &Units) -> Vec<f32> {
    (a.iter().zip(b))
        .map(|(x, y)| {
            (x.iter().zip(y))
                .map(|(&p, &q)| (p - q) * (p - q))
                .sum::<f32>()
                .sqrt()
        })
        .collect()
}

/// Mask-then-compress as it was: each masked unit's pair of slices through
/// the codec's unit kernel, a unit that encodes to nothing left off.
fn compress_reference(
    codec: Compression,
    updated: &Units,
    reference: &Units,
    mask: &[bool],
) -> Compressed {
    let codec = codec.build();
    let units = (0..updated.len())
        .filter(|&k| mask[k])
        .filter_map(|k| {
            let payload = codec.encode_unit(&updated[k], &reference[k]);
            let dropped = payload.num_entries() == 0 && !updated[k].is_empty();
            (!dropped).then(|| CompressedUnit {
                unit: k,
                len: updated[k].len(),
                payload,
            })
        })
        .collect();
    Compressed { units }
}

/// The server's reconstruction as it was: the reference's units with every
/// encoded one decoded over its copy.
fn reconstruct_reference(report: &Compressed, reference: &Units) -> Units {
    let mut out = reference.clone();
    for cu in &report.units {
        cu.payload.decode_into(&mut out[cu.unit]);
    }
    out
}

/// A federation for Eq. 6's weights — its clients' sample counts under
/// `weighting`; the global model is swapped out per case.
fn federation(weighting: AggWeighting) -> FlSystem {
    let g = dblp_like(&PresetOptions {
        scale: 0.0012,
        seed: 5,
        ..Default::default()
    })
    .graph;
    let mut rng = StdRng::seed_from_u64(5);
    let split = split_edges(&g, 0.15, &mut rng);
    let pcfg = PartitionConfig::paper_defaults(4, g.schema().num_edge_types(), 5);
    let clients = partition_non_iid(&split.train, &pcfg);
    let cfg = FlConfig {
        rounds: 1,
        model: HgnConfig {
            hidden_dim: 4,
            num_layers: 1,
            num_heads: 1,
            edge_emb_dim: 4,
            ..Default::default()
        },
        weighting,
        ..Default::default()
    };
    FlSystem::new(&split.train, &split.test, clients, cfg)
}

thread_local! {
    /// One federation per weighting, built once per test thread.
    static FEDERATIONS: RefCell<[FlSystem; 2]> = RefCell::new([
        federation(AggWeighting::Uniform),
        federation(AggWeighting::BySampleCount),
    ]);
}

/// Eq. 6 over 4–6 random contributions, against the per-unit reference,
/// under both weightings. Contribution 0 is weighted zero, one unit only it
/// requests (zero total weight) and one unit nobody does: both must keep the
/// global's value. Contributions 1 and 2 come from one client at scale 1 and
/// carry `+10³⁰` and `−10³⁰` at one scalar where contribution 3 carries
/// `0.75`: summed in contribution order the two cancel and `0.75` survives,
/// summed in any other it rounds away — so the order is pinned, not just
/// the operations.
fn check_aggregate(shapes: &[(usize, usize)], rng: &mut StdRng) -> Result<(), TestCaseError> {
    let n = shapes.len();
    let global = units_of(shapes, rng);
    let mut reports: Vec<Units> = (0..rng.gen_range(4..7))
        .map(|_| units_of(shapes, rng))
        .collect();
    let dark = rng.gen_range(0..n);
    let weightless = (dark + 1) % n;
    let mut masks: Vec<Vec<bool>> = (0..reports.len())
        .map(|j| {
            (0..n)
                .map(|k| match k {
                    _ if k == dark => false,
                    _ if k == weightless => j == 0,
                    _ => rng.gen_range(0u32..4) > 0,
                })
                .collect()
        })
        .collect();
    let scales: Vec<f64> = (0..reports.len())
        .map(|j| match (j, rng.gen_range(0u32..4)) {
            (1 | 2, _) => 1.0,
            (0, _) | (4.., 0) => 0.0,
            (_, 1) => 1.0,
            (_, 2) => 0.25,
            _ => rng.gen_range(0.01f64..3.0),
        })
        .collect();
    let mut clients: Vec<usize> = reports.iter().map(|_| rng.gen_range(0..4)).collect();
    clients[2] = clients[1];
    let open = (0..n).find(|&k| k != dark && k != weightless && shapes[k].0 * shapes[k].1 > 0);
    if let Some(u) = open {
        let at = rng.gen_range(0..reports[0][u].len());
        for (j, value) in [(1, 1e30), (2, -1e30), (3, 0.75)] {
            reports[j][u][at] = value;
            masks[j][u] = true;
        }
    }
    FEDERATIONS.with(|federations| {
        for sys in federations.borrow_mut().iter_mut() {
            sys.global = set_of(shapes, &global);
            let returns: Vec<ClientReturn> = (reports.iter().zip(&clients))
                .map(|(units, &client)| ClientReturn {
                    client,
                    params: with_values(&sys.global, units),
                    unit_delta: Vec::new(),
                })
                .collect();
            let contributions: Vec<WeightedReturn<'_>> = (returns.iter().zip(&masks))
                .zip(&scales)
                .map(|((ret, mask), &scale)| WeightedReturn { ret, mask, scale })
                .collect();
            sys.aggregate_weighted(&contributions);
            let weighted: Vec<(&Units, &[bool], f64)> = (reports.iter().zip(&masks))
                .zip(clients.iter().zip(&scales))
                .map(|((units, mask), (&client, &scale))| {
                    let base = match sys.config().weighting {
                        AggWeighting::Uniform => 1.0,
                        AggWeighting::BySampleCount => {
                            sys.clients[client].positives.len().max(1) as f64
                        }
                    };
                    (units, mask.as_slice(), base * scale)
                })
                .collect();
            let mut want = global.clone();
            aggregate_reference(&mut want, &weighted);
            prop_assert_eq!(bits(sys.global.values()), bits(&want.concat()));
            for k in [dark, weightless] {
                prop_assert_eq!(
                    bits(sys.global.unit(ParamId::from_index(k))),
                    bits(&global[k])
                );
            }
        }
        Ok(())
    })
}

/// Three optimiser steps, clipping, and the penalty with and without its
/// linear term, each against its per-unit reference.
fn check_training_passes(shapes: &[(usize, usize)], rng: &mut StdRng) -> Result<(), TestCaseError> {
    let theta = units_of(shapes, rng);
    let layout = set_of(shapes, &theta);

    let lr = [1e-3f32, 0.01, 0.3][rng.gen_range(0usize..3)];
    let mut ps = layout.clone();
    let mut adam = Adam::new(lr);
    let mut want = theta.clone();
    let mut moments: Vec<(Vec<f32>, Vec<f32>)> = (want.iter())
        .map(|u| (vec![0.0; u.len()], vec![0.0; u.len()]))
        .collect();
    for t in 1..=3 {
        let grads = units_of(shapes, rng);
        ps.values_and_grads_mut().1.copy_from_slice(&grads.concat());
        adam.step(&mut ps);
        adam_reference(t, lr, &mut want, &grads, &mut moments);
        prop_assert_eq!(bits(ps.values()), bits(&want.concat()), "adam step {}", t);
    }

    // A squared 10³⁰ overflows whatever the order; 10³ still dominates.
    let max_norm = [1e-3f32, 0.5, 5.0, 1e31][rng.gen_range(0usize..4)];
    let mut grads = units_with(shapes, rng, 1e3);
    let mut ps = layout.clone();
    ps.values_and_grads_mut().1.copy_from_slice(&grads.concat());
    ps.clip_grad_norm(max_norm);
    clip_reference(&mut grads, max_norm);
    prop_assert_eq!(bits(ps.grads()), bits(&grads.concat()), "clip {}", max_norm);

    let anchor = units_of(shapes, rng);
    let anchor_set = with_values(&layout, &anchor);
    let mu = [0.0f32, 0.01, 1.0][rng.gen_range(0usize..3)];
    let linear: Vec<f32> = units_of(shapes, rng).concat();
    for linear in [None, Some(linear.as_slice())] {
        let mut grads = units_of(shapes, rng);
        let mut ps = layout.clone();
        ps.values_and_grads_mut().1.copy_from_slice(&grads.concat());
        let penalty = Penalty {
            prox_mu: mu,
            reference: &anchor_set,
            linear,
        };
        apply_penalty_grads(&mut ps, &penalty);
        penalty_reference(&theta, &mut grads, &anchor, mu, linear);
        prop_assert_eq!(bits(ps.grads()), bits(&grads.concat()), "penalty");
    }
    Ok(())
}

/// Per-unit distances, then every codec's encode and arrival decode — into
/// the report's own buffer and into a released one — against the per-unit
/// pipeline.
fn check_uplink(shapes: &[(usize, usize)], rng: &mut StdRng) -> Result<(), TestCaseError> {
    let reference_units = units_of(shapes, rng);
    let updated_units = units_of(shapes, rng);
    let reference = Arc::new(set_of(shapes, &reference_units));
    let updated = with_values(&reference, &updated_units);
    let distances = updated.unit_l2_distances(&reference);
    let want_distances = l2_reference(&updated_units, &reference_units);
    prop_assert_eq!(bits(&distances), bits(&want_distances));

    let mask: Vec<bool> = shapes.iter().map(|_| rng.gen_range(0u32..4) > 0).collect();
    let frac = rng.gen_range(0.01f64..=0.5);
    for codec in [
        Compression::Identity,
        Compression::QuantI8,
        Compression::QuantF16,
        Compression::TopK { frac },
    ] {
        let report = codec.build().compress(&Delta {
            updated: &updated,
            reference: &reference,
            mask: &mask,
        });
        let want_report = compress_reference(codec, &updated_units, &reference_units, &mask);
        prop_assert_eq!(&report, &want_report, "{:?}", codec);
        let want = reconstruct_reference(&want_report, &reference_units);
        let want_delta = l2_reference(&want, &reference_units);
        let mut released = updated.clone();
        released.release();
        for buffer in [updated.clone(), released] {
            let mut d = Delivery {
                client: 1,
                dispatch_pos: 0,
                dispatch_round: 0,
                ret: ClientReturn {
                    client: 1,
                    params: buffer,
                    unit_delta: Vec::new(),
                },
                mask: mask.clone(),
                charge: report.charge(),
                payload: Some(InFlight {
                    report: report.clone(),
                    reference: Arc::clone(&reference),
                }),
            };
            decode_arrival(&mut d);
            prop_assert_eq!(
                bits(d.ret.params.values()),
                bits(&want.concat()),
                "{:?}",
                codec
            );
            prop_assert_eq!(bits(&d.ret.unit_delta), bits(&want_delta), "{:?}", codec);
            prop_assert!(
                d.ret.params.grads().is_empty(),
                "a decoded report holds gradients"
            );
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn flat_passes_equal_their_per_unit_references(
        shapes in shapes_strategy(),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        check_aggregate(&shapes, &mut rng)?;
        check_training_passes(&shapes, &mut rng)?;
        check_uplink(&shapes, &mut rng)?;
    }
}

/// A report comes back from the worker pool as values only, under the
/// layout of the global model it was trained from.
#[test]
fn reports_are_values_only_under_the_global_layout() {
    FEDERATIONS.with(|federations| {
        let sys = &federations.borrow()[0];
        for ret in sys.run_local_round_with(&[0, 1, 2, 3], 0, &[]) {
            assert!(ret.params.shares_layout(&sys.global));
            assert!(ret.params.grads().is_empty(), "client {}", ret.client);
            assert_eq!(ret.params.values().len(), sys.global.num_scalars());
        }
        assert!(sys.global.grads().is_empty());
    });
}
