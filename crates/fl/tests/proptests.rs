//! Property-based tests of the FL layer's pure logic: the analytic
//! communication model, the comm accounting, the fault-injection
//! configuration/renormalisation rules, the protocol-zoo math helpers
//! (FedProx proximal term, FedDyn h update, FedAdam moment update), and
//! the uplink compression codecs' error bounds and byte accounting.

use fedda_fl::analysis::{
    explore_expected_units, explore_ratio_bound, restart_expected_units, restart_period,
    restart_ratio, EfficiencyInputs,
};
use fedda_fl::compress::{k_of, top_k_positions, Identity, Payload, QuantF16, QuantI8, TopK};
use fedda_fl::{
    feddyn::update_h, fedopt::adam_update, fedprox::proximal_term, renormalize, CommLog,
    Compressor, Corruption, FaultConfig, FaultPlan, RoundComm, StalenessPolicy,
};
use proptest::prelude::*;

/// Matched `(updated, reference)` slices of the same length — one unit's
/// worth of parameters as the codecs see them.
fn unit_strategy() -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    prop::collection::vec((-100.0f32..100.0, -100.0f32..100.0), 1..64)
        .prop_map(|pairs| pairs.into_iter().unzip())
}

/// The scalar `i8` encoder the two-pass kernel replaced, kept as its
/// oracle: an `f32::max` chain for the scale, then per scalar
/// `(f64(δ) / f64(scale)).round().clamp(±127)` through `i64`.
fn q8_oracle(updated: &[f32], reference: &[f32]) -> (f32, Vec<i8>) {
    let mut max_abs = 0.0f32;
    let mut finite = true;
    for (&u, &r) in updated.iter().zip(reference) {
        let d = u - r;
        if !d.is_finite() {
            finite = false;
        }
        max_abs = max_abs.max(d.abs());
    }
    let scale = if finite { max_abs / 127.0 } else { f32::NAN };
    let codes = updated
        .iter()
        .zip(reference)
        .map(|(&u, &r)| {
            if scale > 0.0 {
                let q = (f64::from(u - r) / f64::from(scale))
                    .round()
                    .clamp(-127.0, 127.0);
                i8::try_from(q as i64).unwrap_or(0)
            } else {
                0
            }
        })
        .collect();
    (scale, codes)
}

/// One unit's `(updated, reference)` from the families the q8 kernel's
/// bit-exact contract names. All but the last use a zero reference, so the
/// delta the codec sees is the generated value exactly.
fn q8_unit_strategy() -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    let zero_ref = |deltas: Vec<f32>| {
        let reference = vec![0.0f32; deltas.len()];
        (deltas, reference)
    };
    // `step = m · 2^e` is exactly the scale of a unit whose largest delta
    // is `127 · step`, and every `(k + ½) · step` is exactly representable:
    // the quotients land *on* the rounding boundaries, in both signs and
    // past the clamp. Exponents reach down into subnormal steps.
    let ties = (
        1u32..4096,
        -148i32..=80,
        prop::collection::vec(-130i32..=130, 1..48),
    )
        .prop_map(|(m, e, ks)| {
            let step = f64::from(m) * 2f64.powi(e);
            let mut deltas: Vec<f32> = ks
                .iter()
                .map(|&k| ((f64::from(k) + 0.5) * step) as f32)
                .collect();
            deltas.push((127.0 * step) as f32);
            deltas
        });
    // A few units in the last place of the subnormal range: `max / 127`
    // underflows to zero or rounds to one ULP, far from `max / 127`.
    let underflow = prop::collection::vec((0u32..400, any::<bool>()), 1..48).prop_map(|js| {
        js.into_iter()
            .map(|(j, neg)| f32::from_bits(j | (u32::from(neg) << 31)))
            .collect::<Vec<f32>>()
    });
    // Every finite bit pattern, signed zeros and subnormals included.
    let any_finite = prop::collection::vec(any::<u32>(), 1..48).prop_map(|bits| {
        bits.into_iter()
            .map(f32::from_bits)
            .map(|x| if x.is_finite() { x } else { 0.0 })
            .collect::<Vec<f32>>()
    });
    let huge = prop::collection::vec(-1.0f32..1.0, 1..48)
        .prop_map(|v| v.into_iter().map(|x| x * 1e30).collect::<Vec<f32>>());
    let zeros = prop::collection::vec(any::<bool>(), 1..48).prop_map(|v| {
        v.into_iter()
            .map(|neg| if neg { -0.0f32 } else { 0.0 })
            .collect::<Vec<f32>>()
    });
    // One non-finite delta among ordinary ones poisons the whole unit.
    let poisoned = (
        prop::collection::vec(-10.0f32..10.0, 1..48),
        any::<usize>(),
        0usize..3,
    )
        .prop_map(|(mut v, at, which)| {
            let at = at % v.len();
            v[at] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][which];
            v
        });
    prop_oneof![
        ties.prop_map(zero_ref),
        underflow.prop_map(zero_ref),
        any_finite.prop_map(zero_ref),
        huge.prop_map(zero_ref),
        zeros.prop_map(zero_ref),
        poisoned.prop_map(zero_ref),
        unit_strategy(),
    ]
}

fn inputs_strategy() -> impl Strategy<Value = EfficiencyInputs> {
    (2usize..64, 10usize..200, 0.05f64..0.99, 0.0f64..0.99).prop_flat_map(|(m, n, r_c, r_p)| {
        (1usize..=n / 2).prop_map(move |n_d| EfficiencyInputs {
            m,
            n,
            n_d,
            r_c,
            r_p,
        })
    })
}

/// Corruption kinds with valid parameters.
fn corruption_strategy() -> impl Strategy<Value = Corruption> {
    prop_oneof![
        Just(Corruption::NaN),
        Just(Corruption::Inf),
        (0.5f32..1e6).prop_map(|scale| Corruption::Garbage { scale }),
    ]
}

/// Staleness policies with valid parameters.
fn staleness_strategy() -> impl Strategy<Value = StalenessPolicy> {
    prop_oneof![
        Just(StalenessPolicy::Discard),
        (0.01f64..=1.0).prop_map(|gamma| StalenessPolicy::Discount { gamma }),
    ]
}

/// Valid fault configurations: three rates scaled so their sum stays in
/// `[0, 1]`, a positive staleness bound, valid kind/policy parameters.
fn fault_config_strategy() -> impl Strategy<Value = FaultConfig> {
    (
        (0.0f64..=1.0, 0.0f64..=1.0, 0.0f64..=1.0),
        1usize..6,
        corruption_strategy(),
        staleness_strategy(),
        prop::option::of(0.1f32..1e6),
    )
        .prop_map(|((a, b, c), max_staleness, kind, policy, maxnorm)| {
            // The 0.999 headroom keeps the rescaled rates' sum strictly
            // under 1 despite rounding in the three divisions.
            let total = (a + b + c).max(1.0) / 0.999;
            FaultConfig {
                dropout: a / total,
                straggler: b / total,
                max_staleness,
                corruption: c / total,
                corruption_kind: kind,
                staleness: policy,
                max_update_norm: maxnorm,
                ..Default::default()
            }
        })
}

proptest! {
    #[test]
    fn generated_fault_configs_validate(cfg in fault_config_strategy()) {
        prop_assert!(cfg.validate().is_ok(), "{:?}", cfg.validate());
    }

    #[test]
    fn rates_outside_unit_interval_are_rejected(
        cfg in fault_config_strategy(),
        rate in prop_oneof![-10.0f64..-1e-9, 1.0f64 + 1e-9..10.0],
        which in 0usize..3,
    ) {
        let mut bad = cfg;
        match which {
            0 => bad.dropout = rate,
            1 => bad.straggler = rate,
            _ => bad.corruption = rate,
        }
        prop_assert!(bad.validate().is_err(), "accepted rate {rate}");
    }

    #[test]
    fn zero_staleness_bound_is_rejected(cfg in fault_config_strategy()) {
        let mut bad = cfg;
        bad.max_staleness = 0;
        prop_assert!(bad.validate().is_err());
    }

    #[test]
    fn plans_are_deterministic_and_in_bounds(
        cfg in fault_config_strategy(),
        rounds in 1usize..12,
        clients in 1usize..10,
        seed in any::<u64>(),
    ) {
        let a = FaultPlan::generate(&cfg, rounds, clients, seed);
        let b = FaultPlan::generate(&cfg, rounds, clients, seed);
        for r in 0..rounds {
            for c in 0..clients {
                prop_assert_eq!(a.fault_at(r, c), b.fault_at(r, c));
                if let Some(fedda_fl::FaultKind::Straggler { delay }) = a.fault_at(r, c) {
                    prop_assert!((1..=cfg.max_staleness).contains(&delay));
                }
            }
        }
        prop_assert!(a.num_scheduled() <= rounds * clients);
        prop_assert_eq!(a.fault_at(rounds, 0), None);
        prop_assert_eq!(a.fault_at(0, clients), None);
    }

    #[test]
    fn renormalized_weights_sum_to_one(
        weights in prop::collection::vec(1e-6f64..1e6, 1..40),
    ) {
        // However many clients a round loses, the survivors' renormalised
        // Eq. 6 weights always sum to 1.
        let w = renormalize(&weights);
        let total: f64 = w.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-12, "sum {total}");
        for (out, orig) in w.iter().zip(&weights) {
            prop_assert!(*out > 0.0 && *out <= 1.0, "weight {out} from {orig}");
        }
    }

    #[test]
    fn staleness_discount_weights_are_monotone_in_staleness(
        gamma in 0.01f64..=1.0, staleness in 1usize..20,
    ) {
        let p = StalenessPolicy::Discount { gamma };
        let w = p.weight(staleness).unwrap();
        let w_next = p.weight(staleness + 1).unwrap();
        prop_assert!(w > 0.0 && w <= 1.0);
        prop_assert!(w_next <= w + 1e-15, "older reports must not gain weight");
        prop_assert_eq!(StalenessPolicy::Discard.weight(staleness), None);
    }

    #[test]
    fn restart_expectation_never_exceeds_fedavg(
        inp in inputs_strategy(), beta_r in 0.05f64..0.95,
    ) {
        let t0 = restart_period(inp.r_c, beta_r).min(1000);
        let expected = restart_expected_units(&inp, t0);
        // FedAvg over the same cycle (the formula counts t0+1 rounds of
        // participation including the restart round).
        let fedavg = (t0 as f64 + 1.0) * inp.m as f64 * inp.n as f64;
        prop_assert!(expected <= fedavg + 1e-6, "{expected} > {fedavg}");
        prop_assert!(expected >= 0.0);
    }

    #[test]
    fn restart_ratio_monotone_in_rp(inp in inputs_strategy(), beta_r in 0.05f64..0.95) {
        // more parameter masking -> no more communication
        let lo = EfficiencyInputs { r_p: (inp.r_p * 0.5).min(1.0), ..inp };
        let ratio_full = restart_ratio(&inp, beta_r);
        let ratio_lo = restart_ratio(&lo, beta_r);
        prop_assert!(ratio_full <= ratio_lo + 1e-9,
            "masking more increased cost: {ratio_full} > {ratio_lo}");
    }

    #[test]
    fn explore_bound_is_in_unit_interval(
        inp in inputs_strategy(), beta_e in 0.05f64..0.95,
    ) {
        let bound = explore_ratio_bound(&inp, beta_e);
        prop_assert!(bound > 0.0);
        prop_assert!(bound <= beta_e + 1e-12, "bound {bound} exceeds beta_e {beta_e}");
    }

    #[test]
    fn explore_expectation_below_bound(
        inp in inputs_strategy(), beta_e in 0.05f64..0.95,
        gamma in 0.0f64..1.0, extra in 0.0f64..1.0,
    ) {
        let r_p_hat = inp.r_p + (1.0 - inp.r_p) * extra;
        let e = explore_expected_units(&inp, beta_e, gamma, r_p_hat);
        let bound = explore_ratio_bound(&inp, beta_e) * (inp.m * inp.n) as f64;
        prop_assert!(e <= bound + 1e-6, "{e} > {bound}");
        prop_assert!(e >= 0.0);
    }

    #[test]
    fn restart_period_is_consistent(r_c in 0.01f64..0.999, beta_r in 0.01f64..0.99) {
        let t0 = restart_period(r_c, beta_r);
        prop_assume!(t0 < 10_000);
        // After t0 rounds the retained fraction has dropped below beta_r…
        prop_assert!(r_c.powi(t0 as i32) < beta_r + 1e-9);
        // …and t0 is minimal.
        if t0 > 1 {
            prop_assert!(r_c.powi(t0 as i32 - 1) >= beta_r - 1e-9);
        }
    }

    #[test]
    fn comm_log_totals_match_manual_sums(
        rounds in prop::collection::vec(
            (1usize..20, 0usize..5000, 0usize..100_000), 0..30,
        ),
    ) {
        let mut log = CommLog::new();
        let mut units = 0usize;
        let mut scalars = 0usize;
        let mut activations = 0usize;
        let mut bytes = 0usize;
        for &(clients, u, s) in &rounds {
            log.push(RoundComm {
                active_clients: clients,
                uplink_units: u,
                uplink_scalars: s,
                uplink_bytes: s * 4,
                downlink_units: u * 2,
                downlink_scalars: s * 2,
            });
            units += u;
            scalars += s;
            bytes += s * 4;
            activations += clients;
        }
        prop_assert_eq!(log.total_uplink_units(), units);
        prop_assert_eq!(log.total_uplink_scalars(), scalars);
        prop_assert_eq!(log.total_uplink_bytes(), bytes);
        prop_assert_eq!(log.total_activations(), activations);
        prop_assert_eq!(log.total_downlink_units(), units * 2);
        prop_assert_eq!(log.uplink_units_through(rounds.len() + 5), units);
    }

    #[test]
    fn proximal_term_is_zero_at_the_global_point_and_linear_in_mu(
        theta in prop::collection::vec(-10.0f32..10.0, 1..64),
        mu in 0.0f64..100.0,
        scale in 1.5f64..10.0,
    ) {
        // μ/2·‖θ − θ_ref‖² vanishes exactly at θ_ref for every μ…
        prop_assert_eq!(proximal_term(&theta, &theta, mu), 0.0);
        // …is non-negative everywhere…
        let reference = vec![0.0f32; theta.len()];
        let base = proximal_term(&theta, &reference, mu);
        prop_assert!(base >= 0.0);
        // …and is exactly linear in μ (the f64 accumulation factors μ out).
        let scaled = proximal_term(&theta, &reference, mu * scale);
        prop_assert!((scaled - base * scale).abs() <= 1e-9 * scaled.abs().max(1.0),
            "proximal term not linear in mu: {scaled} vs {}", base * scale);
    }

    #[test]
    fn feddyn_h_updates_telescope(
        deltas in prop::collection::vec(
            prop::collection::vec(-100.0f64..100.0, 4), 1..20,
        ),
        alpha in 1e-3f64..10.0,
        clients in 1usize..16,
    ) {
        // Applying the per-round h update sequentially over T rounds must
        // telescope: h_T = −α/m · Σ_t Σ_k delta_t[k], per coordinate.
        let dim = deltas[0].len();
        let mut h = vec![0.0f64; dim];
        for delta_sum in &deltas {
            update_h(&mut h, delta_sum, alpha, clients);
        }
        for k in 0..dim {
            let total: f64 = deltas.iter().map(|d| d[k]).sum();
            let expected = -alpha / (clients as f64) * total;
            prop_assert!((h[k] - expected).abs() <= 1e-9 * expected.abs().max(1.0),
                "h[{k}] = {} does not telescope to {expected}", h[k]);
            prop_assert!(h[k].is_finite());
        }
    }

    #[test]
    fn adam_moments_stay_finite_and_match_the_scalar_reference(
        deltas in prop::collection::vec(-1e3f64..1e3, 1..50),
        lr in 1e-4f64..1.0,
        beta1 in 0.0f64..0.999,
        beta2 in 0.0f64..0.999,
        epsilon in 1e-8f64..1e-2,
    ) {
        // Drive one scalar coordinate through T rounds of adam_update and
        // check the moments against the closed-form EMA (powi-based bias
        // correction), staying finite throughout.
        let mut m = 0.0f64;
        let mut v = 0.0f64;
        for (t, &delta) in deltas.iter().enumerate() {
            let steps = (t + 1) as i32;
            let bias1 = 1.0 - beta1.powi(steps);
            let bias2 = 1.0 - beta2.powi(steps);
            let (m_next, v_next, step) =
                adam_update(m, v, delta, lr, beta1, beta2, epsilon, bias1, bias2);
            // Reference EMA recursion, computed independently.
            let m_ref = beta1 * m + (1.0 - beta1) * delta;
            let v_ref = beta2 * v + (1.0 - beta2) * delta * delta;
            prop_assert_eq!(m_next.to_bits(), m_ref.to_bits());
            prop_assert_eq!(v_next.to_bits(), v_ref.to_bits());
            let step_ref = lr * (m_ref / bias1) / ((v_ref / bias2).sqrt() + epsilon);
            prop_assert_eq!(step.to_bits(), step_ref.to_bits());
            prop_assert!(m_next.is_finite() && v_next.is_finite() && step.is_finite());
            prop_assert!(v_next >= 0.0, "second moment went negative: {v_next}");
            // The bias-corrected step is bounded by lr·|m̂|/ε.
            prop_assert!(step.abs() <= lr * (m_ref / bias1).abs() / epsilon + 1e-12);
            m = m_next;
            v = v_next;
        }
    }

    #[test]
    fn identity_compress_decompress_is_bit_exact(unit in unit_strategy()) {
        let (updated, reference) = unit;
        // decompress ∘ compress = id, down to the bit pattern: Identity
        // transmits the raw f32 bits of every masked scalar.
        let p = Identity.encode_unit(&updated, &reference);
        let mut out = reference.clone();
        p.decode_into(&mut out);
        for (got, want) in out.iter().zip(&updated) {
            prop_assert_eq!(got.to_bits(), want.to_bits());
        }
        // And doing it twice changes nothing (idempotence on the decoded
        // values).
        let p2 = Identity.encode_unit(&out, &reference);
        prop_assert_eq!(&p2, &p);
    }

    #[test]
    fn i8_round_trip_error_is_within_half_a_quantization_step(
        unit in unit_strategy(),
    ) {
        let (updated, reference) = unit;
        // Rounding to the nearest of 255 codes puts every scalar within
        // scale/2 of its true delta (scale = max|delta|/127); the decoded
        // value then differs from the updated one by at most that plus
        // f32 arithmetic slack.
        let p = QuantI8.encode_unit(&updated, &reference);
        let scale = match &p {
            Payload::I8 { scale, .. } => *scale,
            other => return Err(TestCaseError::fail(format!("wrong payload {other:?}"))),
        };
        prop_assert!(scale.is_finite() && scale >= 0.0);
        let mut out = reference.clone();
        p.decode_into(&mut out);
        let bound = f64::from(scale) * 0.5 + 1e-4;
        for (i, (got, want)) in out.iter().zip(&updated).enumerate() {
            let err = (f64::from(*got) - f64::from(*want)).abs();
            prop_assert!(err <= bound, "scalar {i}: |{got} - {want}| = {err} > {bound}");
        }
    }

    #[test]
    fn i8_kernel_equals_the_scalar_formula_bit_for_bit(
        units in prop::collection::vec(q8_unit_strategy(), 1..40),
    ) {
        for (updated, reference) in &units {
            let (want_scale, want_codes) = q8_oracle(updated, reference);
            match QuantI8.encode_unit(updated, reference) {
                Payload::I8 { scale, codes } => {
                    prop_assert_eq!(
                        scale.to_bits(), want_scale.to_bits(),
                        "scale {} != {} for {:?}", scale, want_scale, updated
                    );
                    prop_assert_eq!(&codes, &want_codes, "codes at scale {} for {:?}", scale, updated);
                    if updated.iter().zip(reference).any(|(u, r)| !(u - r).is_finite()) {
                        prop_assert!(scale.is_nan() && codes.iter().all(|&c| c == 0));
                    }
                }
                other => return Err(TestCaseError::fail(format!("wrong payload {other:?}"))),
            }
        }
    }

    #[test]
    fn f16_round_trip_error_is_within_half_an_ulp(
        unit in unit_strategy(),
    ) {
        let (updated, reference) = unit;
        // Round-to-nearest-even: the encoded delta is within half a
        // binary16 ULP of the true delta — relative 2^-11 for normals,
        // absolute 2^-25 in the subnormal range.
        let p = QuantF16.encode_unit(&updated, &reference);
        let mut out = reference.clone();
        p.decode_into(&mut out);
        for (i, ((&got, &up), &rf)) in out.iter().zip(&updated).zip(&reference).enumerate() {
            let delta = f64::from(up) - f64::from(rf);
            let bound = delta.abs() / 2048.0 + f64::from(f32::from_bits(0x3300_0000)) // 2^-25
                // decoding adds the reference back in f32, costing at most
                // half an ULP of the result's magnitude.
                + f64::from(got.abs().max(rf.abs())) * f64::from(f32::EPSILON);
            let err = (f64::from(got) - f64::from(up)).abs();
            prop_assert!(err <= bound, "scalar {i}: |{got} - {up}| = {err} > {bound}");
        }
    }

    #[test]
    fn topk_keeps_exactly_the_k_largest_magnitudes(
        unit in unit_strategy(),
        frac in 0.01f64..=0.5,
    ) {
        let (updated, reference) = unit;
        let deltas: Vec<f32> = updated
            .iter()
            .zip(&reference)
            .map(|(&u, &r)| u - r)
            .collect();
        let k = k_of(frac, deltas.len());
        let kept = top_k_positions(&deltas, k);
        prop_assert_eq!(kept.len(), k);
        // Deterministic: same input, same selection.
        prop_assert_eq!(&top_k_positions(&deltas, k), &kept);
        // Every kept magnitude dominates every dropped one; on an exact
        // tie the kept index is the smaller (the documented tie-break).
        let kept_set: Vec<bool> = {
            let mut s = vec![false; deltas.len()];
            for &i in &kept {
                s[i] = true;
            }
            s
        };
        for &i in &kept {
            for (j, &in_kept) in kept_set.iter().enumerate() {
                if !in_kept {
                    let ord = deltas[i].abs().total_cmp(&deltas[j].abs());
                    prop_assert!(
                        ord == std::cmp::Ordering::Greater
                            || (ord == std::cmp::Ordering::Equal && i < j),
                        "kept |{}|@{i} loses to dropped |{}|@{j}",
                        deltas[i], deltas[j]
                    );
                }
            }
        }
        // The encoded payload agrees with the selection and decodes the
        // kept coordinates exactly (raw f32 bits of the delta).
        let p = TopK { frac }.encode_unit(&updated, &reference);
        prop_assert_eq!(p.num_entries(), k);
        let mut out = reference.clone();
        p.decode_into(&mut out);
        for (i, &in_kept) in kept_set.iter().enumerate() {
            if in_kept {
                prop_assert_eq!(out[i].to_bits(), (reference[i] + deltas[i]).to_bits());
            } else {
                prop_assert_eq!(out[i].to_bits(), reference[i].to_bits());
            }
        }
    }

    #[test]
    fn compressed_bytes_are_exact_per_codec_and_never_exceed_raw(
        unit in unit_strategy(),
        frac in 0.01f64..=0.5,
    ) {
        let (updated, reference) = unit;
        let n = updated.len();
        let raw_bytes = 4 * n;
        for (name, p) in [
            ("ident", Identity.encode_unit(&updated, &reference)),
            ("q8", QuantI8.encode_unit(&updated, &reference)),
            ("f16", QuantF16.encode_unit(&updated, &reference)),
            ("topk", TopK { frac }.encode_unit(&updated, &reference)),
        ] {
            let expected = match &p {
                Payload::Raw(v) => 4 * v.len(),
                Payload::F16(v) => 2 * v.len(),
                Payload::I8 { codes, .. } => codes.len(),
                Payload::TopK(v) => 8 * v.len(),
            };
            prop_assert_eq!(p.wire_bytes(), expected, "{}", name);
            prop_assert!(
                p.wire_bytes() <= raw_bytes,
                "{name}: {} > raw {raw_bytes}", p.wire_bytes()
            );
        }
        // The exact ratios on dense codecs.
        prop_assert_eq!(Identity.encode_unit(&updated, &reference).wire_bytes(), raw_bytes);
        prop_assert_eq!(
            QuantF16.encode_unit(&updated, &reference).wire_bytes(),
            raw_bytes / 2
        );
        prop_assert_eq!(
            QuantI8.encode_unit(&updated, &reference).wire_bytes(),
            raw_bytes / 4
        );
        prop_assert_eq!(
            TopK { frac }.encode_unit(&updated, &reference).wire_bytes(),
            8 * k_of(frac, n)
        );
    }
}
