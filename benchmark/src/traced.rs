//! The traced run of one workload: the per-layer numbers.
//!
//! Untraced reference passes come first (their round times are the base the
//! trace is compared against), then the probes, then the replay of the
//! lockstep round loop with a span around every call, then, on `dblp_fedda`
//! only, one pass on a single thread. The asynchronous workload is not
//! replayed — that would fork its driver — so its phase costs are its sync
//! twin's and its own numbers are the `fl.async_*` counts and the driver
//! round times.

use crate::pass::{execute, fingerprint, to_auc, verdict, Executed};
use crate::probes::{median, run_probes, setup_probes, Metrics};
use crate::replay::replay;
use crate::trace::Trace;
use crate::workloads::{Spec, WORKERS};
use crate::Outcome;
use fedda_fl::FaultEffect;
use fedda_tensor::gemm::with_kernel_threads;
use serde_json::json;
use std::path::Path;
use std::time::Instant;

/// The replay's phases, in call order, with the metric each one feeds.
const PHASES: [(&str, Option<&str>); 9] = [
    ("fl.select", Some("fl.select_ms")),
    ("fl.broadcast_clone", None),
    ("fl.local_round", None),
    ("fl.compress", Some("fl.compress_ms")),
    ("fl.decode", Some("fl.decode_ms")),
    ("fl.aggregate", Some("fl.aggregate_ms")),
    ("fl.comm_account", Some("fl.comm_account_ms")),
    ("fl.post_aggregate", Some("fl.post_aggregate_ms")),
    ("fl.eval", Some("fl.eval_ms")),
];

/// The workload that runs the extra single-thread pass behind
/// `fl.pool_speedup_w2`; the metric reads 0 on the others.
const POOL_SPEEDUP_ON: &str = "dblp_fedda";

/// The highest percentile of `sorted` with at least ten samples beyond it,
/// never below the median: `(percentile, value)`.
fn high_percentile(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    let index = n.saturating_sub(11).max(n / 2).min(n - 1);
    ((index + 1) as f64 / n as f64 * 100.0, sorted[index])
}

pub fn traced(spec: &Spec, seed: u64, seconds: f64, smoke: bool, out_dir: &Path) -> Outcome {
    let mut outcome = Outcome {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        metrics: Metrics::new(),
    };
    if let Err(e) = traced_inner(spec, seed, seconds, smoke, out_dir, &mut outcome) {
        outcome.problems.push(e);
    }
    outcome
}

fn traced_inner(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    smoke: bool,
    out_dir: &Path,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let reps = if smoke { 1 } else { 5 };
    let m = &mut outcome.metrics;

    // Untraced reference passes for about half the budget, pooled.
    let started = Instant::now();
    let reference = execute(spec, seed, WORKERS, 1)?;
    let reference_print = fingerprint(&reference.result, &reference.system);
    let mut round_ms: Vec<f64> = reference.events.iter().map(|e| e.wall_ms).collect();
    let mut walls = vec![reference.wall_s];
    while !smoke && started.elapsed().as_secs_f64() < seconds / 2.0 {
        let again = execute(spec, seed, WORKERS, 1)?;
        if fingerprint(&again.result, &again.system) != reference_print {
            outcome
                .problems
                .push("two passes of one run differ in curve, ledger or parameters".into());
        }
        round_ms.extend(again.events.iter().map(|e| e.wall_ms));
        walls.push(again.wall_s);
    }
    let v = verdict(spec, &reference);
    outcome.attempted = v.attempted;
    outcome.failed = v.failed;
    outcome.problems.extend(v.problems);

    round_ms.sort_by(f64::total_cmp);
    let untraced_p50 = median(&round_ms);
    let (hi_pct, hi) = high_percentile(&round_ms);
    m.insert("fl.driver_round_ms_p50", untraced_p50);
    m.insert("fl.driver_round_ms_hi", hi);
    println!(
        "{}: driver round p50 {untraced_p50:.3} ms, p{hi_pct:.0} {hi:.3} ms over {} rounds of {} untraced passes",
        spec.name,
        round_ms.len(),
        walls.len()
    );

    m.insert("final_auc", reference.result.final_eval.roc_auc);
    let reached = to_auc(&reference.events, spec.target_auc);
    m.insert(
        "time_to_auc_s",
        reached.as_ref().map_or(reference.wall_s, |t| t.time_s),
    );
    m.insert(
        "rounds_to_auc",
        reached.as_ref().map_or(spec.rounds, |t| t.rounds) as f64,
    );
    m.insert(
        "uplink_bytes_to_auc",
        reached.as_ref().map_or_else(
            || reference.result.comm.total_uplink_bytes(),
            |t| t.uplink_bytes,
        ) as f64,
    );
    async_metrics(spec, &reference, m);

    // Everything below measures the lockstep twin.
    let twin = spec.sync_twin();
    let twin_reference = if spec.is_async() {
        let t = execute(&twin, seed, WORKERS, 1)?;
        let per_update = |ex: &Executed| {
            let updates: usize = ex.events.iter().map(|e| e.active_clients.len()).sum();
            ex.wall_s * 1e3 / updates.max(1) as f64
        };
        m.insert(
            "fl.async_overhead_ms_per_update",
            per_update(&reference) - per_update(&t),
        );
        Some(t)
    } else {
        m.insert("fl.async_overhead_ms_per_update", 0.0);
        None
    };
    let twin_reference = twin_reference.as_ref().unwrap_or(&reference);
    let twin_print = fingerprint(&twin_reference.result, &twin_reference.system);
    let twin_p50 = median(
        &twin_reference
            .events
            .iter()
            .map(|e| e.wall_ms)
            .collect::<Vec<_>>(),
    );

    let mut trace = Trace::new();
    let (exp, mut system) = twin.build(seed, WORKERS);
    run_probes(&twin, &exp, &system, reps, &mut trace, m);

    let mut protocol = twin.protocol();
    let (replayed, counts) = replay(protocol.as_mut(), &mut system, &mut trace)?;
    if fingerprint(&replayed, &system) != twin_print {
        outcome.problems.push(
            "the traced replay's curve, ledger or final parameters differ from RoundDriver's"
                .into(),
        );
    }
    drop(system);
    setup_probes(&twin, seed, reps, &mut trace, m);

    // Phase medians, the round's shares and what the spans do not cover.
    let rounds = twin.rounds as f64;
    for (span, metric) in PHASES {
        if let Some(metric) = metric {
            m.insert(metric, median(&trace.durations_ms(span)));
        }
    }
    let traced_rounds = trace.durations_ms("fl.round");
    let traced_p50 = median(&traced_rounds);
    let covered: Vec<f64> = (0..twin.rounds)
        .map(|r| {
            trace
                .spans
                .iter()
                .filter(|s| s.round == Some(r) && s.parent.is_some())
                .map(|s| s.ms())
                .sum()
        })
        .collect();
    m.insert("fl.driver_residual_ms", twin_p50 - median(&covered));
    m.insert(
        "trace_overhead_pct",
        (traced_p50 - twin_p50) / twin_p50 * 100.0,
    );
    let total: f64 = traced_rounds.iter().sum();
    let share = |span: &str| trace.durations_ms(span).iter().sum::<f64>() / total * 100.0;
    let named = [
        ("share.local_round_pct", share("fl.local_round")),
        ("share.eval_pct", share("fl.eval")),
        (
            "share.compress_pct",
            share("fl.compress") + share("fl.decode"),
        ),
        ("share.aggregate_pct", share("fl.aggregate")),
    ];
    let other = 100.0 - named.iter().map(|(_, s)| s).sum::<f64>();
    for (name, value) in named {
        m.insert(name, value);
    }
    m.insert("share.other_pct", other);

    m.insert("fl.mask_density", counts.mask_density_sum / rounds);
    m.insert(
        "fl.active_clients_mean",
        counts.active_clients as f64 / rounds,
    );
    m.insert("fl.aggregate_scalars", counts.aggregate_scalars as f64);
    m.insert("fl.compress_bytes_in", counts.compress_bytes_in as f64);
    m.insert("fl.compress_bytes_out", counts.compress_bytes_out as f64);
    m.insert(
        "fl.compress_ratio",
        if counts.compress_bytes_out == 0 {
            0.0
        } else {
            counts.compress_bytes_in as f64 / counts.compress_bytes_out as f64
        },
    );

    // One thread against two workers. A pool of one runs its tasks inline
    // and would leave the kernels both threads, so the kernels are capped
    // at one as they are inside each of the two workers: the ratio is what
    // the second thread buys (a pool worker while training, a kernel thread
    // while evaluating), not client threads against kernel threads.
    if spec.name == POOL_SPEEDUP_ON {
        let single = with_kernel_threads(1, || execute(spec, seed, 1, 1))?;
        if fingerprint(&single.result, &single.system) != reference_print {
            outcome
                .problems
                .push("one worker and two workers give different outputs".into());
        }
        m.insert("fl.pool_speedup_w2", single.wall_s / median(&walls));
    } else {
        m.insert("fl.pool_speedup_w2", 0.0);
    }

    println!(
        "{}: replayed round p50 {traced_p50:.3} ms against {twin_p50:.3} ms untraced; self time of the replay's spans:",
        twin.name
    );
    let self_times = trace.self_times_ms();
    let mut rows: Vec<(&str, f64)> = std::iter::once("fl.round")
        .chain(PHASES.iter().map(|(span, _)| *span))
        .map(|span| (span, self_times.get(span).copied().unwrap_or(0.0)))
        .collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, ms) in rows {
        println!("  {name:<20} {ms:>12.3} ms {:>7.3} %", ms / total * 100.0);
    }

    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("trace-{}.json", spec.name));
    let doc = json!({
        "workload": spec.name,
        "replayed": twin.name,
        "seed": seed,
        "spans": trace.to_json(),
    });
    let text = serde_json::to_string(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "{}: {} spans written to {}",
        spec.name,
        trace.spans.len(),
        path.display()
    );
    Ok(())
}

/// What the asynchronous driver did with the updates it dispatched; on a
/// lockstep workload every report is aggregated and the rest read 0.
fn async_metrics(spec: &Spec, ex: &Executed, m: &mut Metrics) {
    let count = |want: fn(&FaultEffect) -> bool| {
        ex.result.faults.iter().filter(|f| want(&f.effect)).count() as f64
    };
    let dispatched: usize = ex.events.iter().map(|e| e.active_clients.len()).sum();
    let dropouts = count(|e| matches!(e, FaultEffect::Dropout));
    let rejected = count(|e| matches!(e, FaultEffect::CorruptionRejected { .. }));
    let discarded = count(|e| matches!(e, FaultEffect::StaleDiscarded { .. }));
    // Every report is charged for all of the model's units when it arrives.
    let arrived = ex.result.comm.total_uplink_units() as f64 / ex.system.num_units() as f64;
    let trained = dispatched as f64 - dropouts;
    let is_async = if spec.is_async() { 1.0 } else { 0.0 };
    m.insert("fl.async_dispatched", is_async * dispatched as f64);
    m.insert(
        "fl.async_stale_applied",
        count(|e| matches!(e, FaultEffect::StaleApplied { .. })),
    );
    m.insert("fl.async_stale_discarded", discarded);
    m.insert("fl.async_dropouts", dropouts);
    m.insert(
        "fl.async_useful_ratio",
        if spec.is_async() {
            (arrived - rejected - discarded) / trained.max(1.0)
        } else {
            1.0
        },
    );
}

#[cfg(test)]
mod tests {
    use super::high_percentile;

    #[test]
    fn high_percentile_keeps_ten_samples_beyond_it() {
        let forty: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(high_percentile(&forty), (75.0, 30.0));
        // Too few samples for that: fall back to the median's upper side.
        let twelve: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(high_percentile(&twelve).1, 7.0);
        assert_eq!(high_percentile(&[3.0]), (100.0, 3.0));
    }
}
