//! One pass of a workload: fresh set-up (timed), then the timed run through
//! the program's own driver with a `MemorySink`, then the checks that need
//! nothing but that one run.

use crate::workloads::{Driver, Spec};
use fedda_fl::{
    AsyncDriver, FaultEffect, FaultKind, FaultPlan, FlSystem, MemorySink, RoundDriver, RoundEvent,
    RunResult,
};
use serde_json::{json, Value};
use std::time::Instant;

/// Everything one in-process pass produced.
pub struct Executed {
    pub system: FlSystem,
    pub result: RunResult,
    pub events: Vec<RoundEvent>,
    /// One entry per set-up; the last one built the system that ran.
    pub setup_s: Vec<f64>,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Process CPU time (user + system, all threads) in seconds.
fn process_cpu_s() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the parenthesised
    // command name, in clock ticks; Linux fixes USER_HZ at 100.
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set up `setups` times (each from nothing, each timed), then run `spec`
/// once with run seed `seed` on the last system built.
pub fn execute(spec: &Spec, seed: u64, workers: usize, setups: usize) -> Result<Executed, String> {
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..setups.max(1) {
        drop(built.take());
        let started = Instant::now();
        built = Some(spec.build(seed, workers).1);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut system = built.ok_or("no set-up ran")?;

    let mut protocol = spec.protocol();
    let mut sink = MemorySink::new();
    let cpu0 = process_cpu_s();
    let started = Instant::now();
    let result = match spec.driver {
        Driver::Sync => RoundDriver::with_sink(&mut sink).run(protocol.as_mut(), &mut system),
        Driver::Async(cfg) => {
            AsyncDriver::with_sink(cfg, &mut sink).run(protocol.as_mut(), &mut system)
        }
    }?;
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    Ok(Executed {
        system,
        result,
        events: sink.events,
        setup_s,
        wall_s,
        cpu_s,
    })
}

/// Bit-exact digest of a run's outputs — AUC/MRR curve, comm ledger and the
/// final global parameters — as FNV-1a over their 64-bit words.
pub fn fingerprint(result: &RunResult, system: &FlSystem) -> String {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for e in &result.curve {
        word(e.round as u64);
        word(e.roc_auc.to_bits());
        word(e.mrr.to_bits());
    }
    for rc in result.comm.rounds() {
        for v in [
            rc.active_clients,
            rc.uplink_units,
            rc.uplink_scalars,
            rc.uplink_bytes,
            rc.downlink_units,
            rc.downlink_scalars,
        ] {
            word(v as u64);
        }
    }
    for v in system.global.flatten() {
        word(u64::from(v.to_bits()));
    }
    format!("{hash:016x}")
}

/// Mean ROC-AUC over the evaluated rounds of the second half of the run.
/// The last round's AUC alone moves by up to ±10 % between run seeds on
/// the fleet workloads; the tail mean moves by under 3 %.
pub fn tail_auc(result: &RunResult, rounds: usize) -> f64 {
    let tail: Vec<f64> = result
        .curve
        .iter()
        .filter(|p| p.round >= rounds / 2)
        .map(|p| p.roc_auc)
        .collect();
    tail.iter().sum::<f64>() / tail.len().max(1) as f64
}

/// The first evaluated round whose AUC reaches `target`: index + 1, the
/// summed round wall time and the ledgered uplink bytes through it.
pub struct ToAuc {
    pub rounds: usize,
    pub time_s: f64,
    pub uplink_bytes: usize,
}

pub fn to_auc(events: &[RoundEvent], target: f64) -> Option<ToAuc> {
    let hit = events
        .iter()
        .position(|e| e.eval.is_some_and(|p| p.roc_auc >= target))?;
    let through = &events[..=hit];
    Some(ToAuc {
        rounds: hit + 1,
        time_s: through.iter().map(|e| e.wall_ms).sum::<f64>() / 1e3,
        uplink_bytes: through.iter().map(|e| e.comm.uplink_bytes).sum(),
    })
}

/// Operation counts and the checks one run supports on its own.
pub struct Verdict {
    /// Dispatched client updates.
    pub attempted: usize,
    /// Updates rejected or lost without the seeded fault plan injecting it,
    /// plus every update of a round whose evaluation was not finite.
    pub failed: usize,
    /// Why the run is wrong, if it is.
    pub problems: Vec<String>,
}

pub fn verdict(spec: &Spec, ex: &Executed) -> Verdict {
    let cfg = ex.system.config();
    let plan = cfg
        .faults
        .as_ref()
        .map(|fc| FaultPlan::generate(fc, cfg.rounds, ex.system.num_clients(), cfg.seed));
    let planned =
        |round: usize, client: usize| plan.as_ref().and_then(|p| p.fault_at(round, client));
    let mut problems = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;

    if ex.events.len() != spec.rounds {
        problems.push(format!(
            "{} round events for {} rounds",
            ex.events.len(),
            spec.rounds
        ));
    }
    for (i, event) in ex.events.iter().enumerate() {
        attempted += event.active_clients.len();
        if event
            .eval
            .is_some_and(|p| !(p.roc_auc.is_finite() && p.mrr.is_finite()))
        {
            failed += event.active_clients.len();
            continue;
        }
        for f in &event.faults {
            match f.effect {
                FaultEffect::Dropout if planned(f.round, f.client) != Some(FaultKind::Dropout) => {
                    failed += 1
                }
                FaultEffect::CorruptionRejected { .. }
                    if !matches!(planned(f.round, f.client), Some(FaultKind::Corruption(_))) =>
                {
                    failed += 1
                }
                _ => {}
            }
        }
        // Injected-versus-observed: every planned dropout of a dispatched
        // client is observed as one, and nothing else is.
        if plan.is_some() {
            let mut want: Vec<usize> = event
                .active_clients
                .iter()
                .copied()
                .filter(|&c| planned(i, c) == Some(FaultKind::Dropout))
                .collect();
            let mut got: Vec<usize> = event
                .faults
                .iter()
                .filter(|f| f.effect == FaultEffect::Dropout)
                .map(|f| f.client)
                .collect();
            want.sort_unstable();
            got.sort_unstable();
            if want != got {
                problems.push(format!(
                    "round {i}: dropouts {got:?}, fault plan says {want:?}"
                ));
            }
        }
    }
    if spec.is_async() && plan.is_some() {
        problems.extend(straggler_problems(ex, &planned));
    }
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} client updates failed"));
    }

    let scalars = ex.system.global.num_scalars();
    let uplink = ex.result.comm.total_uplink_bytes();
    if let Some(expect) = spec.uplink_closed_form(scalars) {
        if uplink != expect {
            problems.push(format!("uplink_bytes_total {uplink}, closed form {expect}"));
        }
    }
    let ledger: usize = ex.events.iter().map(|e| e.comm.uplink_bytes).sum();
    if ledger != uplink {
        problems.push(format!(
            "events carry {ledger} uplink bytes, ledger {uplink}"
        ));
    }
    if !ex.result.final_eval.roc_auc.is_finite() {
        problems.push("final AUC is not finite".into());
    }
    if to_auc(&ex.events, spec.target_auc).is_none() {
        problems.push(format!("target AUC {} never reached", spec.target_auc));
    }
    Verdict {
        attempted,
        failed,
        problems,
    }
}

/// Under the async driver a planned straggler's report takes at least two
/// ticks while the server advances a version per tick, so once its client
/// is free to be dispatched again the report must have been seen arriving
/// stale in between.
fn straggler_problems(
    ex: &Executed,
    planned: &dyn Fn(usize, usize) -> Option<FaultKind>,
) -> Vec<String> {
    let mut problems = Vec::new();
    for (v, event) in ex.events.iter().enumerate() {
        for &c in &event.active_clients {
            if !matches!(planned(v, c), Some(FaultKind::Straggler { .. })) {
                continue;
            }
            let Some(next) = ex.events[v + 1..]
                .iter()
                .position(|e| e.active_clients.contains(&c))
                .map(|p| v + 1 + p)
            else {
                continue;
            };
            let seen = ex.events[v + 1..=next].iter().any(|e| {
                e.faults.iter().any(|f| {
                    f.client == c && matches!(f.effect, FaultEffect::StaleApplied { staleness, .. } if staleness >= 1)
                })
            });
            if !seen {
                problems.push(format!(
                    "straggler {c} of version {v} was dispatched again at {next} without a stale arrival"
                ));
            }
        }
    }
    problems
}

/// What a pass process hands back to the process that started it.
pub fn report(spec: &Spec, ex: &Executed) -> Value {
    let v = verdict(spec, ex);
    let updates: usize = ex.events.iter().map(|e| e.active_clients.len()).sum();
    let round_ms: Vec<f64> = ex.events.iter().map(|e| e.wall_ms).collect();
    let curve: Vec<Value> = ex
        .result
        .curve
        .iter()
        .map(|p| json!([p.round, p.roc_auc]))
        .collect();
    json!({
        "setup_s": ex.setup_s,
        "wall_s": ex.wall_s,
        "cpu_s": ex.cpu_s,
        "peak_rss_mb": peak_rss_mb(),
        "rounds": spec.rounds,
        "updates": updates,
        "uplink_bytes_total": ex.result.comm.total_uplink_bytes(),
        "tail_auc": tail_auc(&ex.result, spec.rounds),
        "fingerprint": fingerprint(&ex.result, &ex.system),
        "attempted": v.attempted,
        "failed": v.failed,
        "problems": v.problems,
        "round_ms": round_ms,
        "curve": curve,
    })
}
