//! The `fedda` command: one binary, one subcommand per row of `COMMANDS`
//! (name, purpose, the flag groups its `run` reads, `run`). A row's groups
//! are its usage text and the flags it accepts; any other flag is a usage
//! error. Around the table: a tiny flag parser (no CLI dependency), the
//! configurations the experiments share, and the kernel probe behind `perf`
//! (the kernel suite, its snapshot format, and the paired A/B verdict).
//!
//! `train` and every experiment subcommand build their configuration with
//! `base_config` and train through `Options::run_framework` (or
//! `Options::run_on`), so each accepts and honours the `experiment` flag
//! group:
//!
//! * `--scale <f64>`   — dataset size multiplier (default per subcommand)
//! * `--rounds <n>`    — communication rounds (default 20; 40 under `--paper`)
//! * `--runs <n>`      — repetitions (default 3; paper uses 5)
//! * `--clients <n>`   — override the client count where applicable
//! * `--seed <n>`      — base seed (default 0)
//! * `--eval-every <n>`— evaluate every n rounds (default 1; the final
//!   round always evaluates)
//! * `--faults <spec>` — deterministic fault injection, e.g.
//!   `drop=0.2,straggle=0.1,delay=3,corrupt=0.05,stale=discount:0.5`
//!   (see `fedda::fl::FaultConfig`'s `FromStr`)
//! * `--runtime <m>`   — simulation runtime: `sync` (default lockstep) or
//!   `async` (buffered aggregation on `K` arrivals)
//! * `--async-k <n>`   — async buffer size `K` (requires `--runtime async`)
//! * `--async-gamma <f>` — async staleness discount `γ ∈ (0, 1]`
//!   (requires `--runtime async`)
//! * `--workers <n>`   — worker-pool size for parallel client updates
//!   (default: `FEDDA_THREADS`, else the core count; results are
//!   identical for any value)
//! * `--compress <c>`  — uplink codec: `ident` (bit-exact), `q8`
//!   (int8 quantization), `f16` (half precision) or `topk:<frac>`
//!   (magnitude sparsification, e.g. `topk:0.25`); default: none
//!   (uncompressed ledger accounting, 4 bytes per masked scalar)
//! * `--quick`         — shrink the *defaults* to CI-smoke size (never
//!   overrides an explicit `--scale`/`--rounds`/`--runs`)
//! * `--paper`         — paper-like settings (5 runs, 40 rounds, the
//!   3-layer × 3-head Simple-HGN, E = 3 local epochs)
//! * `--events`        — stream per-round engine events to stderr
//!
//! The experiment subcommands also take `--json <path>`: write their
//! machine-readable results there.
//!
//! Exit status: `0` success, or usage asked for (`fedda help [<subcommand>]`,
//! `--help`, `-h`: on stdout); `1` the run failed ([`Failure::Run`]); `2` the
//! command line could not be understood ([`Failure::Usage`], a missing or
//! unknown subcommand), the CPU is below the build's ISA level or
//! `FEDDA_THREADS` is not a positive integer. Stderr is `error: <message>`,
//! never a panic.

#![warn(unreachable_pub)]

use fedda::experiment::{Dataset, Experiment, ExperimentConfig, Framework, FrameworkResult};
use fedda::fl::{
    AsyncConfig, Compression, EventSink, FedAdam, FedAvg, FedDa, FedDyn, FedProx, FlProtocol,
    FlSystem, RunResult, RuntimeMode, StderrSink,
};
use fedda::hgn::{HgnConfig, TrainConfig};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

mod cmd;
mod compare;
mod plot;
mod report;
mod snapshot;
mod suite;
mod table;

pub use cmd::{command, usage, Command, Run};

/// Exit with status 2 and the reason when the CPU lacks the
/// instruction-set level the binary was built for
/// ([`fedda_tensor::check_isa_level`]), before a vector instruction can
/// kill the process with `SIGILL`. The `fedda` binary calls it first.
pub fn require_isa_level() {
    if let Err(e) = fedda_tensor::check_isa_level() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
}

/// Why a subcommand stops early; [`run_main`] maps it to stderr and the exit
/// status.
#[derive(Debug, PartialEq)]
pub enum Failure {
    /// The command line could not be understood (exit status 2, printed
    /// with the usage line).
    Usage(String),
    /// The run itself failed: an invalid configuration value, an I/O error
    /// (exit status 1).
    Run(String),
}

impl From<String> for Failure {
    fn from(msg: String) -> Self {
        Failure::Run(msg)
    }
}

impl From<&str> for Failure {
    fn from(msg: &str) -> Self {
        Failure::Run(msg.to_string())
    }
}

/// Run a [`Run::Options`] row: parse `args` (the command line after the
/// subcommand), refuse a flag the row does not read, run `body`, and turn
/// its `Err` into `error: <message>` on stderr — plus the row's usage line
/// for a [`Failure::Usage`] — and a non-zero exit status.
pub fn run_main(
    command: &Command,
    args: &[String],
    body: fn(Options) -> Result<(), Failure>,
) -> ExitCode {
    let opts = Options::try_from_args(args.iter().cloned()).and_then(|o| command.admit(o));
    let (status, msg) = match opts.and_then(body) {
        Ok(()) => return ExitCode::SUCCESS,
        Err(Failure::Usage(msg)) => (2, format!("{msg}\n{}", command.usage())),
        Err(Failure::Run(msg)) => (1, msg),
    };
    eprintln!("error: {msg}");
    ExitCode::from(status)
}

/// Parsed command-line options.
#[derive(Clone, Debug, Default)]
pub struct Options {
    flags: BTreeMap<String, String>,
    /// `--quick` present.
    pub(crate) quick: bool,
    /// `--paper` present.
    pub(crate) paper: bool,
    /// `--events` present: stream per-round [`fedda::fl::RoundEvent`]s to
    /// stderr via [`fedda::fl::StderrSink`].
    pub(crate) events: bool,
    /// Every cell [`Options::run_framework`] has trained in this command.
    trained: RefCell<Vec<(ExperimentConfig, Framework, FrameworkResult)>>,
}

impl Options {
    /// Parse an explicit argument list. Rejects positional arguments,
    /// flags missing their value, and duplicate occurrences of the same
    /// flag (previously duplicates silently last-won).
    pub(crate) fn try_from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Self, Failure> {
        let mut out = Self::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--quick" | "--paper" | "--events" => {
                    let switch = match arg.as_str() {
                        "--quick" => &mut out.quick,
                        "--paper" => &mut out.paper,
                        _ => &mut out.events,
                    };
                    if std::mem::replace(switch, true) {
                        return Err(Failure::Usage(format!("duplicate flag {arg}")));
                    }
                }
                flag if flag.starts_with("--") => {
                    let value = match iter.next() {
                        Some(v) => v,
                        None => return Err(Failure::Usage(format!("missing value for {flag}"))),
                    };
                    if out.flags.insert(flag[2..].to_string(), value).is_some() {
                        return Err(Failure::Usage(format!("duplicate flag {flag}")));
                    }
                }
                other => return Err(Failure::Usage(format!("unexpected argument: {other}"))),
            }
        }
        Ok(out)
    }

    /// Look up a typed flag; a malformed value is a [`Failure::Usage`].
    pub(crate) fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, Failure>
    where
        T::Err: std::fmt::Debug,
    {
        let parse = |v: &String| {
            v.parse::<T>()
                .map_err(|e| Failure::Usage(format!("bad value for --{name}: {v} ({e:?})")))
        };
        self.flags.get(name).map(parse).transpose()
    }

    /// Whether the flag was given at all (used to tell an explicit value
    /// from a default, e.g. by `--quick`'s defaults-only shrinking).
    pub(crate) fn has(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    /// String flag.
    pub(crate) fn get_str(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// The name of every flag given, switches included.
    pub(crate) fn given(&self) -> impl Iterator<Item = &str> {
        let switches = ["quick", "paper", "events"].into_iter();
        let set = switches.zip([self.quick, self.paper, self.events]);
        let set = set.filter_map(|(name, on)| on.then_some(name));
        self.flags.keys().map(String::as_str).chain(set)
    }

    /// Train one framework of `exp` — every subcommand's one way to fill a
    /// table cell — streaming round events to stderr under `--events`. A
    /// cell this command has trained before (the same configuration and
    /// framework) is read back instead of trained again.
    pub(crate) fn run_framework(
        &self,
        exp: &Experiment,
        framework: &Framework,
    ) -> Result<FrameworkResult, Failure> {
        let cell = |(cfg, fw, _): &&(_, _, _)| cfg == exp.config() && fw == framework;
        if let Some((.., res)) = self.trained.borrow().iter().find(cell) {
            return Ok(res.clone());
        }
        let mut stderr = StderrSink;
        let sink = self.events.then_some(&mut stderr as &mut dyn EventSink);
        let res = exp.run_framework(framework, sink)?;
        let cell = (exp.config().clone(), framework.clone(), res.clone());
        self.trained.borrow_mut().push(cell);
        Ok(res)
    }

    /// One run of [`Options::run_framework`], for subcommands that need the
    /// trained `system` afterwards or sweep their own partitions: `protocol`
    /// on a system from `Experiment::system_with`, under `exp`'s runtime.
    pub(crate) fn run_on(
        &self,
        exp: &Experiment,
        protocol: &mut dyn FlProtocol,
        system: &mut FlSystem,
    ) -> Result<RunResult, Failure> {
        let mut stderr = StderrSink;
        let sink = self.events.then_some(&mut stderr as &mut dyn EventSink);
        let mode = &exp.config().runtime;
        Ok(fedda::fl::run(mode, protocol, system, sink)?)
    }
}

/// Resolve `--runtime` / `--async-k` / `--async-gamma` into a
/// [`RuntimeMode`]. Typos in the mode name, out-of-range async knobs and
/// async knobs given without `--runtime async` are [`Failure::Usage`]s.
pub(crate) fn runtime_config(opts: &Options) -> Result<RuntimeMode, Failure> {
    let mode = match opts.get_str("runtime") {
        None | Some("sync") => RuntimeMode::Sync,
        Some("async") => {
            let mut acfg = AsyncConfig::default();
            if let Some(k) = opts.get::<usize>("async-k")? {
                acfg.k = k;
            }
            if let Some(gamma) = opts.get::<f64>("async-gamma")? {
                acfg.gamma = gamma;
            }
            acfg.validate()
                .map_err(|e| Failure::Usage(format!("bad async runtime config: {e}")))?;
            RuntimeMode::Async(acfg)
        }
        Some(other) => {
            let msg = format!("bad value for --runtime: {other} (expected sync|async)");
            return Err(Failure::Usage(msg));
        }
    };
    if mode == RuntimeMode::Sync {
        for knob in ["async-k", "async-gamma"] {
            if opts.has(knob) {
                let msg = format!("--{knob} requires --runtime async");
                return Err(Failure::Usage(msg));
            }
        }
    }
    Ok(mode)
}

/// Resolve `--compress` into an uplink [`Compression`] codec (`None`
/// when the flag is absent: the historical uncompressed ledger). A typo
/// or an out-of-range top-k fraction is a [`Failure::Usage`].
pub(crate) fn compression_config(opts: &Options) -> Result<Option<Compression>, Failure> {
    let parse = |spec: &str| {
        spec.parse::<Compression>()
            .map_err(|e| Failure::Usage(format!("bad value for --compress: {spec} ({e})")))
    };
    opts.get_str("compress").map(parse).transpose()
}

/// Every name `--framework` accepts, in the order the usage text lists
/// them: the one list [`parse_framework`]'s error message, the README's
/// `--framework` table and `tests/zoo_wiring.rs` share.
pub(crate) const FRAMEWORK_NAMES: &[&str] = &[
    "global",
    "local",
    "fedavg",
    "fedprox",
    "feddyn",
    "fedadam",
    "fedda-restart",
    "fedda-explore",
];

/// Resolve a framework name plus its hyper-parameter flags into a
/// [`Framework`] — the one protocol parser shared by the `train`
/// subcommand and the experiment subcommands.
///
/// Knobs (each optional, falling back to the protocol's default):
/// `--client-fraction` (fedavg/fedprox/feddyn/fedadam), `--mu` (fedprox),
/// `--alpha` (feddyn), `--server-lr`/`--beta1`/`--beta2`/`--adam-eps`
/// (fedadam). Invalid hyper-parameters are rejected here with the
/// protocol's own `validate()` message, so `train` and the experiment
/// subcommands fail cleanly before any training starts (the engine
/// re-validates before round 0 regardless).
pub(crate) fn parse_framework(name: &str, opts: &Options) -> Result<Framework, Failure> {
    let fraction = opts.get::<f64>("client-fraction")?;
    let fw = match name {
        "global" => Framework::Global,
        "local" => Framework::Local,
        "fedavg" => Framework::FedAvg(FedAvg {
            client_fraction: fraction.unwrap_or(1.0),
            param_fraction: 1.0,
        }),
        "fedprox" => Framework::FedProx(FedProx {
            mu: opts.get("mu")?.unwrap_or(0.01),
            client_fraction: fraction.unwrap_or(1.0),
        }),
        "feddyn" => {
            let mut f = FedDyn::new(opts.get("alpha")?.unwrap_or(0.01));
            f.client_fraction = fraction.unwrap_or(1.0);
            Framework::FedDyn(f)
        }
        "fedadam" => {
            let mut f = FedAdam::new(opts.get("server-lr")?.unwrap_or(0.01));
            f.beta1 = opts.get("beta1")?.unwrap_or(0.9);
            f.beta2 = opts.get("beta2")?.unwrap_or(0.99);
            f.epsilon = opts.get("adam-eps")?.unwrap_or(1e-3);
            f.client_fraction = fraction.unwrap_or(1.0);
            Framework::FedAdam(f)
        }
        "fedda-restart" => Framework::FedDa(FedDa::restart()),
        "fedda-explore" => Framework::FedDa(FedDa::explore()),
        other => {
            return Err(Failure::Run(format!(
                "unknown framework '{other}' (expected {})",
                FRAMEWORK_NAMES.join("|")
            )))
        }
    };
    if let Some(protocol) = fw.protocol() {
        protocol
            .validate()
            .map_err(|e| format!("invalid --framework {name} configuration: {e}"))?;
    }
    Ok(fw)
}

/// The `--dataset amazon|dblp` flag (any case), or `None` when it is
/// absent. Any other value is a [`Failure::Usage`].
pub(crate) fn parse_dataset(opts: &Options) -> Result<Option<Dataset>, Failure> {
    match opts.get_str("dataset") {
        None => Ok(None),
        Some(d) if d.eq_ignore_ascii_case("amazon") => Ok(Some(Dataset::AmazonLike)),
        Some(d) if d.eq_ignore_ascii_case("dblp") => Ok(Some(Dataset::DblpLike)),
        Some(other) => Err(Failure::Usage(format!(
            "unknown dataset '{other}' (expected amazon|dblp)"
        ))),
    }
}

/// Build a baseline [`ExperimentConfig`] for a dataset from parsed options.
///
/// `--quick` shrinks only the *defaults*: an explicit `--scale`,
/// `--rounds` or `--runs` always wins, so `--quick --scale 0.05` runs at
/// scale 0.05 with quick rounds/runs. A malformed flag value is a
/// [`Failure::Usage`], a grid `ExperimentConfig::validate` rejects
/// (`--clients 0`, `--scale nan`, …) a [`Failure::Run`].
pub(crate) fn base_config(dataset: Dataset, opts: &Options) -> Result<ExperimentConfig, Failure> {
    let default_scale = match dataset {
        Dataset::AmazonLike => 0.008,
        Dataset::DblpLike => 0.0025,
    };
    let mut cfg = ExperimentConfig {
        dataset,
        scale: opts.get("scale")?.unwrap_or(default_scale),
        num_clients: opts.get("clients")?.unwrap_or(8),
        rounds: opts
            .get("rounds")?
            .unwrap_or(if opts.paper { 40 } else { 20 }),
        runs: opts.get("runs")?.unwrap_or(if opts.paper { 5 } else { 3 }),
        // A CPU-sized Simple-HGN; the paper's 3 layers × 3 heads under --paper.
        model: if opts.paper {
            HgnConfig::paper_default()
        } else {
            HgnConfig {
                hidden_dim: 8,
                num_layers: 2,
                num_heads: 2,
                edge_emb_dim: 8,
                ..Default::default()
            }
        },
        // DESIGN §3: Table 2 trains E = 3 local epochs.
        train: TrainConfig {
            local_epochs: if opts.paper { 3 } else { 2 },
            lr: 5e-3,
            ..Default::default()
        },
        eval_every: opts.get("eval-every")?.unwrap_or(1),
        seed: opts.get("seed")?.unwrap_or(0),
        faults: opts.get("faults")?,
        runtime: runtime_config(opts)?,
        workers: opts.get("workers")?,
        compression: compression_config(opts)?,
        ..Default::default()
    };
    if opts.quick {
        if !opts.has("scale") {
            cfg.scale = default_scale / 2.0;
        }
        if !opts.has("rounds") {
            cfg.rounds = cfg.rounds.min(4);
        }
        if !opts.has("runs") {
            cfg.runs = cfg.runs.min(2);
        }
    }
    cfg.validate()?;
    Ok(cfg)
}

/// Honor the documented `--json <path>` contract: when the flag is given,
/// write `value` pretty-printed to the path and confirm on stdout. Every
/// experiment subcommand routes its machine-readable dump through this
/// helper so new ones cannot silently drift from the contract.
pub(crate) fn maybe_write_json(opts: &Options, value: &serde_json::Value) -> Result<(), Failure> {
    if let Some(path) = opts.get_str("json") {
        report::write_json(Path::new(path), value)
            .map_err(|e| format!("cannot write --json {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// Render a curve as a compact sparkline-style series for the figure
/// subcommands (round: value pairs, 8 per line). `rounds` carries the true
/// evaluated round index of each point (`FrameworkResult::eval_rounds()`),
/// so sparse `--eval-every > 1` curves label points by the round they
/// measure rather than fabricating consecutive `r00,r01,…` labels. Both
/// come from the same runs, one round per point.
pub(crate) fn render_curve(name: &str, rounds: &[usize], curve: &[f64]) -> String {
    let mut out = format!("{name}:\n");
    for (i, chunk) in curve.chunks(8).enumerate() {
        out.push_str("  ");
        for (j, v) in chunk.iter().enumerate() {
            let round = rounds[i * 8 + j];
            out.push_str(&format!("r{round:02}={v:.4} "));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod flag_fuzz;

#[cfg(test)]
mod zoo_wiring;

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> impl Iterator<Item = String> {
        list.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    /// A well-formed command line, parsed.
    fn opts(list: &[&str]) -> Options {
        Options::try_from_args(args(list)).unwrap()
    }

    /// The message of the `Failure::Usage` a malformed command line ends in.
    fn usage_error<T: std::fmt::Debug>(result: Result<T, Failure>) -> String {
        match result {
            Err(Failure::Usage(msg)) => msg,
            other => panic!("expected a usage error, got {other:?}"),
        }
    }

    fn config(dataset: Dataset, o: &Options) -> ExperimentConfig {
        base_config(dataset, o).unwrap()
    }

    #[test]
    fn parses_flags_and_switches() {
        let o = opts(&["--scale", "0.01", "--runs", "5", "--quick"]);
        assert_eq!(o.get::<f64>("scale"), Ok(Some(0.01)));
        assert_eq!(o.get::<usize>("runs"), Ok(Some(5)));
        assert!(o.quick);
        assert!(!o.paper);
        assert!(!o.events);
        assert_eq!(o.get::<u64>("seed"), Ok(None));
        assert!(o.has("scale"));
        assert!(!o.has("seed"));
    }

    #[test]
    fn eval_every_and_events_flags_flow_into_config() {
        let o = opts(&["--eval-every", "5", "--events"]);
        assert!(o.events);
        let cfg = config(Dataset::DblpLike, &o);
        assert_eq!(cfg.eval_every, 5);
        // Default stays dense.
        let cfg = config(Dataset::DblpLike, &Options::default());
        assert_eq!(cfg.eval_every, 1);
    }

    #[test]
    fn base_config_respects_overrides() {
        let o = opts(&["--clients", "16", "--rounds", "10"]);
        let cfg = config(Dataset::DblpLike, &o);
        assert_eq!(cfg.num_clients, 16);
        assert_eq!(cfg.rounds, 10);
        assert_eq!(cfg.runs, 3);
    }

    #[test]
    fn quick_mode_shrinks_defaults() {
        let o = opts(&["--quick"]);
        let cfg = config(Dataset::AmazonLike, &o);
        assert!(cfg.rounds <= 4);
        assert!(cfg.runs <= 2);
        assert!(cfg.scale < 0.008);
    }

    #[test]
    fn quick_mode_never_clobbers_explicit_overrides() {
        // The regression the sweep fixes: `--quick --scale 0.05` used to
        // run at half the *default* scale, silently ignoring the user.
        let o = opts(&["--quick", "--scale", "0.05", "--rounds", "9", "--runs", "4"]);
        let cfg = config(Dataset::AmazonLike, &o);
        assert_eq!(cfg.scale, 0.05);
        assert_eq!(cfg.rounds, 9);
        assert_eq!(cfg.runs, 4);
        // Partial overrides: the rest still shrinks.
        let o = opts(&["--quick", "--scale", "0.05"]);
        let cfg = config(Dataset::AmazonLike, &o);
        assert_eq!(cfg.scale, 0.05);
        assert!(cfg.rounds <= 4);
        assert!(cfg.runs <= 2);
    }

    /// The CLI's error path for a model no Simple-HGN can be built from:
    /// `base_config`'s `validate` and the subcommands' `run_framework` both
    /// return it as a run failure (exit 1, `error: …`), not a panic.
    #[test]
    fn an_invalid_model_is_a_run_failure() {
        let mut cfg = config(Dataset::DblpLike, &opts(&["--quick", "--runs", "1"]));
        cfg.model.num_heads = 0;
        let want =
            "invalid model configuration: hidden_dim, num_layers and num_heads must be positive";
        assert_eq!(
            cfg.validate().map_err(Failure::from),
            Err(Failure::Run(want.into()))
        );
        let exp = Experiment::new(cfg);
        let got = Options::default().run_framework(&exp, &Framework::Local);
        assert_eq!(got.map(|_| ()), Err(Failure::Run(want.into())));
    }

    /// A command that names one cell twice trains it once and reads the
    /// same result back; another framework on the same data is a new cell.
    #[test]
    fn a_cell_named_twice_is_trained_once() {
        let o = opts(&["--quick", "--runs", "1", "--rounds", "1", "--clients", "2"]);
        let exp = Experiment::new(config(Dataset::DblpLike, &o));
        let first = o.run_framework(&exp, &Framework::FedDa(FedDa::explore()));
        let mut same = FedDa::explore();
        same.alpha = 0.5; // `explore()`'s own α
        let again = o.run_framework(&exp, &Framework::FedDa(same));
        assert_eq!(o.trained.borrow().len(), 1);
        assert_eq!(
            again.unwrap().runs[0].comm.rounds(),
            first.unwrap().runs[0].comm.rounds()
        );
        let fedavg = Framework::FedAvg(FedAvg::vanilla());
        o.run_framework(&exp, &fedavg).unwrap();
        assert_eq!(o.trained.borrow().len(), 2);
    }

    #[test]
    fn paper_mode_uses_paper_model() {
        let o = opts(&["--paper"]);
        let cfg = config(Dataset::DblpLike, &o);
        assert_eq!(cfg.model.num_layers, 3);
        assert_eq!(cfg.runs, 5);
        assert_eq!(cfg.rounds, 40);
    }

    #[test]
    fn paper_mode_trains_three_local_epochs() {
        let cfg = config(Dataset::DblpLike, &opts(&["--paper"]));
        assert_eq!(cfg.train.local_epochs, 3);
        let cfg = config(Dataset::DblpLike, &Options::default());
        assert_eq!(cfg.train.local_epochs, 2);
    }

    #[test]
    fn faults_flag_flows_into_config() {
        let o = opts(&["--faults", "drop=0.3,straggle=0.1,delay=2"]);
        let cfg = config(Dataset::DblpLike, &o);
        let fc = cfg.faults.expect("--faults must populate the config");
        assert_eq!(fc.dropout, 0.3);
        assert_eq!(fc.straggler, 0.1);
        assert_eq!(fc.max_staleness, 2);
        assert!(config(Dataset::DblpLike, &Options::default())
            .faults
            .is_none());
    }

    #[test]
    #[should_panic(expected = "bad value for --faults")]
    fn bad_faults_spec_panics_with_context() {
        let o = opts(&["--faults", "drop=1.5"]);
        base_config(Dataset::DblpLike, &o).unwrap();
    }

    #[test]
    fn parse_errors_name_known_flags() {
        let err = usage_error(Options::try_from_args(args(&["--scale"])));
        assert!(err.contains("missing value for --scale"), "{err}");
        let err = usage_error(Options::try_from_args(args(&["oops"])));
        assert!(err.contains("unexpected argument"), "{err}");
        // A malformed typed value is a usage error too, naming flag and value.
        let err = usage_error(opts(&["--scale", "abc"]).get::<f64>("scale"));
        assert!(err.starts_with("bad value for --scale: abc"), "{err}");
        // The usage hint `run_main` prints under them names the flags.
        assert!(usage().contains("usage:"));
        assert!(usage().contains("--eval-every"));
    }

    #[test]
    fn duplicate_flags_are_rejected() {
        let err = usage_error(Options::try_from_args(args(&[
            "--scale", "0.1", "--scale", "0.2",
        ])));
        assert!(err.contains("duplicate flag --scale"), "{err}");
        let err = usage_error(Options::try_from_args(args(&["--quick", "--quick"])));
        assert!(err.contains("duplicate flag --quick"), "{err}");
    }

    #[test]
    fn runtime_flags_flow_into_config() {
        // Default and explicit sync.
        assert_eq!(runtime_config(&Options::default()), Ok(RuntimeMode::Sync));
        let o = opts(&["--runtime", "sync"]);
        assert_eq!(runtime_config(&o), Ok(RuntimeMode::Sync));
        // Async with knobs.
        let o = opts(&[
            "--runtime",
            "async",
            "--async-k",
            "3",
            "--async-gamma",
            "0.8",
        ]);
        match runtime_config(&o).unwrap() {
            RuntimeMode::Async(acfg) => {
                assert_eq!(acfg.k, 3);
                assert_eq!(acfg.gamma, 0.8);
            }
            other => panic!("expected async mode, got {other:?}"),
        }
        // Async defaults apply when knobs are omitted.
        let o = opts(&["--runtime", "async"]);
        assert_eq!(
            runtime_config(&o),
            Ok(RuntimeMode::Async(AsyncConfig::default()))
        );
        // And base_config threads the mode + workers through.
        let o = opts(&["--runtime", "async", "--workers", "4"]);
        let cfg = config(Dataset::DblpLike, &o);
        assert_eq!(cfg.runtime, RuntimeMode::Async(AsyncConfig::default()));
        assert_eq!(cfg.workers, Some(4));
        assert_eq!(
            config(Dataset::DblpLike, &Options::default()).runtime,
            RuntimeMode::Sync
        );
    }

    #[test]
    fn compress_flag_flows_into_config() {
        // Absent flag: historical uncompressed accounting.
        assert_eq!(compression_config(&Options::default()), Ok(None));
        assert_eq!(
            config(Dataset::DblpLike, &Options::default()).compression,
            None
        );
        // Every codec spelling round-trips into the config.
        for (spec, want) in [
            ("ident", Compression::Identity),
            ("q8", Compression::QuantI8),
            ("f16", Compression::QuantF16),
            ("topk:0.25", Compression::TopK { frac: 0.25 }),
        ] {
            let o = opts(&["--compress", spec]);
            assert_eq!(compression_config(&o), Ok(Some(want)), "{spec}");
            assert_eq!(
                config(Dataset::DblpLike, &o).compression,
                Some(want),
                "{spec}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "bad value for --compress")]
    fn compress_typo_panics_naming_choices() {
        let o = opts(&["--compress", "gzip"]);
        compression_config(&o).unwrap();
    }

    #[test]
    #[should_panic(expected = "bad value for --compress")]
    fn compress_topk_fraction_out_of_range_panics() {
        let o = opts(&["--compress", "topk:0.9"]);
        compression_config(&o).unwrap();
    }

    #[test]
    #[should_panic(expected = "bad value for --runtime")]
    fn runtime_typo_panics_naming_choices() {
        let o = opts(&["--runtime", "asink"]);
        runtime_config(&o).unwrap();
    }

    #[test]
    #[should_panic(expected = "--async-k requires --runtime async")]
    fn async_knobs_without_async_runtime_panic() {
        let o = opts(&["--async-k", "3"]);
        runtime_config(&o).unwrap();
    }

    #[test]
    #[should_panic(expected = "bad async runtime config")]
    fn invalid_async_gamma_panics() {
        let o = opts(&["--runtime", "async", "--async-gamma", "1.5"]);
        runtime_config(&o).unwrap();
    }

    #[test]
    fn render_curve_labels_by_actual_round() {
        // Dense cadence: labels match positions.
        let s = render_curve("FedAvg", &[0, 1, 2], &[0.5, 0.6, 0.7]);
        assert!(s.contains("r00=0.5000"));
        assert!(s.contains("r02=0.7000"));
        // Sparse cadence (--eval-every 5 on 11 rounds): true rounds.
        let s = render_curve("FedAvg", &[4, 9, 10], &[0.5, 0.6, 0.7]);
        assert!(s.contains("r04=0.5000"));
        assert!(s.contains("r09=0.6000"));
        assert!(s.contains("r10=0.7000"));
        assert!(!s.contains("r00="), "sparse curves must not relabel from 0");
    }

    #[test]
    #[should_panic(expected = "unexpected argument")]
    fn rejects_positional_args() {
        opts(&["oops"]);
    }

    #[test]
    fn parse_framework_resolves_the_whole_zoo() {
        let o = Options::default();
        for (name, display) in [
            ("global", "Global"),
            ("local", "Local"),
            ("fedavg", "FedAvg"),
            ("fedprox", "FedProx(mu=0.01)"),
            ("feddyn", "FedDyn(alpha=0.01)"),
            ("fedadam", "FedAdam(lr=0.01)"),
            ("fedda-restart", "FedDA 1 (Restart)"),
            ("fedda-explore", "FedDA 2 (Explore)"),
        ] {
            let fw = parse_framework(name, &o).expect(name);
            assert_eq!(fw.name(), display);
        }
        let Err(Failure::Run(err)) = parse_framework("fedsgd", &o) else {
            panic!("an unknown framework is a run failure");
        };
        assert!(err.contains("unknown framework 'fedsgd'"), "{err}");
        assert!(err.contains("fedprox|feddyn|fedadam"), "{err}");
    }

    #[test]
    fn protocol_knobs_flow_into_frameworks() {
        let o = opts(&["--mu", "0.5"]);
        match parse_framework("fedprox", &o).unwrap() {
            Framework::FedProx(p) => assert_eq!(p.mu, 0.5),
            other => panic!("expected FedProx, got {other:?}"),
        }
        let o = opts(&["--alpha", "0.1", "--client-fraction", "0.5"]);
        match parse_framework("feddyn", &o).unwrap() {
            Framework::FedDyn(p) => {
                assert_eq!(p.alpha, 0.1);
                assert_eq!(p.client_fraction, 0.5);
            }
            other => panic!("expected FedDyn, got {other:?}"),
        }
        let o = opts(&[
            "--server-lr",
            "0.1",
            "--beta1",
            "0.8",
            "--beta2",
            "0.95",
            "--adam-eps",
            "1e-6",
        ]);
        match parse_framework("fedadam", &o).unwrap() {
            Framework::FedAdam(p) => {
                assert_eq!(p.server_lr, 0.1);
                assert_eq!(p.beta1, 0.8);
                assert_eq!(p.beta2, 0.95);
                assert_eq!(p.epsilon, 1e-6);
            }
            other => panic!("expected FedAdam, got {other:?}"),
        }
    }

    #[test]
    fn invalid_protocol_knobs_are_rejected_at_parse_time() {
        let o = opts(&["--mu", "-1"]);
        assert_eq!(
            parse_framework("fedprox", &o).unwrap_err(),
            Failure::Run(
                "invalid --framework fedprox configuration: \
                 mu must be finite and non-negative, got -1"
                    .into()
            )
        );
        let o = opts(&["--alpha", "0"]);
        assert_eq!(
            parse_framework("feddyn", &o).unwrap_err(),
            Failure::Run(
                "invalid --framework feddyn configuration: \
                 alpha must be finite and positive, got 0"
                    .into()
            )
        );
        let o = opts(&["--beta1", "1"]);
        assert_eq!(
            parse_framework("fedadam", &o).unwrap_err(),
            Failure::Run(
                "invalid --framework fedadam configuration: \
                 beta1 must be in [0,1), got 1"
                    .into()
            )
        );
        let o = opts(&["--client-fraction", "0"]);
        assert_eq!(
            parse_framework("fedavg", &o).unwrap_err(),
            Failure::Run(
                "invalid --framework fedavg configuration: \
                 client_fraction must be in (0,1], got 0"
                    .into()
            )
        );
    }
}
