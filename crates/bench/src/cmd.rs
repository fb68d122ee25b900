//! The subcommand table of the `fedda` binary: for each subcommand its
//! name, a one-line purpose, the flag groups its `run` reads, and `run`.
//! The table is the binary's only dispatch, the source of its usage text,
//! and the set of flags each subcommand accepts.

use crate::{Failure, Options};
use std::process::ExitCode;

mod ablations;
mod auc_vs_bytes;
mod efficiency_model;
mod fairness;
mod faults;
mod fig2;
mod fig5;
mod fig6;
mod noniid_sweep;
mod perf;
mod table1;
mod table2;
mod table3;
mod workflow;

/// Flags one reader consumes. An entry is the flag's name, then after a
/// space the shape of its value; an entry without one is a switch.
pub(crate) struct Group {
    /// The name the overview ([`usage`]) lists the group under, when
    /// several rows share it; empty for flags it lists inline.
    pub(crate) name: &'static str,
    /// The flags, in usage order.
    pub(crate) flags: &'static [&'static str],
}

/// Flags the overview lists inline.
const fn own(flags: &'static [&'static str]) -> Group {
    Group { name: "", flags }
}

/// [`base_config`](crate::base_config)'s flags other than [`CHANNEL`]'s,
/// plus the `--events` switch of [`Options::run_framework`].
#[rustfmt::skip]
pub(crate) const EXPERIMENT: Group = Group { name: "experiment", flags: &[
    "scale <f64>", "rounds <n>", "runs <n>", "clients <n>", "seed <u64>", "eval-every <n>",
    "runtime sync|async", "async-k <n>", "async-gamma <f64>", "workers <n>", "quick", "paper",
    "events",
] };

const FAULTS: &str = "faults <spec>";
const COMPRESS: &str = "compress ident|q8|f16|topk:<frac>";

/// What the uplink suffers and how it is encoded: read by every experiment
/// but the two that sweep one of them (`faults`, `auc_vs_bytes`).
const CHANNEL: Group = Group {
    name: "channel",
    flags: &[FAULTS, COMPRESS],
};

/// The hyper-parameters [`parse_framework`](crate::parse_framework) reads.
#[rustfmt::skip]
const PROTOCOL: Group = Group { name: "protocol", flags: &[
    "client-fraction <f64>", "mu <f64>", "alpha <f64>", "server-lr <f64>", "beta1 <f64>",
    "beta2 <f64>", "adam-eps <f64>",
] };

const DATASET: Group = own(&["dataset amazon|dblp"]);

/// [`maybe_write_json`](crate::maybe_write_json)'s path.
const JSON: Group = own(&["json <path>"]);

/// How a subcommand runs.
pub enum Run {
    /// On its flags parsed into [`Options`], after
    /// [`run_main`](crate::run_main) refused any flag outside the row.
    Options(fn(Options) -> Result<(), Failure>),
    /// On its raw arguments, picking its own exit status (`perf`).
    Args(fn(&[String]) -> ExitCode),
}

/// One subcommand.
pub struct Command {
    /// What follows `fedda` on the command line; also the name of the
    /// `results/<name>.json` the experiment loop writes.
    pub(crate) name: &'static str,
    /// One line for the usage text.
    pub(crate) purpose: &'static str,
    /// Every flag `run` reads, and so every flag the subcommand accepts.
    pub(crate) flags: &'static [Group],
    /// The body.
    pub run: Run,
}

/// Every subcommand, in usage order.
#[rustfmt::skip]
pub(crate) const COMMANDS: &[Command] = &[
    Command { name: "generate", purpose: "synthesize a heterograph and save it as a JSON archive",
        flags: &[DATASET, own(&["scale <f64>", "seed <u64>", "out <path>"])], run: Run::Options(workflow::generate) },
    Command { name: "stats", purpose: "print Table-1 statistics of a saved graph",
        flags: &[own(&["graph <path>"])], run: Run::Options(workflow::stats) },
    Command { name: "partition", purpose: "split a saved graph into client sub-heterographs",
        flags: &[own(&["graph <path>", "out-dir <dir>", "clients <n>", "mode iid|biased", "seed <u64>", "test-fraction <f64>"])],
        run: Run::Options(workflow::partition) },
    Command { name: "train", purpose: "run one federated training experiment and print its summary",
        flags: &[DATASET, own(&["framework <name>"]), PROTOCOL, EXPERIMENT, CHANNEL], run: Run::Options(workflow::train) },
    Command { name: "efficiency", purpose: "evaluate the Eqs. 8-11 communication model",
        flags: &[own(&["m <n>", "n <n>", "nd <n>", "rc <f64>", "rp <f64>"])], run: Run::Options(workflow::efficiency) },
    Command { name: "table1", purpose: "Table 1: dataset statistics",
        flags: &[own(&["scale <f64>", "seed <u64>"]), JSON], run: Run::Options(table1::run) },
    Command { name: "table2", purpose: "Table 2: ROC-AUC and MRR of the whole protocol zoo",
        flags: &[DATASET, PROTOCOL, EXPERIMENT, CHANNEL, JSON], run: Run::Options(table2::run) },
    Command { name: "table3", purpose: "Table 3: transmitted parameter units, FedAvg vs FedDA",
        flags: &[EXPERIMENT, CHANNEL, JSON], run: Run::Options(table3::run) },
    Command { name: "fig2", purpose: "Fig. 2: FedAvg with random client (C) and parameter (D) rates",
        flags: &[EXPERIMENT, CHANNEL, JSON], run: Run::Options(fig2::run) },
    Command { name: "fig5", purpose: "Fig. 5: convergence curves and rounds to FedAvg's final AUC",
        flags: &[EXPERIMENT, CHANNEL, JSON], run: Run::Options(fig5::run) },
    Command { name: "fig6", purpose: "Fig. 6: beta_r / alpha / beta_e hyper-parameter sweeps",
        flags: &[EXPERIMENT, CHANNEL, JSON], run: Run::Options(fig6::run) },
    Command { name: "efficiency_model", purpose: "Eqs. 8-11 against a simulated run",
        flags: &[EXPERIMENT, CHANNEL, JSON], run: Run::Options(efficiency_model::run) },
    Command { name: "ablations", purpose: "design-choice ablations",
        flags: &[EXPERIMENT, CHANNEL, JSON], run: Run::Options(ablations::run) },
    Command { name: "fairness", purpose: "per-edge-type AUC of the final global model",
        flags: &[EXPERIMENT, CHANNEL, JSON], run: Run::Options(fairness::run) },
    Command { name: "noniid_sweep", purpose: "FedDA's gain over FedAvg as the local bias grows",
        flags: &[EXPERIMENT, CHANNEL, JSON], run: Run::Options(noniid_sweep::run) },
    Command { name: "faults", purpose: "degradation under injected faults",
        flags: &[EXPERIMENT, own(&[COMPRESS, "rate-steps <n>"]), JSON], run: Run::Options(faults::run) },
    Command { name: "auc_vs_bytes", purpose: "accuracy against ledgered uplink bytes per codec",
        flags: &[DATASET, EXPERIMENT, own(&[FAULTS]), JSON], run: Run::Options(auc_vs_bytes::run) },
    Command { name: "perf", purpose: "kernel probe: snapshot (--out) or A/B two builds (--ab)",
        flags: &[own(&["out <path>", "ab <old-binary> <new-binary>"])], run: Run::Args(perf::run) },
];

/// The row named `name`.
pub fn command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

impl Command {
    /// The names of every flag the row's groups list.
    pub(crate) fn flag_names(&self) -> impl Iterator<Item = &'static str> {
        let name = |flag: &&'static str| flag.split_once(' ').map_or(*flag, |(name, _)| name);
        self.flags.iter().flat_map(|g| g.flags).map(name)
    }

    /// `opts`, unless it holds a flag `run` does not read: silently
    /// ignoring one would run defaults the user did not ask for.
    pub(crate) fn admit(&self, opts: Options) -> Result<Options, Failure> {
        let unread = opts.given().find(|&f| !self.flag_names().any(|n| n == f));
        match unread.map(|flag| format!("{} does not read --{flag}", self.name)) {
            Some(msg) => Err(Failure::Usage(msg)),
            None => Ok(opts),
        }
    }

    /// `usage: fedda <name> [--flag <value>] …`, every flag spelled out.
    pub(crate) fn usage(&self) -> String {
        let flags = self.flags.iter().flat_map(|g| g.flags).map(bracket);
        wrap(&format!("usage: fedda {}", self.name), flags)
    }

    /// What `fedda help <name>` prints: the usage line, then the purpose.
    pub fn help(&self) -> String {
        format!("{}\n\n{}", self.usage(), self.purpose)
    }
}

/// The overview `fedda help` prints: every subcommand with its purpose and
/// flags, the shared groups by name and spelled out once below.
pub fn usage() -> String {
    let mut out = String::from(
        "fedda — federated learning over heterogeneous graphs (FedDA reproduction)\n\n\
         usage: fedda <subcommand> [flags]\n       fedda help [<subcommand>]\n\n",
    );
    for c in COMMANDS {
        let flags = c.flags.iter().flat_map(|g| match g.name {
            "" => g.flags.iter().map(bracket).collect(),
            name => vec![format!("<{name}>")],
        });
        let flags = wrap(&" ".repeat(18), flags);
        out += &format!("  {:<17}{}\n{flags}\n", c.name, c.purpose);
    }
    for g in [EXPERIMENT, CHANNEL, PROTOCOL] {
        let flags = g.flags.iter().map(bracket);
        out += &format!("\n{}", wrap(&format!("<{}> =", g.name), flags));
    }
    out + "\n\nA flag the subcommand does not read is an error."
}

fn bracket(flag: &&str) -> String {
    format!("[--{flag}]")
}

/// `head` and then `words`, broken before a word that would pass column
/// 80; continuation lines are indented to `head`'s width.
fn wrap(head: &str, words: impl Iterator<Item = String>) -> String {
    let indent = head.chars().count();
    let mut out = head.to_string();
    let mut column = indent;
    for word in words {
        if column > indent && column + 1 + word.len() > 80 {
            out += &format!("\n{:indent$}", "");
            column = indent;
        }
        out += &format!(" {word}");
        column += 1 + word.len();
    }
    out
}
