//! The protocol zoo's wiring, as one table and one assertion per invariant
//! (DESIGN.md §6): every derived RNG stream has its own named tweak (D6),
//! and every `FlProtocol` is selectable by name (R1), golden-pinned under
//! both runtimes (R2), chaos-swept and documented (R3). Adding a protocol
//! or a stream means adding a row here; each failure names the missing edge.
//! The README lists every row of the `fedda` subcommand table, too.

use fedda::data::partition::CLIENT_SEEDS_STREAM_TWEAK;
use fedda::experiment::{Framework, SPLIT_STREAM_TWEAK};
use fedda::fl::{baselines::LOCAL_STREAM_TWEAK, faults::FAULT_STREAM_TWEAK, EVAL_STREAM_TWEAK};
use fedda_bench::{parse_framework, Options, COMMANDS, FRAMEWORK_NAMES};
use std::path::{Path, PathBuf};

/// How a protocol meets one coverage requirement.
enum Wired {
    /// By this text in `golden_curves.rs` / `chaos.rs`.
    By(&'static str),
    /// Not at all, for this reason.
    Exempt(&'static str),
}
use Wired::{By, Exempt};

/// One `impl FlProtocol for <protocol>` of `crates/fl/src`.
struct Row {
    protocol: &'static str,
    /// The `--framework` names that construct it.
    names: &'static [&'static str],
    sync_pin: Wired,
    async_pin: Wired,
    chaos: Wired,
}

#[rustfmt::skip]
const ZOO: &[Row] = &[
    Row { protocol: "GlobalProtocol", names: &["global"], sync_pin: By("fn golden_global_baseline()"),
        async_pin: Exempt("Global is a centralised upper bound: one client holds the full graph, so async staleness (k, gamma) cannot arise and an async pin would duplicate the sync curve"),
        chaos: Exempt("Global trains on the server's own full graph; client dropout/garbage faults have no channel to act on, so the chaos sweep has nothing to exercise") },
    Row { protocol: "FedAvg", names: &["fedavg"], sync_pin: By("fn golden_fedavg_vanilla()"),
        async_pin: By("fn golden_async_fedavg_vanilla()"), chaos: By("FedAvg::vanilla()") },
    Row { protocol: "FedProx", names: &["fedprox"], sync_pin: By("fn golden_fedprox()"),
        async_pin: By("fn golden_async_fedprox()"), chaos: By("FedProx::new(") },
    Row { protocol: "FedDynProtocol", names: &["feddyn"], sync_pin: By("fn golden_feddyn()"),
        async_pin: By("fn golden_async_feddyn()"), chaos: By("FedDyn::new(") },
    Row { protocol: "FedAdamProtocol", names: &["fedadam"], sync_pin: By("fn golden_fedadam()"),
        async_pin: By("fn golden_async_fedadam()"), chaos: By("FedAdam::new(") },
    Row { protocol: "FedDaProtocol", names: &["fedda-restart", "fedda-explore"], sync_pin: By("fn golden_fedda_explore()"),
        async_pin: By("fn golden_async_fedda_explore()"), chaos: By("FedDa::explore()") },
];

/// The `impl FlProtocol` behind a framework. Exhaustive on purpose: a new
/// `Framework` variant does not compile until it is named here.
fn protocol_of(framework: &Framework) -> Option<&'static str> {
    match framework {
        Framework::Global => Some("GlobalProtocol"),
        Framework::Local => None, // isolated clients: no rounds, no engine
        Framework::FedAvg(_) => Some("FedAvg"),
        Framework::FedProx(_) => Some("FedProx"),
        Framework::FedDyn(_) => Some("FedDynProtocol"),
        Framework::FedAdam(_) => Some("FedAdamProtocol"),
        Framework::FedDa(_) => Some("FedDaProtocol"),
    }
}

fn framework(name: &str) -> Framework {
    parse_framework(name, &Options::default())
        .unwrap_or_else(|e| panic!("`{name}` is in FRAMEWORK_NAMES but does not parse: {e:?}"))
}

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(repo().join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// `(path, text above the first #[cfg(test)])` of every `.rs` file under
/// `dir` whose path has a `/src/` component; every test module in this
/// workspace closes its file.
fn library_sources(dir: &str) -> Vec<(String, String)> {
    let mut found = Vec::new();
    let mut pending = vec![dir.to_string()];
    while let Some(rel) = pending.pop() {
        let entries =
            std::fs::read_dir(repo().join(&rel)).unwrap_or_else(|e| panic!("list {rel}: {e}"));
        for entry in entries {
            let name = entry.expect("directory entry").file_name();
            let path = format!("{rel}/{}", name.to_string_lossy());
            if repo().join(&path).is_dir() {
                pending.push(path);
            } else if path.ends_with(".rs") && path.contains("/src/") {
                let text = read(&path);
                let library = text.split("#[cfg(test)]").next().unwrap_or_default();
                found.push((path, library.to_string()));
            }
        }
    }
    found.sort();
    found
}

/// Every derived stream's XOR tweak: the named consts, then each protocol
/// type's `seed_tweak()` (FedDA's two strategies share one).
fn stream_table() -> Vec<(&'static str, u64)> {
    let mut streams = vec![
        ("FAULT_STREAM_TWEAK", FAULT_STREAM_TWEAK),
        ("SPLIT_STREAM_TWEAK", SPLIT_STREAM_TWEAK),
        ("EVAL_STREAM_TWEAK", EVAL_STREAM_TWEAK),
        ("LOCAL_STREAM_TWEAK", LOCAL_STREAM_TWEAK),
        ("CLIENT_SEEDS_STREAM_TWEAK", CLIENT_SEEDS_STREAM_TWEAK),
    ];
    for row in ZOO {
        let protocol = framework(row.names[0]).protocol();
        streams.push((
            row.protocol,
            protocol.expect("a ZOO row is a protocol").seed_tweak(),
        ));
    }
    streams
}

#[test]
fn d6_rng_stream_tweaks_are_pairwise_distinct() {
    let streams = stream_table();
    for (i, (a, tweak)) in streams.iter().enumerate() {
        for (b, other) in &streams[i + 1..] {
            assert_ne!(
                tweak, other,
                "RNG stream tweak {tweak:#x} is shared by `{a}` and `{b}`: XOR-derived streams \
                 with equal tweaks are perfectly correlated — pick a fresh tweak"
            );
        }
    }
}

/// Seeds that are not tweaks: a root seed and a per-round multiplier.
const NOT_TWEAKS: &[&str] = &["SUITE_SEED", "CLIENT_ROUND_STRIDE"];

#[test]
fn d6_every_seeding_call_in_library_code_uses_a_listed_tweak() {
    let listed: Vec<&str> = stream_table().into_iter().map(|(name, _)| name).collect();
    for (path, text) in &library_sources("crates") {
        for (at, _) in text.match_indices("seed_from_u64(") {
            // The call up to its balancing parenthesis.
            let mut depth = 0usize;
            let end = text[at..].find(|c| {
                depth += usize::from(c == '(');
                depth -= usize::from(c == ')');
                c == ')' && depth == 0
            });
            let call = &text[at..=at + end.expect("unbalanced seeding call")];
            assert!(
                !call.contains("0x"),
                "{path}: `{call}` seeds a stream from a literal tweak: name it as a `u64` \
                 const and list it in zoo_wiring.rs's stream_table"
            );
            let is_const =
                |w: &&str| w.len() > 1 && w.chars().all(|c| c.is_ascii_uppercase() || c == '_');
            for word in call
                .split(|c: char| !c.is_alphanumeric() && c != '_')
                .filter(is_const)
            {
                assert!(
                    listed.contains(&word) || NOT_TWEAKS.contains(&word),
                    "{path}: `{call}` derives a stream from `{word}`, which zoo_wiring.rs's \
                     stream_table does not list: add it so its value is checked for collisions"
                );
            }
        }
    }
}

#[test]
fn r1_every_protocol_impl_is_reachable_from_a_framework_name() {
    for name in FRAMEWORK_NAMES {
        let row = ZOO.iter().find(|row| row.names.contains(name));
        assert_eq!(
            protocol_of(&framework(name)),
            row.map(|row| row.protocol),
            "`--framework {name}` builds a different protocol than its ZOO row says"
        );
    }
    for row in ZOO {
        for name in row.names {
            assert!(
                FRAMEWORK_NAMES.contains(name),
                "`{}` is selected by `{name}`, which is not in FRAMEWORK_NAMES: \
                 CLI/bench runs cannot select it",
                row.protocol
            );
        }
    }
    for (path, text) in &library_sources("crates/fl") {
        for line in text.lines().filter(|l| l.starts_with("impl")) {
            let Some((_, implementor)) = line.split_once(" FlProtocol for ") else {
                continue;
            };
            let ty = implementor.trim_end_matches(|c: char| !c.is_alphanumeric());
            assert!(
                ZOO.iter().any(|row| row.protocol == ty),
                "`{ty}` implements `FlProtocol` in {path} but has no row in zoo_wiring.rs's \
                 ZOO: add a `Framework` variant, a `--framework` name, golden pins and a \
                 chaos-sweep arm, then the row"
            );
        }
    }
}

#[test]
fn r2_r3_every_protocol_is_golden_pinned_and_chaos_swept() {
    let (golden, chaos) = (
        "crates/fl/tests/golden_curves.rs",
        "crates/fl/tests/chaos.rs",
    );
    let (golden_text, chaos_text) = (read(golden), read(chaos));
    for row in ZOO {
        for (what, wired, file, text) in [
            ("sync golden pin", &row.sync_pin, golden, &golden_text),
            ("async golden pin", &row.async_pin, golden, &golden_text),
            ("chaos-sweep arm", &row.chaos, chaos, &chaos_text),
        ] {
            match wired {
                By(needle) => assert!(
                    text.contains(needle),
                    "`{}` has no {what}: `{needle}` does not appear in {file}",
                    row.protocol
                ),
                Exempt(reason) => assert!(!reason.is_empty(), "an exemption states its reason"),
            }
        }
    }
}

#[test]
fn r3_readme_framework_table_lists_exactly_the_framework_names() {
    let readme = read("README.md");
    let rows: Vec<&str> = readme
        .lines()
        .skip_while(|line| !line.starts_with("| `--framework` |"))
        .skip(2) // header, separator
        .take_while(|line| line.starts_with('|'))
        .filter_map(|line| line.split('`').nth(1))
        .collect();
    assert_eq!(
        rows, FRAMEWORK_NAMES,
        "the README `--framework` table's rows (left) are not FRAMEWORK_NAMES (right): a name \
         without a row is an undocumented protocol, a row without a name is dead documentation"
    );
}

#[test]
fn readme_command_table_lists_exactly_the_subcommands() {
    let readme = read("README.md");
    let rows: Vec<&str> = readme
        .lines()
        .skip_while(|line| !line.starts_with("| subcommand |"))
        .skip(2) // header, separator
        .take_while(|line| line.starts_with('|'))
        .filter_map(|line| line.split('`').nth(1))
        .collect();
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    assert_eq!(
        rows, names,
        "the README subcommand table's rows (left) are not the names of COMMANDS (right), in \
         order: a subcommand without a row is undocumented, a row without one is dead"
    );
}
