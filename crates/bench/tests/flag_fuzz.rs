//! ROADMAP 3(c): the flag parsers never panic. Arbitrary command lines —
//! known flags paired with plausible, hostile and raw-byte values, plus
//! stray tokens — go through the whole path a subcommand takes before training
//! (`Options::try_from_args` → `base_config` → `parse_framework`), and
//! arbitrary `key=value` lists through the `--faults` / `--compress`
//! `FromStr` impls; every outcome is a value.

use fedda::experiment::Dataset;
use fedda::fl::{Compression, FaultConfig};
use fedda_bench::{
    base_config, command, parse_framework, Failure, Options, COMMANDS, FRAMEWORK_NAMES,
};
use proptest::prelude::*;

/// Values that are well-formed for some flag, out of range for others, or
/// near a parser edge.
const VALUES: &[&str] = &[
    "0",
    "1",
    "3",
    "-1",
    "0.5",
    "1.5",
    "nan",
    "inf",
    "1e999",
    "18446744073709551616",
    "abc",
    "",
    "--",
    "sync",
    "async",
    "q8",
    "f16",
    "ident",
    "topk:0.25",
    "topk:0.9",
    "topk:",
    "drop=0.2,straggle=0.1,delay=3",
    "drop=2",
    "discard",
    "discount:0.5",
    "garbage:0",
    "garbage:3",
];

/// Every flag some subcommand reads: the union of the table's groups.
fn known_flags() -> Vec<&'static str> {
    let mut flags: Vec<&str> = COMMANDS.iter().flat_map(|c| c.flag_names()).collect();
    flags.sort_unstable();
    flags.dedup();
    flags
}

const FAULT_KEYS: &[&str] = &[
    "drop", "straggle", "delay", "corrupt", "kind", "stale", "maxnorm", "bogus", "",
];

/// A value: mostly from the vocabulary, sometimes any string at all (lossy
/// UTF-8 of arbitrary bytes).
fn value() -> impl Strategy<Value = String> {
    let raw = prop::collection::vec(any::<u8>(), 0..12);
    (0usize..4, 0..VALUES.len(), raw).prop_map(|(shape, i, bytes)| match shape {
        0 => String::from_utf8_lossy(&bytes).into_owned(),
        _ => VALUES[i].to_string(),
    })
}

/// One step of a command line: mostly `--flag value` (a switch takes its
/// "value" as a stray token), sometimes a lone flag or a lone token.
fn arg() -> impl Strategy<Value = Vec<String>> {
    let known = known_flags();
    (0usize..8, 0..known.len(), value()).prop_map(move |(shape, i, value)| {
        let flag = format!("--{}", known[i]);
        match shape {
            0 => vec![flag],
            1 => vec![value],
            _ => vec![flag, value],
        }
    })
}

/// A `--faults`-shaped spec: `key=value` entries, some malformed.
fn fault_spec() -> impl Strategy<Value = String> {
    prop::collection::vec(((0..FAULT_KEYS.len()), 0usize..8, value()), 0..5).prop_map(|entries| {
        let entries: Vec<String> = entries
            .into_iter()
            .map(|(key, shape, value)| match shape {
                0 => value,
                _ => format!("{}={value}", FAULT_KEYS[key]),
            })
            .collect();
        entries.join(",")
    })
}

proptest! {
    #[test]
    fn no_command_line_panics_on_the_way_to_a_config(
        lines in prop::collection::vec(prop::collection::vec(arg(), 0..4), 16),
        // One past the end is a name the parser does not know.
        framework in 0..=FRAMEWORK_NAMES.len(),
    ) {
        for line in lines {
            let argv: Vec<String> = line.into_iter().flatten().collect();
            let Ok(opts) = Options::try_from_args(argv) else { continue };
            for dataset in [Dataset::DblpLike, Dataset::AmazonLike] {
                if let Ok(cfg) = base_config(dataset, &opts) {
                    // What comes out is fit to build an experiment from.
                    prop_assert_eq!(cfg.validate(), Ok(()));
                }
            }
            let name = FRAMEWORK_NAMES.get(framework).unwrap_or(&"fedsgd");
            let _ = parse_framework(name, &opts);
        }
    }

    #[test]
    fn fault_and_codec_specs_never_panic(
        specs in prop::collection::vec(fault_spec(), 16),
        codecs in prop::collection::vec(value(), 16),
    ) {
        for spec in specs.iter().chain(&codecs) {
            if let Ok(faults) = spec.parse::<FaultConfig>() {
                prop_assert_eq!(faults.validate(), Ok(()));
            }
            if let Ok(codec) = spec.parse::<Compression>() {
                prop_assert_eq!(codec.validate(), Ok(()));
            }
        }
    }
}

/// The subcommand table is the parser's flag check: a row names each flag
/// once, and spells one without a value shape exactly when the parser takes
/// it as a switch.
#[test]
fn names_are_unique_and_a_row_lists_a_flag_once() {
    for (i, c) in COMMANDS.iter().enumerate() {
        assert!(COMMANDS[..i].iter().all(|d| d.name != c.name), "{}", c.name);
        let names: Vec<&str> = c.flag_names().collect();
        for (j, flag) in names.iter().enumerate() {
            assert!(
                !names[..j].contains(flag),
                "{} lists --{flag} twice",
                c.name
            );
        }
        for flag in c.flags.iter().flat_map(|g| g.flags) {
            let switch = !flag.contains(' ');
            assert_eq!(
                switch,
                ["quick", "paper", "events"].contains(flag),
                "{flag}"
            );
        }
    }
}

#[test]
fn admit_refuses_a_flag_outside_the_row_by_name() {
    let opts = |args: &[&str]| Options::try_from_args(args.iter().map(|a| a.to_string()));
    let table1 = command("table1").unwrap();
    assert!(table1
        .admit(opts(&["--scale", "1", "--json", "t.json"]).unwrap())
        .is_ok());
    let refused = table1.admit(opts(&["--seed", "1", "--quick"]).unwrap());
    assert_eq!(
        refused.err(),
        Some(Failure::Usage("table1 does not read --quick".into()))
    );
}
