//! `fedda` — the command line of the FedDA reproduction:
//! `fedda <subcommand> [flags]`, one subcommand per row of
//! the subcommand table of `fedda_bench`; `fedda help [<subcommand>]` prints the usage
//! text that table generates.

use fedda_bench::{command, require_isa_level, run_main, usage, Run};
use std::io::{ErrorKind, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    require_isa_level();
    if let Err(e) = fedda::fl::runtime::default_workers() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((sub, rest)) = args.split_first() else {
        return refuse("no subcommand given".into());
    };
    if matches!(sub.as_str(), "help" | "--help" | "-h") {
        return match rest {
            [] => help(usage()),
            [name] => command(name).map_or_else(
                || refuse(format!("unknown subcommand '{name}'")),
                |c| help(c.help()),
            ),
            _ => refuse("help takes at most one subcommand".into()),
        };
    }
    let Some(command) = command(sub) else {
        return refuse(format!("unknown subcommand '{sub}'"));
    };
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        return help(command.help());
    }
    match command.run {
        Run::Options(body) => run_main(command, rest, body),
        Run::Args(body) => body(rest),
    }
}

/// Usage asked for: on stdout, exit status 0 — also when the reader has
/// stopped reading (`fedda help | head -1`), where `println!` would panic
/// on the closed pipe.
fn help(text: String) -> ExitCode {
    match writeln!(std::io::stdout(), "{text}") {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            drop(writeln!(std::io::stderr(), "error: {e}"));
            ExitCode::FAILURE
        }
        _ => ExitCode::SUCCESS,
    }
}

/// No subcommand to run: the overview on stderr, exit status 2. A stderr
/// that cannot be written leaves nowhere to say so.
fn refuse(msg: String) -> ExitCode {
    drop(writeln!(std::io::stderr(), "error: {msg}\n\n{}", usage()));
    ExitCode::from(2)
}
