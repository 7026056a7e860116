//! The one command-line error path of the bench binaries.
//!
//! Every binary answers `--help` with its usage and exit status 0, and
//! any misuse — an unknown argument, a missing or malformed value — with
//! one `NAME: error: …` line on stderr and exit status 2, before it does
//! any work. The `exp_*` binaries, `run_all` and `microbench` take no
//! other arguments; `scaleout` parses its flags into the same
//! [`UsageError`].

use std::fmt;
use std::process::ExitCode;

use crate::print_experiment;

/// A command-line misuse, reported as one line and exit status 2
/// instead of a panic or a run that ignores it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

/// What a binary that takes no arguments was asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// No arguments: do the binary's work.
    Run,
    /// A lone `--help` (or `-h`): print the usage.
    Help,
}

/// Parses the command line of a binary whose only flag is `--help`.
pub fn no_args(args: impl IntoIterator<Item = String>) -> Result<Request, UsageError> {
    let is_help = |a: &String| a == "--help" || a == "-h";
    let args: Vec<String> = args.into_iter().collect();
    match args.as_slice() {
        [] => Ok(Request::Run),
        [only] if is_help(only) => Ok(Request::Help),
        _ => {
            let bad = args.iter().find(|a| !is_help(a)).unwrap_or(&args[0]);
            Err(UsageError(format!("unknown argument `{bad}`")))
        }
    }
}

/// Reports `err` as binary `name`'s one-line usage error; the exit
/// status is 2.
pub fn usage_error(name: &str, err: &UsageError) -> ExitCode {
    eprintln!("{name}: error: {err} (run `{name} --help` for usage)");
    ExitCode::from(2)
}

/// The `main` of a binary that takes no arguments: runs `body` on an
/// empty command line, prints the usage (`about` under the name) on
/// `--help`, and reports anything else as a usage error.
pub fn main_without_args(name: &str, about: &str, body: impl FnOnce()) -> ExitCode {
    match no_args(std::env::args().skip(1)) {
        Ok(Request::Run) => {
            body();
            ExitCode::SUCCESS
        }
        Ok(Request::Help) => {
            print!("usage: {name}\n\n{about}\n\n  --help  print this help\n");
            ExitCode::SUCCESS
        }
        Err(e) => usage_error(name, &e),
    }
}

/// The `main` of an `exp_*` binary: regenerates experiment `id` with
/// `run` and prints it under its banner, through [`main_without_args`].
pub fn experiment(id: &str, title: &str, run: impl FnOnce() -> String) -> ExitCode {
    main_without_args(
        &format!("exp_{}", id.to_lowercase()),
        &format!("Regenerates experiment {id} ({title}) and prints it."),
        || print_experiment(id, title, &run()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Request, UsageError> {
        no_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn empty_command_line_runs_and_help_prints_usage() {
        assert_eq!(parse(&[]), Ok(Request::Run));
        assert_eq!(parse(&["--help"]), Ok(Request::Help));
        assert_eq!(parse(&["-h"]), Ok(Request::Help));
    }

    #[test]
    fn any_other_argument_is_a_usage_error() {
        for (args, message) in [
            (&["--bogus"][..], "unknown argument `--bogus`"),
            (&["64"], "unknown argument `64`"),
            (&["--seed", "7"], "unknown argument `--seed`"),
            (&["--help", "now"], "unknown argument `now`"),
            (&["now", "--help"], "unknown argument `now`"),
        ] {
            assert_eq!(
                parse(args),
                Err(UsageError(message.to_string())),
                "{args:?}"
            );
        }
    }
}
