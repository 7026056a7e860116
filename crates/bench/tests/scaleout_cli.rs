//! The `scaleout` binary answers misuse with a usage error, not a panic:
//! `--help` prints usage and exits 0, an unknown flag or a bad value
//! exits 2 with a one-line message.

use std::process::{Command, Output};

fn scaleout(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scaleout"))
        .args(args)
        .output()
        .expect("scaleout binary runs")
}

#[test]
fn help_prints_usage_and_exits_zero() {
    let out = scaleout(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with("usage: scaleout"), "{stdout}");
    for flag in ["--sizes", "--repeat", "--check-baseline", "--schedulers"] {
        assert!(stdout.contains(flag), "usage lists {flag}");
    }
    assert!(out.stderr.is_empty());
}

#[test]
fn misuse_exits_two_with_one_line() {
    for (args, needle) in [
        (&["--bogus"][..], "unknown argument `--bogus`"),
        (&["--sizes", "64,abc"], "--sizes needs a whole number"),
        (&["--sizes"], "--sizes needs a comma-separated list"),
        (
            &["--repeat", "0"],
            "--repeat needs a whole number of at least 1",
        ),
        (&["--threads", "2"], "unknown argument `--threads`"),
        (&["--schedulers", "-1"], "--schedulers needs a whole number"),
        (
            &["--plan-mode", "fast"],
            "--plan-mode must be scan or indexed",
        ),
        (&["--wake-slo"], "--wake-slo needs seconds"),
    ] {
        let out = scaleout(args);
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran the benchmark");
    }
}
