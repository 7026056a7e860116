//! Every argument-less bench binary answers misuse through the shared
//! `bench::cli` path: `--help` prints usage and exits 0, any other
//! argument exits 2 with one `error:` line before any experiment runs.

use std::process::{Command, Output};

const BINARIES: &[(&str, &str)] = &[
    ("exp_f10", env!("CARGO_BIN_EXE_exp_f10")),
    ("exp_f11", env!("CARGO_BIN_EXE_exp_f11")),
    ("exp_f14", env!("CARGO_BIN_EXE_exp_f14")),
    ("exp_f15", env!("CARGO_BIN_EXE_exp_f15")),
    ("exp_f16", env!("CARGO_BIN_EXE_exp_f16")),
    ("exp_f17", env!("CARGO_BIN_EXE_exp_f17")),
    ("exp_f2", env!("CARGO_BIN_EXE_exp_f2")),
    ("exp_f23", env!("CARGO_BIN_EXE_exp_f23")),
    ("exp_f3", env!("CARGO_BIN_EXE_exp_f3")),
    ("exp_f4", env!("CARGO_BIN_EXE_exp_f4")),
    ("exp_f6", env!("CARGO_BIN_EXE_exp_f6")),
    ("exp_f7", env!("CARGO_BIN_EXE_exp_f7")),
    ("exp_f8", env!("CARGO_BIN_EXE_exp_f8")),
    ("exp_t1", env!("CARGO_BIN_EXE_exp_t1")),
    ("exp_t12", env!("CARGO_BIN_EXE_exp_t12")),
    ("exp_t13", env!("CARGO_BIN_EXE_exp_t13")),
    ("exp_t13b", env!("CARGO_BIN_EXE_exp_t13b")),
    ("exp_t18", env!("CARGO_BIN_EXE_exp_t18")),
    ("exp_t19", env!("CARGO_BIN_EXE_exp_t19")),
    ("exp_t20", env!("CARGO_BIN_EXE_exp_t20")),
    ("exp_t21", env!("CARGO_BIN_EXE_exp_t21")),
    ("exp_t22", env!("CARGO_BIN_EXE_exp_t22")),
    ("exp_t24", env!("CARGO_BIN_EXE_exp_t24")),
    ("exp_t25", env!("CARGO_BIN_EXE_exp_t25")),
    ("exp_t26", env!("CARGO_BIN_EXE_exp_t26")),
    ("exp_t27", env!("CARGO_BIN_EXE_exp_t27")),
    ("exp_t5", env!("CARGO_BIN_EXE_exp_t5")),
    ("exp_t9", env!("CARGO_BIN_EXE_exp_t9")),
    ("microbench", env!("CARGO_BIN_EXE_microbench")),
    ("run_all", env!("CARGO_BIN_EXE_run_all")),
];

fn run(path: &str, args: &[&str]) -> Output {
    Command::new(path)
        .args(args)
        .output()
        .expect("bench binary runs")
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for &(name, path) in BINARIES {
        let out = run(path, &["--help"]);
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert_eq!(out.status.code(), Some(0), "{name}: {stdout}");
        assert!(
            stdout.starts_with(&format!("usage: {name}\n")),
            "{name}: {stdout}"
        );
        assert!(out.stderr.is_empty(), "{name}");
    }
}

#[test]
fn any_argument_exits_two_with_one_error_line() {
    for &(name, path) in BINARIES {
        for args in [&["--bogus"][..], &["64"], &["--help", "--seed"]] {
            let out = run(path, args);
            let stderr = String::from_utf8(out.stderr).unwrap();
            assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
            assert_eq!(stderr.lines().count(), 1, "{name} {args:?}: {stderr}");
            assert!(
                stderr.starts_with(&format!("{name}: error: unknown argument `")),
                "{name} {args:?}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{name} {args:?} ran anyway");
        }
    }
}
