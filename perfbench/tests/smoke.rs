//! Smoke test at tiny fleet sizes: every workload, traced and untraced,
//! prints every metric with its unit and a well-formed result line, and
//! misuse gets a usage error instead of a panic.

use std::process::{Command, Output};

use obs::Json;

const WORKLOADS: [&str; 3] = ["fleet_day", "plane_ladder", "policy_grid"];

/// The end-to-end metrics, with units. `sims_failed_pct` is printed but
/// travels in the result line as `failed` / `attempted`.
const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("run_wall_s", "s"),
    ("vm_ticks_per_s", "vm-ticks/s"),
    ("peak_rss_mb", "MB"),
    ("energy_kwh", "kWh"),
    ("unserved_pct", "%"),
    ("migrations", "count"),
    ("power_actions", "count"),
];

const PER_LAYER: [(&str, &str); 33] = [
    ("workload.generate_s", "s"),
    ("workload.trace_at_ns", "ns"),
    ("cluster.build_s", "s"),
    ("cluster.apply_demand_ns_per_vm", "ns"),
    ("cluster.dirty_marks_per_tick", "count"),
    ("sim.demand_s", "s"),
    ("sim.observe_s", "s"),
    ("sim.plan_s", "s"),
    ("sim.execute_s", "s"),
    ("sim.dispatch_s", "s"),
    ("sim.phase_attributed_pct", "%"),
    ("sim.demand_ns_per_vm", "ns"),
    ("sim.observe_ns_per_vm", "ns"),
    ("sim.execute_ns_per_action", "ns"),
    ("sim.dispatch_ns_per_event", "ns"),
    ("sim.bytes_per_vm", "B"),
    ("core.plan_ns_per_host_round", "ns"),
    ("core.rescore_ns_per_vm", "ns"),
    ("core.index_maintain_ns_per_rebucket", "ns"),
    ("core.overload_s", "s"),
    ("core.drain_ms_per_round", "ms"),
    ("core.trial_us", "us"),
    ("core.hosts_per_trial", "count"),
    ("core.trial_rollback_pct", "%"),
    ("core.overlay_folds", "count"),
    ("core.commit_accept_pct", "%"),
    ("core.commit_reject_pct", "%"),
    ("core.commit_dropped_unowned_pct", "%"),
    ("power.transitions", "count"),
    ("power.execute_ns_per_transition", "ns"),
    ("simcore.pool_busy_pct", "%"),
    ("simcore.events_dispatched", "count"),
    ("obs.trace_overhead_pct", "%"),
];

fn perfbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("spawn perfbench")
}

fn smoke(workload: &str, trace: &str) -> String {
    let out = perfbench(&[
        "--workload",
        workload,
        "--size",
        "smoke",
        "--seconds",
        "1",
        "--trace",
        trace,
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}"
    );
    stdout
}

/// Asserts the printed lines and the result line carry exactly `metrics`.
fn assert_metrics(stdout: &str, prefix: &str, metrics: &[(&str, &str)]) {
    for (name, unit) in metrics {
        let printed = stdout.lines().any(|l| {
            l.strip_prefix(prefix)
                .and_then(|rest| rest.strip_prefix(name))
                .and_then(|rest| rest.strip_prefix(" = "))
                .and_then(|rest| rest.split_whitespace().nth(1))
                == Some(*unit)
        });
        assert!(
            printed,
            "no `{prefix}{name} = <value> {unit}` line in:\n{stdout}"
        );
    }
    let last = stdout.lines().last().expect("some output");
    let result = Json::parse(last).expect("last line is JSON");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Json::as_f64) >= Some(1.0));
    let got = result
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics object");
    assert_eq!(got.len(), metrics.len(), "metric count in {last}");
    for (name, unit) in metrics {
        let m = got
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("{name} missing from {last}"));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
        assert!(m
            .get("value")
            .and_then(Json::as_f64)
            .is_some_and(f64::is_finite));
    }
}

#[test]
fn every_end_to_end_metric_is_printed_with_its_unit() {
    for w in WORKLOADS {
        let stdout = smoke(w, "0");
        assert_metrics(&stdout, "metric ", &END_TO_END);
        assert!(stdout.contains("metric sims_failed_pct = 0 %"), "{stdout}");
        assert!(stdout.contains(&format!("digest {w} 0x")), "{stdout}");
    }
}

#[test]
fn every_per_layer_metric_is_printed_with_its_base() {
    for w in WORKLOADS {
        let stdout = smoke(w, "1");
        assert_metrics(&stdout, "layer ", &PER_LAYER);
        let with_base = stdout
            .lines()
            .filter(|l| l.starts_with("layer ") && l.contains(" / "))
            .count();
        assert_eq!(with_base, PER_LAYER.len(), "{stdout}");
    }
}

#[test]
fn scan_oracle_agrees_on_the_twins() {
    for w in ["fleet_day", "plane_ladder"] {
        let stdout = smoke(w, "0");
        let line = stdout
            .lines()
            .find(|l| l.starts_with(&format!("oracle {w} ")))
            .unwrap_or_else(|| panic!("no oracle line for {w}"));
        let digest = |key: &str| line.split(key).nth(1).map(|s| s.split(' ').next());
        assert_eq!(digest("incremental="), digest("scan+scan="), "{line}");
    }
}

#[test]
fn help_prints_usage() {
    let out = perfbench(&["--help"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: perfbench"));
}

#[test]
fn misuse_is_a_usage_error_not_a_panic() {
    for args in [
        &["--workload", "fleet_day", "--frobnicate"][..],
        &["--workload", "nope"],
        &["--workload", "fleet_day", "--seed", "abc"],
        &["--workload", "fleet_day", "--seconds", "0"],
        &["--workload", "fleet_day", "--trace", "2"],
        &["--workload", "fleet_day", "--size", "huge"],
        &["--workload"],
        &["--seed", "7"],
    ] {
        let out = perfbench(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: perfbench"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
