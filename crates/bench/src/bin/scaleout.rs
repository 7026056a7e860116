//! Scale-out hot-path benchmark (the F8 companion): wall-clock ticks/sec,
//! setup seconds, profiler attribution, and peak RSS at increasing
//! cluster sizes.
//!
//! Writes `BENCH_scaleout.json`. With `--check-baseline FILE` the run
//! fails (exit 1) if ticks/sec at any matching size regresses more than
//! 30 % below the checked-in baseline — the CI perf smoke gate.
//! `--help` lists the flags; a misused flag exits 2 with a one-line
//! usage error ([`bench::cli`]).

use std::fmt;
use std::process::ExitCode;
use std::time::Instant;

use agile_core::{PlanMode, PowerPolicy};
use bench::cli::UsageError;
use cluster::AccountingMode;
use dcsim::{Experiment, Scenario, SimulationBuilder};
use obs::{Json, SpanSummary};

/// Largest size at which the run is repeated in [`AccountingMode::Scan`]
/// to cross-check the incremental report (the scan reference costs
/// O(hosts × VMs) per tick, so very large sizes skip it — the
/// `determinism` integration test covers the semantics).
const VERIFY_SCAN_MAX_HOSTS: usize = 1024;

/// One measured run at a given cluster size.
struct Row {
    hosts: usize,
    vms: usize,
    ticks: u64,
    wall_secs: f64,
    ticks_per_sec: f64,
    /// Scenario generation plus `SimulationBuilder::build` of the best
    /// run, in seconds.
    setup_secs: f64,
    peak_rss_kb: u64,
    /// Planning mode of the measured run.
    plan_mode: PlanMode,
    /// Ticks/sec of the scan-reference rerun (scan accounting AND scan
    /// planning), when it was performed — its report, with the
    /// mode-variant search-cost counters dropped, must match
    /// bit-for-bit or the bench aborts.
    scan_ticks_per_sec: Option<f64>,
    /// Wall seconds of each depth-1 span (tick phase) of the best run.
    phases: Vec<(String, f64)>,
    /// Full hierarchical span summary of the best run.
    spans: SpanSummary,
    /// Deterministic `work.*` op-counters from the metrics snapshot —
    /// the wall-clock-free superlinearity evidence.
    work: Vec<(String, u64)>,
}

const USAGE: &str = "\
usage: scaleout [FLAGS]

Measures ticks/s, setup seconds, span attribution and peak RSS at each
cluster size and writes BENCH_scaleout.json.

  --sizes LIST          comma-separated host counts      [default 64,256,1024]
  --out PATH            output file              [default BENCH_scaleout.json]
  --check-baseline PATH fail (exit 1) if ticks/s at a size falls more than
                        30 % below the baseline file
  --repeat N            runs per size, best kept (N >= 1)          [default 3]
  --plan-mode M         scan | indexed                       [default indexed]
  --ladder              bench the C6/S3/S5 ladder under the joint-ladder policy
  --wake-slo SECS       joint-ladder wake SLO (SECS >= 1)         [default 12]
  --schedulers N        control-plane schedulers (N >= 1)          [default 1]
  --staleness R         scheduler view staleness, rounds           [default 0]
  --help                print this help

A misused flag exits 2 with a one-line error.
";

/// Parsed command-line options.
struct Options {
    sizes: Vec<usize>,
    out_path: String,
    baseline: Option<String>,
    repeat: usize,
    plan_mode: PlanMode,
    ladder: bool,
    wake_slo_secs: u64,
    schedulers: usize,
    staleness: usize,
}

/// Parses the flags; `Ok(None)` means `--help`.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Option<Options>, UsageError> {
    let mut opts = Options {
        sizes: vec![64, 256, 1024],
        out_path: String::from("BENCH_scaleout.json"),
        baseline: None,
        repeat: 3,
        plan_mode: PlanMode::default(),
        ladder: false,
        wake_slo_secs: 12,
        schedulers: 1,
        staleness: 0,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| UsageError(format!("{arg} needs {what}")))
        };
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--sizes" => {
                let list = value("a comma-separated list of host counts")?;
                opts.sizes = list
                    .split(',')
                    .map(|s| number("--sizes", s.trim(), 1))
                    .collect::<Result<_, _>>()?;
            }
            "--out" => opts.out_path = value("a path")?,
            "--check-baseline" => opts.baseline = Some(value("a path")?),
            "--repeat" => opts.repeat = number(&arg, &value("a count")?, 1)?,
            "--plan-mode" => {
                opts.plan_mode = match value("scan or indexed")?.as_str() {
                    "scan" => PlanMode::Scan,
                    "indexed" => PlanMode::Indexed,
                    other => {
                        return Err(UsageError(format!(
                            "--plan-mode must be scan or indexed, got `{other}`"
                        )))
                    }
                };
            }
            "--ladder" => opts.ladder = true,
            "--schedulers" => opts.schedulers = number(&arg, &value("a count")?, 1)?,
            "--staleness" => opts.staleness = number(&arg, &value("a round count")?, 0)?,
            "--wake-slo" => opts.wake_slo_secs = number(&arg, &value("seconds")?, 1)?,
            other => return Err(UsageError(format!("unknown argument `{other}`"))),
        }
    }
    Ok(Some(opts))
}

/// Parses `text` as a whole number of at least `min`.
fn number<T: std::str::FromStr + PartialOrd + From<u8> + fmt::Display>(
    flag: &str,
    text: &str,
    min: u8,
) -> Result<T, UsageError> {
    match text.parse::<T>() {
        Ok(n) if n >= T::from(min) => Ok(n),
        _ => Err(UsageError(format!(
            "{flag} needs a whole number of at least {min}, got `{text}`"
        ))),
    }
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => return bench::cli::usage_error("scaleout", &e),
    };
    let Options {
        sizes,
        out_path,
        baseline,
        repeat,
        plan_mode,
        ladder,
        wake_slo_secs,
        schedulers,
        staleness,
    } = opts;

    // `--ladder` benches the joint sleep+speed path instead: the C6→S3→S5
    // scenario under the joint-ladder policy at `--wake-slo` seconds. The
    // scan reference rerun keeps the same policy, so the bit-identity
    // cross-check covers the rung-selection path too.
    let policy = if ladder {
        PowerPolicy::joint_ladder(simcore::SimDuration::from_secs(wake_slo_secs))
    } else {
        PowerPolicy::reactive_suspend()
    };

    let mut rows = Vec::new();
    for &hosts in &sizes {
        let row = measure(
            hosts,
            hosts <= VERIFY_SCAN_MAX_HOSTS,
            repeat,
            plan_mode,
            ladder,
            policy,
            schedulers,
            staleness,
        );
        println!(
            "{:>5} hosts {:>6} vms: {:>8.0} ticks/s ({:.2} s wall, {:.2} s setup, peak RSS {} MB){}",
            row.hosts,
            row.vms,
            row.ticks_per_sec,
            row.wall_secs,
            row.setup_secs,
            row.peak_rss_kb / 1024,
            match row.scan_ticks_per_sec {
                Some(tps) => format!(", scan ref {tps:.0} ticks/s, reports identical"),
                None => String::from(", scan ref skipped (size cap)"),
            },
        );
        rows.push(row);
    }

    let json = render_json(&rows, ladder, wake_slo_secs, schedulers, staleness);
    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("wrote {out_path}");

    if let Some(path) = baseline {
        let text = std::fs::read_to_string(&path).expect("read baseline");
        check_baseline(&rows, &text);
        println!("baseline check passed ({path})");
    }
    ExitCode::SUCCESS
}

#[allow(clippy::too_many_arguments)]
fn measure(
    hosts: usize,
    verify_scan: bool,
    repeat: usize,
    plan_mode: PlanMode,
    ladder: bool,
    policy: PowerPolicy,
    schedulers: usize,
    staleness: usize,
) -> Row {
    let vms = hosts * 6;
    let t0 = Instant::now();
    let scenario = if ladder {
        Scenario::datacenter_ladder(hosts, vms, bench::SEED)
    } else {
        Scenario::datacenter(hosts, vms, bench::SEED)
    };
    let generate_secs = t0.elapsed().as_secs_f64();
    let step = scenario.demand_step();
    // `--schedulers`/`--staleness` shape the control plane of the run
    // and of its scan reference.
    let plane = |exp: Experiment| exp.schedulers(schedulers).view_staleness(staleness);
    // Best-of-N: the minimum wall time is the least scheduler-noise-
    // polluted sample; every repeat is the same deterministic simulation,
    // so only timing varies.
    let mut best: Option<(f64, f64, _, _)> = None;
    for _ in 0..repeat {
        let exp = plane(
            Experiment::new(scenario.clone())
                .policy(policy)
                .plan_mode(plan_mode),
        );
        let t0 = Instant::now();
        let sim = SimulationBuilder::new(exp)
            .profiling(true)
            .build()
            .expect("scale-out build failed");
        let build_secs = t0.elapsed().as_secs_f64();
        let out = sim.run().expect("scale-out run failed");
        let wall = t0.elapsed().as_secs_f64();
        let spans = out.spans.expect("profiled run returns the span tree");
        if best.as_ref().is_none_or(|(w, _, _, _)| wall < *w) {
            best = Some((wall, build_secs, out.report, spans));
        }
    }
    let (wall_secs, build_secs, report, spans) = best.expect("at least one repeat");
    let ticks = report.horizon.as_millis() / step.as_millis() + 1;

    // Rerun against the O(n)-scan references (scan accounting and scan
    // planning) and require a bit-identical report — both optimizations
    // must be unobservable. The counters that measure *how* each plan
    // mode searched are mode-variant by design and are dropped from the
    // comparison when the measured run planned in indexed mode.
    let scan_ticks_per_sec = verify_scan.then(|| {
        let exp = plane(
            Experiment::new(scenario)
                .policy(policy)
                .accounting(AccountingMode::Scan)
                .plan_mode(PlanMode::Scan),
        );
        let t0 = Instant::now();
        let scan_report = SimulationBuilder::new(exp)
            .run_report()
            .expect("scan reference run failed");
        let scan_wall = t0.elapsed().as_secs_f64();
        let strip = |r: &dcsim::SimReport| {
            let mut r = r.clone();
            if plan_mode == PlanMode::Indexed {
                r.metrics.entries.retain(|e| {
                    !matches!(
                        e.name.as_str(),
                        "work.plan.candidates_scanned"
                            | "work.plan.hosts_rescored"
                            | "work.plan.fold_elements"
                    ) && !e.name.starts_with("work.index.")
                });
            }
            r
        };
        assert_eq!(
            strip(&report),
            strip(&scan_report),
            "incremental/indexed vs scan reports diverged at {hosts} hosts"
        );
        ticks as f64 / scan_wall
    });

    Row {
        hosts,
        vms,
        ticks,
        wall_secs,
        ticks_per_sec: ticks as f64 / wall_secs,
        setup_secs: generate_secs + build_secs,
        peak_rss_kb: peak_rss_kb(),
        plan_mode,
        scan_ticks_per_sec,
        phases: spans
            .children_of("")
            .into_iter()
            .map(|s| (s.name.clone(), s.total_secs))
            .collect(),
        spans,
        work: report
            .metrics
            .entries
            .iter()
            .filter_map(|e| match &e.value {
                obs::MetricValue::Counter(v) if e.name.starts_with("work.") => {
                    Some((e.name.clone(), *v))
                }
                _ => None,
            })
            .collect(),
    }
}

/// Peak resident set size of this process in kB (Linux `VmHWM`; 0 where
/// `/proc` is unavailable).
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

fn render_json(
    rows: &[Row],
    ladder: bool,
    wake_slo_secs: u64,
    schedulers: usize,
    staleness: usize,
) -> String {
    let mut out = format!(
        "{{\n  \"ladder\": {ladder},\n  \
         \"wake_slo_secs\": {wake_slo_secs},\n  \"schedulers\": {schedulers},\n  \
         \"staleness\": {staleness},\n  \"runs\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"hosts\": {}, \"vms\": {}, \"ticks\": {}, \"wall_secs\": {:.4}, \
             \"ticks_per_sec\": {:.1}, \"setup_secs\": {:.4}, \"peak_rss_kb\": {}, \
             \"plan_mode\": \"{}\", ",
            r.hosts,
            r.vms,
            r.ticks,
            r.wall_secs,
            r.ticks_per_sec,
            r.setup_secs,
            r.peak_rss_kb,
            r.plan_mode.label()
        ));
        if let Some(tps) = r.scan_ticks_per_sec {
            out.push_str(&format!(
                "\"scan_ticks_per_sec\": {tps:.1}, \"scan_report_identical\": true, "
            ));
        }
        out.push_str("\"phases\": {");
        for (j, (name, secs)) in r.phases.iter().enumerate() {
            out.push_str(&format!("\"{name}\": {secs:.4}"));
            if j + 1 < r.phases.len() {
                out.push_str(", ");
            }
        }
        out.push_str("}, \"work\": {");
        for (j, (name, value)) in r.work.iter().enumerate() {
            out.push_str(&format!("\"{name}\": {value}"));
            if j + 1 < r.work.len() {
                out.push_str(", ");
            }
        }
        out.push_str("}, \"spans\": ");
        out.push_str(&r.spans.to_json().to_string_compact());
        out.push('}');
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Fails the process if any measured size is >30 % slower than the
/// baseline. The baseline file holds a `baseline` array of `{"hosts": N,
/// "ticks_per_sec": X, "phases": {...}}` entries, where `phases` maps
/// each phase to its wall seconds at baseline time. On a regression the
/// phase whose *share* of attributed time grew the most over the
/// baseline's shares is named — the gate says *where* the time went,
/// not just that it went (shares, not raw seconds, so a uniformly
/// slower CI machine does not finger an innocent phase).
fn check_baseline(rows: &[Row], baseline: &str) {
    let parsed = Json::parse(baseline).expect("baseline file is valid JSON");
    let entries = parsed
        .get("baseline")
        .and_then(Json::as_array)
        .expect("baseline file has a `baseline` array");
    let mut failed = false;
    for entry in entries {
        let hosts = entry.get("hosts").and_then(Json::as_f64).expect("hosts") as usize;
        let base_tps = entry
            .get("ticks_per_sec")
            .and_then(Json::as_f64)
            .expect("ticks_per_sec");
        let Some(row) = rows.iter().find(|r| r.hosts == hosts) else {
            continue;
        };
        let floor = 0.7 * base_tps;
        if row.ticks_per_sec < floor {
            eprintln!(
                "PERF REGRESSION at {hosts} hosts: {:.0} ticks/s < 70% of baseline {:.0}",
                row.ticks_per_sec, base_tps
            );
            if let Some(mover) = biggest_mover(row, entry) {
                eprintln!("  phase that moved: {mover}");
            }
            failed = true;
        } else {
            println!(
                "{hosts:>5} hosts: {:.0} ticks/s vs baseline {:.0} (floor {:.0}) ok",
                row.ticks_per_sec, base_tps, floor
            );
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Names the phase whose share of attributed wall time grew the most
/// over the baseline's shares (`None` when the baseline entry records
/// no phases).
fn biggest_mover(row: &Row, entry: &Json) -> Option<String> {
    let base = entry.get("phases")?.as_object()?;
    let total: f64 = row.phases.iter().map(|(_, s)| s).sum();
    let base_total: f64 = base.iter().filter_map(|(_, v)| v.as_f64()).sum();
    if total <= 0.0 || base_total <= 0.0 {
        return None;
    }
    let mut best: Option<(String, f64, f64)> = None;
    for (name, secs) in &row.phases {
        let now = secs / total;
        let was = base
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_f64())
            .unwrap_or(0.0)
            / base_total;
        let growth = now - was;
        if best
            .as_ref()
            .is_none_or(|(_, b_was, b_now)| growth > b_now - b_was)
        {
            best = Some((name.clone(), was, now));
        }
    }
    best.map(|(name, was, now)| {
        format!(
            "{name} ({:.0}% of attributed time, baseline {:.0}%)",
            now * 100.0,
            was * 100.0
        )
    })
}
