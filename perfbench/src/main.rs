//! The agilepm benchmark: three workloads through the public simulator
//! API, host-time and simulated-outcome end-to-end metrics with tracing
//! off, and a per-layer unit-cost ledger from a traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet_day --seed 2013 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! See `perfbench/README.md` for why each workload exists and which
//! end-to-end metric each layer metric should move.

mod jobs;
mod ledger;
mod stats;

use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use check_support::check_report;
use jobs::{Job, Pass, Sizes, Workload};
use ledger::Layer;
use stats::median;

const USAGE: &str = "\
usage: perfbench --workload <fleet_day|plane_ladder|policy_grid|all> [options]

options:
  --seed N        workload seed (default 2013; 4242 is held out for claims)
  --seconds N     measuring time per run, 1..=600 (default 30)
  --trace 0|1     0: end-to-end metrics, tracing off (default)
                  1: per-layer ledger from a traced run
  --size full|smoke
                  fleet sizes: the defined benchmark (default) or tiny
                  fleets for the smoke test
  --help          print this text";

/// Passes measured at least, whatever `--seconds` says, so every median
/// has company.
const MIN_PASSES: usize = 3;
/// Traced runs alternate untraced and traced passes; at least this many
/// pairs.
const MIN_PAIRS: usize = 2;
/// Upper bound on passes, for tiny fleets with long measuring times.
const MAX_PASSES: usize = 200;

/// Command-line options, checked.
#[derive(Debug)]
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        workload: None,
        seed: jobs::SEED,
        seconds: 30,
        trace: false,
        smoke: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        let value = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" | "--size" => {
                it.next().ok_or_else(|| format!("{flag} needs a value"))?
            }
            other => return Err(format!("unknown argument {other:?}")),
        };
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(if value == "all" {
                    None
                } else {
                    Some(Workload::parse(value).ok_or_else(bad)?)
                })
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(bad)?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => {
                opts.smoke = match value.as_str() {
                    "full" => false,
                    "smoke" => true,
                    _ => return Err(bad()),
                }
            }
            _ => unreachable!("flag list above"),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(Some(opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match opts.workload {
        Some(workload) => run(workload, &opts),
        None => run_all(&args),
    }
}

/// `--workload all`: each workload in a process of its own, so each
/// peak RSS is its own.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut child_args = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "all")
            .expect("parse_args saw --workload all");
        child_args[at] = w.name().to_string();
        match Command::new(&exe).args(&child_args).status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("perfbench: cannot run {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Simulations attempted and failed (error, invariant violation, or a
/// report that differs from its reference).
#[derive(Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
}

impl Verdict {
    fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            println!("FAIL {what}: {e}");
        }
    }
}

fn run(workload: Workload, opts: &Options) -> ExitCode {
    let sizes: &Sizes = if opts.smoke {
        &jobs::SMOKE
    } else {
        &jobs::FULL
    };
    let jobs = workload.jobs(sizes, opts.seed);
    let name = workload.name();
    println!(
        "# perfbench workload={name} seed={} seconds={} trace={} size={}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        if opts.smoke { "smoke" } else { "full" }
    );
    println!(
        "# host nproc={} cpu={:?} rustc={:?}",
        jobs::nproc(),
        cpu_model(),
        env!("PERFBENCH_RUSTC_VERSION")
    );
    // The first of the largest jobs: its scenario feeds the layer probes.
    let largest_at = (0..jobs.len())
        .max_by_key(|&i| (jobs[i].hosts, std::cmp::Reverse(i)))
        .expect("every workload has jobs");
    let largest = jobs[largest_at];
    println!(
        "# fleet jobs={} largest: {}",
        jobs.len(),
        largest.describe()
    );

    // Measure. A traced run alternates untraced and traced passes so
    // both see the same machine state. Every pass after the first must
    // reproduce the first's reports bit for bit; once compared (and, if
    // traced, reduced to its unit costs) its reports are released.
    let budget = Duration::from_secs(opts.seconds);
    let start = Instant::now();
    let mut verdict = Verdict::default();
    let mut passes: Vec<Pass> = Vec::new();
    let mut reference: Vec<Option<u64>> = Vec::new();
    let mut traced_layers: Vec<Vec<Layer>> = Vec::new();
    loop {
        for traced in [false, true].into_iter().take(1 + usize::from(opts.trace)) {
            let mut pass = jobs::run_pass(&jobs, traced);
            if passes.is_empty() {
                reference = pass.digests();
            } else {
                let p = passes.len();
                for (i, (out, digest)) in pass.outputs.iter().zip(pass.digests()).enumerate() {
                    let result = match &out.report {
                        Err(e) => Err(e.clone()),
                        Ok(_) if digest != reference[i] => {
                            Err("report differs from pass 0".to_string())
                        }
                        Ok(_) => Ok(()),
                    };
                    verdict.record(&format!("{name} pass {p} job {i}"), result);
                }
            }
            if traced {
                traced_layers.push(ledger::traced_layers(&pass));
            }
            if !passes.is_empty() {
                pass.release_outputs();
            }
            passes.push(pass);
        }
        let (measured, min) = if opts.trace {
            (passes.len() / 2, MIN_PAIRS)
        } else {
            (passes.len(), MIN_PASSES)
        };
        if (measured >= min && start.elapsed() >= budget) || measured >= MAX_PASSES {
            break;
        }
    }
    let peak_rss_kb = peak_rss_kb();

    // The first pass's reports against the invariant catalog
    // (`check_report` also runs `check_work_counters` and
    // `check_commit_ledger`).
    let scenarios: Vec<_> = jobs.iter().map(Job::scenario).collect();
    for (i, out) in passes[0].outputs.iter().enumerate() {
        let result = match &out.report {
            Err(e) => Err(e.clone()),
            Ok(r) => check_report(&scenarios[i], r),
        };
        verdict.record(&format!("{name} pass 0 job {i}"), result);
    }
    println!("digest {name} {:#018x}", passes[0].digest());
    if let Some(twin) = workload.twin(sizes, opts.seed) {
        scan_oracle(name, &twin, &mut verdict);
    }

    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let e2e = end_to_end(&untraced, peak_rss_kb);
    println!(
        "# passes untraced={} traced={} in {:.3} s; ticks per job={} VM-ticks per pass={}",
        untraced.len(),
        traced.len(),
        start.elapsed().as_secs_f64(),
        untraced[0].counter("sim.rounds") / jobs.len() as u64,
        untraced[0].vm_ticks()
    );
    let column = |f: fn(&Pass) -> f64| -> Vec<String> {
        untraced.iter().map(|p| format!("{:.4}", f(p))).collect()
    };
    println!(
        "# untraced passes: setup_s=[{}] run_wall_s=[{}]",
        column(Pass::setup_s).join(", "),
        column(Pass::run_wall_s).join(", ")
    );
    for (metric, unit, value) in &e2e {
        println!("metric {metric} = {value} {unit}");
    }
    let failed_pct = 100.0 * verdict.failed as f64 / verdict.attempted as f64;
    println!(
        "metric sims_failed_pct = {failed_pct} % ({} failed / {} attempted)",
        verdict.failed, verdict.attempted
    );

    let metrics: Vec<(&str, &str, f64)> = if opts.trace {
        let probe = &scenarios[largest_at];
        let layers = layer_ledger(
            traced_layers,
            &untraced,
            &traced,
            probe,
            peak_rss_kb,
            largest.vms(),
        );
        for l in &layers {
            println!(
                "layer {} = {} {}  [{} {} / {} {}]",
                l.name, l.value, l.unit, l.numerator.0, l.numerator.1, l.base.0, l.base.1
            );
        }
        layers.iter().map(|l| (l.name, l.unit, l.value)).collect()
    } else {
        e2e
    };
    println!("{}", result_json(&verdict, &metrics));
    if verdict.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Reruns the downsized twin under scan accounting and scan planning;
/// its stripped report must equal the indexed/incremental one.
fn scan_oracle(name: &str, twin: &Job, verdict: &mut Verdict) {
    let scenario = twin.scenario();
    let run = |scan: bool| {
        dcsim::SimulationBuilder::new(twin.experiment(scenario.clone(), scan))
            .run_report()
            .map_err(|e| format!("simulation error: {e}"))
            .and_then(|r| check_report(&scenario, &r).map(|()| r))
    };
    let fast = run(false);
    let scan = run(true);
    let fast_digest = fast.as_ref().ok().map(jobs::digest);
    let scan_digest = scan.as_ref().ok().map(jobs::digest);
    verdict.record(&format!("{name} twin"), fast.map(|_| ()));
    let same = match (fast_digest, scan_digest) {
        (Some(a), Some(b)) if a != b => Err(format!(
            "indexed/incremental digest {a:#018x} != scan digest {b:#018x}"
        )),
        _ => Ok(()),
    };
    verdict.record(&format!("{name} scan oracle"), scan.map(|_| ()).and(same));
    println!(
        "oracle {name} twin {} indexed+incremental={} scan+scan={}",
        twin.describe(),
        fmt_digest(fast_digest),
        fmt_digest(scan_digest)
    );
}

fn fmt_digest(d: Option<u64>) -> String {
    d.map_or_else(|| "error".to_string(), |d| format!("{d:#018x}"))
}

/// The end-to-end metrics of the untraced passes: host time as medians
/// over passes, simulated outcomes of the (identical) reports.
fn end_to_end(untraced: &[&Pass], peak_rss_kb: u64) -> Vec<(&'static str, &'static str, f64)> {
    let setup_s = median(untraced.iter().map(|p| p.setup_s()).collect());
    let run_wall_s = median(untraced.iter().map(|p| p.run_wall_s()).collect());
    let first = untraced[0];
    let reports: Vec<_> = first.reports().collect();
    let sum = |f: &dyn Fn(&dcsim::SimReport) -> f64| reports.iter().map(|r| f(r)).sum::<f64>();
    let unserved_pct = if reports.is_empty() {
        0.0
    } else {
        100.0 * sum(&|r| r.unserved_ratio) / reports.len() as f64
    };
    vec![
        ("setup_s", "s", setup_s),
        ("run_wall_s", "s", run_wall_s),
        (
            "vm_ticks_per_s",
            "vm-ticks/s",
            first.vm_ticks() / run_wall_s,
        ),
        ("peak_rss_mb", "MB", peak_rss_kb as f64 / 1024.0),
        ("energy_kwh", "kWh", sum(&|r| r.energy_kwh())),
        ("unserved_pct", "%", unserved_pct),
        ("migrations", "count", sum(&|r| r.migrations as f64)),
        (
            "power_actions",
            "count",
            sum(&|r| (r.power_ups + r.power_downs) as f64),
        ),
    ]
}

/// Every per-layer metric: medians of the traced passes' span/counter
/// ratios, the pass-level costs, and the benchmark-timed probes.
fn layer_ledger(
    traced_layers: Vec<Vec<Layer>>,
    untraced: &[&Pass],
    traced: &[&Pass],
    probe: &dcsim::Scenario,
    peak_rss_kb: u64,
    max_vms: usize,
) -> Vec<Layer> {
    let columns = traced_layers.first().map_or(0, Vec::len);
    let mut per_pass: Vec<_> = traced_layers.into_iter().map(Vec::into_iter).collect();
    let mut layers = Vec::new();
    for _ in 0..columns {
        let column = per_pass
            .iter_mut()
            .map(|it| it.next().expect("same layers every pass"))
            .collect();
        layers.push(ledger::median_layer(column));
    }
    layers.extend(ledger::pass_layers(untraced, traced));
    layers.extend(ledger::probe_layers(
        probe,
        peak_rss_kb as f64 * 1024.0,
        max_vms,
    ));
    layers
}

/// The contract's result line.
fn result_json(verdict: &Verdict, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        verdict.failed == 0,
        verdict.attempted,
        verdict.failed,
        body.join(", ")
    )
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

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}
