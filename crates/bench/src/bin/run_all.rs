//! Runs the full evaluation: every table and figure, in experiment order.
//!
//! Independent experiments run on a bounded worker pool (one worker per
//! available core); output is printed in order once everything finishes,
//! followed by a per-experiment runtime table and the simulator's own
//! phase profile. Takes no arguments but `--help`.

use std::process::ExitCode;
use std::time::{Duration, Instant};

type Job = (
    &'static str,
    &'static str,
    Box<dyn Fn() -> String + Send + Sync>,
);

fn main() -> ExitCode {
    bench::cli::main_without_args(
        "run_all",
        "Runs every experiment of the evaluation, in order, and prints each\n\
         followed by a per-experiment runtime table.",
        run_all,
    )
}

fn run_all() {
    let jobs: Vec<Job> = vec![
        (
            "T1",
            "Power-state characterization",
            Box::new(bench::exp_t1),
        ),
        (
            "F2",
            "Park/wake power trace (S3 vs S5)",
            Box::new(bench::exp_f2),
        ),
        (
            "F3",
            "Break-even idle gap (S3 vs S5)",
            Box::new(bench::exp_f3),
        ),
        (
            "F4",
            "Datacenter power over 24 h",
            Box::new(|| bench::exp_f4_t5().0),
        ),
        (
            "T5",
            "Policy energy/performance summary",
            Box::new(|| bench::exp_f4_t5().1),
        ),
        ("F6", "Energy proportionality", Box::new(bench::exp_f6)),
        (
            "F7",
            "Responsiveness vs wake latency",
            Box::new(bench::exp_f7),
        ),
        ("F8", "Scale-out", Box::new(bench::exp_f8)),
        ("T9", "Management overhead", Box::new(bench::exp_t9)),
        ("F10", "Headroom sweep", Box::new(bench::exp_f10)),
        ("F11", "Hysteresis sweep", Box::new(bench::exp_f11)),
        ("T12", "Predictor ablation", Box::new(bench::exp_t12)),
        ("T13", "Reliability sensitivity", Box::new(bench::exp_t13)),
        ("T13b", "Failure-rate overhead", Box::new(bench::exp_t13b)),
        ("F14", "Lifecycle churn", Box::new(bench::exp_f14)),
        ("F15", "Heterogeneous fleet", Box::new(bench::exp_f15)),
        (
            "F16",
            "Power-curve shape ablation",
            Box::new(bench::exp_f16),
        ),
        ("F17", "Management-interval sweep", Box::new(bench::exp_f17)),
        (
            "T18",
            "Proactive pre-wake ablation",
            Box::new(bench::exp_t18),
        ),
        (
            "T19",
            "Seed-replicated policy summary",
            Box::new(bench::exp_t19),
        ),
        ("T20", "Per-class SLA accounting", Box::new(bench::exp_t20)),
        (
            "T21",
            "PSU conversion-loss sensitivity",
            Box::new(bench::exp_t21),
        ),
        (
            "T22",
            "DVFS-only vs consolidation",
            Box::new(bench::exp_t22),
        ),
        (
            "F23",
            "One-week weekday/weekend run",
            Box::new(bench::exp_f23),
        ),
        (
            "T24",
            "Consolidation packing ablation",
            Box::new(bench::exp_t24),
        ),
        (
            "T25",
            "Simulator phase profile",
            Box::new(bench::exp_profile),
        ),
        ("T26", "Savings-vs-SLO frontier", Box::new(bench::exp_t26)),
        (
            "T27",
            "Control-plane degradation frontier",
            Box::new(bench::exp_t27),
        ),
    ];

    // Shared bounded pool (see `simcore::pool`): never more workers than
    // cores, outputs in experiment order regardless of completion order.
    let workers = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(jobs.len());
    let wall = Instant::now();
    let results = simcore::pool::run_indexed(jobs.len(), |i| {
        let t0 = Instant::now();
        let body = jobs[i].2();
        (body, t0.elapsed())
    });
    let wall = wall.elapsed();

    let mut runtimes = Vec::with_capacity(results.len());
    for ((id, title, _), (body, elapsed)) in jobs.iter().zip(results) {
        bench::print_experiment(id, title, &body);
        runtimes.push((*id, *title, elapsed));
    }

    println!(
        "==== Runtime: {} experiments on {workers} workers ====",
        runtimes.len()
    );
    let busy: Duration = runtimes.iter().map(|(_, _, d)| *d).sum();
    for (id, title, d) in &runtimes {
        println!("{id:<4} {title:<36} {:>8.2} s", d.as_secs_f64());
    }
    println!(
        "total {:.2} s wall ({:.2} s of single-threaded work)",
        wall.as_secs_f64(),
        busy.as_secs_f64()
    );
}
