//! The per-layer unit-cost ledger of a traced run. Every entry is a ratio
//! of a measured numerator over a named base, both printed with it.

use std::time::Instant;

use cluster::{Cluster, DemandOutcome, HostId, VmId};
use dcsim::Scenario;
use simcore::{SimDuration, SimTime};

use crate::jobs::Pass;
use crate::stats::median;

/// One unit cost: `value = scale × numerator / base`.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub numerator: (String, f64),
    pub base: (String, f64),
}

impl Layer {
    fn ratio(
        name: &'static str,
        unit: &'static str,
        scale: f64,
        numerator: (&str, f64),
        base: (&str, f64),
    ) -> Layer {
        let value = if base.1 > 0.0 {
            scale * numerator.1 / base.1
        } else {
            0.0
        };
        Layer {
            name,
            unit,
            value,
            numerator: (numerator.0.to_string(), numerator.1),
            base: (base.0.to_string(), base.1),
        }
    }

    /// A total with no base (a count, or host seconds of one pass).
    fn total(name: &'static str, unit: &'static str, numerator: (&str, f64)) -> Layer {
        Layer::ratio(name, unit, 1.0, numerator, ("pass", 1.0))
    }
}

/// The engine's depth-1 tick phases; together they must account for the
/// traced run wall.
const PHASES: [(&str, &str); 5] = [
    ("sim.demand_s", "demand"),
    ("sim.observe_s", "observe"),
    ("sim.plan_s", "plan"),
    ("sim.execute_s", "execute"),
    ("sim.dispatch_s", "dispatch"),
];

/// The span- and counter-derived unit costs of one traced pass.
pub fn traced_layers(pass: &Pass) -> Vec<Layer> {
    let spans = pass.spans();
    let secs = |path: &str| spans.get(path).map_or(0.0, |s| s.0);
    let calls = |path: &str| spans.get(path).map_or(0.0, |s| s.1 as f64);
    let c = |name: &str| pass.counter(name) as f64;
    let ticks = c("sim.rounds");
    let vm_ticks = pass.vm_ticks();
    // Planner rounds are `plan_traced` calls: ticks × schedulers.
    let (mut host_rounds, mut vm_rounds) = (0.0, 0.0);
    for out in &pass.outputs {
        if let Ok(r) = &out.report {
            let rounds = out.spans.get("plan;rescore").map_or(0.0, |s| s.1 as f64);
            host_rounds += r.num_hosts as f64 * rounds;
            vm_rounds += r.num_vms as f64 * rounds;
        }
    }
    let rounds = calls("plan;rescore");
    let run_s: f64 = pass.jobs.iter().map(|j| j.run_s).sum();
    let phase_s: f64 = PHASES.iter().map(|(_, p)| secs(p)).sum();
    let migrations = c("work.migrations.executed");
    let transitions = c("sim.power.ups") + c("sim.power.downs");
    let trials = c("work.plan.trials_attempted");
    let planned = c("work.commit.planned");

    let mut out: Vec<Layer> = PHASES
        .iter()
        .map(|(name, path)| Layer::total(name, "s", (&format!("span {path} s"), secs(path))))
        .collect();
    out.extend([
        Layer::ratio(
            "sim.phase_attributed_pct",
            "%",
            100.0,
            ("tick-phase span s", phase_s),
            ("traced run s", run_s),
        ),
        Layer::ratio(
            "sim.demand_ns_per_vm",
            "ns",
            1e9,
            ("span demand s", secs("demand")),
            ("VM-ticks", vm_ticks),
        ),
        Layer::ratio(
            "sim.observe_ns_per_vm",
            "ns",
            1e9,
            ("span observe s", secs("observe")),
            ("VM-ticks", vm_ticks),
        ),
        Layer::ratio(
            "sim.execute_ns_per_action",
            "ns",
            1e9,
            ("span execute s", secs("execute")),
            (
                "migrations executed + power transitions",
                migrations + transitions,
            ),
        ),
        Layer::ratio(
            "sim.dispatch_ns_per_event",
            "ns",
            1e9,
            ("span dispatch s", secs("dispatch")),
            ("events dispatched", calls("dispatch")),
        ),
        Layer::total(
            "simcore.events_dispatched",
            "count",
            ("span dispatch calls", calls("dispatch")),
        ),
        Layer::ratio(
            "cluster.dirty_marks_per_tick",
            "count",
            1.0,
            ("work.cluster.dirty_marks", c("work.cluster.dirty_marks")),
            ("ticks", ticks),
        ),
        Layer::ratio(
            "core.plan_ns_per_host_round",
            "ns",
            1e9,
            ("span plan s", secs("plan")),
            ("hosts x planner rounds", host_rounds),
        ),
        Layer::ratio(
            "core.rescore_ns_per_vm",
            "ns",
            1e9,
            ("span plan;rescore s", secs("plan;rescore")),
            ("VMs x planner rounds", vm_rounds),
        ),
        Layer::ratio(
            "core.index_maintain_ns_per_rebucket",
            "ns",
            1e9,
            ("span plan;index_maintain s", secs("plan;index_maintain")),
            ("work.index.rebuckets", c("work.index.rebuckets")),
        ),
        Layer::total(
            "core.overload_s",
            "s",
            ("span plan;overload s", secs("plan;overload")),
        ),
        Layer::ratio(
            "core.drain_ms_per_round",
            "ms",
            1e3,
            (
                "span plan;consolidate;drain s",
                secs("plan;consolidate;drain"),
            ),
            ("planner rounds", rounds),
        ),
        Layer::ratio(
            "core.trial_us",
            "us",
            1e6,
            (
                "span plan;consolidate;trial s",
                secs("plan;consolidate;trial"),
            ),
            ("work.plan.trials_attempted", trials),
        ),
        Layer::ratio(
            "core.hosts_per_trial",
            "count",
            1.0,
            ("work.plan.hosts_rescored", c("work.plan.hosts_rescored")),
            ("work.plan.trials_attempted", trials),
        ),
        Layer::ratio(
            "core.trial_rollback_pct",
            "%",
            100.0,
            (
                "work.plan.trials_rolled_back",
                c("work.plan.trials_rolled_back"),
            ),
            ("work.plan.trials_attempted", trials),
        ),
        Layer::total(
            "core.overlay_folds",
            "count",
            ("work.index.overlay_folds", c("work.index.overlay_folds")),
        ),
        Layer::ratio(
            "core.commit_accept_pct",
            "%",
            100.0,
            ("work.commit.accepted", c("work.commit.accepted")),
            ("work.commit.planned", planned),
        ),
        Layer::ratio(
            "core.commit_reject_pct",
            "%",
            100.0,
            ("work.commit.rejected", c("work.commit.rejected")),
            ("work.commit.planned", planned),
        ),
        Layer::ratio(
            "core.commit_dropped_unowned_pct",
            "%",
            100.0,
            (
                "work.commit.dropped_unowned",
                c("work.commit.dropped_unowned"),
            ),
            ("work.commit.planned", planned),
        ),
        Layer::total(
            "power.transitions",
            "count",
            ("sim.power.ups + sim.power.downs", transitions),
        ),
        Layer::ratio(
            "power.execute_ns_per_transition",
            "ns",
            1e9,
            ("span execute;power s", secs("execute;power")),
            ("power transitions", transitions),
        ),
    ]);
    out
}

/// Setup, pool and tracing costs, from the run's untraced and traced
/// passes (each the pass with the median value).
pub fn pass_layers(untraced: &[&Pass], traced: &[&Pass]) -> Vec<Layer> {
    let per_pass =
        |f: &dyn Fn(&Pass) -> Layer| median_layer(untraced.iter().map(|p| f(p)).collect());
    let run_plain = median(untraced.iter().map(|p| p.run_wall_s()).collect());
    let run_traced = median(traced.iter().map(|p| p.run_wall_s()).collect());
    vec![
        per_pass(&|p| {
            let s = p.jobs.iter().map(|j| j.generate_s).sum();
            Layer::total("workload.generate_s", "s", ("Scenario::datacenter* s", s))
        }),
        per_pass(&|p| {
            let s = p.jobs.iter().map(|j| j.build_s).sum();
            Layer::total("cluster.build_s", "s", ("SimulationBuilder::build s", s))
        }),
        per_pass(&|p| {
            let busy = p
                .jobs
                .iter()
                .map(|j| j.generate_s + j.build_s + j.run_s)
                .sum();
            Layer::ratio(
                "simcore.pool_busy_pct",
                "%",
                100.0,
                ("job s", busy),
                (
                    &format!("{} worker(s) x pass wall s", p.workers),
                    p.workers as f64 * p.wall_s,
                ),
            )
        }),
        Layer::ratio(
            "obs.trace_overhead_pct",
            "%",
            100.0,
            ("traced - untraced run_wall_s", run_traced - run_plain),
            ("untraced run_wall_s", run_plain),
        ),
    ]
}

/// The layer with the median value (the lower one of an even count), so
/// its numerator and base are those of a real pass.
pub fn median_layer(mut layers: Vec<Layer>) -> Layer {
    layers.sort_by(|a, b| a.value.total_cmp(&b.value));
    let mid = (layers.len() - 1) / 2;
    layers.swap_remove(mid)
}

/// Benchmark-timed calls into the `workload` and `cluster` layers over
/// `scenario`'s fleet for one simulated day, plus memory per VM.
pub fn probe_layers(scenario: &Scenario, peak_rss_bytes: f64, max_vms: usize) -> Vec<Layer> {
    let step = scenario.demand_step();
    let ticks = (SimDuration::from_hours(24).as_millis() / step.as_millis() + 1) as usize;
    let at = |k: usize| SimTime::from_millis(k as u64 * step.as_millis());
    let traces = scenario.fleet().traces();
    let specs = scenario.fleet().vm_specs();

    let t = Instant::now();
    let mut sum = 0.0;
    for k in 0..ticks {
        let now = at(k);
        for trace in traces {
            sum += std::hint::black_box(trace).at(now);
        }
    }
    let trace_at_s = t.elapsed().as_secs_f64();
    std::hint::black_box(sum);

    let mut cluster = Cluster::new(
        scenario.host_specs().to_vec(),
        specs.to_vec(),
        SimTime::ZERO,
    );
    place_round_robin(&mut cluster);
    let mut demand = vec![0.0; specs.len()];
    let mut outcome = DemandOutcome::default();
    let mut apply_s = 0.0;
    for k in 0..ticks {
        let now = at(k);
        for ((d, trace), spec) in demand.iter_mut().zip(traces).zip(specs) {
            *d = trace.at(now) * spec.cpu_cap_cores();
        }
        let t = Instant::now();
        cluster.apply_demand_into(now, std::hint::black_box(&demand), &mut outcome);
        apply_s += t.elapsed().as_secs_f64();
    }
    std::hint::black_box(&outcome);
    let vm_ticks = (traces.len() * ticks) as f64;
    vec![
        Layer::ratio(
            "workload.trace_at_ns",
            "ns",
            1e9,
            ("DemandTrace::at s", trace_at_s),
            ("calls (VMs x ticks)", vm_ticks),
        ),
        Layer::ratio(
            "cluster.apply_demand_ns_per_vm",
            "ns",
            1e9,
            ("Cluster::apply_demand_into s", apply_s),
            ("VM-ticks", vm_ticks),
        ),
        Layer::ratio(
            "sim.bytes_per_vm",
            "B",
            1.0,
            ("peak RSS bytes", peak_rss_bytes),
            ("VMs of the largest job", max_vms as f64),
        ),
    ]
}

/// The engine's initial placement: round robin with memory admission.
fn place_round_robin(cluster: &mut Cluster) {
    let hosts = cluster.num_hosts();
    let mut cursor = 0;
    for vm in 0..cluster.num_vms() {
        if let Some(k) = (0..hosts).find(|k| {
            cluster
                .place(VmId(vm as u32), HostId(((cursor + k) % hosts) as u32))
                .is_ok()
        }) {
            cursor = (cursor + k + 1) % hosts;
        }
    }
}
