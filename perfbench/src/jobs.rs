//! The three workloads as lists of simulation jobs, and one timed pass
//! over such a list through the public API.

use std::collections::BTreeMap;
use std::time::Instant;

use agile_core::{PlanMode, PowerPolicy};
use cluster::AccountingMode;
use dcsim::{Experiment, Scenario, SimReport, SimulationBuilder};
use simcore::{pool, SimDuration};

/// Default workload seed (the seed the repository's experiments use).
pub const SEED: u64 = 2013;
/// VMs per host in every workload (the paper-scale packing density).
pub const VMS_PER_HOST: usize = 6;
/// Wake-latency SLO of the joint sleep+speed policy.
const WAKE_SLO_SECS: u64 = 12;
/// Control-plane settings of `plane_ladder`: schedulers, view staleness
/// and control latency in rounds (the `counters_distributed` settings).
const PLANE: (usize, usize, usize) = (4, 1, 1);

/// A named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetDay,
    PlaneLadder,
    PolicyGrid,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::FleetDay,
        Workload::PlaneLadder,
        Workload::PolicyGrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetDay => "fleet_day",
            Workload::PlaneLadder => "plane_ladder",
            Workload::PolicyGrid => "policy_grid",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The measured jobs. Same seed, same jobs.
    pub fn jobs(self, sizes: &Sizes, seed: u64) -> Vec<Job> {
        match self {
            Workload::FleetDay => vec![Job::fleet_day(sizes.fleet_hosts, seed)],
            Workload::PlaneLadder => vec![Job::plane_ladder(sizes.plane_hosts, seed)],
            Workload::PolicyGrid => {
                let mut jobs = Vec::new();
                for &hosts in sizes.grid_hosts {
                    for k in 0..sizes.grid_seeds {
                        let seed = grid_seed(seed, k as u64);
                        jobs.push(Job::grid(
                            Family::Datacenter,
                            hosts,
                            seed,
                            PowerPolicy::always_on(),
                        ));
                        jobs.push(Job::grid(
                            Family::Datacenter,
                            hosts,
                            seed,
                            PowerPolicy::reactive_suspend(),
                        ));
                        jobs.push(Job::grid(Family::Ladder, hosts, seed, joint_ladder()));
                    }
                }
                jobs
            }
        }
    }

    /// The downsized twin rerun under the scan references, if any.
    pub fn twin(self, sizes: &Sizes, seed: u64) -> Option<Job> {
        match self {
            Workload::FleetDay => Some(Job::fleet_day(sizes.fleet_twin_hosts, seed)),
            Workload::PlaneLadder => Some(Job::plane_ladder(sizes.plane_twin_hosts, seed)),
            Workload::PolicyGrid => None,
        }
    }
}

/// Fleet sizes of one benchmark size class.
#[derive(Debug)]
pub struct Sizes {
    pub fleet_hosts: usize,
    pub fleet_twin_hosts: usize,
    pub plane_hosts: usize,
    pub plane_twin_hosts: usize,
    pub grid_hosts: &'static [usize],
    pub grid_seeds: usize,
}

/// The sizes the benchmark is defined at.
pub const FULL: Sizes = Sizes {
    fleet_hosts: 16384,
    fleet_twin_hosts: 1024,
    plane_hosts: 4096,
    plane_twin_hosts: 256,
    grid_hosts: &[64, 256],
    grid_seeds: 16,
};

/// Tiny fleets for the smoke test: every code path, a second of work.
pub const SMOKE: Sizes = Sizes {
    fleet_hosts: 64,
    fleet_twin_hosts: 16,
    plane_hosts: 32,
    plane_twin_hosts: 16,
    grid_hosts: &[8, 16],
    grid_seeds: 2,
};

fn joint_ladder() -> PowerPolicy {
    PowerPolicy::joint_ladder(SimDuration::from_secs(WAKE_SLO_SECS))
}

/// Seed of grid job group `k`: `seed × 1000 + k`, so groups of nearby
/// run seeds do not overlap. Seeds of 2^63 and above are avoided only by
/// keeping `--seed` small: `SimReport`'s JSON encodes the seed as a signed
/// integer and cannot read such a seed back, which the report check
/// catches.
fn grid_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(k)
}

#[derive(Debug, Clone, Copy)]
pub enum Family {
    Datacenter,
    Ladder,
}

/// One simulation: a generated world, a policy, and how it is planned.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub family: Family,
    pub hosts: usize,
    pub seed: u64,
    pub policy: PowerPolicy,
    pub plane: bool,
}

impl Job {
    fn fleet_day(hosts: usize, seed: u64) -> Job {
        Job {
            family: Family::Datacenter,
            hosts,
            seed,
            policy: PowerPolicy::reactive_suspend(),
            plane: false,
        }
    }

    fn plane_ladder(hosts: usize, seed: u64) -> Job {
        Job {
            family: Family::Ladder,
            hosts,
            seed,
            policy: joint_ladder(),
            plane: true,
        }
    }

    fn grid(family: Family, hosts: usize, seed: u64, policy: PowerPolicy) -> Job {
        Job {
            family,
            hosts,
            seed,
            policy,
            plane: false,
        }
    }

    pub fn vms(&self) -> usize {
        self.hosts * VMS_PER_HOST
    }

    pub fn describe(&self) -> String {
        let plane = if self.plane {
            format!(
                " schedulers={} staleness={} latency={}",
                PLANE.0, PLANE.1, PLANE.2
            )
        } else {
            " schedulers=1".to_string()
        };
        format!(
            "hosts={} vms={} scenario={} policy={}{plane}",
            self.hosts,
            self.vms(),
            match self.family {
                Family::Datacenter => "datacenter",
                Family::Ladder => "datacenter_ladder",
            },
            self.policy.label()
        )
    }

    /// The `workload` layer: fleet and demand-trace generation.
    pub fn scenario(&self) -> Scenario {
        match self.family {
            Family::Datacenter => Scenario::datacenter(self.hosts, self.vms(), self.seed),
            Family::Ladder => Scenario::datacenter_ladder(self.hosts, self.vms(), self.seed),
        }
    }

    /// The experiment on `scenario`: indexed planning over incremental
    /// accounting, or with `scan` both O(n) scan references.
    pub fn experiment(&self, scenario: Scenario, scan: bool) -> Experiment {
        let mut exp = Experiment::new(scenario).policy(self.policy);
        exp = if scan {
            exp.plan_mode(PlanMode::Scan)
                .accounting(AccountingMode::Scan)
        } else {
            exp.plan_mode(PlanMode::Indexed)
        };
        if self.plane {
            exp = exp
                .schedulers(PLANE.0)
                .view_staleness(PLANE.1)
                .control_latency(PLANE.2);
        }
        exp
    }
}

/// The host-time split of one job.
pub struct JobRun {
    pub generate_s: f64,
    pub build_s: f64,
    pub run_s: f64,
}

/// What one job produced.
pub struct JobOutput {
    pub report: Result<SimReport, String>,
    /// Span totals and call counts by path (traced runs only).
    pub spans: BTreeMap<String, (f64, u64)>,
}

/// Generates, builds and runs `job` with tracing on or off.
fn run_job(job: &Job, traced: bool) -> (JobRun, JobOutput) {
    let t = Instant::now();
    let scenario = job.scenario();
    let generate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let sim = SimulationBuilder::new(job.experiment(scenario, false))
        .profiling(traced)
        .build();
    let build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let out = sim.and_then(|sim| sim.run());
    let run_s = t.elapsed().as_secs_f64();
    let mut spans = BTreeMap::new();
    let report = match out {
        Ok(out) => {
            for s in out.spans.iter().flat_map(|s| &s.spans) {
                spans.insert(s.path.clone(), (s.total_secs, s.calls));
            }
            Ok(out.report)
        }
        Err(e) => Err(format!("simulation error: {e}")),
    };
    let run = JobRun {
        generate_s,
        build_s,
        run_s,
    };
    (run, JobOutput { report, spans })
}

/// One timed pass over a workload's jobs, through the shared worker pool
/// (a single job runs on the calling thread).
pub struct Pass {
    pub traced: bool,
    pub wall_s: f64,
    pub workers: usize,
    pub jobs: Vec<JobRun>,
    /// Reports and spans; empty once released.
    pub outputs: Vec<JobOutput>,
}

pub fn run_pass(jobs: &[Job], traced: bool) -> Pass {
    let t = Instant::now();
    let results = pool::run_indexed(jobs.len(), |i| run_job(&jobs[i], traced));
    let wall_s = t.elapsed().as_secs_f64();
    let (runs, outputs) = results.into_iter().unzip();
    Pass {
        traced,
        wall_s,
        workers: nproc().min(jobs.len()),
        jobs: runs,
        outputs,
    }
}

impl Pass {
    /// Scenario generation plus `SimulationBuilder::build`, summed over jobs.
    pub fn setup_s(&self) -> f64 {
        self.jobs.iter().map(|j| j.generate_s + j.build_s).sum()
    }

    /// Host seconds of the simulation(s): the run itself for a single
    /// job, the whole pooled pass for a grid.
    pub fn run_wall_s(&self) -> f64 {
        match self.jobs.as_slice() {
            [only] => only.run_s,
            _ => self.wall_s,
        }
    }

    /// Drops the reports and spans, so that the memory a run holds does
    /// not grow with the number of passes it measures.
    pub fn release_outputs(&mut self) {
        self.outputs = Vec::new();
    }

    pub fn reports(&self) -> impl Iterator<Item = &SimReport> {
        self.outputs.iter().filter_map(|o| o.report.as_ref().ok())
    }

    /// Counters summed over the pass's reports.
    pub fn counter(&self, name: &str) -> u64 {
        self.reports().map(|r| r.metrics.counter(name)).sum()
    }

    /// Simulated VM·ticks (one tick per control round).
    pub fn vm_ticks(&self) -> f64 {
        self.reports()
            .map(|r| r.num_vms as f64 * r.metrics.counter("sim.rounds") as f64)
            .sum()
    }

    /// Span totals and calls summed over jobs.
    pub fn spans(&self) -> BTreeMap<&str, (f64, u64)> {
        let mut out: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
        for (path, (secs, calls)) in self.outputs.iter().flat_map(|o| &o.spans) {
            let e = out.entry(path.as_str()).or_default();
            e.0 += secs;
            e.1 += calls;
        }
        out
    }

    /// Each job's stripped-report digest (`None` for a failed job).
    pub fn digests(&self) -> Vec<Option<u64>> {
        self.outputs
            .iter()
            .map(|o| o.report.as_ref().ok().map(digest))
            .collect()
    }

    /// Order-sensitive digest over every job's stripped report.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for o in &self.outputs {
            match &o.report {
                Ok(r) => h.write(&digest(r).to_le_bytes()),
                Err(e) => h.write(e.as_bytes()),
            }
        }
        h.finish()
    }
}

/// The counters that measure *how* a plan mode searched. They differ
/// between indexed and scan planning by design; every other field of the
/// report must match bit for bit.
fn is_search_cost(name: &str) -> bool {
    matches!(
        name,
        "work.plan.candidates_scanned" | "work.plan.hosts_rescored" | "work.plan.fold_elements"
    ) || name.starts_with("work.index.")
}

/// FNV-1a of the report's compact JSON with the search-cost counters
/// removed, so a digest reads the same under either plan mode.
pub fn digest(report: &SimReport) -> u64 {
    let mut r = report.clone();
    r.metrics.entries.retain(|e| !is_search_cost(&e.name));
    let mut h = Fnv::new();
    h.write(r.to_json().to_string_compact().as_bytes());
    h.finish()
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
