//! The unified simulation entry point.
//!
//! [`SimulationBuilder`] is the one front door to every way this crate
//! can evaluate an [`Experiment`]: the discrete-event engine (optionally
//! profiled, optionally returning the final cluster), the analytic
//! `Oracle` bound, and the analytic DVFS-only baseline. The experiment
//! carries every simulation knob, the control plane's shape included;
//! the builder adds only what to return and which evaluator to use.
//!
//! Configuration is validated once, here: the scenario, failure-model
//! and manager setters only store their values, and
//! [`SimulationBuilder::build`] checks them all, returning
//! [`SimError::InvalidConfig`] instead of panicking mid-run, so drivers
//! can surface bad sweeps and CLI input as errors.
//!
//! # Example
//!
//! ```
//! use agile_core::PowerPolicy;
//! use dcsim::{Experiment, Scenario, SimulationBuilder};
//! use simcore::SimDuration;
//!
//! let experiment = Experiment::new(Scenario::small_test(7))
//!     .policy(PowerPolicy::reactive_suspend())
//!     .horizon(SimDuration::from_hours(2));
//! let out = SimulationBuilder::new(experiment)
//!     .capture_cluster(true)
//!     .build()?
//!     .run()?;
//! assert!(out.report.energy_kwh() > 0.0);
//! assert!(out.cluster.is_some());
//! # Ok::<(), dcsim::SimError>(())
//! ```

use cluster::Cluster;
use obs::SpanSummary;
use power::DvfsModel;

use crate::engine::DatacenterSim;
use crate::{Experiment, SimError, SimReport};

/// Builder for a validated, ready-to-run [`Simulation`].
///
/// Wraps an [`Experiment`] (the *what*: scenario, policy, horizon,
/// failure model, sinks) with execution options (the *how*: profiling,
/// cluster capture, analytic DVFS mode).
#[derive(Debug, Clone)]
pub struct SimulationBuilder {
    experiment: Experiment,
    profiling: bool,
    capture_cluster: bool,
    dvfs: Option<DvfsModel>,
}

impl SimulationBuilder {
    /// Starts a builder around `experiment` with no extra outputs.
    pub fn new(experiment: Experiment) -> Self {
        SimulationBuilder {
            experiment,
            profiling: false,
            capture_cluster: false,
            dvfs: None,
        }
    }

    /// Enables wall-clock span profiling; the span tree comes back in
    /// [`SimOutput::spans`] (and in the trace's `run-summary` record),
    /// out-of-band of the bit-deterministic report. Incompatible with the
    /// analytic (Oracle/DVFS) modes.
    pub fn profiling(mut self, enable: bool) -> Self {
        self.profiling = enable;
        self
    }

    /// Returns the final [`Cluster`] in [`SimOutput::cluster`] for
    /// per-host inspection. Incompatible with the analytic (Oracle/DVFS)
    /// modes, which simulate no cluster.
    pub fn capture_cluster(mut self, enable: bool) -> Self {
        self.capture_cluster = enable;
        self
    }

    /// Evaluates the analytic DVFS-only baseline instead of the event
    /// loop: every host stays on and clocks down to the lowest
    /// sufficient frequency. The experiment's policy is ignored.
    pub fn dvfs_baseline(mut self, model: DvfsModel) -> Self {
        self.dvfs = Some(model);
        self
    }

    /// Builds and runs in one step, returning just the report — the
    /// common case for sweeps that want neither the cluster nor the
    /// span tree.
    ///
    /// # Errors
    ///
    /// As for [`build`](Self::build) and [`Simulation::run`].
    pub fn run_report(self) -> Result<SimReport, SimError> {
        Ok(self.build()?.run()?.report)
    }

    /// Validates the configuration and constructs the simulation
    /// (including the initial VM placement for engine runs).
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for an inconsistent configuration.
    /// Configuration is validated once, here, before either the analytic
    /// or the engine path is taken; the message names the bad knob:
    ///
    /// - the scenario: no hosts, no VMs, a zero demand step, or a trace
    ///   sampled at another step;
    /// - the failure model: a probability outside `[0, 1)`, a hang factor
    ///   below 1, or rack bursts with a zero rack size or duration;
    /// - the timing: a zero horizon or control interval, or an interval
    ///   longer than the horizon;
    /// - the manager ([`ManagerConfig::validate`](agile_core::ManagerConfig::validate)):
    ///   threshold ranges and ordering, zero action caps, the dead-band,
    ///   a zero pre-wake lookahead, and its predictor
    ///   ([`PredictorConfig::validate`](agile_core::PredictorConfig::validate))
    ///   and recovery
    ///   ([`RecoveryConfig::validate`](agile_core::RecoveryConfig::validate))
    ///   knobs;
    /// - the control plane: zero schedulers or more schedulers than hosts,
    ///   or cluster capture, profiling or a control plane other than the
    ///   default one requested from an analytic mode.
    ///
    /// [`SimError::InitialPlacement`] / [`SimError::TraceIo`] as for the
    /// engine.
    pub fn build(self) -> Result<Simulation, SimError> {
        let invalid = |message: String| SimError::InvalidConfig { message };
        let experiment = &self.experiment;
        experiment.scenario.validate().map_err(invalid)?;
        experiment.failures.validate().map_err(invalid)?;
        let horizon = experiment.horizon;
        if horizon.as_secs_f64() <= 0.0 {
            return Err(invalid("horizon must be non-zero".to_string()));
        }
        let interval = experiment.resolved_interval();
        if interval.as_secs_f64() <= 0.0 {
            return Err(invalid("control interval must be non-zero".to_string()));
        }
        if interval > horizon {
            return Err(invalid(format!(
                "control interval ({interval}) exceeds the horizon ({horizon})"
            )));
        }
        experiment
            .resolve_config()
            .validate()
            .map_err(|e| invalid(format!("manager config: {e}")))?;
        let schedulers = experiment.schedulers;
        let default_plane =
            schedulers == 1 && experiment.view_staleness == 0 && experiment.control_latency == 0;

        let analytic = if self.dvfs.is_some() {
            Some("the DVFS baseline")
        } else if experiment.is_oracle() {
            Some("the Oracle policy")
        } else {
            None
        };
        if let Some(mode) = analytic {
            if self.capture_cluster {
                return Err(invalid(format!("{mode} simulates no cluster to capture")));
            }
            if self.profiling {
                return Err(invalid(format!("{mode} has no event loop to profile")));
            }
            if !default_plane {
                return Err(invalid(format!("{mode} has no schedulers to distribute")));
            }
            let inner = match self.dvfs {
                Some(model) => SimKind::Dvfs {
                    experiment: self.experiment,
                    model,
                },
                None => SimKind::Oracle {
                    experiment: self.experiment,
                },
            };
            return Ok(Simulation { inner });
        }

        if schedulers == 0 {
            return Err(invalid(
                "control plane needs at least one scheduler".to_string(),
            ));
        }
        let num_hosts = experiment.scenario.host_specs().len();
        if schedulers > num_hosts {
            return Err(invalid(format!(
                "more schedulers ({schedulers}) than hosts ({num_hosts})"
            )));
        }
        let sim = DatacenterSim::new(experiment, self.profiling)?;
        Ok(Simulation {
            inner: SimKind::Engine {
                sim: Box::new(sim),
                capture_cluster: self.capture_cluster,
            },
        })
    }
}

/// A validated simulation, ready to [`run`](Self::run) exactly once.
#[derive(Debug)]
pub struct Simulation {
    inner: SimKind,
}

/// How the run is evaluated: the discrete-event engine or one of the two
/// analytic models.
#[derive(Debug)]
enum SimKind {
    Engine {
        /// Boxed: the engine is much larger than the analytic variants.
        sim: Box<DatacenterSim>,
        capture_cluster: bool,
    },
    Oracle {
        experiment: Experiment,
    },
    Dvfs {
        experiment: Experiment,
        model: DvfsModel,
    },
}

impl Simulation {
    /// Runs to the horizon.
    ///
    /// # Errors
    ///
    /// Propagates unrecoverable engine errors (see [`SimError`]); the
    /// analytic modes cannot fail.
    pub fn run(self) -> Result<SimOutput, SimError> {
        match self.inner {
            SimKind::Engine {
                sim,
                capture_cluster,
            } => {
                let (report, cluster, spans) = sim.run_inner()?;
                Ok(SimOutput {
                    report,
                    cluster: capture_cluster.then_some(cluster),
                    spans,
                })
            }
            SimKind::Oracle { experiment } => Ok(SimOutput {
                report: experiment.run_oracle(),
                cluster: None,
                spans: None,
            }),
            SimKind::Dvfs { experiment, model } => Ok(SimOutput {
                report: experiment.dvfs_report(&model),
                cluster: None,
                spans: None,
            }),
        }
    }
}

/// Everything a run can produce. The report is always present; the
/// cluster and the span tree appear only when requested on the builder.
#[derive(Debug)]
#[non_exhaustive]
pub struct SimOutput {
    /// The bit-deterministic run report.
    pub report: SimReport,
    /// The final cluster, when built with
    /// [`SimulationBuilder::capture_cluster`].
    pub cluster: Option<Cluster>,
    /// The wall-clock span tree (the tick phases at depth 1, attributed
    /// down to `candidate_scan`/`trial`/`undo`), exactly when built with
    /// [`SimulationBuilder::profiling`].
    pub spans: Option<SpanSummary>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FailureModel, Scenario};
    use agile_core::{ManagerConfig, PowerPolicy, PredictorConfig, RecoveryConfig};
    use simcore::SimDuration;

    fn experiment(seed: u64) -> Experiment {
        Experiment::new(Scenario::small_test(seed))
            .policy(PowerPolicy::reactive_suspend())
            .horizon(SimDuration::from_hours(2))
    }

    #[test]
    fn default_build_runs_serial_engine() {
        let out = SimulationBuilder::new(experiment(1))
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert!(out.report.energy_j > 0.0);
        assert!(out.cluster.is_none());
        assert!(out.spans.is_none());
    }

    #[test]
    fn capture_and_profile_are_opt_in() {
        let out = SimulationBuilder::new(experiment(2))
            .capture_cluster(true)
            .profiling(true)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let cluster = out.cluster.expect("requested cluster");
        assert!(cluster.placement().check_invariants());
        assert!(out.spans.is_some());
    }

    #[test]
    fn interval_beyond_horizon_is_rejected() {
        let e = experiment(4).control_interval(SimDuration::from_hours(3));
        let err = SimulationBuilder::new(e).build().unwrap_err();
        assert!(err.to_string().contains("exceeds the horizon"));
    }

    #[test]
    fn invalid_knobs_are_rejected_at_build() {
        let mins = SimDuration::from_mins;
        let donor = Scenario::small_test(3);
        let (hosts, fleet, step) = (donor.host_specs(), donor.fleet(), donor.demand_step());
        let world = |hosts: &[cluster::HostSpec], fleet: &workload::Fleet, step| {
            Experiment::new(Scenario::new("bad", hosts.to_vec(), fleet.clone(), step, 3))
        };
        let mgr = || ManagerConfig::new(PowerPolicy::reactive_suspend());
        let with_mgr = |c: ManagerConfig| Experiment::new(donor.clone()).manager_config(c);
        let with_rec = |r: RecoveryConfig| with_mgr(mgr().with_recovery(r));
        let with_fail = |f: FailureModel| Experiment::new(donor.clone()).failure_model(f);
        let rec = RecoveryConfig::new;
        let none = FailureModel::none;
        let rows: Vec<(Experiment, &str)> = vec![
            // Manager ranges, orderings, caps, dead-band and pre-wake.
            (
                with_mgr(mgr().with_target_utilization(0.0)),
                "target 0 outside",
            ),
            (
                with_mgr(mgr().with_target_utilization(1.2)),
                "target 1.2 outside",
            ),
            (
                with_mgr(mgr().with_overload_threshold(1.6)),
                "overload threshold 1.6",
            ),
            (
                with_mgr(mgr().with_underload_threshold(1.0)),
                "underload threshold 1",
            ),
            (
                with_mgr(mgr().with_imbalance_threshold(0.0)),
                "imbalance threshold 0",
            ),
            (
                with_mgr(mgr().with_target_utilization(0.95)),
                "target 0.95 must be below overload 0.9",
            ),
            (
                with_mgr(mgr().with_target_utilization(0.6)),
                "underload 0.65 must be below target 0.6",
            ),
            (
                with_mgr(mgr().with_max_migrations_per_round(0)),
                "migration per round",
            ),
            (
                with_mgr(mgr().with_max_drains_per_round(0)),
                "drain per round",
            ),
            (with_mgr(mgr().with_drain_deadband(-0.1)), "dead-band -0.1"),
            (
                with_mgr(mgr().with_drain_deadband(f64::NAN)),
                "dead-band NaN",
            ),
            (
                with_mgr(mgr().with_prewake(SimDuration::ZERO)),
                "prewake lookahead",
            ),
            // Predictor.
            (
                with_mgr(mgr().with_predictor(PredictorConfig::Ewma { alpha: 0.0 })),
                "predictor alpha 0",
            ),
            (
                with_mgr(mgr().with_predictor(PredictorConfig::WindowMax { window: 0 })),
                "predictor window",
            ),
            // Recovery.
            (with_rec(rec().with_max_retries(0)), "retry"),
            (
                with_rec(rec().with_backoff(SimDuration::ZERO, mins(4))),
                "backoff base",
            ),
            (
                with_rec(rec().with_backoff(mins(10), mins(2))),
                "backoff cap below base",
            ),
            (with_rec(rec().with_health(0.0, 0.05)), "health floor 0"),
            (with_rec(rec().with_health(0.25, 1.0)), "health recovery 1"),
            (
                with_rec(rec().with_probation(SimDuration::ZERO)),
                "probation",
            ),
            (
                with_rec(rec().with_failsafe(SimDuration::ZERO, 8)),
                "fail-safe window",
            ),
            (with_rec(rec().with_failsafe(mins(30), 0)), "fail-safe trip"),
            // Failure model.
            (
                with_fail(FailureModel::new(1.0, 0.0)),
                "resume failure probability 1",
            ),
            (
                with_fail(FailureModel::new(0.0, -0.1)),
                "boot failure probability -0.1",
            ),
            (
                with_fail(none().with_migration_failures(f64::NAN)),
                "migration failure probability NaN",
            ),
            (with_fail(none().with_hangs(1.0, 2.0)), "hang probability 1"),
            (with_fail(none().with_hangs(0.1, 0.5)), "hang factor 0.5"),
            (
                with_fail(none().with_rack_bursts(0, 0.1, mins(10))),
                "rack size",
            ),
            (
                with_fail(none().with_rack_bursts(4, 0.1, SimDuration::ZERO)),
                "rack burst duration",
            ),
            // Scenario, on the engine and on the analytic path.
            (world(&[], fleet, step), "scenario needs hosts"),
            (
                world(&[], fleet, step).policy(PowerPolicy::oracle()),
                "scenario needs hosts",
            ),
            (
                world(
                    hosts,
                    &workload::Fleet::from_parts(Vec::new(), Vec::new()),
                    step,
                ),
                "scenario needs VMs",
            ),
            (
                world(hosts, fleet, SimDuration::ZERO),
                "demand step must be non-zero",
            ),
            (world(hosts, fleet, mins(1)), "differs from the demand step"),
        ];
        for (experiment, knob) in rows {
            let err = SimulationBuilder::new(experiment).build().unwrap_err();
            assert!(
                matches!(err, SimError::InvalidConfig { .. }),
                "{knob}: {err}"
            );
            assert!(err.to_string().contains(knob), "{knob}: {err}");
        }
    }

    #[test]
    fn oracle_rejects_cluster_capture() {
        let e = Experiment::new(Scenario::small_test(6)).policy(PowerPolicy::oracle());
        let err = SimulationBuilder::new(e.clone())
            .capture_cluster(true)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("no cluster"));
        let err = SimulationBuilder::new(e)
            .profiling(true)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("no event loop"));
    }

    #[test]
    fn oracle_runs_analytically() {
        let e = Experiment::new(Scenario::small_test(7))
            .policy(PowerPolicy::oracle())
            .horizon(SimDuration::from_hours(2));
        let out = SimulationBuilder::new(e).build().unwrap().run().unwrap();
        assert_eq!(out.report.policy, "Oracle");
        assert!(out.cluster.is_none());
    }

    #[test]
    fn dvfs_baseline_ignores_policy() {
        let e = experiment(8);
        let out = SimulationBuilder::new(e)
            .dvfs_baseline(power::DvfsModel::typical_2013())
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(out.report.policy, "DVFS-only");
        assert_eq!(out.report.violation_fraction, 0.0);
    }

    #[test]
    fn control_plane_shape_is_validated() {
        let err = SimulationBuilder::new(experiment(10).schedulers(0))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("at least one scheduler"), "{err}");
        // small_test has 4 hosts.
        let err = SimulationBuilder::new(experiment(10).schedulers(5))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("more schedulers"), "{err}");
        assert!(SimulationBuilder::new(experiment(10).schedulers(4))
            .build()
            .is_ok());
        let e = Experiment::new(Scenario::small_test(10)).policy(PowerPolicy::oracle());
        let err = SimulationBuilder::new(e.clone().schedulers(2))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("no schedulers"), "{err}");
        // The default plane is no plane request: the Oracle accepts it.
        assert!(SimulationBuilder::new(e.schedulers(1)).build().is_ok());
        let err = SimulationBuilder::new(experiment(10).view_staleness(1))
            .dvfs_baseline(power::DvfsModel::typical_2013())
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("no schedulers"), "{err}");
    }

    #[test]
    fn distributed_build_runs() {
        let e = experiment(11)
            .schedulers(2)
            .view_staleness(1)
            .control_latency(1);
        let out = SimulationBuilder::new(e).build().unwrap().run().unwrap();
        assert!(out.report.energy_j > 0.0);
        let planned = out.report.metrics.counter("work.commit.planned");
        assert!(planned > 0, "distributed run must have planned actions");
    }
}
