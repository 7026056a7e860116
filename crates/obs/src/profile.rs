//! Wall-clock phase profiling (flat view).
//!
//! The simulator is bit-deterministic in simulated time; wall-clock
//! measurement must therefore live entirely outside the simulation
//! state. [`ProfileSummary`] is the frozen flat table of per-phase
//! totals that never feeds back into simulation results; it is produced
//! by [`SpanTracer::flat_summary`](crate::span::SpanTracer::flat_summary)
//! as the top-level view of the span tree.

use std::fmt;

use crate::json::Json;

/// Frozen per-phase wall-clock totals.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Phase name, e.g. `plan`.
    pub name: String,
    /// Number of start/stop pairs.
    pub calls: u64,
    /// Total wall-clock seconds.
    pub total_secs: f64,
}

impl PhaseStat {
    /// Mean microseconds per call (0 when never called).
    pub fn mean_micros(&self) -> f64 {
        if self.calls > 0 {
            self.total_secs * 1e6 / self.calls as f64
        } else {
            0.0
        }
    }
}

/// A trace's frozen flat view: top-level phase totals plus the tracer's own
/// lifetime (an upper bound covering unattributed time).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProfileSummary {
    /// Per-phase stats, in registration order.
    pub phases: Vec<PhaseStat>,
    /// Wall-clock seconds since the tracer was created.
    pub wall_secs: f64,
}

impl ProfileSummary {
    /// Looks up a phase by name.
    pub fn phase(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Sum of attributed phase time, seconds.
    pub fn attributed_secs(&self) -> f64 {
        self.phases.iter().map(|p| p.total_secs).sum()
    }

    /// JSON rendering (for the end-of-run trace record).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("wall_secs", Json::Num(self.wall_secs)),
            (
                "phases",
                Json::Array(
                    self.phases
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("name", Json::Str(p.name.clone())),
                                ("calls", Json::Int(p.calls as i64)),
                                ("total_secs", Json::Num(p.total_secs)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl fmt::Display for ProfileSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "wall-clock: {:.3} s", self.wall_secs)?;
        let width = self
            .phases
            .iter()
            .map(|p| p.name.len())
            .max()
            .unwrap_or(0)
            .max(5);
        for p in &self.phases {
            writeln!(
                f,
                "{:<width$}  {:>10.3} s  {:>10} calls  {:>10.1} us/call",
                p.name,
                p.total_secs,
                p.calls,
                p.mean_micros()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary() -> ProfileSummary {
        ProfileSummary {
            phases: vec![
                PhaseStat {
                    name: "plan".to_string(),
                    calls: 4,
                    total_secs: 2e-6,
                },
                PhaseStat {
                    name: "idle".to_string(),
                    calls: 0,
                    total_secs: 0.0,
                },
            ],
            wall_secs: 1.0,
        }
    }

    #[test]
    fn lookup_and_totals() {
        let s = summary();
        assert_eq!(s.phase("plan").unwrap().calls, 4);
        assert!(s.phase("missing").is_none());
        assert_eq!(s.attributed_secs(), 2e-6);
        assert!((s.phase("plan").unwrap().mean_micros() - 0.5).abs() < 1e-12);
        assert_eq!(s.phase("idle").unwrap().mean_micros(), 0.0);
    }

    #[test]
    fn summary_serializes() {
        let json = summary().to_json();
        assert!(json.get("wall_secs").is_some());
        let phases = json.get("phases").unwrap().as_array().unwrap();
        assert_eq!(phases[0].get("name").unwrap().as_str(), Some("plan"));
        assert_eq!(phases[0].get("calls").unwrap().as_i64(), Some(4));
    }
}
