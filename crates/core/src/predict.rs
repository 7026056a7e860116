//! Per-signal demand prediction.
//!
//! The manager predicts each VM's near-future demand from its measured
//! history. The paper's argument is that *low-latency power states shrink
//! the cost of misprediction*: with a 12-second resume, a conservative
//! predictor is unnecessary — experiment T12 quantifies this by swapping
//! predictors under both power-state regimes.
//!
//! [`Predictor`] holds one signal's state. The manager predicts the whole
//! fleet each round through a [`PredictorBank`], which keeps every
//! signal's state in flat columns and feeds all signals together, so a
//! round is one streaming pass with no per-VM allocation or dispatch.

use crate::config::{require, require_range};
use crate::{ConfigError, VmObservation};

/// Which prediction algorithm to use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PredictorConfig {
    /// Predict the last observed value (most reactive, no smoothing).
    LastValue,
    /// Exponentially weighted moving average with smoothing factor
    /// `alpha` (1.0 degenerates to last-value).
    Ewma {
        /// Weight of the newest observation, in `(0, 1]`.
        alpha: f64,
    },
    /// Maximum over the last `window` observations (most conservative;
    /// trades energy for safety).
    WindowMax {
        /// History length.
        window: usize,
    },
}

impl PredictorConfig {
    /// Checks the configuration. [`crate::ManagerConfig::validate`] runs
    /// this, and `SimulationBuilder::build` runs that.
    ///
    /// # Errors
    ///
    /// [`ConfigError`] if `alpha` is outside `(0, 1]` or `window` is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match *self {
            PredictorConfig::LastValue => Ok(()),
            PredictorConfig::Ewma { alpha } => require_range(
                alpha > 0.0 && alpha <= 1.0,
                "predictor alpha",
                alpha,
                "outside (0,1]",
            ),
            PredictorConfig::WindowMax { window } => {
                require(window > 0, "predictor window must be positive")
            }
        }
    }
}

impl Default for PredictorConfig {
    /// EWMA with `alpha = 0.5`: reactive but with some smoothing.
    fn default() -> Self {
        PredictorConfig::Ewma { alpha: 0.5 }
    }
}

/// A single signal's prediction state.
///
/// # Example
///
/// ```
/// use agile_core::{Predictor, PredictorConfig};
///
/// let mut p = Predictor::new(PredictorConfig::Ewma { alpha: 0.5 });
/// p.observe(1.0);
/// p.observe(0.0);
/// assert_eq!(p.predict(), 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Predictor {
    config: PredictorConfig,
    state: State,
}

#[derive(Debug, Clone, PartialEq)]
enum State {
    Scalar(Option<f64>),
    Window(Vec<f64>),
}

impl Predictor {
    /// Creates a predictor.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`PredictorConfig::validate`]).
    pub fn new(config: PredictorConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid predictor configuration: {e}");
        }
        let state = match config {
            PredictorConfig::WindowMax { .. } => State::Window(Vec::new()),
            _ => State::Scalar(None),
        };
        Predictor { config, state }
    }

    /// Feeds a new observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn observe(&mut self, value: f64) {
        assert!(value.is_finite(), "non-finite observation {value}");
        match (&mut self.state, self.config) {
            (State::Scalar(s), PredictorConfig::LastValue) => *s = Some(value),
            (State::Scalar(s), PredictorConfig::Ewma { alpha }) => {
                *s = Some(match *s {
                    None => value,
                    Some(prev) => alpha * value + (1.0 - alpha) * prev,
                });
            }
            (State::Window(w), PredictorConfig::WindowMax { window }) => {
                w.push(value);
                if w.len() > window {
                    w.remove(0);
                }
            }
            _ => unreachable!("state/config mismatch"),
        }
    }

    /// The current prediction (0.0 before any observation).
    pub fn predict(&self) -> f64 {
        match &self.state {
            State::Scalar(s) => s.unwrap_or(0.0),
            State::Window(w) => w.iter().copied().fold(0.0, f64::max),
        }
    }

    /// The configuration this predictor runs.
    pub fn config(&self) -> PredictorConfig {
        self.config
    }
}

/// One predictor per VM, stored as flat state columns.
///
/// Every signal observes exactly once per round, so the observation count
/// — whether an EWMA is seeded, how full a window is, where the ring
/// head sits — is one shared number. Each signal's prediction is
/// bit-identical to a [`Predictor`] fed the same observations.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PredictorBank {
    config: PredictorConfig,
    signals: usize,
    /// Rounds observed so far.
    rounds: usize,
    /// Last-value / EWMA: the current estimate per signal. Window-max: a
    /// ring of `window` rows, row `r % window` holding round `r`'s
    /// observation of every signal.
    state: Vec<f64>,
}

impl PredictorBank {
    /// A bank of `signals` predictors, none observed yet. The caller has
    /// validated `config`: [`crate::VirtManager::new`] checks the whole
    /// manager configuration first.
    pub(crate) fn new(config: PredictorConfig, signals: usize) -> Self {
        debug_assert!(config.validate().is_ok(), "unvalidated {config:?}");
        let rows = match config {
            PredictorConfig::WindowMax { window } => window,
            _ => 1,
        };
        PredictorBank {
            config,
            signals,
            rounds: 0,
            state: vec![0.0; rows * signals],
        }
    }

    /// Number of signals.
    pub(crate) fn len(&self) -> usize {
        self.signals
    }

    /// Feeds each VM's measured demand to its predictor and refills `out`
    /// with each prediction clamped to `[0, cpu_cap]`.
    ///
    /// # Panics
    ///
    /// Panics if `vms` is not one entry per signal or any demand is not
    /// finite.
    pub(crate) fn observe_predict(&mut self, vms: &[VmObservation], out: &mut Vec<f64>) {
        assert_eq!(vms.len(), self.signals, "one observation per signal");
        let n = self.signals;
        let first = self.rounds == 0;
        out.clear();
        match self.config {
            PredictorConfig::LastValue => {
                out.extend(self.state.iter_mut().zip(vms).map(|(s, vm)| {
                    *s = finite(vm.cpu_demand);
                    s.clamp(0.0, vm.cpu_cap)
                }));
            }
            PredictorConfig::Ewma { alpha } => {
                out.extend(self.state.iter_mut().zip(vms).map(|(s, vm)| {
                    let value = finite(vm.cpu_demand);
                    *s = if first {
                        value
                    } else {
                        alpha * value + (1.0 - alpha) * *s
                    };
                    s.clamp(0.0, vm.cpu_cap)
                }));
            }
            PredictorConfig::WindowMax { window } => {
                let head = self.rounds % window;
                for (s, vm) in self.state[head * n..(head + 1) * n].iter_mut().zip(vms) {
                    *s = finite(vm.cpu_demand);
                }
                // Fold oldest to newest from 0.0, as `Predictor` does.
                let filled = (self.rounds + 1).min(window);
                let oldest = self.rounds + 1 - filled;
                out.resize(n, 0.0);
                for r in oldest..=self.rounds {
                    let row = (r % window) * n;
                    for (o, &s) in out.iter_mut().zip(&self.state[row..row + n]) {
                        *o = o.max(s);
                    }
                }
                for (o, vm) in out.iter_mut().zip(vms) {
                    *o = o.clamp(0.0, vm.cpu_cap);
                }
            }
        }
        self.rounds += 1;
    }
}

/// `value`, after checking it is finite (as [`Predictor::observe`] does).
fn finite(value: f64) -> f64 {
    assert!(value.is_finite(), "non-finite observation {value}");
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::VmId;

    #[test]
    fn last_value_tracks_immediately() {
        let mut p = Predictor::new(PredictorConfig::LastValue);
        assert_eq!(p.predict(), 0.0);
        p.observe(0.7);
        assert_eq!(p.predict(), 0.7);
        p.observe(0.1);
        assert_eq!(p.predict(), 0.1);
    }

    #[test]
    fn ewma_smooths() {
        let mut p = Predictor::new(PredictorConfig::Ewma { alpha: 0.5 });
        p.observe(1.0);
        assert_eq!(p.predict(), 1.0); // first observation seeds directly
        p.observe(0.0);
        assert_eq!(p.predict(), 0.5);
        p.observe(0.0);
        assert_eq!(p.predict(), 0.25);
    }

    #[test]
    fn ewma_alpha_one_is_last_value() {
        let mut p = Predictor::new(PredictorConfig::Ewma { alpha: 1.0 });
        p.observe(0.3);
        p.observe(0.9);
        assert_eq!(p.predict(), 0.9);
    }

    #[test]
    fn window_max_holds_peak() {
        let mut p = Predictor::new(PredictorConfig::WindowMax { window: 3 });
        for v in [0.2, 0.9, 0.1, 0.1] {
            p.observe(v);
        }
        assert_eq!(p.predict(), 0.9); // 0.9 still in window
        p.observe(0.1);
        assert_eq!(p.predict(), 0.1); // 0.9 aged out
    }

    /// A bank must predict exactly what one `Predictor` per signal does,
    /// round after round, for every configuration.
    #[test]
    fn bank_matches_per_signal_predictors() {
        let configs = [
            PredictorConfig::LastValue,
            PredictorConfig::Ewma { alpha: 0.3 },
            PredictorConfig::Ewma { alpha: 1.0 },
            PredictorConfig::WindowMax { window: 1 },
            PredictorConfig::WindowMax { window: 4 },
        ];
        let n = 37;
        for config in configs {
            let mut bank = PredictorBank::new(config, n);
            let mut singles = vec![Predictor::new(config); n];
            let mut out = Vec::new();
            for round in 0..12u64 {
                let vms: Vec<VmObservation> = (0..n)
                    .map(|i| VmObservation {
                        id: VmId(i as u32),
                        cpu_demand: ((i as u64 * 7919 + round * 104_729) % 1000) as f64 / 250.0,
                        cpu_cap: 2.5,
                        ..VmObservation::default()
                    })
                    .collect();
                bank.observe_predict(&vms, &mut out);
                for ((p, vm), got) in singles.iter_mut().zip(&vms).zip(&out) {
                    p.observe(vm.cpu_demand);
                    let want = p.predict().clamp(0.0, vm.cpu_cap);
                    assert_eq!(got.to_bits(), want.to_bits(), "{config:?} round {round}");
                }
            }
            assert_eq!(bank.len(), n);
        }
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn bank_rejects_non_finite_demand() {
        let mut bank = PredictorBank::new(PredictorConfig::LastValue, 1);
        let vm = VmObservation {
            cpu_demand: f64::NAN,
            ..VmObservation::default()
        };
        bank.observe_predict(&[vm], &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_bad_alpha() {
        Predictor::new(PredictorConfig::Ewma { alpha: 0.0 });
    }

    #[test]
    #[should_panic(expected = "window")]
    fn rejects_zero_window() {
        Predictor::new(PredictorConfig::WindowMax { window: 0 });
    }
}
