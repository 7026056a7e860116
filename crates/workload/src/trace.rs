//! Sampled demand traces.

use simcore::{SimDuration, SimTime};

/// Denominator of the quantized representation: samples are stored as
/// `round(s * 65535)` in a `u16`, giving ~1.5e-5 resolution over `[0, 1]`
/// at a quarter of the dense footprint.
const QUANT_SCALE: f64 = u16::MAX as f64;

/// Decodes one quantized sample — the single expression every reader of
/// the `u16` form uses, so all of them agree bit for bit.
pub(crate) fn decode(q: u16) -> f64 {
    q as f64 / QUANT_SCALE
}

/// Backing storage of a [`DemandTrace`].
///
/// Dense `f64` samples are the default; large fleets can opt into the
/// quantized form, which stores each sample in 2 bytes instead of 8.
#[derive(Debug, Clone, PartialEq)]
enum Storage {
    /// One `f64` per sample, exactly as constructed.
    Dense(Vec<f64>),
    /// One `u16` per sample, fixed-point over `[0, 1]`.
    Quantized(Vec<u16>),
}

impl Storage {
    fn len(&self) -> usize {
        match self {
            Storage::Dense(v) => v.len(),
            Storage::Quantized(v) => v.len(),
        }
    }

    fn get(&self, k: usize) -> f64 {
        match self {
            Storage::Dense(v) => v[k],
            Storage::Quantized(v) => decode(v[k]),
        }
    }
}

/// A VM's demand over time, sampled at a fixed step, as a fraction of the
/// VM's CPU cap in `[0, 1]`.
///
/// The trace is a step function: sample `i` holds on
/// `[i·step, (i+1)·step)`; the last sample holds forever after (simulations
/// never read past their horizon in practice).
///
/// Samples are stored dense (`f64`) by default;
/// [`quantized`](Self::quantized) converts to a 2-byte fixed-point form
/// for large fleets where trace memory dominates.
///
/// # Example
///
/// ```
/// use simcore::{SimDuration, SimTime};
/// use workload::DemandTrace;
///
/// let t = DemandTrace::from_samples(SimDuration::from_mins(5), vec![0.2, 0.8]);
/// assert_eq!(t.at(SimTime::ZERO), 0.2);
/// assert_eq!(t.at(SimTime::from_secs(299)), 0.2);
/// assert_eq!(t.at(SimTime::from_secs(300)), 0.8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DemandTrace {
    step: SimDuration,
    storage: Storage,
}

impl DemandTrace {
    /// Wraps pre-computed samples.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty, `step` is zero, or any sample is
    /// outside `[0, 1]`.
    pub fn from_samples(step: SimDuration, samples: Vec<f64>) -> Self {
        assert!(!step.is_zero(), "step must be non-zero");
        assert!(!samples.is_empty(), "trace needs at least one sample");
        for &s in &samples {
            assert!(
                s.is_finite() && (0.0..=1.0).contains(&s),
                "sample {s} outside [0,1]"
            );
        }
        DemandTrace {
            step,
            storage: Storage::Dense(samples),
        }
    }

    /// Converts the trace to the compact fixed-point representation
    /// (2 bytes per sample, ~1.5e-5 worst-case rounding error). A no-op
    /// on an already-quantized trace.
    ///
    /// Quantizing is lossy: do it once at construction, before any
    /// simulation reads the trace, so every run sees the same values.
    pub fn quantized(self) -> Self {
        let storage = match self.storage {
            Storage::Dense(v) => Storage::Quantized(
                v.into_iter()
                    .map(|s| (s * QUANT_SCALE).round() as u16)
                    .collect(),
            ),
            q @ Storage::Quantized(_) => q,
        };
        DemandTrace {
            step: self.step,
            storage,
        }
    }

    /// Whether the trace uses the compact fixed-point representation.
    pub fn is_quantized(&self) -> bool {
        matches!(self.storage, Storage::Quantized(_))
    }

    /// The sampling step.
    pub fn step(&self) -> SimDuration {
        self.step
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.storage.len()
    }

    /// Whether the trace has no samples (never true for a constructed
    /// trace; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.storage.len() == 0
    }

    /// The raw samples.
    ///
    /// # Panics
    ///
    /// Panics if the trace is [`quantized`](Self::quantized) — the dense
    /// slice no longer exists. Use [`sample`](Self::sample) for
    /// representation-independent access.
    pub fn samples(&self) -> &[f64] {
        match &self.storage {
            Storage::Dense(v) => v,
            Storage::Quantized(_) => {
                panic!("samples() on a quantized trace; use sample(k) instead")
            }
        }
    }

    /// The dense samples, or `None` for a quantized trace.
    pub(crate) fn dense_samples(&self) -> Option<&[f64]> {
        match &self.storage {
            Storage::Dense(v) => Some(v),
            Storage::Quantized(_) => None,
        }
    }

    /// The raw fixed-point samples, or `None` for a dense trace.
    pub(crate) fn quantized_samples(&self) -> Option<&[u16]> {
        match &self.storage {
            Storage::Dense(_) => None,
            Storage::Quantized(v) => Some(v),
        }
    }

    /// Sample `k`, decoded if quantized.
    ///
    /// # Panics
    ///
    /// Panics if `k >= len()`.
    pub fn sample(&self, k: usize) -> f64 {
        self.storage.get(k)
    }

    /// Demand fraction in effect at `t`. An empty trace reads as zero
    /// demand.
    pub fn at(&self, t: SimTime) -> f64 {
        let n = self.storage.len();
        if n == 0 {
            return 0.0;
        }
        let idx = (t.as_millis() / self.step.as_millis()) as usize;
        self.storage.get(idx.min(n - 1))
    }

    /// Arithmetic mean of the samples (zero for an empty trace).
    pub fn mean(&self) -> f64 {
        let n = self.storage.len();
        if n == 0 {
            return 0.0;
        }
        (0..n).map(|k| self.storage.get(k)).sum::<f64>() / n as f64
    }

    /// Largest sample.
    pub fn peak(&self) -> f64 {
        (0..self.storage.len())
            .map(|k| self.storage.get(k))
            .fold(0.0, f64::max)
    }

    /// Smallest sample (zero for an empty trace).
    pub fn trough(&self) -> f64 {
        let min = (0..self.storage.len())
            .map(|k| self.storage.get(k))
            .fold(f64::INFINITY, f64::min);
        if min.is_finite() {
            min
        } else {
            0.0
        }
    }

    /// The trace's total span (`len × step`).
    pub fn span(&self) -> SimDuration {
        self.step * self.storage.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn at_indexes_steps_and_clamps_past_end() {
        let t = DemandTrace::from_samples(SimDuration::from_secs(10), vec![0.1, 0.2, 0.3]);
        assert_eq!(t.at(SimTime::ZERO), 0.1);
        assert_eq!(t.at(SimTime::from_secs(10)), 0.2);
        assert_eq!(t.at(SimTime::from_secs(29)), 0.3);
        assert_eq!(t.at(SimTime::from_secs(1000)), 0.3);
    }

    #[test]
    fn summary_statistics() {
        let t = DemandTrace::from_samples(SimDuration::from_secs(1), vec![0.0, 0.5, 1.0]);
        assert!((t.mean() - 0.5).abs() < 1e-12);
        assert_eq!(t.peak(), 1.0);
        assert_eq!(t.trough(), 0.0);
        assert_eq!(t.span(), SimDuration::from_secs(3));
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn trough_is_smallest_sample_not_capped_at_one() {
        // Regression: a fold seeded with 1.0 hid troughs above 1.0's
        // complement — with all samples at 0.9 the trough is 0.9, and the
        // seed must not drag it down to 1.0's old cap either way.
        let t = DemandTrace::from_samples(SimDuration::from_secs(1), vec![0.9, 0.95]);
        assert_eq!(t.trough(), 0.9);
    }

    #[test]
    fn empty_trace_reads_as_zero() {
        // from_samples rejects empties; build one directly to pin the
        // defensive behaviour of the accessors.
        let t = DemandTrace {
            step: SimDuration::from_secs(1),
            storage: Storage::Dense(Vec::new()),
        };
        assert!(t.is_empty());
        assert_eq!(t.at(SimTime::ZERO), 0.0);
        assert_eq!(t.at(SimTime::from_secs(1000)), 0.0);
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.trough(), 0.0);
        assert_eq!(t.peak(), 0.0);
    }

    #[test]
    fn quantized_round_trip_within_resolution() {
        let samples = vec![0.0, 0.123_456, 0.5, 0.999_9, 1.0];
        let dense = DemandTrace::from_samples(SimDuration::from_secs(10), samples.clone());
        let q = dense.clone().quantized();
        assert!(q.is_quantized());
        assert!(!dense.is_quantized());
        assert_eq!(q.len(), dense.len());
        assert_eq!(q.step(), dense.step());
        assert_eq!(q.span(), dense.span());
        for (k, &s) in samples.iter().enumerate() {
            assert!(
                (q.sample(k) - s).abs() <= 0.5 / QUANT_SCALE + 1e-12,
                "sample {k}: {} vs {s}",
                q.sample(k)
            );
        }
        // Exact endpoints survive quantization exactly.
        assert_eq!(q.sample(0), 0.0);
        assert_eq!(q.sample(4), 1.0);
        // at() dispatches through the quantized storage.
        assert_eq!(q.at(SimTime::from_secs(25)), q.sample(2));
        // Quantizing twice is a no-op.
        let q2 = q.clone().quantized();
        assert_eq!(q2, q);
    }

    #[test]
    #[should_panic(expected = "use sample(k) instead")]
    fn samples_panics_on_quantized() {
        let t = DemandTrace::from_samples(SimDuration::from_secs(1), vec![0.1, 0.2]).quantized();
        let _ = t.samples();
    }

    #[test]
    #[should_panic(expected = "outside [0,1]")]
    fn rejects_out_of_range_samples() {
        DemandTrace::from_samples(SimDuration::from_secs(1), vec![1.5]);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn rejects_empty() {
        DemandTrace::from_samples(SimDuration::from_secs(1), vec![]);
    }
}
