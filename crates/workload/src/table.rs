//! Sample-major demand table: the per-tick read path over a whole fleet.
//!
//! A [`DemandTrace`] is VM-major — one heap vector per VM — so reading
//! every VM's demand at one instant touches one cache line per VM and
//! pays a `u64` divide per read. [`DemandTable`] transposes the fleet
//! once: row `k` holds sample `k` of every VM, contiguous, so a tick
//! computes its row index once and streams the row.

use simcore::{SimDuration, SimTime};

use crate::trace::decode;
use crate::{DemandTrace, Lifetime};

/// VMs per transpose block: the block's source cursors (one cache line
/// each) and its slice of the current row stay cache-resident while the
/// build walks the rows.
const BLOCK: usize = 64;

/// Backing storage, one boxed row per sample step: `f64` cells, or raw
/// `u16` cells when every trace is quantized (so the table never
/// outweighs the traces it copies). Row-sized allocations keep small
/// fleets' tables in the allocator's ordinary size classes, as the
/// per-VM traces were.
#[derive(Debug, Clone, PartialEq)]
enum Cells {
    Dense(Vec<Box<[f64]>>),
    Quantized(Vec<Box<[u16]>>),
}

/// A fleet's demand traces transposed to sample-major order.
///
/// Entry `(k, i)` is VM `i`'s sample `k`; a trace shorter than the table
/// repeats its last sample, exactly as [`DemandTrace::at`] clamps past
/// its end. Every entry decodes to the same `f64` that
/// [`DemandTrace::at`] returns for that instant, bit for bit.
///
/// # Example
///
/// ```
/// use simcore::{SimDuration, SimTime};
/// use workload::{DemandTable, DemandTrace};
///
/// let step = SimDuration::from_mins(5);
/// let traces = vec![
///     DemandTrace::from_samples(step, vec![0.2, 0.8]),
///     DemandTrace::from_samples(step, vec![0.5]),
/// ];
/// let table = DemandTable::build(&traces, SimDuration::from_mins(10));
/// let row = table.row_at(SimTime::from_secs(300));
/// assert_eq!(table.get(row, 0), 0.8);
/// assert_eq!(table.get(row, 1), 0.5); // the short trace holds its last sample
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DemandTable {
    step: SimDuration,
    vms: usize,
    rows: usize,
    cells: Cells,
}

impl DemandTable {
    /// Transposes `traces` for reads at any instant up to `horizon`.
    /// Rows past the horizon are never read, so the table keeps at most
    /// `horizon / step + 1` of them.
    ///
    /// # Panics
    ///
    /// Panics if the traces do not all share one sampling step.
    pub fn build(traces: &[DemandTrace], horizon: SimDuration) -> Self {
        let Some(first) = traces.first() else {
            return DemandTable {
                step: SimDuration::from_millis(1),
                vms: 0,
                rows: 0,
                cells: Cells::Dense(Vec::new()),
            };
        };
        let step = first.step();
        assert!(
            traces.iter().all(|t| t.step() == step),
            "demand traces must share one sampling step"
        );
        let longest = traces.iter().map(DemandTrace::len).max().unwrap_or(0);
        let horizon_rows = (horizon.as_millis() / step.as_millis()) as usize + 1;
        let rows = longest.min(horizon_rows);
        let quantized: Option<Vec<&[u16]>> =
            traces.iter().map(DemandTrace::quantized_samples).collect();
        let cells = if let Some(cols) = quantized {
            Cells::Quantized(transpose(&cols, rows))
        } else if let Some(cols) = traces
            .iter()
            .map(DemandTrace::dense_samples)
            .collect::<Option<Vec<&[f64]>>>()
        {
            Cells::Dense(transpose(&cols, rows))
        } else {
            // Mixed representations: decode each sample once, here.
            let cols: Vec<&DemandTrace> = traces.iter().collect();
            Cells::Dense(transpose_with(&cols, rows, DemandTrace::len, |t, k| {
                t.sample(k)
            }))
        };
        DemandTable {
            step,
            vms: traces.len(),
            rows,
            cells,
        }
    }

    /// The row in effect at `t`: the trace step index, clamped to the
    /// last stored row.
    pub fn row_at(&self, t: SimTime) -> usize {
        let k = (t.as_millis() / self.step.as_millis()) as usize;
        k.min(self.rows.saturating_sub(1))
    }

    /// VM `vm`'s demand fraction in row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `vm` is out of range.
    pub fn get(&self, row: usize, vm: usize) -> f64 {
        assert!(vm < self.vms, "vm {vm} out of range");
        match &self.cells {
            Cells::Dense(c) => c[row][vm],
            Cells::Quantized(c) => decode(c[row][vm]),
        }
    }

    /// Refills `out` with every VM's demand at `t` in cores: the table
    /// entry times the VM's cap while the VM is active, `0.0` otherwise.
    /// One pass over one contiguous row.
    ///
    /// # Panics
    ///
    /// Panics if `caps` or `lifetimes` is not one entry per VM.
    pub fn fill_demand(
        &self,
        t: SimTime,
        caps: &[f64],
        lifetimes: &[Lifetime],
        out: &mut Vec<f64>,
    ) {
        assert_eq!(caps.len(), self.vms, "one cap per VM");
        assert_eq!(lifetimes.len(), self.vms, "one lifetime per VM");
        out.clear();
        if self.vms == 0 {
            return;
        }
        let row = self.row_at(t);
        let demand = |s: f64, cap: f64, life: &Lifetime| {
            if life.is_active(t) {
                s * cap
            } else {
                0.0
            }
        };
        match &self.cells {
            Cells::Dense(c) => out.extend(
                c[row]
                    .iter()
                    .zip(caps)
                    .zip(lifetimes)
                    .map(|((&s, &cap), life)| demand(s, cap, life)),
            ),
            Cells::Quantized(c) => out.extend(
                c[row]
                    .iter()
                    .zip(caps)
                    .zip(lifetimes)
                    .map(|((&q, &cap), life)| demand(decode(q), cap, life)),
            ),
        }
    }
}

/// Blocked transpose of equal-step sample columns into `rows` sample-major
/// rows; a column shorter than `rows` repeats its last sample.
fn transpose<T: Copy + Default>(cols: &[&[T]], rows: usize) -> Vec<Box<[T]>> {
    transpose_with(cols, rows, |c| c.len(), |c, k| c[k])
}

/// [`transpose`] over any column type, through its length and sample
/// accessors.
fn transpose_with<C: Copy, T: Copy + Default>(
    cols: &[C],
    rows: usize,
    len: impl Fn(C) -> usize,
    get: impl Fn(C, usize) -> T,
) -> Vec<Box<[T]>> {
    let n = cols.len();
    let mut cells: Vec<Box<[T]>> = (0..rows)
        .map(|_| vec![T::default(); n].into_boxed_slice())
        .collect();
    for base in (0..n).step_by(BLOCK) {
        let block = &cols[base..(base + BLOCK).min(n)];
        for (k, row) in cells.iter_mut().enumerate() {
            for (slot, &col) in row[base..base + block.len()].iter_mut().zip(block) {
                let len = len(col);
                // An empty trace reads as zero demand, like `at`.
                if len > 0 {
                    *slot = get(col, k.min(len - 1));
                }
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{presets, LifetimePlan};

    /// Asserts that the table read path reproduces the per-trace
    /// expression `trace.at(t) * cap` bit for bit at every control tick
    /// up to `horizon`, entry by entry and through `fill_demand`.
    fn assert_matches_traces(
        traces: &[DemandTrace],
        caps: &[f64],
        lifetimes: &[Lifetime],
        interval: SimDuration,
        horizon: SimDuration,
    ) {
        let table = DemandTable::build(traces, horizon);
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        while t <= SimTime::ZERO + horizon {
            let row = table.row_at(t);
            table.fill_demand(t, caps, lifetimes, &mut out);
            for (i, trace) in traces.iter().enumerate() {
                let want = trace.at(t) * caps[i];
                assert_eq!(
                    (table.get(row, i) * caps[i]).to_bits(),
                    want.to_bits(),
                    "vm {i} at {t:?}"
                );
                let want = if lifetimes[i].is_active(t) { want } else { 0.0 };
                assert_eq!(out[i].to_bits(), want.to_bits(), "fill vm {i} at {t:?}");
            }
            t += interval;
        }
    }

    fn caps(n: usize) -> Vec<f64> {
        (0..n).map(|i| [1.0, 2.0, 4.0, 0.7][i % 4]).collect()
    }

    #[test]
    fn one_minute_ticks_over_five_minute_traces() {
        let step = SimDuration::from_mins(5);
        let horizon = SimDuration::from_hours(24);
        let fleet = presets::enterprise_diurnal().generate(150, horizon, step, 7);
        let n = fleet.len();
        assert_matches_traces(
            fleet.traces(),
            &caps(n),
            &vec![Lifetime::PERMANENT; n],
            SimDuration::from_mins(1),
            horizon,
        );
    }

    #[test]
    fn short_traces_repeat_their_last_sample() {
        let step = SimDuration::from_mins(5);
        let traces: Vec<DemandTrace> = (1..=70)
            .map(|len| {
                let samples = (0..len).map(|k| ((k * 37 + len) % 100) as f64 / 100.0);
                DemandTrace::from_samples(step, samples.collect())
            })
            .collect();
        let n = traces.len();
        // The horizon outruns every trace, so the table stops at the
        // longest one and clamps there.
        let horizon = SimDuration::from_hours(8);
        assert_eq!(DemandTable::build(&traces, horizon).rows, 70);
        assert_matches_traces(
            &traces,
            &caps(n),
            &vec![Lifetime::PERMANENT; n],
            SimDuration::from_mins(5),
            horizon,
        );
    }

    #[test]
    fn horizon_bounds_the_rows_kept() {
        let step = SimDuration::from_mins(5);
        let fleet =
            presets::enterprise_diurnal().generate(10, SimDuration::from_hours(24), step, 3);
        let horizon = SimDuration::from_hours(2);
        assert_eq!(DemandTable::build(fleet.traces(), horizon).rows, 25);
        assert_matches_traces(
            fleet.traces(),
            &caps(10),
            &vec![Lifetime::PERMANENT; 10],
            SimDuration::from_mins(1),
            horizon,
        );
    }

    #[test]
    fn mixed_and_quantized_storage_decode_identically() {
        let step = SimDuration::from_mins(5);
        let horizon = SimDuration::from_hours(24);
        let fleet = presets::enterprise_diurnal().generate(97, horizon, step, 11);
        let mixed: Vec<DemandTrace> = fleet
            .traces()
            .iter()
            .enumerate()
            .map(|(i, t)| {
                if i % 3 == 0 {
                    t.clone().quantized()
                } else {
                    t.clone()
                }
            })
            .collect();
        let all_q: Vec<DemandTrace> = fleet
            .traces()
            .iter()
            .map(|t| t.clone().quantized())
            .collect();
        let quantized =
            |t: &[DemandTrace]| matches!(DemandTable::build(t, horizon).cells, Cells::Quantized(_));
        assert!(!quantized(&mixed));
        assert!(quantized(&all_q));
        assert!(!quantized(fleet.traces()));
        for traces in [&mixed, &all_q] {
            assert_matches_traces(
                traces,
                &caps(97),
                &vec![Lifetime::PERMANENT; 97],
                SimDuration::from_mins(5),
                horizon,
            );
        }
    }

    #[test]
    fn churn_lifetimes_zero_inactive_vms() {
        let step = SimDuration::from_mins(5);
        let horizon = SimDuration::from_hours(24);
        let fleet = presets::enterprise_diurnal().generate(120, horizon, step, 5);
        let plan = LifetimePlan::with_churn(120, 0.5, SimDuration::from_hours(4), horizon, 5);
        assert!(plan.lifetimes().iter().any(|l| l.departure.is_some()));
        assert_matches_traces(
            fleet.traces(),
            &caps(120),
            plan.lifetimes(),
            SimDuration::from_mins(1),
            horizon,
        );
    }

    #[test]
    fn empty_fleet_builds_an_empty_table() {
        let table = DemandTable::build(&[], SimDuration::from_hours(1));
        assert_eq!(table.vms, 0);
        let mut out = vec![1.0];
        table.fill_demand(SimTime::from_secs(60), &[], &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "share one sampling step")]
    fn rejects_mixed_steps() {
        let traces = vec![
            DemandTrace::from_samples(SimDuration::from_mins(5), vec![0.1]),
            DemandTrace::from_samples(SimDuration::from_mins(1), vec![0.1]),
        ];
        DemandTable::build(&traces, SimDuration::from_hours(1));
    }
}
