//! Sample-major demand table: a fleet's one demand store and the per-tick
//! read path over it.
//!
//! Row `k` holds sample `k` of every VM, contiguous, so a tick computes
//! its row index once and streams the row. Fleet generation writes the
//! table directly, one column block of [`BLOCK`] VMs per pool job; the
//! [`DemandTrace`]s of a hand-built fleet are transposed into it once.

use std::sync::Mutex;

use simcore::{pool, SimDuration, SimTime};

use crate::{DemandTrace, Lifetime};

/// VMs per column block, the unit of parallel generation and of the
/// transpose: a block's slice of one row is 512 bytes, so a job walking
/// every row keeps its whole column range cache-resident.
pub(crate) const BLOCK: usize = 64;

/// A fleet's demand, sample-major: entry `(k, i)` is VM `i`'s demand
/// fraction at trace sample `k`.
///
/// Reads past the last row hold the last row, exactly as
/// [`DemandTrace::at`] clamps past its end. A [`Fleet`](crate::Fleet)
/// owns its table behind an `Arc`, and the simulator shares it as is.
///
/// # Example
///
/// ```
/// use cluster::{Resources, VmSpec};
/// use simcore::{SimDuration, SimTime};
/// use workload::{DemandTrace, Fleet};
///
/// let step = SimDuration::from_mins(5);
/// let fleet = Fleet::from_parts(
///     vec![VmSpec::new(Resources::new(1.0, 2.0)); 2],
///     vec![
///         DemandTrace::from_samples(step, vec![0.2, 0.8]),
///         DemandTrace::from_samples(step, vec![0.5]),
///     ],
/// );
/// let table = fleet.demand();
/// let row = table.row_at(SimTime::from_secs(300));
/// assert_eq!(table.get(row, 0), 0.8);
/// assert_eq!(table.get(row, 1), 0.5); // the short trace holds its last sample
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DemandTable {
    step: SimDuration,
    vms: usize,
    /// One boxed row per sample step: row-sized allocations keep small
    /// fleets' tables in the allocator's ordinary size classes.
    rows: Vec<Box<[f64]>>,
}

impl DemandTable {
    /// A table of `rows` samples of `vms` VMs at `step`, filled one
    /// column block at a time on [`pool::run_indexed`]. `fill(vms, cols)`
    /// gets one block's VM range and, for each row `k`, that row's slice
    /// over the range: it writes VM `vms.start + j`'s sample `k` to
    /// `cols[k][j]`. Entries it leaves alone read as zero.
    pub(crate) fn fill_blocks<F>(step: SimDuration, vms: usize, rows: usize, fill: F) -> Self
    where
        F: Fn(std::ops::Range<usize>, &mut [&mut [f64]]) + Sync,
    {
        let mut cells: Vec<Box<[f64]>> = (0..rows)
            .map(|_| vec![0.0; vms].into_boxed_slice())
            .collect();
        // Block `b`'s slice of every row, split off safely with
        // `chunks_mut`; each block is handed to exactly one job.
        let mut blocks: Vec<Vec<&mut [f64]>> = (0..vms.div_ceil(BLOCK))
            .map(|_| Vec::with_capacity(rows))
            .collect();
        for row in &mut cells {
            for (block, chunk) in blocks.iter_mut().zip(row.chunks_mut(BLOCK)) {
                block.push(chunk);
            }
        }
        let blocks: Vec<Mutex<Vec<&mut [f64]>>> = blocks.into_iter().map(Mutex::new).collect();
        pool::run_indexed(blocks.len(), |b| {
            let mut cols = blocks[b]
                .lock()
                .expect("each block is locked once, by its own job");
            let start = b * BLOCK;
            fill(start..(start + BLOCK).min(vms), &mut cols);
        });
        drop(blocks);
        DemandTable {
            step,
            vms,
            rows: cells,
        }
    }

    /// Transposes hand-built traces, each column block on the pool. The
    /// table has as many rows as the longest trace; a shorter trace
    /// repeats its last sample.
    ///
    /// # Panics
    ///
    /// Panics if the traces do not all share one sampling step.
    pub(crate) fn from_traces(traces: &[DemandTrace]) -> Self {
        let step = traces
            .first()
            .map_or(SimDuration::from_millis(1), DemandTrace::step);
        assert!(
            traces.iter().all(|t| t.step() == step),
            "demand traces must share one sampling step"
        );
        let rows = traces.iter().map(DemandTrace::len).max().unwrap_or(0);
        DemandTable::fill_blocks(step, traces.len(), rows, |vms, cols| {
            for (j, trace) in traces[vms].iter().enumerate() {
                // An empty trace reads as zero demand, like `at`.
                let Some(last) = trace.len().checked_sub(1) else {
                    continue;
                };
                for (k, row) in cols.iter_mut().enumerate() {
                    row[j] = trace.sample(k.min(last));
                }
            }
        })
    }

    /// The sampling step: one row per step.
    pub fn step(&self) -> SimDuration {
        self.step
    }

    /// The number of rows (trace samples).
    pub fn rows(&self) -> usize {
        self.rows.len()
    }

    /// The row in effect at `t`: the trace step index, clamped to the
    /// last row.
    pub fn row_at(&self, t: SimTime) -> usize {
        let k = (t.as_millis() / self.step.as_millis()) as usize;
        k.min(self.rows.len().saturating_sub(1))
    }

    /// Row `row`: every VM's demand fraction at one sample, in VM order.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn row(&self, row: usize) -> &[f64] {
        &self.rows[row]
    }

    /// VM `vm`'s demand fraction in row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `vm` is out of range.
    pub fn get(&self, row: usize, vm: usize) -> f64 {
        self.rows[row][vm]
    }

    /// Every VM's trace, read in place, in VM order.
    pub fn columns(&self) -> Columns<'_> {
        Columns { table: self }
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
        out.extend(
            self.rows[self.row_at(t)]
                .iter()
                .zip(caps)
                .zip(lifetimes)
                .map(|((&s, &cap), life)| if life.is_active(t) { s * cap } else { 0.0 }),
        );
    }
}

/// One VM's demand trace as a column of its [`DemandTable`]: reads go to
/// the table, nothing is copied.
#[derive(Debug, Clone, Copy)]
pub struct Column<'a> {
    table: &'a DemandTable,
    vm: usize,
}

impl Column<'_> {
    /// Demand fraction in effect at `t`; past the last sample the last
    /// sample holds, as in [`DemandTrace::at`].
    pub fn at(&self, t: SimTime) -> f64 {
        self.table.get(self.table.row_at(t), self.vm)
    }

    /// Sample `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= len()`.
    pub fn sample(&self, k: usize) -> f64 {
        self.table.get(k, self.vm)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.table.rows()
    }

    /// Whether the column has no samples.
    pub fn is_empty(&self) -> bool {
        self.table.rows.is_empty()
    }

    /// The samples in time order.
    pub fn samples(&self) -> impl Iterator<Item = f64> + '_ {
        self.table.rows.iter().map(|row| row[self.vm])
    }
}

/// Every VM's [`Column`], in VM order: a `Copy` view over a
/// [`DemandTable`].
#[derive(Debug, Clone, Copy)]
pub struct Columns<'a> {
    table: &'a DemandTable,
}

impl<'a> Columns<'a> {
    /// Number of VMs.
    pub fn len(&self) -> usize {
        self.table.vms
    }

    /// Whether the fleet has no VMs.
    pub fn is_empty(&self) -> bool {
        self.table.vms == 0
    }

    /// VM `vm`'s column.
    ///
    /// # Panics
    ///
    /// Panics if `vm` is out of range.
    pub fn get(&self, vm: usize) -> Column<'a> {
        assert!(vm < self.table.vms, "vm {vm} out of range");
        Column {
            table: self.table,
            vm,
        }
    }

    /// The columns in VM order.
    pub fn iter(&self) -> ColumnIter<'a> {
        ColumnIter {
            table: self.table,
            vms: 0..self.table.vms,
        }
    }
}

impl<'a> IntoIterator for Columns<'a> {
    type Item = Column<'a>;
    type IntoIter = ColumnIter<'a>;

    fn into_iter(self) -> ColumnIter<'a> {
        self.iter()
    }
}

/// Iterator over a table's [`Column`]s, in VM order.
#[derive(Debug, Clone)]
pub struct ColumnIter<'a> {
    table: &'a DemandTable,
    vms: std::ops::Range<usize>,
}

impl<'a> Iterator for ColumnIter<'a> {
    type Item = Column<'a>;

    fn next(&mut self) -> Option<Column<'a>> {
        let vm = self.vms.next()?;
        Some(Column {
            table: self.table,
            vm,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.vms.size_hint()
    }
}

impl ExactSizeIterator for ColumnIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{presets, LifetimePlan};

    /// Asserts that the table read path reproduces the per-trace
    /// expression `trace.at(t) * cap` bit for bit at every control tick
    /// up to `horizon`, entry by entry, through a column and through
    /// `fill_demand`.
    fn assert_matches_traces(
        traces: &[DemandTrace],
        caps: &[f64],
        lifetimes: &[Lifetime],
        interval: SimDuration,
        horizon: SimDuration,
    ) {
        let table = DemandTable::from_traces(traces);
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
                assert_eq!(
                    table.columns().get(i).at(t).to_bits(),
                    trace.at(t).to_bits()
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

    /// The generated fleet's traces as hand-built input.
    fn traces_of(fleet: &crate::Fleet) -> Vec<DemandTrace> {
        let step = fleet.demand().step();
        fleet
            .traces()
            .iter()
            .map(|c| DemandTrace::from_samples(step, c.samples().collect()))
            .collect()
    }

    #[test]
    fn one_minute_ticks_over_five_minute_traces() {
        let step = SimDuration::from_mins(5);
        let horizon = SimDuration::from_hours(24);
        let fleet = presets::enterprise_diurnal().generate(150, horizon, step, 7);
        let n = fleet.len();
        assert_matches_traces(
            &traces_of(&fleet),
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
        // The horizon outruns every trace, so reads clamp at the longest.
        let horizon = SimDuration::from_hours(8);
        assert_eq!(DemandTable::from_traces(&traces).rows(), 70);
        assert_matches_traces(
            &traces,
            &caps(n),
            &vec![Lifetime::PERMANENT; n],
            SimDuration::from_mins(5),
            horizon,
        );
    }

    #[test]
    fn churn_lifetimes_zero_inactive_vms() {
        let step = SimDuration::from_mins(5);
        let horizon = SimDuration::from_hours(24);
        let fleet = presets::enterprise_diurnal().generate(120, horizon, step, 5);
        let plan = LifetimePlan::with_churn(120, 0.5, SimDuration::from_hours(4), horizon, 5);
        assert!(plan.lifetimes().iter().any(|l| l.departure.is_some()));
        assert_matches_traces(
            &traces_of(&fleet),
            &caps(120),
            plan.lifetimes(),
            SimDuration::from_mins(1),
            horizon,
        );
    }

    #[test]
    fn empty_fleet_builds_an_empty_table() {
        let table = DemandTable::from_traces(&[]);
        assert_eq!(table.vms, 0);
        assert!(table.columns().is_empty());
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
        DemandTable::from_traces(&traces);
    }
}
