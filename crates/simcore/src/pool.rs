//! A minimal bounded worker pool for embarrassingly-parallel job sets,
//! plus the fixed partition helper the distributed control plane uses.
//!
//! * [`run_indexed`] — parallelism *across* independent jobs (whole
//!   simulations, sweep points). Workers claim indices atomically and
//!   results come back in index order. On single-core machines (or for a
//!   single job) it degrades to a plain sequential loop with no thread or
//!   synchronization overhead, so results are identical either way —
//!   per-job determinism is the caller's responsibility and the pool
//!   never reorders outputs. A call made from inside a pool job runs on
//!   that job's worker and adds threads only for idle cores, so nested
//!   pools never oversubscribe the cores.
//! * [`shard_ranges`] — a fixed, contiguous partition of `0..len`, a
//!   pure function of `(len, shards)` (scheduler host partitions).

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

thread_local! {
    /// Whether this thread runs [`run_indexed`] jobs (a worker or a
    /// helper).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Threads running [`run_indexed`] jobs, process-wide. A plain count
/// that guards no data, so `Relaxed` suffices.
static BUSY: AtomicUsize = AtomicUsize::new(0);

/// Runs `num_jobs` jobs, `run(i)` for each index, on a bounded pool of
/// worker threads; returns the results in index order.
///
/// The worker count is `min(available_parallelism, num_jobs)`. With one
/// worker the jobs run sequentially on the calling thread.
///
/// **Nesting.** Called from inside a job that a pool thread is running,
/// it runs its jobs on that thread: the outer pool already holds the
/// cores, so spawning a full pool would only oversubscribe them. Each
/// time the thread claims a job, it also takes on one helper thread if a
/// core is idle (fewer pool threads than cores run, say because the
/// outer pool ran out of jobs), so a long nested batch at the tail of an
/// outer pool still uses every core. This follows from where and when
/// the call runs, not from a setting; the results are the same either
/// way. A single outer job runs on the calling thread, not on a pool
/// thread, so the jobs it nests spread over the cores.
///
/// # Panics
///
/// Panics if any job panics (the panic is propagated once all workers
/// have stopped).
pub fn run_indexed<T, F>(num_jobs: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    let nested = IN_WORKER.get();
    if num_jobs <= 1 || cores == 1 {
        return (0..num_jobs).map(run).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..num_jobs).map(|_| Mutex::new(None)).collect();
    let finish = |i: usize| {
        let result = run(i);
        *slots[i].lock().expect("result slot poisoned") = Some(result);
    };
    let work = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= num_jobs {
            break;
        }
        finish(i);
    };
    thread::scope(|scope| {
        if nested {
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= num_jobs {
                    break;
                }
                if i + 1 < num_jobs && reserve_idle_core(cores) {
                    scope.spawn(|| pool_thread(work));
                }
                finish(i);
            }
        } else {
            for _ in 0..cores.min(num_jobs) {
                BUSY.fetch_add(1, Ordering::Relaxed);
                scope.spawn(|| pool_thread(work));
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker completed every claimed job")
        })
        .collect()
}

/// Counts one more pool thread if fewer than `cores` run.
fn reserve_idle_core(cores: usize) -> bool {
    BUSY.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |busy| {
        (busy < cores).then_some(busy + 1)
    })
    .is_ok()
}

/// The body of a pool thread whose [`BUSY`] slot is already counted:
/// runs `work` and gives the slot back, also when a job panics.
fn pool_thread(work: impl FnOnce()) {
    struct Release;
    impl Drop for Release {
        fn drop(&mut self) {
            BUSY.fetch_sub(1, Ordering::Relaxed);
        }
    }
    let _release = Release;
    IN_WORKER.set(true);
    work();
}

/// Splits `0..len` into at most `shards` fixed, contiguous, near-equal,
/// non-empty ranges covering the whole span in order.
///
/// The partition is a pure function of `(len, shards)`: the first
/// `len % shards` ranges carry one extra element.
pub fn shard_ranges(len: usize, shards: usize) -> Vec<Range<usize>> {
    if len == 0 {
        return Vec::new();
    }
    let shards = shards.clamp(1, len);
    let base = len / shards;
    let extra = len % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut start = 0;
    for k in 0..shards {
        let size = base + usize::from(k < extra);
        ranges.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn results_are_index_ordered() {
        let out = run_indexed(17, |i| i * i);
        assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn zero_jobs_is_empty() {
        let out: Vec<u32> = run_indexed(0, |_| unreachable!("no jobs to run"));
        assert!(out.is_empty());
    }

    #[test]
    fn single_job_runs_inline() {
        assert_eq!(run_indexed(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn nested_calls_run_inline_on_the_outer_worker() {
        // One outer job per core, held together by barriers, so the outer
        // pool holds every core while the nested calls run.
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        let (start, end) = (Barrier::new(cores), Barrier::new(cores));
        let outer = run_indexed(cores, |i| {
            start.wait();
            let here = thread::current().id();
            let inner = run_indexed(9, |j| (thread::current().id(), i * 100 + j));
            end.wait();
            (here, inner)
        });
        assert_eq!(outer.len(), cores);
        for (i, (here, inner)) in outer.into_iter().enumerate() {
            let want: Vec<usize> = (0..9).map(|j| i * 100 + j).collect();
            assert_eq!(inner.iter().map(|&(_, v)| v).collect::<Vec<_>>(), want);
            assert!(
                inner.iter().all(|&(id, _)| id == here),
                "outer job {i}: an inner job left the outer job's thread"
            );
        }
    }

    #[test]
    fn nested_call_at_the_tail_of_a_pool_keeps_index_order() {
        // Outer job 0 ends at once, so its worker leaves a core idle that
        // the nested call in job 1 may recruit.
        let outer = run_indexed(2, |i| {
            if i == 0 {
                Vec::new()
            } else {
                run_indexed(64, |j| j * j)
            }
        });
        assert!(outer[0].is_empty());
        assert_eq!(outer[1], (0..64).map(|j| j * j).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_each_run_exactly_once() {
        use std::sync::atomic::AtomicU32;
        let counters: Vec<AtomicU32> = (0..64).map(|_| AtomicU32::new(0)).collect();
        run_indexed(64, |i| counters[i].fetch_add(1, Ordering::Relaxed));
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "job {i}");
        }
    }

    #[test]
    fn shard_ranges_partition_contiguously() {
        for len in [1usize, 2, 5, 16, 17, 100, 4096] {
            for shards in [1usize, 2, 3, 7, 8, 64, 10_000] {
                let ranges = shard_ranges(len, shards);
                assert_eq!(ranges.len(), shards.min(len), "len={len} shards={shards}");
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "gap at len={len} shards={shards}");
                    assert!(r.end > r.start, "empty shard at len={len} shards={shards}");
                    next = r.end;
                }
                assert_eq!(next, len, "partition must cover 0..len");
                // Near-equal: sizes differ by at most one element.
                let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "unbalanced shards: {sizes:?}");
            }
        }
    }

    #[test]
    fn shard_ranges_of_nothing_is_empty() {
        assert!(shard_ranges(0, 4).is_empty());
    }
}
