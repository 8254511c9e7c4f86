//! A first-party scoped-thread worker pool for embarrassingly parallel
//! sweep work (per-seed replications, experiment-grid cells).
//!
//! The build environment is offline — no `rayon`, no `crossbeam` — so
//! this module implements the minimum needed on plain `std`, as one
//! primitive, [`map_parallel_settle`]: [`std::thread::scope`] workers
//! pull `(index, item)` pairs from a mutex-guarded queue and return
//! `(index, result)` pairs through their join handles. Results are
//! re-assembled in **input order**, so a parallel map is observably
//! identical to the sequential one. [`map_parallel`] is the stateless,
//! fail-on-first-panic form of the same call.
//!
//! Design points (see DESIGN.md §9 for the full rationale):
//!
//! * **One worker loop:** `jobs <= 1` runs the same worker loop on the
//!   calling thread, so the sequential path is the parallel path
//!   without threads.
//! * **Scoped threads, no `'static`:** workers borrow the caller's data
//!   (task sets, platforms, workloads) directly; nothing is cloned or
//!   `Arc`-wrapped.
//! * **Worker-local state via factory:** `init` builds one state value
//!   (e.g. a scheduling policy) per *worker*, not per item, so
//!   non-`Sync` mutable policy state never crosses threads and
//!   construction cost is amortized across the worker's items.
//! * **Panics settle per item:** a panicking job becomes its own slot's
//!   [`PoolError::WorkerPanic`], labelled with the item's name; every
//!   other item still runs — one poisoned item does not take down the
//!   process or lose the siblings' completed work.
//!
//! This is the only module in the workspace allowed to spawn threads;
//! `ci.sh` greps for `thread::spawn`/`thread::scope` elsewhere.

use std::any::Any;
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};
use std::thread;

/// Errors from a parallel map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolError {
    /// A worker job panicked. Carries the panic payload's message and the
    /// failing item's label (e.g. the `(policy, seed)` cell), so a
    /// crashed sweep cell is diagnosable from the error alone.
    WorkerPanic {
        /// The failing item's label, from the caller's labeler (the
        /// default is `item {index}`).
        label: String,
        /// The panic payload's message, when it carried one.
        message: String,
    },
}

impl fmt::Display for PoolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PoolError::WorkerPanic { label, message } => {
                write!(f, "worker panicked while running {label}: {message}")
            }
        }
    }
}

impl std::error::Error for PoolError {}

fn panic_message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Resolves the worker count for a sweep: an explicit request (a parsed
/// `--jobs N` flag) wins, then the `EUA_JOBS` environment variable, then
/// the hardware's available parallelism. Zero values are ignored; the
/// result is always ≥ 1, and `1` means "run sequentially".
#[must_use]
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    explicit
        .filter(|&n| n > 0)
        .or_else(|| {
            std::env::var("EUA_JOBS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .filter(|&n| n > 0)
        })
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Parallel map preserving input order: `out[i] == f(i, items[i])`.
///
/// This is [`map_parallel_settle`] with `item {i}` labels and no
/// worker state; `jobs <= 1` runs on the calling thread.
///
/// # Errors
///
/// The first [`PoolError::WorkerPanic`] in input order if any job
/// panicked; every other item is still attempted first, so the error is
/// the same at any `jobs` count.
pub fn map_parallel<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Result<Vec<R>, PoolError>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    map_parallel_settle(
        jobs,
        items,
        |i, _| format!("item {i}"),
        || (),
        |(), i, t| f(i, t),
    )
    .into_iter()
    .collect()
}

/// The pool's one implementation: a parallel map that **settles** every
/// item into its own slot, in input order. A panicking item's slot is
/// `Err(PoolError::WorkerPanic)` carrying `labeler(i, &items[i])` (e.g.
/// `"policy eua, seed 23"`), while the other items' results are
/// returned intact — one crashed sweep cell becomes a graded report
/// entry rather than taking down the whole sweep.
///
/// `init` builds **worker-local state** (e.g. a scheduling policy,
/// which is neither `Send` nor `Sync`) on the worker's own thread when
/// the worker takes its first item, and again after a panic, since the
/// job may have torn the state mid-unwind. `jobs <= 1` runs the same
/// worker loop on the calling thread. Each slot depends only on its own
/// item, so the output is identical across `jobs` counts.
///
/// A panicking `labeler` is a caller bug and propagates to the caller.
pub fn map_parallel_settle<S, T, R, L, I, F>(
    jobs: usize,
    items: Vec<T>,
    labeler: L,
    init: I,
    f: F,
) -> Vec<Result<R, PoolError>>
where
    T: Send,
    R: Send,
    L: Fn(usize, &T) -> String + Sync,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, T) -> R + Sync,
{
    let n = items.len();
    let queue = Mutex::new(items.into_iter().enumerate());
    let work = || {
        let mut state: Option<S> = None;
        let mut done: Vec<(usize, Result<R, PoolError>)> = Vec::new();
        loop {
            // Jobs run outside the lock, so a poisoned queue is still
            // intact: keep draining it.
            let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((i, t)) = next else { break };
            let label = labeler(i, &t);
            let run = catch_unwind(AssertUnwindSafe(|| {
                f(state.get_or_insert_with(&init), i, t)
            }));
            done.push((
                i,
                run.map_err(|payload| {
                    // The job may have torn the state mid-unwind; the
                    // worker's next item rebuilds it.
                    state = None;
                    PoolError::WorkerPanic {
                        label,
                        message: panic_message(payload),
                    }
                }),
            ));
        }
        done
    };
    let workers = jobs.min(n);
    let batches: Vec<Vec<(usize, Result<R, PoolError>)>> = if workers <= 1 {
        vec![work()]
    } else {
        // This is the one sanctioned raw-thread site in the workspace:
        // the pool everything else is required to route through.
        // eua-lint: allow(lint-thread-spawn)
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(work)).collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|payload| resume_unwind(payload)))
                .collect()
        })
    };
    // Every item was taken exactly once, so sorting by index restores
    // input order.
    let mut slots: Vec<(usize, Result<R, PoolError>)> = batches.into_iter().flatten().collect();
    slots.sort_unstable_by_key(|&(i, _)| i);
    slots.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<i32> = map_parallel(4, Vec::<i32>::new(), |_, x| x * 2).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_on_caller_thread() {
        let out = map_parallel(8, vec![21], |i, x| (i, x * 2)).unwrap();
        assert_eq!(out, vec![(0, 42)]);
    }

    #[test]
    fn more_items_than_workers_preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 7, 100, 1000] {
            let out = map_parallel(jobs, items.clone(), |_, x| x * x).unwrap();
            assert_eq!(out, expect, "jobs = {jobs}");
        }
    }

    #[test]
    fn panicking_job_surfaces_as_error_not_poison() {
        let err = map_parallel(2, (0..16).collect::<Vec<i32>>(), |_, x| {
            assert!(x != 5, "boom on five");
            x
        })
        .unwrap_err();
        let PoolError::WorkerPanic { label, message } = err;
        assert_eq!(label, "item 5");
        assert!(message.contains("boom on five"), "message: {message}");
        // The pool is per-call: a panicked run leaves nothing behind and
        // the very next call works.
        let ok = map_parallel(2, vec![1, 2, 3], |_, x| x + 1).unwrap();
        assert_eq!(ok, vec![2, 3, 4]);
    }

    #[test]
    fn panic_error_carries_cell_label_and_lowest_index_wins() {
        let items: Vec<(&str, u64)> = vec![("eua", 11), ("eua", 23), ("dasa", 11), ("dasa", 23)];
        for jobs in [1, 2, 4] {
            let err = map_parallel_settle(
                jobs,
                items.clone(),
                |_, (policy, seed)| format!("policy {policy}, seed {seed}"),
                || (),
                |(), i, (policy, _)| {
                    assert!(i == 0 || policy != "dasa", "dasa cell crashed");
                    i
                },
            )
            .into_iter()
            .collect::<Result<Vec<usize>, PoolError>>()
            .unwrap_err();
            let PoolError::WorkerPanic {
                ref label,
                ref message,
            } = err;
            assert_eq!(label, "policy dasa, seed 11", "jobs = {jobs}");
            assert!(message.contains("dasa cell crashed"), "jobs = {jobs}");
            assert!(
                err.to_string().contains("policy dasa, seed 11"),
                "display must name the failing cell: {err}"
            );
        }
    }

    #[test]
    fn worker_local_state_is_constructed_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let out = map_parallel_settle(
            3,
            (0..30).collect::<Vec<usize>>(),
            |i, _| format!("item {i}"),
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                0usize
            },
            |seen, _, x| {
                *seen += 1;
                x
            },
        );
        assert_eq!(out, (0..30).map(Ok).collect::<Vec<_>>());
        let constructed = inits.load(Ordering::SeqCst);
        assert!(
            (1..=3).contains(&constructed),
            "one state per worker, got {constructed}"
        );
    }

    #[test]
    fn settle_turns_panics_into_slots_without_losing_siblings() {
        let items: Vec<i32> = (0..16).collect();
        let mut expect: Vec<Result<i32, PoolError>> = items.iter().map(|&x| Ok(x * 2)).collect();
        expect[5] = Err(PoolError::WorkerPanic {
            label: "cell 5".to_string(),
            message: "boom on five".to_string(),
        });
        for jobs in [1, 2, 4] {
            let out = map_parallel_settle(
                jobs,
                items.clone(),
                |i, _| format!("cell {i}"),
                || (),
                |(), _, x| {
                    assert!(x != 5, "boom on five");
                    x * 2
                },
            );
            assert_eq!(out, expect, "jobs = {jobs}");
        }
    }

    #[test]
    fn settle_rebuilds_worker_state_after_a_panic() {
        // A panicking item must not leave its worker's accumulator torn
        // for the items that follow it on the same worker.
        let out = map_parallel_settle(
            1,
            (0..6).collect::<Vec<i32>>(),
            |i, _| format!("cell {i}"),
            || 0i32,
            |acc, _, x| {
                *acc += 1;
                assert!(x != 2, "tear");
                (*acc, x)
            },
        );
        // After the panic at x = 2 the state restarts from 0.
        assert_eq!(out[3], Ok((1, 3)));
        assert_eq!(out[4], Ok((2, 4)));
    }

    #[test]
    fn a_panicking_init_settles_into_the_item_that_needed_it() {
        let out = map_parallel_settle(
            1,
            vec![1, 2],
            |i, _| format!("cell {i}"),
            || -> i32 { panic!("no state") },
            |state, _, x| *state + x,
        );
        for (i, slot) in out.iter().enumerate() {
            assert_eq!(
                *slot,
                Err(PoolError::WorkerPanic {
                    label: format!("cell {i}"),
                    message: "no state".to_string(),
                })
            );
        }
    }

    #[test]
    fn jobs_zero_falls_back_to_sequential() {
        let out = map_parallel(0, vec![1, 2, 3], |_, x| x * 10).unwrap();
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn resolve_jobs_prefers_explicit_over_env_and_hardware() {
        assert_eq!(resolve_jobs(Some(7)), 7);
        assert!(resolve_jobs(Some(0)) >= 1, "zero is ignored, not honored");
        assert!(resolve_jobs(None) >= 1);
    }
}
