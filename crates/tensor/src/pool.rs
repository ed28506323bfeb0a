//! Deterministic scoped fan-out for the hot loops — std-only, no unsafe.
//!
//! Every parallel region in the repository goes through [`Pool`]: row-blocked
//! matmul kernels, per-pair Dual-CVAE training, per-task MAML inner loops
//! and per-user evaluation scoring. Serving is the exception: it ranks a
//! catalogue in 256-row blocks that stay below the matmul parallel
//! threshold, so each request runs on the server thread that accepted it,
//! and concurrent requests are its parallelism. The design goals, in order:
//!
//! 1. **Bit-identical results at any thread count.** The pool only ever
//!    *partitions* independent work ([`Pool::partition`] yields contiguous
//!    index ranges) and hands results back **in task order**
//!    ([`Pool::map_tasks`]); it never reduces across tasks itself. As long as
//!    the per-task computation is independent and the caller folds results in
//!    task order, the floating-point operation order — and therefore every
//!    bit of the output — is identical to the serial code path.
//! 2. **`METADPA_THREADS=1` is the exact serial code path.** With one thread
//!    (or one task) no thread is spawned, no mutex is touched, and the tasks
//!    run in index order on the calling thread.
//! 3. **Zero dependencies, zero unsafe.** Workers are spawned per region with
//!    [`std::thread::scope`], so borrowed inputs cross into workers without
//!    `Arc` or unsafe; regions are sized by callers so spawn cost amortizes.
//!
//! Sizing: the global default comes from `METADPA_THREADS` (read once;
//! invalid or unset falls back to [`std::thread::available_parallelism`]).
//! [`with_threads`] overrides it for the current thread only, which is what
//! the determinism tests use to compare thread counts inside one process.
//! Pool workers run with an implicit `with_threads(1)` so nested parallel
//! regions (a matmul inside a parallel MAML task) never oversubscribe.
//!
//! Observability: each multi-threaded region bumps `pool.tasks` by the number
//! of tasks dispatched and `pool.steal` by the number of tasks that ran on a
//! spawned worker rather than the dispatching thread (tasks self-schedule off
//! a shared cursor, so a slow task shifts its neighbours to other threads).
//! Workers inherit the dispatching thread's span path via
//! [`metadpa_obs::span::inherit_root`], so spans opened inside tasks stay
//! nested under the dispatching span instead of forming detached roots.

use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// Per-thread override installed by [`with_threads`]; 0 = no override.
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// The process-wide default thread count: `METADPA_THREADS` when set to a
/// positive integer, otherwise the machine's available parallelism.
fn env_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        match std::env::var("METADPA_THREADS").ok().and_then(|s| s.trim().parse::<usize>().ok()) {
            Some(n) if n >= 1 => n,
            _ => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        }
    })
}

/// The thread count parallel regions opened on this thread will use:
/// the innermost [`with_threads`] override, else the `METADPA_THREADS`
/// default.
pub fn current_threads() -> usize {
    let o = THREAD_OVERRIDE.with(Cell::get);
    if o > 0 {
        o
    } else {
        env_threads()
    }
}

/// Runs `f` with the thread count for this thread pinned to `threads`,
/// restoring the previous value afterwards (also on panic). `1` forces the
/// exact serial code path; the determinism suite uses this to compare
/// thread counts without touching the process environment.
///
/// # Panics
/// Panics if `threads == 0`.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    assert!(threads >= 1, "pool::with_threads: thread count must be >= 1");
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = THREAD_OVERRIDE.with(|c| {
        let prev = c.get();
        c.set(threads);
        prev
    });
    let _restore = Restore(prev);
    f()
}

/// A sized handle over the scoped fan-out primitives. Cheap to construct —
/// it is just a thread count; workers live only for the duration of each
/// [`Pool::map_tasks`] call.
#[derive(Clone, Copy, Debug)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool sized by [`current_threads`].
    pub fn current() -> Self {
        Self { threads: current_threads() }
    }

    /// A pool with an explicit size (>= 1 enforced by clamping).
    pub fn with_size(threads: usize) -> Self {
        Self { threads: threads.max(1) }
    }

    /// The number of threads parallel regions will use (including the
    /// dispatching thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Splits `0..n_items` into at most `threads` contiguous ranges of
    /// near-equal length, in index order. The partition only controls which
    /// thread computes which block — per-item results never depend on it.
    pub fn partition(&self, n_items: usize) -> Vec<Range<usize>> {
        if n_items == 0 {
            return Vec::new();
        }
        let chunks = self.threads.min(n_items);
        let base = n_items / chunks;
        let extra = n_items % chunks;
        let mut ranges = Vec::with_capacity(chunks);
        let mut start = 0;
        for c in 0..chunks {
            let len = base + usize::from(c < extra);
            ranges.push(start..start + len);
            start += len;
        }
        ranges
    }

    /// Runs `f(0), f(1), ..., f(n_tasks - 1)` and returns the results in
    /// task order. With one thread (or one task) this is a plain in-order
    /// serial loop on the calling thread; otherwise tasks self-schedule off
    /// a shared cursor across the calling thread plus `threads - 1` scoped
    /// workers. Results are collected into per-task slots, so the return
    /// order — and any caller-side fold over it — is independent of thread
    /// scheduling.
    pub fn map_tasks<R: Send>(&self, n_tasks: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
        if n_tasks == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(n_tasks);
        if workers <= 1 {
            return (0..n_tasks).map(f).collect();
        }
        metadpa_obs::counter_add!("pool.tasks", n_tasks as u64);
        let cursor = AtomicUsize::new(0);
        let stolen = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();
        let parent = metadpa_obs::span::current_path();
        let request = metadpa_obs::span::current_request();
        let simd_policy = crate::simd::current_policy();
        let run = |on_worker: bool| {
            // Workers must not recursively fan out: a matmul inside a
            // parallel MAML task runs serially on its worker.
            with_threads(1, || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n_tasks {
                    break;
                }
                if on_worker {
                    stolen.fetch_add(1, Ordering::Relaxed);
                }
                *slots[i].lock().expect("pool task slot poisoned") = Some(f(i));
            })
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers)
                .map(|w| {
                    let parent = parent.clone();
                    let run = &run;
                    let builder = std::thread::Builder::new().name(format!("metadpa-pool-{w}"));
                    builder
                        .spawn_scoped(scope, move || {
                            let _root = metadpa_obs::span::inherit_root(parent);
                            let _req = metadpa_obs::span::enter_request(request);
                            // Workers inherit the dispatching thread's SIMD
                            // policy, so a `simd::with_policy` scope covers
                            // matmuls inside fanned-out tasks too.
                            crate::simd::with_policy(simd_policy, || run(true));
                        })
                        .expect("pool: failed to spawn scoped worker")
                })
                .collect();
            run(false);
            join_all(handles);
        });
        metadpa_obs::counter_add!("pool.steal", stolen.load(Ordering::Relaxed) as u64);
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("pool task slot poisoned")
                    .expect("pool: every task index is claimed exactly once")
            })
            .collect()
    }

    /// Runs `f` once per payload, statically assigning payload `i` to
    /// worker `i` (payload 0 runs on the dispatching thread). This is the
    /// primitive for work whose payloads *own* mutable state — the matmul
    /// kernels split the output buffer into disjoint `&mut` row slices and
    /// hand one to each task, so tiles are written in place with no private
    /// buffers or copies. Callers pass at most one payload per thread
    /// ([`Pool::partition`] produces the right count; debug builds assert
    /// it): every payload after the first gets its own scoped thread, so
    /// extra payloads would oversubscribe the pool, not queue. Like every
    /// pool primitive, workers run with nested parallelism disabled and
    /// inherit the dispatching span.
    pub fn run_parts<T: Send>(&self, parts: Vec<T>, f: impl Fn(T) + Sync) {
        let n = parts.len();
        debug_assert!(n <= self.threads, "run_parts: {n} payloads for {} threads", self.threads);
        if n == 0 {
            return;
        }
        if self.threads <= 1 || n == 1 {
            for part in parts {
                with_threads(1, || f(part));
            }
            return;
        }
        metadpa_obs::counter_add!("pool.tasks", n as u64);
        metadpa_obs::counter_add!("pool.steal", (n - 1) as u64);
        let parent = metadpa_obs::span::current_path();
        let request = metadpa_obs::span::current_request();
        let simd_policy = crate::simd::current_policy();
        let mut iter = parts.into_iter();
        let first = iter.next().expect("run_parts: parts is non-empty");
        std::thread::scope(|scope| {
            let handles: Vec<_> = iter
                .enumerate()
                .map(|(w, part)| {
                    let parent = parent.clone();
                    let f = &f;
                    let builder =
                        std::thread::Builder::new().name(format!("metadpa-pool-{}", w + 1));
                    builder
                        .spawn_scoped(scope, move || {
                            let _root = metadpa_obs::span::inherit_root(parent);
                            let _req = metadpa_obs::span::enter_request(request);
                            crate::simd::with_policy(simd_policy, || with_threads(1, || f(part)));
                        })
                        .expect("pool: failed to spawn scoped worker")
                })
                .collect();
            with_threads(1, || f(first));
            join_all(handles);
        });
    }

    /// Partitions `0..n_items` into contiguous chunks (see
    /// [`Pool::partition`]) and maps `f` over the chunks, returning per-chunk
    /// results in chunk order. This is the row-blocking primitive the matmul
    /// kernels use: each chunk computes an independent output tile.
    pub fn map_chunks<R: Send>(
        &self,
        n_items: usize,
        f: impl Fn(Range<usize>) -> R + Sync,
    ) -> Vec<(Range<usize>, R)> {
        let ranges = self.partition(n_items);
        let results = self.map_tasks(ranges.len(), |c| f(ranges[c].clone()));
        ranges.into_iter().zip(results).collect()
    }
}

/// Joins every worker of a region, re-raising the first worker panic.
///
/// `std::thread::scope` alone returns as soon as the worker closures have
/// finished, while their OS threads may still be exiting and still own
/// their malloc arena. A worker spawned by the next region then cannot
/// reuse that arena and opens a fresh one, so each such race adds the
/// worker's working set to peak RSS. Joining waits for the full exit.
fn join_all(handles: Vec<std::thread::ScopedJoinHandle<'_, ()>>) {
    for handle in handles {
        if let Err(panic) = handle.join() {
            std::panic::resume_unwind(panic);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_indices_in_order() {
        let pool = Pool::with_size(3);
        let ranges = pool.partition(10);
        assert_eq!(ranges, vec![0..4, 4..7, 7..10]);
        assert_eq!(Pool::with_size(4).partition(2).len(), 2, "never more chunks than items");
        assert!(Pool::with_size(4).partition(0).is_empty());
        assert_eq!(Pool::with_size(1).partition(5), vec![0..5]);
    }

    #[test]
    fn map_tasks_returns_results_in_task_order() {
        for threads in [1, 2, 7] {
            let pool = Pool::with_size(threads);
            let out = pool.map_tasks(23, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn map_chunks_tiles_cover_everything_once() {
        for threads in [1, 2, 7] {
            let pool = Pool::with_size(threads);
            let tiles = pool.map_chunks(17, |r| r.clone().collect::<Vec<usize>>());
            let flat: Vec<usize> = tiles.into_iter().flat_map(|(_, v)| v).collect();
            assert_eq!(flat, (0..17).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let ambient = current_threads();
        let seen = with_threads(5, current_threads);
        assert_eq!(seen, 5);
        assert_eq!(current_threads(), ambient);
        // Nested overrides restore in LIFO order.
        with_threads(3, || {
            assert_eq!(current_threads(), 3);
            with_threads(2, || assert_eq!(current_threads(), 2));
            assert_eq!(current_threads(), 3);
        });
    }

    #[test]
    fn workers_do_not_nest_parallelism() {
        let pool = Pool::with_size(4);
        let inner_counts = pool.map_tasks(8, |_| current_threads());
        assert!(
            inner_counts.iter().all(|&c| c == 1),
            "tasks must observe a serial pool: {inner_counts:?}"
        );
    }

    #[test]
    fn map_tasks_handles_empty_and_single() {
        let pool = Pool::with_size(4);
        assert!(pool.map_tasks(0, |i| i).is_empty());
        assert_eq!(pool.map_tasks(1, |i| i + 1), vec![1]);
    }

    #[test]
    fn run_parts_writes_disjoint_slices_in_place() {
        for threads in [1, 2, 7] {
            let pool = Pool::with_size(threads);
            let mut out = vec![0usize; 17];
            let ranges = pool.partition(17);
            let mut parts: Vec<(Range<usize>, &mut [usize])> = Vec::new();
            let mut rest = out.as_mut_slice();
            for r in ranges {
                let (head, tail) = rest.split_at_mut(r.len());
                parts.push((r, head));
                rest = tail;
            }
            pool.run_parts(parts, |(range, slice)| {
                for (s, i) in slice.iter_mut().zip(range) {
                    *s = i * i;
                }
            });
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        // Whichever thread runs the panicking task, the caller sees the
        // task's own panic, not a generic scope failure.
        for threads in [1, 2] {
            let caught = std::panic::catch_unwind(|| {
                Pool::with_size(threads).map_tasks(4, |i| assert!(i != 3, "task {i} failed"))
            })
            .expect_err("the task panic must propagate");
            let msg = caught.downcast_ref::<String>().map(String::as_str).unwrap_or("");
            assert!(msg.contains("task 3 failed"), "threads={threads}: payload {msg:?}");
        }
    }

    #[test]
    fn run_parts_tasks_observe_serial_pool() {
        let pool = Pool::with_size(4);
        let counts = Mutex::new(Vec::new());
        pool.run_parts(vec![(), (), (), ()], |()| {
            counts.lock().unwrap().push(current_threads());
        });
        let counts = counts.into_inner().unwrap();
        assert_eq!(counts.len(), 4);
        assert!(counts.iter().all(|&c| c == 1), "nested parallelism must be off: {counts:?}");
    }
}
