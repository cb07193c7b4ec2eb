//! Deterministic scoped parallelism for the pnc workspace.
//!
//! The paper's workload is dominated by embarrassingly-parallel sweeps
//! — Sobol-sampled SPICE characterization, Monte-Carlo variation
//! evaluation, α-grid × seed experiment fan-out — and the workspace has
//! no rayon (std-only, no network access). This crate hand-builds the
//! one primitive those sweeps need: a scoped worker-pool [`Executor`]
//! whose results are **bit-identical for any thread count**.
//!
//! # Determinism contract
//!
//! Every entry point guarantees that the value it returns does not
//! depend on the number of worker threads or on scheduling order:
//!
//! * [`Executor::par_map`] collects results into index-ordered slots —
//!   item `i` always lands in slot `i`, regardless of which worker ran
//!   it or when it finished.
//! * [`Executor::par_for_chunks`] hands each worker a *disjoint*
//!   mutable chunk; chunk contents are computed exactly as the
//!   sequential loop would compute them.
//! * [`Executor::par_reduce`] maps in parallel but folds sequentially
//!   in index order, so float accumulation order never depends on
//!   scheduling.
//! * [`Executor::join`] runs two independent closures side by side and
//!   returns both results as the pair `(a(), b())`.
//!
//! Callers must hold up their side: closures must be pure functions of
//! `(index, item)` — in particular, any randomness must be derived from
//! a per-index seed (see [`derive_seed`]), never from a shared RNG
//! advanced in loop order.
//!
//! # Sequential fallback
//!
//! `threads == 1` (the `--threads 1` CLI flag) runs every closure
//! inline on the caller's thread and never spawns — byte-for-byte the
//! code path a plain `for` loop would take.
//!
//! # Join branches run inline
//!
//! While a [`Executor::join`] branch runs, its thread is marked as
//! inside a branch, and every executor call made there runs inline as
//! at `threads == 1`: the two branches already occupy the threads, so
//! fanning out again would only add threads that compete for the same
//! cores. A drop guard clears the mark, so a panicking branch cannot
//! leave it set. Workers of the other entry points are not marked: a
//! fan-out nested inside a `par_map` item still fans out.
//!
//! # Panics and errors
//!
//! Worker panics are propagated to the caller (via
//! [`std::thread::scope`]'s join-and-resume semantics), so a panicking
//! closure behaves like it would in a sequential loop. Fallible work
//! should instead return `Result` per item and go through
//! [`Executor::par_try_map`], which yields the **lowest-index** error —
//! again independent of scheduling — ready for `?`-propagation into the
//! workspace's typed error enums.

pub mod stats;

use pnc_telemetry::Stopwatch;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

pub use stats::ExecutorStatsSnapshot;

// Process-wide thread count: set by the CLI / bench bins' `configure`,
// or resolved on first lookup.
// lint: allow(L003, reason = "the executor is configured exactly once at process start (CLI --threads); a OnceLock is the mechanism that enforces 'configured once'")
static CONFIGURED_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    // lint: allow(L003, reason = "marks the thread running a join branch; executor calls consult it at entry, and passing a flag through every frame between a branch and its nested calls is not viable")
    static IN_BRANCH: Cell<bool> = const { Cell::new(false) };
}

/// Runs one [`Executor::join`] branch on the current thread, marked
/// as inside a branch, and records its busy time. A drop guard clears
/// the mark, also when the branch unwinds.
fn in_branch<R>(f: impl FnOnce() -> R) -> R {
    struct Unmark;
    impl Drop for Unmark {
        fn drop(&mut self) {
            IN_BRANCH.set(false);
        }
    }
    let busy = Stopwatch::start();
    IN_BRANCH.set(true);
    let unmark = Unmark;
    let out = f();
    drop(unmark);
    stats::record_worker_busy(busy.elapsed_ns());
    out
}

/// Global access to the process-wide executor configuration.
///
/// Binaries call [`ExecutorHandle::configure`] exactly once at startup
/// (from `--threads N`); library code calls [`ExecutorHandle::get`] to
/// obtain an [`Executor`] wherever a sweep fans out. Unconfigured
/// processes take `PNC_THREADS`, else the machine's available
/// parallelism.
#[derive(Debug, Clone, Copy)]
pub struct ExecutorHandle;

impl ExecutorHandle {
    /// Sets the process-wide thread count (clamped to ≥ 1). Returns
    /// `false` if the count is already fixed — by an earlier `configure`
    /// or by a first [`ExecutorHandle::threads`] lookup — in which case
    /// this call is ignored.
    pub fn configure(threads: usize) -> bool {
        CONFIGURED_THREADS.set(threads.max(1)).is_ok()
    }

    /// Applies the value of a `--threads` flag: the CLI's and the bench
    /// binaries' one reading of it. Returns the thread count set.
    ///
    /// # Errors
    ///
    /// A value that is not a whole number, `0`, or a count that could
    /// not take effect because the process-wide count was already fixed
    /// (see [`ExecutorHandle::configure`]).
    pub fn configure_flag(value: &str) -> Result<usize, String> {
        let n: usize = value
            .parse()
            .map_err(|_| format!("--threads: '{value}' is not a thread count"))?;
        if n == 0 {
            return Err("--threads must be at least 1".to_string());
        }
        if !Self::configure(n) {
            return Err(format!(
                "--threads {n}: the thread count was already fixed at {}",
                Self::threads()
            ));
        }
        Ok(n)
    }

    /// The process-wide thread count: the configured value if
    /// [`ExecutorHandle::configure`] ran first, else `PNC_THREADS` from
    /// the environment, else [`std::thread::available_parallelism`].
    ///
    /// The first lookup fixes the value for the life of the process:
    /// later lookups read it back without touching the environment or
    /// the cgroup files `available_parallelism` consults, and a later
    /// `configure` is ignored.
    pub fn threads() -> usize {
        *CONFIGURED_THREADS.get_or_init(|| {
            std::env::var("PNC_THREADS")
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&t| t >= 1)
                .unwrap_or_else(|| {
                    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
                })
        })
    }

    /// An executor using the process-wide thread count.
    pub fn get() -> Executor {
        Executor::new(Self::threads())
    }
}

/// A scoped worker-pool executor over a fixed thread count.
///
/// Stateless and `Copy`: each parallel call spawns scoped workers for
/// its own duration (no persistent pool, no channels to drain), which
/// keeps panic propagation and borrow lifetimes trivial — closures may
/// borrow from the caller's stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Executor {
    threads: usize,
}

impl Default for Executor {
    fn default() -> Self {
        ExecutorHandle::get()
    }
}

impl Executor {
    /// An executor with an explicit thread count (clamped to ≥ 1).
    pub fn new(threads: usize) -> Executor {
        Executor {
            threads: threads.max(1),
        }
    }

    /// The exact sequential fallback: runs everything inline, never
    /// spawns.
    pub fn sequential() -> Executor {
        Executor { threads: 1 }
    }

    /// This executor's thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether a call made on the current thread may spread its work
    /// over more than one thread: the count is above one and the
    /// thread is not running a [`Executor::join`] branch.
    pub fn fans_out(&self) -> bool {
        self.threads > 1 && !IN_BRANCH.get()
    }

    /// Runs `a` and `b` and returns `(a(), b())`.
    ///
    /// When [`Executor::fans_out`] is false — `threads == 1`, or inside
    /// another branch — it runs `a` and then `b` inline on the caller.
    /// Otherwise `b` runs on one scoped thread while `a` runs on the
    /// caller, and both threads are marked as inside a branch, so every
    /// executor call made from either runs inline (see the crate docs).
    /// A panic in either branch reaches the caller after both have
    /// ended. The two closures must not depend on each other's side
    /// effects: which one finishes first is up to the scheduler.
    pub fn join<RA, RB, A, B>(&self, a: A, b: B) -> (RA, RB)
    where
        RA: Send,
        RB: Send,
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
    {
        let call = Stopwatch::start();
        if !self.fans_out() {
            let out = (a(), b());
            let ns = call.elapsed_ns();
            stats::record_worker_busy(ns);
            stats::record_call(2, 1, ns);
            return out;
        }
        let out = std::thread::scope(|scope| {
            let b = scope.spawn(|| in_branch(b));
            let a = in_branch(a);
            (a, b.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
        });
        stats::record_call(2, 2, call.elapsed_ns());
        out
    }

    /// Maps `f` over `items`, returning results in item order.
    ///
    /// `f` receives `(index, &item)` so per-index seeds can be derived.
    /// Work is distributed dynamically (atomic next-index counter), but
    /// result slot `i` always holds `f(i, &items[i])` — the output is
    /// identical for any thread count.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        let call = Stopwatch::start();
        if !self.fans_out() || n <= 1 {
            let out: Vec<R> = items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
            let ns = call.elapsed_ns();
            stats::record_worker_busy(ns);
            stats::record_call(n, 1, ns);
            return out;
        }
        let workers = self.threads.min(n);
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let busy = Stopwatch::start();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let r = f(i, &items[i]);
                        *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
                    }
                    stats::record_worker_busy(busy.elapsed_ns());
                });
            }
        });
        stats::record_call(n, workers, call.elapsed_ns());
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    // lint: allow(L001, reason = "scope() joins every worker before returning, so each slot was written; a panicking worker already re-panicked the caller")
                    .expect("worker filled every slot")
            })
            .collect()
    }

    /// Fallible [`Executor::par_map`]: evaluates every item, then
    /// returns all successes in item order, or the **lowest-index**
    /// error — deterministic regardless of which worker failed first.
    ///
    /// # Errors
    ///
    /// Returns the error produced by the smallest failing index.
    pub fn par_try_map<T, R, E, F>(&self, items: &[T], f: F) -> Result<Vec<R>, E>
    where
        T: Sync,
        R: Send,
        E: Send,
        F: Fn(usize, &T) -> Result<R, E> + Sync,
    {
        self.par_map(items, f).into_iter().collect()
    }

    /// Runs `f` over disjoint mutable chunks of `data` (the last chunk
    /// may be short), in parallel. `f` receives `(chunk_index, chunk)`.
    ///
    /// Because chunks are disjoint and each is processed by exactly one
    /// worker, the final contents of `data` equal the sequential
    /// result for any thread count. This is the row-blocked matmul
    /// primitive: chunk the output buffer by row blocks.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len == 0` (as [`slice::chunks_mut`] does).
    pub fn par_for_chunks<T, F>(&self, data: &mut [T], chunk_len: usize, f: F)
    where
        T: Send,
        F: Fn(usize, &mut [T]) + Sync,
    {
        let call = Stopwatch::start();
        if !self.fans_out() || data.len() <= chunk_len {
            let mut n = 0usize;
            for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
                f(i, chunk);
                n = i + 1;
            }
            let ns = call.elapsed_ns();
            stats::record_worker_busy(ns);
            stats::record_call(n, 1, ns);
            return;
        }
        let chunks: Vec<Mutex<&mut [T]>> = data.chunks_mut(chunk_len).map(Mutex::new).collect();
        let n = chunks.len();
        let workers = self.threads.min(n);
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let busy = Stopwatch::start();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let mut guard = chunks[i].lock().unwrap_or_else(PoisonError::into_inner);
                        f(i, &mut guard);
                    }
                    stats::record_worker_busy(busy.elapsed_ns());
                });
            }
        });
        stats::record_call(n, workers, call.elapsed_ns());
    }

    /// Parallel map + sequential index-ordered fold. The fold order is
    /// `0, 1, 2, …` no matter how the map work was scheduled, so float
    /// accumulation is bit-identical for any thread count.
    pub fn par_reduce<T, R, A, M, F>(&self, items: &[T], init: A, map: M, fold: F) -> A
    where
        T: Sync,
        R: Send,
        M: Fn(usize, &T) -> R + Sync,
        F: FnMut(A, R) -> A,
    {
        self.par_map(items, map).into_iter().fold(init, fold)
    }
}

/// Derives an independent per-index RNG seed from a base seed — the
/// SplitMix64 finalizer, so neighbouring indices land in uncorrelated
/// streams. Parallel sweeps must seed per index with this (or
/// equivalent) instead of advancing one shared RNG in loop order.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut z = base.wrapping_add(0x9E37_79B9_7F4A_7C15_u64.wrapping_mul(index.wrapping_add(1)));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn par_map_matches_sequential_for_any_thread_count() {
        let items: Vec<u64> = (0..103).collect();
        let expected: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 4, 8] {
            let ex = Executor::new(threads);
            let got = ex.par_map(&items, |_, &x| x * x + 1);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn single_thread_runs_inline_and_never_spawns() {
        let ex = Executor::sequential();
        let caller = std::thread::current().id();
        // lint: allow(L010, reason = "asserts the sequential executor runs inline; thread identity is the subject under test")
        let ids = ex.par_map(&[1, 2, 3], |_, _| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn multi_thread_actually_uses_workers() {
        let ex = Executor::new(4);
        let items: Vec<usize> = (0..64).collect();
        let off_caller = AtomicBool::new(false);
        let caller = std::thread::current().id();
        ex.par_map(&items, |_, _| {
            // lint: allow(L010, reason = "asserts workers actually run off-caller; thread identity is the subject under test")
            if std::thread::current().id() != caller {
                off_caller.store(true, Ordering::Relaxed);
            }
        });
        assert!(off_caller.load(Ordering::Relaxed), "no worker thread ran");
    }

    #[test]
    fn par_try_map_returns_lowest_index_error() {
        let items: Vec<usize> = (0..50).collect();
        for threads in [1, 4] {
            let ex = Executor::new(threads);
            let r: Result<Vec<usize>, usize> =
                ex.par_try_map(&items, |i, &x| if i % 7 == 3 { Err(i) } else { Ok(x) });
            assert_eq!(r.unwrap_err(), 3, "threads = {threads}");
        }
        let ok: Result<Vec<usize>, usize> = Executor::new(4).par_try_map(&items, |_, &x| Ok(x * 2));
        assert_eq!(
            ok.unwrap(),
            items.iter().map(|&x| x * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn par_for_chunks_fills_disjoint_chunks_in_order() {
        let mut expected = vec![0usize; 37];
        for (i, chunk) in expected.chunks_mut(5).enumerate() {
            for (j, v) in chunk.iter_mut().enumerate() {
                *v = i * 100 + j;
            }
        }
        for threads in [1, 2, 4] {
            let mut data = vec![0usize; 37];
            Executor::new(threads).par_for_chunks(&mut data, 5, |i, chunk| {
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v = i * 100 + j;
                }
            });
            assert_eq!(data, expected, "threads = {threads}");
        }
    }

    #[test]
    fn par_reduce_folds_in_index_order() {
        // A non-commutative fold exposes any ordering difference.
        let items: Vec<u64> = (1..=40).collect();
        let seq = items
            .iter()
            .enumerate()
            .map(|(i, &x)| x + i as u64)
            .fold(String::new(), |acc, v| format!("{acc},{v}"));
        for threads in [1, 3, 6] {
            let got = Executor::new(threads).par_reduce(
                &items,
                String::new(),
                |i, &x| x + i as u64,
                |acc, v| format!("{acc},{v}"),
            );
            assert_eq!(got, seq, "threads = {threads}");
        }
    }

    #[test]
    fn worker_panics_propagate_to_caller() {
        let result = std::panic::catch_unwind(|| {
            Executor::new(4).par_map(&[0usize; 16], |i, _| {
                assert!(i != 9, "boom");
                i
            })
        });
        assert!(result.is_err(), "panic should cross the scope join");
    }

    #[test]
    fn join_equals_the_sequential_pair_for_any_thread_count() {
        let items: Vec<u64> = (0..97).collect();
        let sum = |xs: &[u64]| xs.iter().map(|&x| x * x).sum::<u64>();
        let expected = (
            sum(&items),
            items.iter().map(|&x| x + 1).collect::<Vec<_>>(),
        );
        for threads in [1, 2, 4] {
            let ex = Executor::new(threads);
            let got = ex.join(|| sum(&items), || ex.par_map(&items, |_, &x| x + 1));
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn fan_outs_inside_a_branch_run_on_the_branch_thread() {
        let ex = Executor::new(4);
        let items: Vec<usize> = (0..64).collect();
        let on_own_thread = || {
            let branch = std::thread::current().id();
            // lint: allow(L010, reason = "asserts a branch's fan-out stays on the branch thread; thread identity is the subject under test")
            let ids = ex.par_map(&items, |_, _| std::thread::current().id());
            let mut chunks = vec![branch; 64];
            ex.par_for_chunks(&mut chunks, 4, |_, chunk| {
                // lint: allow(L010, reason = "asserts a branch's fan-out stays on the branch thread; thread identity is the subject under test")
                chunk.fill(std::thread::current().id());
            });
            let nested = ex.join(
                // lint: allow(L010, reason = "asserts a nested join stays on the branch thread; thread identity is the subject under test")
                || std::thread::current().id(),
                // lint: allow(L010, reason = "asserts a nested join stays on the branch thread; thread identity is the subject under test")
                || std::thread::current().id(),
            );
            let inline = ids.iter().chain(&chunks).all(|&id| id == branch)
                && nested == (branch, branch)
                && !ex.fans_out();
            (branch, inline)
        };
        let ((a, a_inline), (b, b_inline)) = ex.join(on_own_thread, on_own_thread);
        assert_ne!(a, b, "the second branch did not get its own thread");
        assert!(
            a_inline && b_inline,
            "a fan-out inside a branch left its thread"
        );
        assert!(ex.fans_out(), "the branch mark outlived the join");
    }

    #[test]
    fn sequential_join_never_spawns() {
        let here = || std::thread::current().id();
        let caller = here();
        assert_eq!(Executor::sequential().join(here, here), (caller, caller));
    }

    #[test]
    fn branch_panics_reach_the_caller_and_clear_the_mark() {
        let ex = Executor::new(4);
        let items: Vec<usize> = (0..64).collect();
        let caller = std::thread::current().id();
        let fans_out_again = || {
            // lint: allow(L010, reason = "asserts the executor spawns again after a panicking branch; thread identity is the subject under test")
            let ids = ex.par_map(&items, |_, _| std::thread::current().id());
            ids.iter().any(|&id| id != caller)
        };
        let in_a = std::panic::catch_unwind(|| ex.join(|| panic!("boom in a"), || 1));
        assert!(in_a.is_err(), "a panic in the caller's branch was lost");
        assert!(fans_out_again(), "the branch mark survived a panic in a");
        let in_b = std::panic::catch_unwind(|| ex.join(|| 1, || panic!("boom in b")));
        assert!(in_b.is_err(), "a panic in the spawned branch was lost");
        assert!(fans_out_again(), "the branch mark survived a panic in b");
    }

    #[test]
    fn join_is_counted_in_the_stats() {
        for threads in [1, 2] {
            let before = stats::snapshot();
            Executor::new(threads).join(|| 1, || 2);
            let after = stats::snapshot();
            assert!(after.calls > before.calls, "threads = {threads}");
            assert!(after.items >= before.items + 2, "threads = {threads}");
        }
    }

    #[test]
    fn derive_seed_is_stable_and_spreads() {
        assert_eq!(derive_seed(42, 0), derive_seed(42, 0));
        let a = derive_seed(42, 0);
        let b = derive_seed(42, 1);
        let c = derive_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Finalizer output should flip roughly half the bits between
        // neighbouring indices.
        let flipped = (a ^ b).count_ones();
        assert!((8..=56).contains(&flipped), "flipped {flipped} bits");
    }

    #[test]
    fn configure_is_first_caller_wins() {
        // This test intentionally pins the process-wide value for this
        // test binary; every other test here uses explicit Executor::new.
        let first = ExecutorHandle::configure(3);
        let second = ExecutorHandle::configure(7);
        if first {
            assert_eq!(ExecutorHandle::threads(), 3);
        }
        assert!(!second || !first, "only the first configure may win");
        assert!(ExecutorHandle::get().threads() >= 1);
        // Once looked up, the count is fixed: configure cannot move it.
        let fixed = ExecutorHandle::threads();
        assert!(!ExecutorHandle::configure(fixed + 1));
        assert_eq!(ExecutorHandle::threads(), fixed);
    }

    #[test]
    fn configure_flag_rejects_what_it_cannot_apply() {
        for bad in ["", "two", "-1", "0"] {
            assert!(ExecutorHandle::configure_flag(bad).is_err(), "{bad:?}");
        }
        // A count fixed by a first lookup cannot be moved by the flag.
        let fixed = ExecutorHandle::threads();
        let err = ExecutorHandle::configure_flag(&(fixed + 1).to_string()).unwrap_err();
        assert!(err.contains("already fixed"), "{err}");
        assert_eq!(ExecutorHandle::threads(), fixed);
    }

    #[test]
    fn utilization_counters_track_parallel_calls() {
        let before = stats::snapshot();
        let items: Vec<u64> = (0..64).collect();
        Executor::new(4).par_map(&items, |_, &x| x.wrapping_mul(3));
        Executor::sequential().par_map(&items, |_, &x| x.wrapping_mul(3));
        let after = stats::snapshot();
        assert!(after.calls >= before.calls + 2);
        assert!(after.items >= before.items + 128);
        assert!(after.busy_ns > before.busy_ns);
        assert!(after.capacity_ns >= after.busy_ns - before.busy_ns);
        assert!(after.max_fanout >= 64);
    }

    #[test]
    fn shared_histogram_summaries_are_bit_identical_across_thread_counts() {
        // The cross-layer determinism contract: workers recording
        // per-item samples into one shared streamed histogram must
        // summarize bit-identically for any thread count, because the
        // histogram accumulates in order-independent integer ticks.
        use pnc_telemetry::StreamHistogram;
        let items: Vec<u64> = (0..257).collect();
        let summarize = |threads: usize| {
            let hist = StreamHistogram::with_ticks_per_unit(1.0);
            Executor::new(threads).par_map(&items, |i, &x| {
                hist.record((x % 97) as f64);
                i
            });
            hist.summary()
        };
        let base = summarize(1);
        assert_eq!(base.count, 257);
        for threads in [2, 4, 8] {
            let s = summarize(threads);
            assert_eq!(s.count, base.count, "threads = {threads}");
            for (a, b) in [
                (s.min, base.min),
                (s.max, base.max),
                (s.mean, base.mean),
                (s.p50, base.p50),
                (s.p95, base.p95),
                (s.p99, base.p99),
            ] {
                assert_eq!(a.to_bits(), b.to_bits(), "threads = {threads}");
            }
        }
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let ex = Executor::new(8);
        let empty: Vec<u32> = Vec::new();
        assert!(ex.par_map(&empty, |_, &x| x).is_empty());
        assert_eq!(ex.par_map(&[5u32], |i, &x| (i, x)), vec![(0, 5)]);
        let mut nothing: [u8; 0] = [];
        ex.par_for_chunks(&mut nothing, 4, |_, _| {});
    }
}
