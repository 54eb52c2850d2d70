//! Offline stand-in for the slice of `rayon` this workspace uses.
//!
//! The build environment has no access to crates.io, so this crate provides
//! the parallel-execution surface the workspace consumes (see
//! `crates/compat/README.md`): a **scoped, work-stealing-lite pool** rather
//! than rayon's full `ParallelIterator` machinery. Workers pull fixed-size
//! blocks of work from a shared atomic cursor (cheap dynamic load balancing)
//! and results are reassembled in input order, so every helper is
//! **deterministic in its output ordering regardless of thread count** —
//! the property all `batch_*` engine routines and the parallel graph
//! constructions rely on.
//!
//! Surface:
//!
//! * [`par_map`] / [`par_map_indexed`] / [`par_map_range`] — order-preserving
//!   parallel maps (`par_iter().map().collect()` morally);
//! * [`par_map_indexed_init_with`] — the same map with per-worker state
//!   (`map_init` morally), for reusable scratch memory;
//! * [`par_chunks`] — parallel map over contiguous chunks, results in chunk
//!   order;
//! * [`scope`] / [`Scope::spawn`] — structured fork/join on borrowed data;
//! * [`current_num_threads`], [`set_default_threads`], [`with_threads`] —
//!   pool sizing, overridable per call site, per process, or via the
//!   `PG_THREADS` environment variable.
//!
//! Thread-count resolution order: [`with_threads`] scope (thread-local) >
//! [`set_default_threads`] (process-global, e.g. a `--threads` flag) >
//! `PG_THREADS` > `std::thread::available_parallelism()`.
//!
//! Unlike the `rand`/`proptest`/`criterion` stand-ins, this API is *not*
//! call-site-compatible with the real crate (rayon's iterator traits cannot
//! be reproduced small); swapping the real rayon back in would mean porting
//! call sites to `par_iter`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0); // 0 = unset

thread_local! {
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) }; // 0 = unset
}

/// Parses a `PG_THREADS`-style value; `None`/empty/non-numeric/zero mean
/// "unset". Split out of [`current_num_threads`] so it is testable without
/// mutating process environment.
fn threads_from_env(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// The number of worker threads parallel helpers use, resolved as:
/// [`with_threads`] override, then [`set_default_threads`], then the
/// `PG_THREADS` environment variable, then the machine's available
/// parallelism (at least 1).
pub fn current_num_threads() -> usize {
    let o = THREAD_OVERRIDE.with(Cell::get);
    if o > 0 {
        return o;
    }
    let g = DEFAULT_THREADS.load(Ordering::Relaxed);
    if g > 0 {
        return g;
    }
    if let Some(n) = threads_from_env(std::env::var("PG_THREADS").ok().as_deref()) {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Sets the process-wide default thread count (0 restores auto-detection).
/// Typically wired to a `--threads` command-line flag. A [`with_threads`]
/// scope still takes precedence on its thread.
pub fn set_default_threads(n: usize) {
    DEFAULT_THREADS.store(n, Ordering::Relaxed);
}

/// Runs `f` with the calling thread's pool size pinned to `n` (restored on
/// exit, including on panic). Only affects parallel helpers invoked *on this
/// thread* — the deterministic way for tests to compare thread counts
/// without touching process-global state.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n >= 1, "thread count must be at least 1");
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _guard = Restore(THREAD_OVERRIDE.with(|c| c.replace(n)));
    f()
}

/// Order-preserving parallel map: semantically
/// `items.iter().map(f).collect()`, computed on [`current_num_threads`]
/// workers. `f` must be pure for the parallel and sequential results to
/// agree (every call site in this workspace satisfies that).
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed_with(current_num_threads(), items, |_, t| f(t))
}

/// [`par_map`] with the element index passed to `f`.
pub fn par_map_indexed<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_indexed_with(current_num_threads(), items, f)
}

/// [`par_map`] with an explicit worker count.
pub fn par_map_with<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed_with(threads, items, |_, t| f(t))
}

/// Order-preserving parallel map over `0..n`: semantically
/// `(0..n).map(f).collect()`. The natural shape for the per-point loops of
/// the graph constructions.
pub fn par_map_range<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    par_map_range_with(current_num_threads(), n, f)
}

/// [`par_map_range`] with an explicit worker count.
pub fn par_map_range_with<U, F>(threads: usize, n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    // Dispatch through the slice path with unit items; the index is the
    // only input.
    let units = vec![(); n];
    par_map_indexed_with(threads, &units, |i, ()| f(i))
}

/// Parallel map over contiguous `chunk_size`-sized chunks (last chunk may be
/// shorter); results are in chunk order, exactly as
/// `items.chunks(chunk_size).map(f).collect()`.
pub fn par_chunks<T, U, F>(items: &[T], chunk_size: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&[T]) -> U + Sync,
{
    assert!(chunk_size >= 1, "chunk size must be at least 1");
    let chunks: Vec<&[T]> = items.chunks(chunk_size).collect();
    par_map_indexed_with(current_num_threads(), &chunks, |_, c| f(c))
}

/// [`par_map_indexed`] with an explicit worker count: the stateless case of
/// [`par_map_indexed_init_with`].
pub fn par_map_indexed_with<T, U, F>(threads: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    par_map_indexed_init_with(threads, items, || (), |(), i, t| f(i, t))
}

/// [`par_map_indexed_with`] with per-worker mutable state — the primitive
/// every other helper lowers to. `init` builds one state per worker and `f`
/// receives it with every item that worker maps, so scratch memory (a
/// search's visited marks and heaps, say) is allocated once per worker
/// instead of once per item.
///
/// `init` runs lazily, when a worker claims its first block: exactly once
/// on the sequential path (one thread or one item), at most
/// `min(threads, items.len())` times in total, and never for an empty
/// input. Which items share a state depends on scheduling, so `f`'s result
/// must not depend on what earlier items left in the state; the output
/// order never depends on scheduling.
///
/// Work-stealing-lite: the input is cut into blocks of roughly
/// `len / (4 * threads)` items and workers claim blocks from a shared atomic
/// cursor, so an unlucky worker stuck on an expensive block does not serialize
/// the rest. Each block remembers its start offset and the blocks are
/// reassembled in input order, making the output independent of scheduling.
pub fn par_map_indexed_init_with<T, S, U, I, F>(
    threads: usize,
    items: &[T],
    init: I,
    f: F,
) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> U + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(n);
    if threads == 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut state, i, t))
            .collect();
    }

    let block = n.div_ceil(threads * 4).max(1);
    let cursor = AtomicUsize::new(0);
    let mut parts: Vec<(usize, Vec<U>)> = Vec::with_capacity(n.div_ceil(block));
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let cursor = &cursor;
            let (init, f) = (&init, &f);
            handles.push(s.spawn(move || {
                let mut local: Vec<(usize, Vec<U>)> = Vec::new();
                let mut state: Option<S> = None;
                loop {
                    let start = cursor.fetch_add(block, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let state = state.get_or_insert_with(init);
                    let end = (start + block).min(n);
                    let results = items[start..end]
                        .iter()
                        .enumerate()
                        .map(|(j, t)| f(state, start + j, t))
                        .collect();
                    local.push((start, results));
                }
                local
            }));
        }
        for h in handles {
            // A panic in `init` or `f` propagates to the caller with its
            // original payload, exactly as it would from a sequential map.
            match h.join() {
                Ok(local) => parts.extend(local),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    parts.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(n);
    for (_, mut v) in parts {
        out.append(&mut v);
    }
    out
}

/// A structured fork/join scope over borrowed data; see [`scope`].
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a task that may borrow from outside the scope. All spawned
    /// tasks are joined before [`scope`] returns; a task panic propagates.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.inner.spawn(f);
    }
}

/// Structured concurrency over borrowed data: `scope(|s| s.spawn(...))`
/// joins every spawned task before returning, so tasks may freely borrow
/// from the enclosing stack frame. The shape of `rayon::scope`, backed by
/// `std::thread::scope`.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    std::thread::scope(|s| f(&Scope { inner: s }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_preserves_order_for_every_thread_count() {
        let items: Vec<u64> = (0..997).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
        for threads in [1, 2, 3, machine, machine + 3] {
            let got = par_map_with(threads, &items, |&x| x * x + 1);
            assert_eq!(got, expect, "ordering broke at {threads} threads");
        }
    }

    #[test]
    fn par_map_indexed_passes_true_indices() {
        let items = vec![10u64; 503];
        let got = par_map_indexed_with(4, &items, |i, &x| i as u64 + x);
        let expect: Vec<u64> = (0..503).map(|i| i + 10).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn par_map_range_matches_sequential_range_map() {
        let expect: Vec<usize> = (0..777).map(|i| i * 3).collect();
        for threads in [1, 2, 5] {
            assert_eq!(par_map_range_with(threads, 777, |i| i * 3), expect);
        }
    }

    #[test]
    fn par_chunks_keeps_chunk_order_and_boundaries() {
        let items: Vec<u32> = (0..100).collect();
        let sums = par_chunks(&items, 7, |c| c.iter().sum::<u32>());
        let expect: Vec<u32> = items.chunks(7).map(|c| c.iter().sum()).collect();
        assert_eq!(sums, expect);
        assert_eq!(sums.len(), 100usize.div_ceil(7));
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert_eq!(par_map_with(8, &empty, |&x| x), Vec::<u32>::new());
        assert_eq!(par_map_with(8, &[41u32], |&x| x + 1), vec![42]);
        assert_eq!(par_map_range_with(8, 0, |i| i), Vec::<usize>::new());
    }

    #[test]
    fn scope_joins_all_spawned_tasks_before_returning() {
        let hits = AtomicU64::new(0);
        scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {
                    hits.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = current_num_threads();
        let inner = with_threads(3, || {
            // Nested overrides stack.
            let nested = with_threads(2, current_num_threads);
            assert_eq!(nested, 2);
            current_num_threads()
        });
        assert_eq!(inner, 3);
        assert_eq!(current_num_threads(), outer);
    }

    #[test]
    fn with_threads_restores_after_panic() {
        let before = current_num_threads();
        let caught = std::panic::catch_unwind(|| {
            with_threads(7, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(current_num_threads(), before);
    }

    #[test]
    fn env_parsing_rules() {
        assert_eq!(threads_from_env(None), None);
        assert_eq!(threads_from_env(Some("")), None);
        assert_eq!(threads_from_env(Some("abc")), None);
        assert_eq!(threads_from_env(Some("0")), None);
        assert_eq!(threads_from_env(Some("4")), Some(4));
        assert_eq!(threads_from_env(Some(" 12 ")), Some(12));
    }

    /// Maps `0..n` with a per-worker item counter as the state: each output
    /// is how many items its worker had mapped before it. Returns the
    /// outputs and how often `init` ran.
    fn counted_init_map(threads: usize, n: usize) -> (Vec<(u64, usize)>, usize) {
        let inits = AtomicUsize::new(0);
        let items: Vec<u64> = (0..n as u64).collect();
        let out = par_map_indexed_init_with(
            threads,
            &items,
            || {
                inits.fetch_add(1, Ordering::SeqCst);
                0usize
            },
            |seen, i, &x| {
                assert_eq!(i as u64, x, "index and item disagree");
                let before = *seen;
                *seen += 1;
                (x * x + 1, before)
            },
        );
        (out, inits.load(Ordering::SeqCst))
    }

    #[test]
    fn init_map_preserves_order_for_every_thread_count() {
        let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
        let expect: Vec<u64> = (0..997u64).map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, machine + 3] {
            let (out, _) = counted_init_map(threads, 997);
            let values: Vec<u64> = out.iter().map(|&(v, _)| v).collect();
            assert_eq!(values, expect, "ordering broke at {threads} threads");
        }
    }

    #[test]
    fn init_runs_once_per_working_thread_at_most() {
        let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
        for threads in [1, 2, 3, machine + 3] {
            for n in [1, 2, 5, 64, 997] {
                let (_, inits) = counted_init_map(threads, n);
                assert!(inits >= 1, "no state built for {n} items");
                assert!(
                    inits <= threads.min(n),
                    "{inits} inits for {n} items on {threads} threads"
                );
            }
        }
        // The sequential path builds exactly one state, whatever the input.
        for n in [1, 2, 997] {
            assert_eq!(counted_init_map(1, n).1, 1);
        }
        assert_eq!(counted_init_map(4, 1).1, 1, "one item runs sequentially");
        // An empty input builds none.
        assert_eq!(counted_init_map(4, 0), (Vec::new(), 0));
    }

    #[test]
    fn init_state_carries_over_between_items_of_a_worker() {
        // Sequential: one state sees every item, in order.
        let (out, _) = counted_init_map(1, 50);
        let seen: Vec<usize> = out.iter().map(|&(_, s)| s).collect();
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
        // Parallel: every state starts at zero exactly once, and some worker
        // mapped at least its share of the items on one state.
        for threads in [2, 3] {
            let (out, inits) = counted_init_map(threads, 997);
            let fresh = out.iter().filter(|&&(_, s)| s == 0).count();
            assert_eq!(fresh, inits, "each state is built once");
            let longest = out.iter().map(|&(_, s)| s).max().unwrap_or(0);
            assert!(longest + 1 >= 997 / inits, "state was not reused");
        }
    }

    #[test]
    fn init_map_worker_panic_propagates_with_original_payload() {
        let items: Vec<u32> = (0..64).collect();
        for threads in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                let _ =
                    par_map_indexed_init_with(threads, &items, Vec::<u32>::new, |seen, _, &x| {
                        seen.push(x);
                        assert!(x < 60, "planted init-map failure");
                        x
                    });
            });
            let payload = caught.expect_err("planted panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            assert!(
                msg.contains("planted init-map failure"),
                "payload lost at {threads} threads: {msg:?}"
            );
        }
    }

    #[test]
    fn worker_panic_propagates_with_original_payload() {
        let items: Vec<u32> = (0..64).collect();
        let caught = std::panic::catch_unwind(|| {
            let _ = par_map_with(4, &items, |&x| {
                assert!(x < 60, "planted failure");
                x
            });
        });
        // The payload must survive the join, so diagnostics do not depend
        // on the thread count.
        let payload = caught.expect_err("planted panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("planted failure"), "payload lost: {msg:?}");
    }
}
