//! Distance-computation instrumentation.
//!
//! The paper defines query time as the **number of distance computations**
//! performed by `greedy` (Section 1.1: "a `Q` query time guarantee ...
//! directly translates into a maximum running time of `O(Q)` because distance
//! calculation is the bottleneck"). Every experiment in this workspace
//! therefore measures distance evaluations through [`Counting`], which wraps
//! any metric and counts calls.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::metric::Metric;

/// A metric wrapper that counts distance evaluations.
///
/// The counter uses a relaxed atomic so shared references (`&Counting<M>`)
/// can be handed to several data structures at once; the overhead is a single
/// uncontended `fetch_add` per distance call.
///
/// **Clones share the counter** (it is reference-counted): handing a clone to
/// another structure keeps all distance evaluations flowing into one total,
/// which is what the instrumented experiments need.
///
/// # Example
///
/// ```
/// use pg_metric::{Counting, Euclidean, Metric};
///
/// let m = Counting::new(Euclidean);
/// let a = vec![0.0, 0.0];
/// let b = vec![3.0, 4.0];
/// assert_eq!(m.dist(&a, &b), 5.0);
/// assert_eq!(m.count(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Counting<M> {
    inner: M,
    count: Arc<AtomicU64>,
}

impl<M: Clone> Clone for Counting<M> {
    fn clone(&self) -> Self {
        Counting {
            inner: self.inner.clone(),
            count: Arc::clone(&self.count),
        }
    }
}

impl<M> Counting<M> {
    /// Wraps `inner`, starting the counter at zero.
    pub fn new(inner: M) -> Self {
        Counting {
            inner,
            count: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Number of distance evaluations so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Resets the counter to zero.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
    }

    /// Returns the current count and resets the counter — convenient for
    /// per-phase measurements (`let build_cost = m.take();`).
    pub fn take(&self) -> u64 {
        self.count.swap(0, Ordering::Relaxed)
    }

    /// A reference to the wrapped metric (does not count).
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Unwraps, discarding the counter.
    pub fn into_inner(self) -> M {
        self.inner
    }
}

impl<P: ?Sized, M: Metric<P>> Metric<P> for Counting<M> {
    #[inline]
    fn dist(&self, a: &P, b: &P) -> f64 {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.inner.dist(a, b)
    }

    /// Counts exactly like [`Counting::dist`]: a surrogate evaluation does
    /// the same coordinate work, so it is one distance computation in the
    /// paper's cost model. Comparison-only code paths therefore keep their
    /// `dist_comps` accounting unchanged when they switch to surrogates.
    #[inline]
    fn surrogate(&self, a: &P, b: &P) -> f64 {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.inner.surrogate(a, b)
    }

    /// Pure float transform — **not** counted.
    #[inline]
    fn dist_from_surrogate(&self, s: f64) -> f64 {
        self.inner.dist_from_surrogate(s)
    }

    /// Pure float transforms — **not** counted.
    #[inline]
    fn surrogate_bound(&self, r: f64) -> f64 {
        self.inner.surrogate_bound(r)
    }

    /// Counts exactly one distance computation per call, whether or not the
    /// inner kernel stops early: the cost model counts the threshold test
    /// `surrogate(a, b) <= bound` it answers, so a construction that moves
    /// to bounded tests keeps its `dist_comps` total.
    #[inline]
    fn surrogate_within(&self, a: &P, b: &P, bound: f64) -> f64 {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.inner.surrogate_within(a, b, bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::Euclidean;

    #[test]
    fn counts_every_call() {
        let m = Counting::new(Euclidean);
        let pts: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let mut total = 0.0;
        for a in &pts {
            for b in &pts {
                total += m.dist(a, b);
            }
        }
        assert!(total > 0.0);
        assert_eq!(m.count(), 100);
    }

    #[test]
    fn take_resets() {
        let m = Counting::new(Euclidean);
        let a = vec![0.0];
        let b = vec![1.0];
        m.dist(&a, &b);
        m.dist(&a, &b);
        assert_eq!(m.take(), 2);
        assert_eq!(m.count(), 0);
        m.dist(&a, &b);
        assert_eq!(m.count(), 1);
    }

    #[test]
    fn clones_share_the_counter() {
        let m = Counting::new(Euclidean);
        let m2 = m.clone();
        let a = vec![0.0];
        let b = vec![1.0];
        m.dist(&a, &b);
        m2.dist(&a, &b);
        assert_eq!(m.count(), 2);
        assert_eq!(m2.count(), 2);
        m.reset();
        assert_eq!(m2.count(), 0);
    }

    #[test]
    fn shared_references_count_into_same_counter() {
        let m = Counting::new(Euclidean);
        let r1 = &m;
        let r2 = &m;
        let a = vec![0.0];
        let b = vec![1.0];
        r1.dist(&a, &b);
        r2.dist(&a, &b);
        assert_eq!(m.count(), 2);
    }
}
