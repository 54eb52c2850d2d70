//! Id-addressed datasets: a point collection paired with a metric.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use crate::metric::Metric;

/// A candidate of the [`Dataset::k_nearest_brute`] scan: totally ordered by
/// surrogate, then id — the tie order every search routine reports.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    s: f64,
    id: usize,
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        self.s
            .partial_cmp(&other.s)
            .expect("surrogate distances must be comparable")
            .then(self.id.cmp(&other.id))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Candidate {}

/// A finite set of data points `P` together with the metric of the ambient
/// space, addressed by dense integer ids `0..n`.
///
/// This mirrors the problem setup of Section 1.1: the data input is a set `P`
/// of `n >= 2` points from a metric space `(M, D)`. Graphs in `pg-core`
/// reference points by id (`u32`), so a `Dataset` is the bridge between graph
/// structure and geometry.
#[derive(Debug, Clone)]
pub struct Dataset<P, M> {
    points: Vec<P>,
    metric: M,
    /// The row-major buffer every point is a view into, and its row length,
    /// when the dataset was built from one; see [`Dataset::contiguous_rows`].
    rows: Option<(Arc<[f64]>, usize)>,
}

impl<P, M: Metric<P>> Dataset<P, M> {
    /// Creates a dataset.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty. The paper's setup assumes `n >= 2`, but
    /// this constructor deliberately also accepts a single-point dataset so
    /// degenerate cases are testable; the operations that genuinely need two
    /// points ([`Dataset::nearest_excluding`],
    /// [`Dataset::min_max_interpoint`], [`Dataset::aspect_ratio_exact`])
    /// assert `n >= 2` themselves.
    pub fn new(points: Vec<P>, metric: M) -> Self {
        assert!(
            !points.is_empty(),
            "dataset must contain at least one point"
        );
        Dataset {
            points,
            metric,
            rows: None,
        }
    }

    /// [`Dataset::new`] over points that are consecutive `dim`-long rows of
    /// `buf` (`point(i)` is `buf[i * dim..(i + 1) * dim]`) — the
    /// [`FlatPoints::into_dataset`](crate::FlatPoints::into_dataset) path.
    pub(crate) fn with_contiguous_rows(
        points: Vec<P>,
        metric: M,
        buf: Arc<[f64]>,
        dim: usize,
    ) -> Self {
        assert_eq!(buf.len(), points.len() * dim, "row buffer size mismatch");
        Dataset {
            rows: Some((buf, dim)),
            ..Dataset::new(points, metric)
        }
    }

    /// The row-major `n × d` coordinate buffer behind the points, with `d`,
    /// when the dataset was built by
    /// [`FlatPoints::into_dataset`](crate::FlatPoints::into_dataset) (or a
    /// snapshot load, which goes through it); `None` for any other
    /// construction. Row `i`, `buf[i * d..(i + 1) * d]`, is exactly the
    /// slice `point(i)` refers to, so a hot loop can read coordinates at a
    /// computed offset instead of loading each point's handle first. The
    /// layout is recorded at construction, so this costs nothing per call.
    #[inline]
    pub fn contiguous_rows(&self) -> Option<(&[f64], usize)> {
        self.rows.as_ref().map(|(buf, dim)| (&buf[..], *dim))
    }

    /// Number of data points `n`.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the dataset is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The point with id `i`.
    pub fn point(&self, i: usize) -> &P {
        &self.points[i]
    }

    /// All points, id-ordered.
    pub fn points(&self) -> &[P] {
        &self.points
    }

    /// The metric.
    pub fn metric(&self) -> &M {
        &self.metric
    }

    /// Distance between data points `i` and `j`.
    #[inline]
    pub fn dist(&self, i: usize, j: usize) -> f64 {
        self.metric.dist(&self.points[i], &self.points[j])
    }

    /// Distance from data point `i` to an arbitrary query point `q` of the
    /// ambient space.
    #[inline]
    pub fn dist_to(&self, i: usize, q: &P) -> f64 {
        self.metric.dist(&self.points[i], q)
    }

    /// Monotone comparison surrogate between data points `i` and `j` — see
    /// [`Metric::surrogate`]. Counts as one distance computation.
    #[inline]
    pub fn dist_surrogate(&self, i: usize, j: usize) -> f64 {
        self.metric.surrogate(&self.points[i], &self.points[j])
    }

    /// Monotone comparison surrogate from data point `i` to query `q` — the
    /// hot-path primitive of the search routines (squared distance under
    /// [`Euclidean`](crate::Euclidean), so no `sqrt` per comparison).
    #[inline]
    pub fn surrogate_to(&self, i: usize, q: &P) -> f64 {
        self.metric.surrogate(&self.points[i], q)
    }

    /// Maps a surrogate value back to the true distance (pure float
    /// transform, not counted); see [`Metric::dist_from_surrogate`].
    #[inline]
    pub fn dist_from_surrogate(&self, s: f64) -> f64 {
        self.metric.dist_from_surrogate(s)
    }

    /// The exact surrogate cut-off of the distance threshold `r` (pure
    /// float transforms, not counted); see [`Metric::surrogate_bound`].
    pub fn surrogate_bound(&self, r: f64) -> f64 {
        self.metric.surrogate_bound(r)
    }

    /// Threshold test between data points `i` and `j` that may stop early:
    /// the exact surrogate when it is `<= bound`, otherwise some value
    /// `> bound` — see [`Metric::surrogate_within`]. With `bound =
    /// surrogate_bound(r)`, `surrogate_within(i, j, bound) <= bound` is
    /// exactly `dist(i, j) <= r`. Counts as one distance computation.
    #[inline]
    pub fn surrogate_within(&self, i: usize, j: usize, bound: f64) -> f64 {
        self.metric
            .surrogate_within(&self.points[i], &self.points[j], bound)
    }

    /// Exact nearest neighbor of `q` by brute force: returns `(id, dist)`.
    /// Scans in surrogate space (no `sqrt` per candidate under `L_2`).
    pub fn nearest_brute(&self, q: &P) -> (usize, f64) {
        let mut best = (0usize, f64::INFINITY);
        for i in 0..self.len() {
            let s = self.surrogate_to(i, q);
            if s < best.1 {
                best = (i, s);
            }
        }
        (best.0, self.dist_from_surrogate(best.1))
    }

    /// Exact `k` nearest neighbors of `q` by brute force, ascending by
    /// distance (ties broken by id).
    ///
    /// Streaming: one pass of `n` surrogate evaluations feeds a bounded
    /// max-heap of the best `k` candidates so far, ordered by
    /// `(surrogate, id)`, so a candidate displaces the current worst only
    /// when it is strictly better. Time is `O(n log k)` in the worst case
    /// (almost every candidate costs one comparison against the heap top);
    /// memory is `O(k)` per query — the returned vector's capacity is at
    /// most `min(k, n)`, never an `n`-long buffer. Comparisons run in
    /// surrogate space; only the `k` survivors are mapped back to true
    /// distances.
    pub fn k_nearest_brute(&self, q: &P, k: usize) -> Vec<(usize, f64)> {
        if k == 0 {
            return Vec::new();
        }
        let mut best = BinaryHeap::with_capacity(k.min(self.len()));
        for id in 0..self.len() {
            let c = Candidate {
                s: self.surrogate_to(id, q),
                id,
            };
            if best.len() < k {
                best.push(c);
            } else if let Some(mut worst) = best.peek_mut() {
                if c < *worst {
                    *worst = c;
                }
            }
        }
        best.into_sorted_vec()
            .into_iter()
            .map(|c| (c.id, self.dist_from_surrogate(c.s)))
            .collect()
    }

    /// Nearest *other* data point to data point `i`: returns `(id, dist)`.
    /// Panics if the dataset has fewer than two points.
    pub fn nearest_excluding(&self, i: usize) -> (usize, f64) {
        assert!(self.len() >= 2, "need at least two points");
        let mut best = (usize::MAX, f64::INFINITY);
        for j in 0..self.len() {
            if j == i {
                continue;
            }
            let d = self.dist(i, j);
            if d < best.1 {
                best = (j, d);
            }
        }
        best
    }

    /// All ids within distance `r` of `q` (closed ball `B(q, r)`), ascending.
    pub fn range_brute(&self, q: &P, r: f64) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.dist_to(i, q) <= r)
            .collect()
    }

    /// Maps point ids through `f`, keeping the metric.
    pub fn map_metric<M2: Metric<P>>(self, m2: M2) -> Dataset<P, M2> {
        Dataset {
            points: self.points,
            metric: m2,
            rows: self.rows,
        }
    }
}

impl<P: Sync, M: Metric<P> + Sync> Dataset<P, M> {
    /// Exact minimum and maximum inter-point distances `(d_min, d_max)` by
    /// the full `O(n^2)` scan, sharded across the thread pool (one row of
    /// the upper triangle per work item). `d_max` is the diameter `diam(P)`.
    ///
    /// `min`/`max` over finite `f64` are exact (no rounding), so the
    /// reduction is order-independent: the result is **bit-identical for
    /// every thread count**, asserted by tests like the parallel graph
    /// builds.
    ///
    /// The scan reduces in surrogate space and maps only the two final
    /// scalars back — a monotone non-decreasing map commutes with `min`/
    /// `max`, so this equals reducing true distances bit for bit while
    /// skipping the per-pair `sqrt` under `L_2`.
    pub fn min_max_interpoint(&self) -> (f64, f64) {
        assert!(self.len() >= 2, "need at least two points");
        let n = self.len();
        let per_row = rayon::par_map_range(n - 1, |i| {
            let mut smin = f64::INFINITY;
            let mut smax: f64 = 0.0;
            for j in (i + 1)..n {
                let s = self.dist_surrogate(i, j);
                smin = smin.min(s);
                smax = smax.max(s);
            }
            (smin, smax)
        });
        let (smin, smax) = per_row
            .into_iter()
            .fold((f64::INFINITY, 0.0_f64), |(lo, hi), (smin, smax)| {
                (lo.min(smin), hi.max(smax))
            });
        (
            self.dist_from_surrogate(smin),
            self.dist_from_surrogate(smax),
        )
    }

    /// Exact aspect ratio `Δ = diam(P) / d_min` by the full `O(n^2)` scan
    /// (parallel, see [`Dataset::min_max_interpoint`]).
    pub fn aspect_ratio_exact(&self) -> f64 {
        let (dmin, dmax) = self.min_max_interpoint();
        assert!(dmin > 0.0, "duplicate points have zero minimum distance");
        dmax / dmin
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::Counting;
    use crate::lp::Euclidean;

    fn grid_dataset() -> Dataset<Vec<f64>, Euclidean> {
        // 3x3 unit grid.
        let mut pts = Vec::new();
        for x in 0..3 {
            for y in 0..3 {
                pts.push(vec![x as f64, y as f64]);
            }
        }
        Dataset::new(pts, Euclidean)
    }

    #[test]
    fn brute_nearest_is_correct() {
        let ds = grid_dataset();
        let q = vec![1.9, 1.9];
        let (id, d) = ds.nearest_brute(&q);
        assert_eq!(ds.point(id), &vec![2.0, 2.0]);
        assert!((d - (0.1f64 * 0.1 * 2.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn k_nearest_is_sorted_and_exact() {
        let ds = grid_dataset();
        let q = vec![0.0, 0.0];
        let knn = ds.k_nearest_brute(&q, 4);
        assert_eq!(knn.len(), 4);
        assert_eq!(knn[0].1, 0.0); // the corner itself
        assert_eq!(knn[1].1, 1.0);
        assert_eq!(knn[2].1, 1.0);
        assert!((knn[3].1 - 2f64.sqrt()).abs() < 1e-12);
        assert!(knn.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn min_max_and_aspect_ratio() {
        let ds = grid_dataset();
        let (dmin, dmax) = ds.min_max_interpoint();
        assert_eq!(dmin, 1.0);
        assert!((dmax - 8f64.sqrt()).abs() < 1e-12);
        assert!((ds.aspect_ratio_exact() - 8f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn range_brute_matches_definition() {
        let ds = grid_dataset();
        let ids = ds.range_brute(&vec![0.0, 0.0], 1.0);
        assert_eq!(ids, vec![0, 1, 3]); // (0,0), (0,1), (1,0)
    }

    #[test]
    fn single_point_dataset_is_allowed_and_usable() {
        // The documented below-paper-minimum case: n = 1 constructs fine and
        // every single-point-safe query works on it.
        let ds = Dataset::new(vec![vec![3.0, 4.0]], Euclidean);
        assert_eq!(ds.len(), 1);
        assert!(!ds.is_empty());
        let (id, d) = ds.nearest_brute(&vec![0.0, 0.0]);
        assert_eq!(id, 0);
        assert!((d - 5.0).abs() < 1e-12);
        assert_eq!(ds.k_nearest_brute(&vec![0.0, 0.0], 3).len(), 1);
        assert_eq!(ds.range_brute(&vec![3.0, 4.0], 0.5), vec![0]);
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_dataset_rejected() {
        let _ = Dataset::new(Vec::<Vec<f64>>::new(), Euclidean);
    }

    #[test]
    #[should_panic(expected = "need at least two points")]
    fn two_point_operations_reject_single_point_sets() {
        let ds = Dataset::new(vec![vec![1.0]], Euclidean);
        let _ = ds.nearest_excluding(0);
    }

    #[test]
    fn nearest_excluding_skips_self() {
        let ds = grid_dataset();
        let (j, d) = ds.nearest_excluding(4); // center point (1,1)
        assert_ne!(j, 4);
        assert_eq!(d, 1.0);
    }

    /// Deterministic pseudo-random dataset for the selection/scan tests.
    fn scattered_dataset(n: usize, seed: u64) -> Dataset<Vec<f64>, Euclidean> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64 * 50.0
        };
        Dataset::new(
            (0..n).map(|_| vec![next(), next(), next()]).collect(),
            Euclidean,
        )
    }

    #[test]
    fn partitioned_k_nearest_matches_full_sort_for_every_k() {
        let ds = scattered_dataset(120, 3);
        let q = vec![25.0, 10.0, 40.0];
        // Reference: the seed's full-sort implementation.
        let mut full: Vec<(usize, f64)> = (0..ds.len()).map(|i| (i, ds.dist_to(i, &q))).collect();
        full.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        for k in [0usize, 1, 2, 7, 119, 120, 500] {
            let got = ds.k_nearest_brute(&q, k);
            let want: Vec<(usize, f64)> = full.iter().copied().take(k).collect();
            assert_eq!(got, want, "k = {k}");
        }
    }

    /// The select-nth implementation `k_nearest_brute` replaced, kept as
    /// the differential reference: materialize all `n` pairs, partition the
    /// top `k` out, sort them.
    fn k_nearest_select_nth<P, M: Metric<P>>(
        ds: &Dataset<P, M>,
        q: &P,
        k: usize,
    ) -> Vec<(usize, f64)> {
        if k == 0 {
            return Vec::new();
        }
        let mut all: Vec<(usize, f64)> =
            (0..ds.len()).map(|i| (i, ds.surrogate_to(i, q))).collect();
        let by_dist_then_id =
            |a: &(usize, f64), b: &(usize, f64)| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0));
        if k < all.len() {
            all.select_nth_unstable_by(k - 1, by_dist_then_id);
            all.truncate(k);
        }
        all.sort_by(by_dist_then_id);
        for e in &mut all {
            e.1 = ds.dist_from_surrogate(e.1);
        }
        all
    }

    /// An integer grid `side × side` (plus a duplicated row), so almost
    /// every query sees long runs of equal distances.
    fn tie_heavy_grid(side: usize) -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for x in 0..side {
            for y in 0..side {
                pts.push(vec![x as f64, y as f64]);
            }
        }
        pts.extend((0..side).map(|x| vec![x as f64, 0.0]));
        pts
    }

    #[test]
    fn streaming_k_nearest_matches_select_nth_on_tie_heavy_grids() {
        for side in [1usize, 2, 5, 9] {
            let ds = Dataset::new(tie_heavy_grid(side), Euclidean);
            let n = ds.len();
            let queries = [
                vec![0.0, 0.0],
                vec![2.0, 2.0],
                vec![1.5, 0.5],
                vec![-3.0, 4.0],
            ];
            for q in &queries {
                for k in [1, 3, n.saturating_sub(1), n, n + 5] {
                    let got = ds.k_nearest_brute(q, k);
                    let want = k_nearest_select_nth(&ds, q, k);
                    let bits = |v: &[(usize, f64)]| -> Vec<(usize, u64)> {
                        v.iter().map(|&(i, d)| (i, d.to_bits())).collect()
                    };
                    assert_eq!(bits(&got), bits(&want), "side {side}, k {k}, q {q:?}");
                    assert!(got.capacity() <= k, "capacity {} > k = {k}", got.capacity());
                }
            }
        }
    }

    #[test]
    fn streaming_k_nearest_costs_exactly_n_surrogates_per_query() {
        let metric = Counting::new(Euclidean);
        let ds = Dataset::new(tie_heavy_grid(6), metric.clone());
        let n = ds.len() as u64;
        for k in [1, 3, 41, 42, 50] {
            metric.reset();
            let _ = ds.k_nearest_brute(&vec![2.0, 3.0], k);
            assert_eq!(metric.count(), n, "k = {k}");
        }
    }

    #[test]
    fn min_max_interpoint_is_thread_count_invariant() {
        let ds = scattered_dataset(90, 9);
        // Sequential reference.
        let mut dmin = f64::INFINITY;
        let mut dmax: f64 = 0.0;
        for i in 0..ds.len() {
            for j in (i + 1)..ds.len() {
                let d = ds.dist(i, j);
                dmin = dmin.min(d);
                dmax = dmax.max(d);
            }
        }
        let machine = std::thread::available_parallelism().map_or(1, |t| t.get());
        for threads in [1usize, 2, machine] {
            let got = rayon::with_threads(threads, || ds.min_max_interpoint());
            assert_eq!(got, (dmin, dmax), "diverged at {threads} threads");
        }
    }

    #[test]
    fn surrogate_helpers_round_trip_under_l2() {
        let ds = grid_dataset();
        let s = ds.dist_surrogate(0, 8);
        assert_eq!(s, 8.0); // squared distance across the grid diagonal
        assert_eq!(ds.dist_from_surrogate(s), ds.dist(0, 8));
        let q = vec![0.5, 0.0];
        assert_eq!(ds.surrogate_to(0, &q), 0.25);
    }
}
