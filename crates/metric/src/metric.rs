//! The [`Metric`] trait.

/// A metric (distance function) over points of type `P`.
///
/// Implementations must satisfy the metric axioms of Section 1.1:
///
/// 1. **Identity of indiscernibles**: `dist(a, b) == 0.0` iff `a == b`;
/// 2. **Symmetry**: `dist(a, b) == dist(b, a)`;
/// 3. **Triangle inequality**: `dist(a, b) <= dist(a, c) + dist(b, c)`.
///
/// Distances are non-negative finite `f64` values. The axioms are checked by
/// property tests (see [`axioms`]) for every metric in the workspace,
/// including the adversarial metric family `D_{p*}` of Section 4 implemented
/// in `pg-hardness`.
pub trait Metric<P: ?Sized> {
    /// The distance `D(a, b)` between two points.
    fn dist(&self, a: &P, b: &P) -> f64;

    /// A monotone *surrogate* of the distance, for comparison-only code
    /// paths.
    ///
    /// The routing procedures (`greedy`, `query`, beam search) only ever
    /// *compare* distances to the query; the actual values are reported once
    /// at the end. A metric may therefore expose a cheaper monotone stand-in
    /// — Euclidean uses the **squared** distance, skipping the `sqrt` on
    /// every comparison. Implementations must guarantee:
    ///
    /// 1. `dist_from_surrogate(surrogate(a, b))` is **bit-identical** to
    ///    `dist(a, b)`;
    /// 2. `surrogate(a, b) <= surrogate(c, d)` implies
    ///    `dist(a, b) <= dist(c, d)`, and surrogate equality implies
    ///    distance equality.
    ///
    /// Note the implication is one-way: a rounded monotone map can collapse
    /// *distinct* surrogates onto *equal* distances (correctly-rounded
    /// `sqrt` does, by pigeonhole), so the surrogate order refines the
    /// distance order. Comparison-only code that switches to surrogates
    /// therefore never gets a wrong answer — where the two orders differ,
    /// the surrogate is the more discriminating (pre-rounding) comparison —
    /// but it may break a rounded-distance tie that `dist`-based code
    /// would have seen.
    ///
    /// One `surrogate` call counts as one distance computation in the
    /// paper's cost model (the [`Counting`](crate::Counting) wrapper counts
    /// it), because it does the same coordinate work. The default is the
    /// distance itself.
    #[inline]
    fn surrogate(&self, a: &P, b: &P) -> f64 {
        self.dist(a, b)
    }

    /// Maps a [`surrogate`](Metric::surrogate) value back to the true
    /// distance (default: identity). Must be monotone non-decreasing; this
    /// is a pure float transform, **not** a distance computation.
    #[inline]
    fn dist_from_surrogate(&self, s: f64) -> f64 {
        s
    }

    /// The exact surrogate cut-off of the distance threshold `r`: the
    /// largest surrogate `s` with `dist_from_surrogate(s) <= r`, so that
    /// `surrogate(a, b) <= surrogate_bound(r)` holds **exactly** when
    /// `dist(a, b) <= r` — including where the map back rounds (distinct
    /// squared distances whose `sqrt` lands on `r`). Returns `-∞` when no
    /// surrogate qualifies (e.g. `r < 0` or NaN) and `+∞` when every one
    /// does.
    ///
    /// The default bisects the bit patterns of the non-negative `f64`s
    /// (ordered like their values) over `dist_from_surrogate`: at most 64
    /// float transforms, no distance computation, so a caller pays it once
    /// per threshold rather than once per pair. It is exact for every
    /// metric whose `dist_from_surrogate` is monotone non-decreasing, as
    /// the contract above requires, so no metric needs to override it.
    fn surrogate_bound(&self, r: f64) -> f64 {
        const INF: u64 = f64::INFINITY.to_bits();
        let within = |bits: u64| self.dist_from_surrogate(f64::from_bits(bits)) <= r;
        if !within(0) {
            return f64::NEG_INFINITY;
        }
        if within(INF) {
            return f64::INFINITY;
        }
        // Invariant: `lo` qualifies, `hi` does not.
        let (mut lo, mut hi) = (0, INF);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if within(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        f64::from_bits(lo)
    }

    /// A threshold test in surrogate space that may stop early: returns the
    /// exact [`surrogate`](Metric::surrogate) when it is `<= bound`, and
    /// otherwise some value `> bound` (not necessarily the surrogate). With
    /// `bound = surrogate_bound(r)`, `surrogate_within(a, b, bound) <=
    /// bound` is therefore exactly `dist(a, b) <= r`.
    ///
    /// One call counts as one distance computation, like `surrogate`, even
    /// when it stops early. The default is `surrogate` itself; Euclidean
    /// overrides it with a kernel that stops once a partial sum of squares
    /// already exceeds `bound`.
    #[inline]
    fn surrogate_within(&self, a: &P, b: &P, bound: f64) -> f64 {
        let _ = bound;
        self.surrogate(a, b)
    }
}

impl<P: ?Sized, M: Metric<P> + ?Sized> Metric<P> for &M {
    #[inline]
    fn dist(&self, a: &P, b: &P) -> f64 {
        (**self).dist(a, b)
    }

    #[inline]
    fn surrogate(&self, a: &P, b: &P) -> f64 {
        (**self).surrogate(a, b)
    }

    #[inline]
    fn dist_from_surrogate(&self, s: f64) -> f64 {
        (**self).dist_from_surrogate(s)
    }

    #[inline]
    fn surrogate_bound(&self, r: f64) -> f64 {
        (**self).surrogate_bound(r)
    }

    #[inline]
    fn surrogate_within(&self, a: &P, b: &P, bound: f64) -> f64 {
        (**self).surrogate_within(a, b, bound)
    }
}

/// Helpers for checking the metric axioms on concrete instances.
///
/// These are deliberately exposed as library functions (not only as tests) so
/// that downstream crates can re-check the axioms for their own metrics —
/// `pg-hardness` uses them to validate the adversarial metrics `D_{p*}`.
pub mod axioms {
    use super::Metric;

    /// Absolute slack used when comparing floating-point distances.
    pub const EPS: f64 = 1e-9;

    /// Checks symmetry `D(a, b) == D(b, a)` up to floating-point slack.
    pub fn symmetric<P: ?Sized, M: Metric<P>>(m: &M, a: &P, b: &P) -> bool {
        let ab = m.dist(a, b);
        let ba = m.dist(b, a);
        ab.is_finite() && ba.is_finite() && (ab - ba).abs() <= EPS * (1.0 + ab.abs())
    }

    /// Checks non-negativity of `D(a, b)`.
    pub fn non_negative<P: ?Sized, M: Metric<P>>(m: &M, a: &P, b: &P) -> bool {
        m.dist(a, b) >= 0.0
    }

    /// Checks the triangle inequality `D(a, b) <= D(a, c) + D(b, c)` up to
    /// relative floating-point slack.
    pub fn triangle<P: ?Sized, M: Metric<P>>(m: &M, a: &P, b: &P, c: &P) -> bool {
        let ab = m.dist(a, b);
        let ac = m.dist(a, c);
        let bc = m.dist(b, c);
        ab <= ac + bc + EPS * (1.0 + ab + ac + bc)
    }

    /// Checks `D(a, a) == 0`.
    pub fn zero_self<P: ?Sized, M: Metric<P>>(m: &M, a: &P) -> bool {
        m.dist(a, a).abs() <= EPS
    }

    /// Checks all axioms over every (ordered) triple drawn from `pts`.
    ///
    /// Quadratic/cubic in `pts.len()` — intended for small test inputs.
    pub fn check_all<P, M: Metric<P>>(m: &M, pts: &[P]) -> Result<(), String> {
        for (i, a) in pts.iter().enumerate() {
            if !zero_self(m, a) {
                return Err(format!("D(p{i}, p{i}) != 0"));
            }
            for (j, b) in pts.iter().enumerate() {
                if !non_negative(m, a, b) {
                    return Err(format!("D(p{i}, p{j}) < 0"));
                }
                if !symmetric(m, a, b) {
                    return Err(format!("D(p{i}, p{j}) != D(p{j}, p{i})"));
                }
                for (k, c) in pts.iter().enumerate() {
                    if !triangle(m, a, b, c) {
                        return Err(format!(
                            "triangle inequality violated on (p{i}, p{j}, p{k})"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::axioms;
    use crate::lp::Euclidean;

    #[test]
    fn euclidean_axioms_on_small_set() {
        let pts: Vec<Vec<f64>> = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![-3.5, 2.25],
            vec![1e-9, -1e-9],
        ];
        axioms::check_all(&Euclidean, &pts).unwrap();
    }

    #[test]
    fn metric_impl_for_references() {
        // `&M` must also be a metric, so instrumented metrics can be shared.
        fn takes_metric<M: super::Metric<Vec<f64>>>(m: M) -> f64 {
            m.dist(&vec![0.0], &vec![3.0])
        }
        let e = Euclidean;
        assert_eq!(takes_metric(e), 3.0);
        assert_eq!(takes_metric(e), 3.0);
    }
}
