//! Contract tests for the two threshold methods of [`Metric`]:
//!
//! * `surrogate_bound(r)` is an exact cut-off: a surrogate `s` satisfies
//!   `s <= bound` exactly when `dist_from_surrogate(s) <= r`, checked at
//!   the bound itself and at the next float up;
//! * `surrogate_within(a, b, bound)` returns the exact surrogate when it is
//!   `<= bound` and some value `> bound` otherwise, at every dimension the
//!   early-exit kernel treats differently;
//! * `Counting` charges exactly one distance per `surrogate_within` call
//!   and none for `surrogate_bound`.

use pg_metric::lp::{l2_squared, l2_squared_within, EARLY_EXIT_STRIDE};
use pg_metric::{Chebyshev, Counting, Dataset, Euclidean, Manhattan, Metric, Scaled};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

type P = Vec<f64>;

/// Thresholds: random values over many magnitudes, exact square roots,
/// zero, and large values up to `f64::MAX`.
fn radii() -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(7);
    let mut r: Vec<f64> = (0..200)
        .map(|_| rng.random_range(0.0..1.0) * 10f64.powi(rng.random_range(-12..13)))
        .collect();
    r.extend([
        0.0,
        1.0,
        2.0,
        3.0,
        5.0,
        12.0,
        1e-300,
        1e150,
        1e300,
        f64::MAX,
    ]);
    r
}

/// Checks the cut-off at `bound` and `bound.next_up()` for every radius.
fn assert_exact_cutoff<M: Metric<P>>(m: &M, name: &str) {
    for r in radii() {
        let bound = m.surrogate_bound(r);
        assert!(bound >= 0.0, "{name}: r = {r} has no qualifying surrogate");
        for s in [bound, bound.next_up()] {
            assert_eq!(
                s <= bound,
                m.dist_from_surrogate(s) <= r,
                "{name}: r = {r}, bound = {bound}, s = {s}"
            );
        }
    }
    assert_eq!(m.surrogate_bound(f64::INFINITY), f64::INFINITY, "{name}");
    assert_eq!(m.surrogate_bound(-1.0), f64::NEG_INFINITY, "{name}");
    assert_eq!(m.surrogate_bound(f64::NAN), f64::NEG_INFINITY, "{name}");
}

#[test]
fn surrogate_bound_is_an_exact_cutoff() {
    assert_exact_cutoff(&Euclidean, "Euclidean");
    assert_exact_cutoff(&Scaled::new(Euclidean, 0.3), "Scaled<Euclidean>");
    assert_exact_cutoff(&Scaled::new(Euclidean, 7.0), "Scaled<Euclidean> x7");
    assert_exact_cutoff(&Counting::new(Euclidean), "Counting<Euclidean>");
    assert_exact_cutoff(&&Euclidean, "&Euclidean");
    assert_exact_cutoff(&Chebyshev, "Chebyshev");
    assert_exact_cutoff(&Manhattan, "Manhattan");
}

#[test]
fn euclidean_bound_sits_on_the_rounding_of_sqrt() {
    // sqrt rounds: several squared distances map to exactly 5.0, and the
    // bound is the largest of them, not 25.0.
    let bound = Metric::<P>::surrogate_bound(&Euclidean, 5.0);
    assert!(bound > 25.0, "bound {bound}");
    assert_eq!(bound.sqrt(), 5.0);
    assert!(bound.next_up().sqrt() > 5.0);
}

/// Random coordinate vectors of length `d`.
fn pair(rng: &mut StdRng, d: usize) -> (P, P) {
    let v = |rng: &mut StdRng| (0..d).map(|_| rng.random_range(-4.0..4.0)).collect();
    (v(rng), v(rng))
}

#[test]
fn threshold_tests_agree_with_dist_at_exact_ties() {
    // For r = dist(a, b) and its neighbours, the surrogate test through
    // the bound answers exactly what `dist(a, b) <= r` answers.
    fn check<M: Metric<P>>(m: &M, a: &P, b: &P) {
        let d = m.dist(a, b);
        for r in [d, d.next_down(), d.next_up()] {
            let bound = m.surrogate_bound(r);
            assert_eq!(m.surrogate(a, b) <= bound, d <= r, "r = {r}");
            assert_eq!(m.surrogate_within(a, b, bound) <= bound, d <= r, "r = {r}");
        }
    }
    let mut rng = StdRng::seed_from_u64(11);
    for d in [1, 2, 3, 16, 33, 128] {
        for _ in 0..50 {
            let (a, b) = pair(&mut rng, d);
            check(&Euclidean, &a, &b);
            check(&Scaled::new(Euclidean, 0.3), &a, &b);
            check(&Chebyshev, &a, &b);
            check(&Manhattan, &a, &b);
        }
    }
}

/// The `surrogate_within` contract for one pair at the four bounds.
fn assert_within_contract<M: Metric<P>>(m: &M, a: &P, b: &P, name: &str) {
    let exact = m.surrogate(a, b);
    for bound in [exact, exact.next_down(), 0.0, f64::INFINITY] {
        let got = m.surrogate_within(a, b, bound);
        if exact <= bound {
            assert_eq!(
                got.to_bits(),
                exact.to_bits(),
                "{name}: d = {}, bound = {bound}",
                a.len()
            );
        } else {
            assert!(got > bound, "{name}: d = {}, {got} <= {bound}", a.len());
        }
    }
}

#[test]
fn surrogate_within_is_exact_below_the_bound_and_above_it_otherwise() {
    let mut rng = StdRng::seed_from_u64(13);
    for d in [1, 2, 7, 8, 15, 16, 17, 33, 128] {
        for _ in 0..20 {
            let (a, b) = pair(&mut rng, d);
            assert_within_contract(&Euclidean, &a, &b, "Euclidean");
            assert_within_contract(&Scaled::new(Euclidean, 0.3), &a, &b, "Scaled");
            assert_within_contract(&Counting::new(Euclidean), &a, &b, "Counting");
            assert_within_contract(&Chebyshev, &a, &b, "Chebyshev");
            assert_within_contract(&Manhattan, &a, &b, "Manhattan");
            // A completed bounded call is bit-identical to the plain kernel.
            assert_eq!(
                l2_squared_within(&a, &b, f64::INFINITY).to_bits(),
                l2_squared(&a, &b).to_bits()
            );
        }
    }
}

#[test]
fn euclidean_kernel_stops_at_the_first_check_past_the_bound() {
    // Unit differences: the partial sum after k checks is k * stride.
    let (a, b) = (vec![1.0; 128], vec![0.0; 128]);
    let stride = EARLY_EXIT_STRIDE as f64;
    assert_eq!(l2_squared_within(&a, &b, 0.5), stride);
    assert_eq!(l2_squared_within(&a, &b, stride), 2.0 * stride);
    assert_eq!(l2_squared_within(&a, &b, 127.0), 128.0);
    assert_eq!(l2_squared_within(&a, &b, 128.0), 128.0);
    // Below one stride no check fires: the full sum comes back.
    let (a, b) = (vec![1.0; EARLY_EXIT_STRIDE - 1], vec![0.0; 15]);
    assert_eq!(l2_squared_within(&a, &b, 0.0), stride - 1.0);
}

#[test]
fn counting_charges_one_distance_per_bounded_test() {
    let m = Counting::new(Euclidean);
    let (a, b) = (vec![1.0; 128], vec![0.0; 128]);
    let bound = Metric::<P>::surrogate_bound(&m, 3.0);
    assert_eq!(
        m.count(),
        0,
        "surrogate_bound is not a distance computation"
    );
    // Stops at the first check, completes, and answers below the bound:
    // one count each.
    m.surrogate_within(&a, &b, bound);
    assert_eq!(m.count(), 1);
    m.surrogate_within(&a, &b, f64::INFINITY);
    assert_eq!(m.count(), 2);
    m.surrogate_within(&a, &a, bound);
    assert_eq!(m.count(), 3);

    let data = Dataset::new(vec![a, b], Counting::new(Euclidean));
    let bound = data.surrogate_bound(12.0);
    assert_eq!(data.metric().count(), 0);
    assert!(data.surrogate_within(0, 1, bound) <= bound);
    let tight = data.surrogate_bound(11.0);
    assert!(data.surrogate_within(0, 1, tight) > tight);
    assert_eq!(data.metric().count(), 2);
}
