//! The parallel relatives step is order-preserving: the net ladder and
//! every level of the relatives cascade come out bit-identical at any
//! worker count.

use pg_metric::{Dataset, Euclidean};
use pg_nets::{NetHierarchy, RelativesCascade};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Tight 2-d clusters spread over a wide square: many net levels, and
/// levels where most centers are carried over.
fn clustered_2d(n: usize, seed: u64) -> Dataset<Vec<f64>, Euclidean> {
    let mut rng = StdRng::seed_from_u64(seed);
    let hubs: Vec<(f64, f64)> = (0..6)
        .map(|_| (rng.random_range(0.0..1.0e4), rng.random_range(0.0..1.0e4)))
        .collect();
    Dataset::new(
        (0..n)
            .map(|i| {
                let (x, y) = hubs[i % hubs.len()];
                vec![
                    x + rng.random_range(0.0..3.0),
                    y + rng.random_range(0.0..3.0),
                ]
            })
            .collect(),
        Euclidean,
    )
}

fn uniform_3d(n: usize, seed: u64) -> Dataset<Vec<f64>, Euclidean> {
    let mut rng = StdRng::seed_from_u64(seed);
    Dataset::new(
        (0..n)
            .map(|_| (0..3).map(|_| rng.random_range(0.0..100.0)).collect())
            .collect(),
        Euclidean,
    )
}

/// Every level's relatives lists, top-down, for factor `k`.
fn all_relatives(
    data: &Dataset<Vec<f64>, Euclidean>,
    h: &NetHierarchy,
    k: f64,
) -> Vec<Vec<Vec<u32>>> {
    let mut cascade = RelativesCascade::new(data, h, k);
    let mut levels = vec![cascade.relatives().to_vec()];
    while cascade.descend() {
        levels.push(cascade.relatives().to_vec());
    }
    levels
}

#[test]
fn hierarchy_and_cascade_are_thread_count_invariant() {
    // (label, data, the fewest levels the fixture must have for the parity
    // to be meaningful: deep ladders carry most centers over)
    for (label, data, min_levels) in [
        ("clustered 2-d", clustered_2d(400, 3), 12),
        ("uniform 3-d", uniform_3d(300, 4), 5),
    ] {
        let h1 = rayon::with_threads(1, || NetHierarchy::build(&data));
        h1.validate(&data).unwrap();
        assert!(
            h1.num_levels() >= min_levels,
            "{label}: only {} levels",
            h1.num_levels()
        );
        let rel1: Vec<_> = [4.0, 5.0, 9.0]
            .iter()
            .map(|&k| rayon::with_threads(1, || all_relatives(&data, &h1, k)))
            .collect();
        for threads in [2, 7] {
            let h = rayon::with_threads(threads, || NetHierarchy::build(&data));
            assert_eq!(h, h1, "{label}: hierarchy diverged at {threads} threads");
            for (i, &k) in [4.0, 5.0, 9.0].iter().enumerate() {
                let rel = rayon::with_threads(threads, || all_relatives(&data, &h, k));
                assert_eq!(
                    rel, rel1[i],
                    "{label}: relatives (K = {k}) diverged at {threads} threads"
                );
            }
        }
    }
}
