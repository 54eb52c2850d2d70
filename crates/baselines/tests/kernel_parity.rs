//! Differential tests: `pg_core`'s best-first kernel and greedy walk, run on
//! the mutable `[Vec<u32>]` lists the insertion-built baselines grow,
//! against the loops those baselines used to carry.
//!
//! The reference below is that beam loop, kept once: it compares true
//! distances (one `sqrt` per evaluation), re-peeks the result heap for every
//! neighbor, allocates its visited array per call, accepts several entry
//! points, and returns sorted results, the visited list, `dist_comps` and
//! `expansions`. The kernel compares surrogates (squared distances) instead;
//! on integer coordinates no two distinct squared distances round to one
//! distance, so every output must be identical there. The random-float
//! cases are held to the same standard.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use pg_core::{greedy, SearchScratch};
use pg_metric::{Dataset, Euclidean, Metric};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

type Data = Dataset<Vec<f64>, Euclidean>;

#[derive(PartialEq)]
struct C(f64, u32);
impl Eq for C {}
impl PartialOrd for C {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for C {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0).then(self.1.cmp(&other.1))
    }
}

/// Everything one beam walk reports.
#[derive(Debug, PartialEq)]
struct Walk {
    /// `(id, distance)`, ascending by `(distance, id)`.
    results: Vec<(u32, f64)>,
    /// Every evaluated vertex, in first-reached order.
    visited: Vec<u32>,
    dist_comps: u64,
    expansions: u64,
}

/// The baselines' former beam loop.
fn reference_beam<P, M: Metric<P>>(
    data: &Dataset<P, M>,
    adj: &[Vec<u32>],
    entries: &[u32],
    q: &P,
    ef: usize,
) -> Walk {
    let mut visited = vec![false; data.len()];
    let mut visited_list = Vec::new();
    let (mut comps, mut expansions) = (0, 0);
    let mut frontier: BinaryHeap<Reverse<C>> = BinaryHeap::new();
    let mut results: BinaryHeap<C> = BinaryHeap::new();
    for &e in entries {
        if visited[e as usize] {
            continue;
        }
        visited[e as usize] = true;
        visited_list.push(e);
        comps += 1;
        let d = data.dist_to(e as usize, q);
        frontier.push(Reverse(C(d, e)));
        results.push(C(d, e));
        if results.len() > ef {
            results.pop();
        }
    }
    while let Some(Reverse(C(d, v))) = frontier.pop() {
        let worst = results.peek().map(|c| c.0).unwrap_or(f64::INFINITY);
        if results.len() >= ef && d > worst {
            break;
        }
        expansions += 1;
        for &nb in &adj[v as usize] {
            if visited[nb as usize] {
                continue;
            }
            visited[nb as usize] = true;
            visited_list.push(nb);
            comps += 1;
            let dn = data.dist_to(nb as usize, q);
            let worst = results.peek().map(|c| c.0).unwrap_or(f64::INFINITY);
            if results.len() < ef || dn < worst {
                frontier.push(Reverse(C(dn, nb)));
                results.push(C(dn, nb));
                if results.len() > ef {
                    results.pop();
                }
            }
        }
    }
    let mut out: Vec<(u32, f64)> = results.into_iter().map(|C(d, v)| (v, d)).collect();
    out.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    Walk {
        results: out,
        visited: visited_list,
        dist_comps: comps,
        expansions,
    }
}

/// The kernel on the same lists, reported in the reference's terms.
fn kernel_beam(
    scratch: &mut SearchScratch,
    data: &Data,
    adj: &[Vec<u32>],
    seeds: &[u32],
    q: &Vec<f64>,
    ef: usize,
) -> Walk {
    let walk = scratch.best_first(adj, seeds, ef, |v| data.surrogate_to(v as usize, q));
    let visited = scratch.visited().to_vec();
    let out = walk.top(ef).into_outcome(data);
    Walk {
        results: out.results,
        visited,
        dist_comps: out.dist_comps,
        expansions: out.expansions,
    }
}

/// The former HNSW upper-layer descent: `(result, dist_comps, scans)`.
fn reference_greedy(data: &Data, adj: &[Vec<u32>], start: u32, q: &Vec<f64>) -> (u32, u64, u64) {
    let (mut cur, mut comps, mut scans) = (start, 1, 0);
    let mut d_cur = data.dist_to(cur as usize, q);
    loop {
        let mut improved = false;
        scans += 1;
        for &nb in &adj[cur as usize] {
            comps += 1;
            let d = data.dist_to(nb as usize, q);
            if d < d_cur {
                cur = nb;
                d_cur = d;
                improved = true;
            }
        }
        if !improved {
            return (cur, comps, scans);
        }
    }
}

/// A `side × side` integer grid, each vertex linked to its grid
/// neighbors plus `extra` random vertices (duplicates and self-loops
/// included, as a growing list may hold them): distance ties everywhere.
fn grid_case(side: usize, extra: usize, seed: u64) -> (Data, Vec<Vec<u32>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = side * side;
    let pts = (0..n)
        .map(|i| vec![(i / side) as f64, (i % side) as f64])
        .collect();
    let adj = (0..n)
        .map(|i| {
            let (x, y) = (i / side, i % side);
            let mut nb = Vec::new();
            if x > 0 {
                nb.push((i - side) as u32);
            }
            if x + 1 < side {
                nb.push((i + side) as u32);
            }
            if y > 0 {
                nb.push((i - 1) as u32);
            }
            if y + 1 < side {
                nb.push((i + 1) as u32);
            }
            nb.extend((0..extra).map(|_| rng.random_range(0..n) as u32));
            nb
        })
        .collect();
    (Dataset::new(pts, Euclidean), adj)
}

/// `n` random points in `[0, 30)^d`, each with `deg` random out-neighbors.
fn float_case(n: usize, d: usize, deg: usize, seed: u64) -> (Data, Vec<Vec<u32>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let pts = (0..n)
        .map(|_| (0..d).map(|_| rng.random_range(0.0..30.0)).collect())
        .collect();
    let adj = (0..n)
        .map(|_| (0..deg).map(|_| rng.random_range(0..n) as u32).collect())
        .collect();
    (Dataset::new(pts, Euclidean), adj)
}

/// Runs both beams over every query × seed set × `ef` ∈ {1, 8, n} on one
/// shared scratch (so mark resets between walks are exercised too), and
/// both greedy walks from every seed.
fn assert_parity(data: &Data, adj: &[Vec<u32>], queries: &[Vec<f64>], seed: u64) {
    let n = data.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = SearchScratch::default();
    for q in queries {
        let a = rng.random_range(0..n) as u32;
        let several: Vec<u32> = (0..4).map(|_| rng.random_range(0..n) as u32).collect();
        let several = [several.as_slice(), &[several[0]]].concat();
        for seeds in [vec![a], several] {
            for ef in [1, 8, n] {
                let want = reference_beam(data, adj, &seeds, q, ef);
                let got = kernel_beam(&mut scratch, data, adj, &seeds, q, ef);
                assert_eq!(got, want, "seeds {seeds:?}, ef {ef}, q {q:?}");
            }
            for &s in &seeds {
                let out = greedy(adj, data, s, q);
                let hops = out.hops.len() as u64;
                let want = reference_greedy(data, adj, s, q);
                assert_eq!(
                    (out.result, out.dist_comps, hops),
                    want,
                    "start {s}, q {q:?}"
                );
            }
        }
    }
}

#[test]
fn kernel_matches_the_reference_beam_on_tie_heavy_grids() {
    for (side, extra, seed) in [(9, 0, 1), (12, 2, 2), (16, 1, 3)] {
        let (data, adj) = grid_case(side, extra, seed);
        let mut rng = StdRng::seed_from_u64(seed + 100);
        // Integer and half-integer queries: both land on exact ties.
        let queries: Vec<Vec<f64>> = (0..12)
            .map(|i| {
                let step = if i % 2 == 0 { 1.0 } else { 0.5 };
                (0..2)
                    .map(|_| rng.random_range(0..2 * side) as f64 * step)
                    .collect()
            })
            .collect();
        assert_parity(&data, &adj, &queries, seed);
    }
}

#[test]
fn kernel_matches_the_reference_beam_on_random_floats() {
    for (n, d, deg, seed) in [(150, 2, 6, 11), (200, 8, 10, 12), (60, 3, 2, 13)] {
        let (data, adj) = float_case(n, d, deg, seed);
        let mut rng = StdRng::seed_from_u64(seed + 100);
        let queries: Vec<Vec<f64>> = (0..10)
            .map(|_| (0..d).map(|_| rng.random_range(-3.0..33.0)).collect())
            .collect();
        assert_parity(&data, &adj, &queries, seed);
    }
}

#[test]
fn visited_lists_exactly_the_vertices_evaluated() {
    let (data, adj) = float_case(120, 2, 5, 21);
    let mut scratch = SearchScratch::default();
    let q = vec![14.0, 9.5];
    let walk = scratch.best_first(&adj[..], &[3, 40, 3], 8, |v| {
        data.surrogate_to(v as usize, &q)
    });
    let visited = scratch.visited();
    assert_eq!(visited.len() as u64, walk.dist_comps);
    assert_eq!(&visited[..2], &[3, 40]);
    let mut sorted = visited.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), visited.len(), "a vertex was evaluated twice");
    for (v, _) in walk.results {
        assert!(visited.contains(&v));
    }
}
