//! Sharded-search parity (PR 9 tentpole contract): a [`ShardedEngine`]
//! answering with `ef >= n` must be **bit-identical** to a single
//! [`QueryEngine`] over the same points — result ids, result distances,
//! merge order, and aggregate `dist_comps` — for every shard count in
//! {1, 2, 3, 8} and every thread count in {1, 2, machine}.
//!
//! The datasets are deliberately tie-heavy: distinct points on a small
//! integer grid queried from integer positions, so many candidates sit at
//! *exactly* equal distances and only the deterministic
//! `(surrogate, global id)` tie-break keeps the merge order pinned. A merge
//! in rounded true-distance space, or one keyed by shard-local ids, fails
//! this suite immediately.

use proptest::prelude::*;
use proximity_graphs::core::{GNet, QueryEngine, ShardAssignment, ShardedEngine};
use proximity_graphs::metric::{Counting, Euclidean, FlatPoints, FlatRow};

fn thread_counts() -> [usize; 3] {
    let machine = std::thread::available_parallelism().map_or(1, |c| c.get());
    [1, 2, machine]
}

/// Strategy: 8..=60 distinct points on a 12×12 integer grid — small enough
/// that every query sees piles of exact distance ties.
fn tie_heavy_points() -> impl Strategy<Value = FlatPoints> {
    prop::collection::vec((0i32..12, 0i32..12), 8..60)
        .prop_map(|mut cells| {
            cells.sort_unstable();
            cells.dedup();
            cells
        })
        .prop_filter("need >= 8 distinct points", |cells| cells.len() >= 8)
        .prop_map(|cells| {
            let mut pts = FlatPoints::new(2);
            for (x, y) in cells {
                pts.push(&[x as f64, y as f64]);
            }
            pts
        })
}

/// Strategy: 1..6 integer-position queries (maximally tie-inducing).
fn integer_queries() -> impl Strategy<Value = Vec<FlatRow>> {
    prop::collection::vec(
        (0i32..12, 0i32..12).prop_map(|(x, y)| FlatRow::from(vec![x as f64, y as f64])),
        1..6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_exact_search_is_bit_identical_to_the_single_engine(
        points in tie_heavy_points(),
        queries in integer_queries(),
        seed in 0u64..1_000_000,
        k in 1usize..7,
    ) {
        let n = points.len();
        let single = {
            let data = points.clone().into_dataset(Euclidean);
            let g = GNet::build(&data, 1.0);
            QueryEngine::new(g.graph, data)
        };
        // ef = n makes beam search exact: the single engine is the oracle.
        let starts = vec![0u32; queries.len()];
        let want = single.batch_beam_detailed(&starts, &queries, n, k);

        for shards in [1usize, 2, 3, 8] {
            let engine = ShardedEngine::build(
                &points,
                Euclidean,
                1.0,
                shards,
                &ShardAssignment::SeededRandom { seed },
            );
            for threads in thread_counts() {
                let got = engine
                    .clone()
                    .with_threads(threads)
                    .batch_beam_detailed(&queries, n, k);
                // Merge order, ids, and distances — all pinned at once:
                // BeamOutcome equality is exact on the full result lists.
                prop_assert_eq!(
                    &got.outcomes,
                    &want.outcomes,
                    "diverged at {} shards / {} threads",
                    shards,
                    threads
                );
                // Exactness visits each point once per query, in every
                // sharding: the aggregate cost is pinned too.
                prop_assert_eq!(got.dist_comps, want.dist_comps);
                prop_assert_eq!(got.dist_comps, (n * queries.len()) as u64);
            }
        }
    }

    #[test]
    fn assignment_partitions_exactly_for_every_seed_and_count(
        n in 8usize..200,
        shards in 1usize..8,
        seed in 0u64..1_000_000,
    ) {
        let parts = ShardAssignment::SeededRandom { seed }.assign(n, shards);
        prop_assert_eq!(parts.len(), shards);
        let mut seen = vec![false; n];
        for part in &parts {
            prop_assert!(!part.is_empty(), "empty shard");
            prop_assert!(part.windows(2).all(|w| w[0] < w[1]), "not ascending");
            // Balanced to within one point.
            prop_assert!(part.len().abs_diff(n / shards) <= 1);
            for &id in part {
                prop_assert!(!seen[id as usize], "id {} assigned twice", id);
                seen[id as usize] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "some id unassigned");
    }
}

/// Dropping the `Counting` wrapper a sharded index was built under
/// (`ShardedEngine::map_metric`) changes no answer and no accounting, and
/// the plain engine no longer counts.
#[test]
fn map_metric_keeps_every_answer_and_drops_the_counter() {
    let points = FlatPoints::from_fn(60, 2, |i, out| {
        out.push((i % 16) as f64);
        out.push((i / 16) as f64);
    });
    let counting = Counting::new(Euclidean);
    let counted = ShardedEngine::build(
        &points,
        counting.clone(),
        1.0,
        3,
        &ShardAssignment::SeededRandom { seed: 4 },
    )
    .with_threads(2);
    let qs: Vec<FlatRow> = (0..6)
        .map(|i| FlatRow::from(vec![(i % 7) as f64, (i % 5) as f64]))
        .collect();
    let want = counted.batch_beam_detailed(&qs, 12, 3);
    counting.reset();
    let plain = counted.map_metric(Euclidean);
    assert_eq!((plain.threads(), plain.shard_count()), (2, 3));
    let got = plain.batch_beam_detailed(&qs, 12, 3);
    assert_eq!(got.outcomes, want.outcomes);
    assert_eq!(got.dist_comps, want.dist_comps);
    assert_eq!(counting.count(), 0, "the plain engine counts nothing");
}
