//! Reusing one `SearchScratch` must never change an answer. A scratch is
//! driven through interleaved exact and quantized searches on graphs of
//! different sizes (large, then small, then large again), and every outcome
//! — results, `dist_comps`, expansions — must equal the fresh-scratch free
//! function's. A mark left over from an earlier search would skip a vertex
//! and show up as a smaller `dist_comps`.
//!
//! The sharded engine's shard-major schedule is pinned the same way: at 1,
//! 2 and the machine's thread count its output must equal a per-query
//! sequential reference that searches each shard with the free function
//! and merges by hand.

use pg_core::{
    beam_search_quantized_surrogate, beam_search_surrogate, BeamOutcome, BeamSurrogate, GNet,
    Graph, SearchScratch, ShardAssignment, ShardedEngine,
};
use pg_metric::{CompactPoints, Dataset, Euclidean, FlatPoints, FlatRow, Metric, QuantKind};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// `n` seeded points in `[0, 30]^d`, flat layout.
fn points(n: usize, d: usize, seed: u64) -> FlatPoints {
    let mut rng = StdRng::seed_from_u64(seed);
    FlatPoints::from_fn(n, d, |_, out| {
        out.extend((0..d).map(|_| rng.random_range(0.0..30.0)));
    })
}

/// A seeded sparse digraph with repeated and self edges — harsher on the
/// visited marks than a built index.
fn random_graph(n: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    Graph::from_adjacency(
        (0..n)
            .map(|_| {
                let deg = rng.random_range(0..7usize);
                (0..deg).map(|_| rng.random_range(0..n) as u32).collect()
            })
            .collect(),
    )
}

fn queries(m: usize, d: usize, seed: u64) -> Vec<FlatRow> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m)
        .map(|_| {
            FlatRow::from(
                (0..d)
                    .map(|_| rng.random_range(-3.0..33.0))
                    .collect::<Vec<f64>>(),
            )
        })
        .collect()
}

/// One index of the interleaving: graph, flat-backed dataset, compact store.
struct Case {
    graph: Graph,
    data: Dataset<FlatRow, Euclidean>,
    compact: CompactPoints,
}

fn case(n: usize, d: usize, seed: u64, built: bool) -> Case {
    let data = points(n, d, seed).into_dataset(Euclidean);
    let graph = if built {
        GNet::build(&data, 1.0).graph
    } else {
        random_graph(n, seed ^ 0x5eed)
    };
    let rows: Vec<&[f64]> = data.points().iter().map(|p| p.as_ref()).collect();
    let compact = CompactPoints::from_rows(QuantKind::Sq8, &rows).unwrap();
    Case {
        graph,
        data,
        compact,
    }
}

/// Runs every query of `qs` at every `ef` on `c` through `scratch`, exact
/// and quantized, against fresh-scratch calls; returns the number compared.
fn check_case(scratch: &mut SearchScratch, c: &Case, qs: &[FlatRow], label: &str) -> usize {
    let n = c.data.len();
    let mut compared = 0;
    for ef in [1, 8, n] {
        for (qi, q) in qs.iter().enumerate() {
            let start = (qi * 7 % n) as u32;
            let fresh = beam_search_surrogate(&c.graph, &c.data, start, q, ef, 5);
            let reused = scratch.beam_search_surrogate(&c.graph, &c.data, start, q, ef, 5);
            assert_eq!(reused, fresh, "{label}: exact, ef = {ef}, query {qi}");

            let fresh =
                beam_search_quantized_surrogate(&c.graph, &c.data, &c.compact, start, q, ef, 5);
            let reused = scratch
                .beam_search_quantized_surrogate(&c.graph, &c.data, &c.compact, start, q, ef, 5);
            assert_eq!(reused, fresh, "{label}: quantized, ef = {ef}, query {qi}");
            compared += 2;
        }
    }
    compared
}

#[test]
fn one_scratch_across_graph_sizes_equals_fresh_scratches() {
    let large = case(220, 3, 1, true);
    let small = case(37, 3, 2, true);
    let large_random = case(260, 2, 3, false);
    let small_random = case(19, 2, 4, false);
    let qs3 = queries(6, 3, 10);
    let qs2 = queries(6, 2, 11);
    let mut scratch = SearchScratch::default();
    let mut compared = 0;
    for (c, qs, label) in [
        (&large, &qs3, "large"),
        (&small, &qs3, "small after large"),
        (&large, &qs3, "large after small"),
        (&small_random, &qs2, "small random"),
        (&large_random, &qs2, "large random"),
        (&small_random, &qs2, "small random after large"),
        (&small, &qs3, "small built after random"),
    ] {
        compared += check_case(&mut scratch, c, qs, label);
    }
    assert_eq!(compared, 7 * 3 * 6 * 2);
}

#[test]
fn contiguous_and_handle_reads_agree_bit_for_bit() {
    // The same points behind a nested dataset (handles only) and a flat one
    // (contiguous rows): the scratch takes the two read paths, the answers
    // must not tell them apart.
    let flat = points(150, 4, 21);
    let nested = Dataset::new(flat.to_nested(), Euclidean);
    let data = flat.into_dataset(Euclidean);
    assert!(data.contiguous_rows().is_some());
    assert!(nested.contiguous_rows().is_none());
    let graph = GNet::build(&data, 1.0).graph;
    let mut scratch = SearchScratch::default();
    for (qi, q) in queries(12, 4, 22).iter().enumerate() {
        let nested_q = q.as_ref().to_vec();
        for ef in [1, 8, 150] {
            let a = scratch.beam_search_surrogate(&graph, &data, 0, q, ef, 10);
            let b = scratch.beam_search_surrogate(&graph, &nested, 0, &nested_q, ef, 10);
            assert_eq!(a, b, "query {qi}, ef = {ef}");
        }
    }
}

/// The sequential reference for one sharded query: the free function per
/// shard, local ids mapped to global ids, merged on `(surrogate, id)`.
fn reference_merge(
    per_shard: Vec<BeamSurrogate>,
    global_ids: &[Vec<u32>],
    k: usize,
) -> BeamOutcome {
    let mut merged = Vec::new();
    let (mut dist_comps, mut expansions) = (0, 0);
    for (out, ids) in per_shard.into_iter().zip(global_ids) {
        dist_comps += out.dist_comps;
        expansions += out.expansions;
        merged.extend(out.results.iter().map(|&(l, s)| (ids[l as usize], s)));
    }
    merged.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
    merged.truncate(k);
    BeamOutcome {
        results: merged
            .into_iter()
            .map(|(id, s)| (id, Metric::<[f64]>::dist_from_surrogate(&Euclidean, s)))
            .collect(),
        dist_comps,
        expansions,
    }
}

#[test]
fn sharded_schedule_matches_a_per_query_sequential_reference() {
    // An integer grid queried from integer positions: piles of exact
    // distance ties, which only the `(surrogate, global id)` merge orders.
    let pts = FlatPoints::from_fn(400, 2, |i, out| {
        out.push((i % 20) as f64);
        out.push((i / 20) as f64);
    });
    let engine = ShardedEngine::build(
        &pts,
        Euclidean,
        1.0,
        5,
        &ShardAssignment::SeededRandom { seed: 9 },
    );
    let qs: Vec<FlatRow> = queries(23, 2, 32)
        .iter()
        .map(|q| FlatRow::from(q.as_ref().iter().map(|c| c.round()).collect::<Vec<f64>>()))
        .collect();
    let (ef, k) = (12, 6);
    let exact_ref: Vec<BeamOutcome> = qs
        .iter()
        .map(|q| {
            let per_shard = engine
                .shards()
                .iter()
                .map(|s| beam_search_surrogate(s.graph(), s.data(), 0, q, ef, k))
                .collect();
            reference_merge(per_shard, engine.global_ids(), k)
        })
        .collect();
    let machine = std::thread::available_parallelism().map_or(1, |t| t.get());
    for threads in [1, 2, machine] {
        let e = engine.clone().with_threads(threads);
        let got = e.batch_beam_detailed(&qs, ef, k);
        assert_eq!(
            got.outcomes, exact_ref,
            "exact diverged at {threads} threads"
        );
        // One query at a time too: the single-query call fans out over
        // shards only.
        for (qi, q) in qs.iter().enumerate().step_by(5) {
            let one = e.batch_beam_detailed(std::slice::from_ref(q), ef, k);
            assert_eq!(one.outcomes[0], exact_ref[qi], "single query {qi}");
        }
    }
    for kind in [QuantKind::F32, QuantKind::Sq8] {
        let compacts = engine.quantize(kind).unwrap();
        let quant_ref: Vec<BeamOutcome> = qs
            .iter()
            .map(|q| {
                let per_shard = engine
                    .shards()
                    .iter()
                    .zip(&compacts)
                    .map(|(s, c)| {
                        beam_search_quantized_surrogate(s.graph(), s.data(), c, 0, q, ef, k).into()
                    })
                    .collect();
                reference_merge(per_shard, engine.global_ids(), k)
            })
            .collect();
        for threads in [1, 2, machine] {
            let e = engine.clone().with_threads(threads);
            let got = e.batch_beam_quantized_detailed(&compacts, &qs, ef, k);
            assert_eq!(
                got.outcomes,
                quant_ref,
                "{} diverged at {threads} threads",
                kind.name()
            );
        }
    }
}
