//! Uniform search adapters: every index family in the workspace behind one
//! trait, so evaluation sweeps (`pg_eval`) can walk a quality–cost frontier
//! over `G_net`, θ-graphs, DiskANN/Vamana, NSW, HNSW and brute force with
//! identical driver code.
//!
//! The three shapes an ANN index takes in this workspace are:
//!
//! * **a plain [`Graph`]** routed by [`pg_core::beam_search`] — `G_net`,
//!   θ-graphs, the merged graph, Vamana, NSW, slow-preprocessing DiskANN
//!   ([`GraphIndex`] wraps any of them);
//! * **a layered structure with its own search** — [`Hnsw`](crate::Hnsw);
//! * **no index at all** — exact brute force ([`BruteIndex`]), the
//!   recall-1.0 reference every frontier is scored against.
//!
//! [`SweepSearch`] erases the difference: one query in, one
//! [`BeamOutcome`] out (results in brute-force-comparable `(dist, id)`
//! order, plus that query's own `dist_comps` and `expansions`). The
//! provided [`SweepSearch::search_batch`] shards a query set across the
//! thread pool with the order-preserving parallel map, so every adapter is
//! batch-sweepable and **thread-count invariant** by construction.
//! [`GraphIndex`] and [`Hnsw`](crate::Hnsw) override it to hold one
//! reusable [`SearchScratch`] per worker, as [`QueryEngine`] does.
//! [`EngineIndex`] additionally routes batches through
//! [`QueryEngine::batch_beam_detailed`] — the same engine path the serving
//! system uses — with the engine built **once**, so timed sweeps measure
//! pure search work, never setup.
//!
//! # `ef` semantics (uniform across adapters)
//!
//! `ef` is the *effort axis* a frontier sweep walks: the beam width for
//! graph indexes and HNSW (HNSW's effective width is `ef.max(k).max(1)`;
//! larger `ef` buys recall with distance computations), and deliberately
//! **ignored** by [`BruteIndex`] — brute force always scans all `n` points,
//! so its frontier is a single point repeated along the axis, which is
//! exactly what makes it the fixed reference line of a recall/QPS plot.
//!
//! # Example
//!
//! ```
//! use pg_baselines::{BruteIndex, GraphIndex, SweepSearch};
//! use pg_core::GNet;
//! use pg_metric::{Euclidean, FlatPoints, FlatRow};
//!
//! let data = FlatPoints::from_fn(80, 2, |i, out| {
//!     out.push((i % 9) as f64);
//!     out.push((i / 9) as f64);
//! })
//! .into_dataset(Euclidean);
//! let pg = GNet::build(&data, 1.0);
//!
//! let index = GraphIndex::new(pg.graph);
//! let q: FlatRow = vec![4.3, 3.9].into();
//! let approx = index.search_one(&data, &q, 8, 3);
//! let exact = BruteIndex.search_one(&data, &q, 8, 3);
//! assert_eq!(approx.results.len(), 3);
//! // Brute force is the ground truth: dist_comps == n, results exact.
//! assert_eq!(exact.dist_comps, 80);
//! assert!(approx.results[0].1 >= exact.results[0].1);
//! ```

use pg_core::{
    beam_search_detailed, beam_search_quantized, BeamOutcome, Graph, QueryEngine, SearchScratch,
};
use pg_metric::{CompactPoints, Dataset, Metric, QuantKind};

/// One batched top-`k` search interface over every index family — see the
/// [module docs](self) for the adapter map and the uniform `ef` semantics.
///
/// Implementations must be deterministic: [`SweepSearch::search_one`] is a
/// pure function of `(index, data, q, ef, k)`, and the provided
/// [`SweepSearch::search_batch`] preserves input order, so batch output is
/// identical for every thread count (the evaluation harness asserts this
/// before timing anything).
pub trait SweepSearch<P: Sync, M: Metric<P> + Sync>: Sync {
    /// Top-`k` search for one query at effort `ef`. Results ascend by true
    /// distance with ties broken by smaller id (the
    /// [`Dataset::k_nearest_brute`] order), so they are directly comparable
    /// against exact ground truth.
    fn search_one(&self, data: &Dataset<P, M>, q: &P, ef: usize, k: usize) -> BeamOutcome;

    /// [`SweepSearch::search_one`] for a whole query set, sharded across
    /// the thread pool. Outcome `i` is exactly `search_one(data,
    /// &queries[i], ef, k)` for every thread count.
    fn search_batch(
        &self,
        data: &Dataset<P, M>,
        queries: &[P],
        ef: usize,
        k: usize,
    ) -> Vec<BeamOutcome> {
        rayon::par_map(queries, |q| self.search_one(data, q, ef, k))
    }
}

/// Adapter for any plain [`Graph`] index (`G_net`, θ-graph, merged graph,
/// Vamana, NSW, slow-preprocessing DiskANN): routes queries with
/// [`pg_core::beam_search`] from a fixed entry vertex, batching on one
/// reusable [`SearchScratch`] per worker. The graph must have been built
/// over the dataset passed to the search methods (the same implicit
/// contract every routing call in the workspace has).
///
/// Entry-vertex semantics: beam search is start-sensitive, so the adapter
/// pins one entry (default `0`, override with [`GraphIndex::with_entry`] —
/// e.g. a medoid) to keep sweeps reproducible; frontier differences between
/// entry choices are themselves measurable by sweeping two adapters.
///
/// For timed sweeps prefer [`EngineIndex`], which serves batches through a
/// pre-built [`QueryEngine`]; this adapter is the dependency-light choice
/// for one-off scoring and tests.
#[derive(Debug, Clone)]
pub struct GraphIndex {
    /// The routed graph.
    pub graph: Graph,
    /// The fixed entry vertex every search starts from.
    pub entry: u32,
}

impl GraphIndex {
    /// Wraps a graph with entry vertex `0`.
    pub fn new(graph: Graph) -> Self {
        GraphIndex { graph, entry: 0 }
    }

    /// Overrides the entry vertex (must be `< graph.n()`, checked at search
    /// time by the routing code).
    pub fn with_entry(mut self, entry: u32) -> Self {
        self.entry = entry;
        self
    }
}

impl<P: Sync, M: Metric<P> + Sync> SweepSearch<P, M> for GraphIndex {
    fn search_one(&self, data: &Dataset<P, M>, q: &P, ef: usize, k: usize) -> BeamOutcome {
        beam_search_detailed(&self.graph, data, self.entry, q, ef, k)
    }

    /// The same walk as [`GraphIndex::search_one`] per query, on one
    /// reusable [`SearchScratch`] per worker.
    fn search_batch(
        &self,
        data: &Dataset<P, M>,
        queries: &[P],
        ef: usize,
        k: usize,
    ) -> Vec<BeamOutcome> {
        per_worker_scratch(queries, |scratch, q| {
            scratch
                .best_first(&self.graph, &[self.entry], ef, |v| {
                    data.surrogate_to(v as usize, q)
                })
                .top(k)
                .into_outcome(data)
        })
    }
}

/// Maps `search` over `queries` on the thread pool, order-preserving, with
/// one [`SearchScratch`] per worker reused across its queries — the batch
/// shape of `QueryEngine`'s own paths.
fn per_worker_scratch<P: Sync>(
    queries: &[P],
    search: impl Fn(&mut SearchScratch, &P) -> BeamOutcome + Sync,
) -> Vec<BeamOutcome> {
    rayon::par_map_indexed_init_with(
        rayon::current_num_threads(),
        queries,
        SearchScratch::default,
        |scratch, _, q| search(scratch, q),
    )
}

/// Adapter that owns a ready-to-serve [`QueryEngine`] — the batch path for
/// plain-graph indexes in **timed** sweeps: the engine (graph + dataset)
/// is constructed once, up front, so a timed `search_batch` measures pure
/// search work with zero per-call setup, exactly like production traffic.
/// ([`GraphIndex`] routes identically but re-shards through the generic
/// map; outcomes are bit-identical, only the engine plumbing differs.)
///
/// The dataset passed to the search methods must hold the same points the
/// engine was built over (same contract as [`GraphIndex`] and every
/// routing call): `search_one` routes over the caller's dataset,
/// `search_batch` over the engine's — identical by that contract.
#[derive(Debug, Clone)]
pub struct EngineIndex<P, M> {
    engine: QueryEngine<P, M>,
    entry: u32,
}

impl<P, M: Metric<P>> EngineIndex<P, M> {
    /// Wraps a built engine with entry vertex `0`.
    pub fn new(engine: QueryEngine<P, M>) -> Self {
        EngineIndex { engine, entry: 0 }
    }

    /// Overrides the entry vertex.
    pub fn with_entry(mut self, entry: u32) -> Self {
        self.entry = entry;
        self
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &QueryEngine<P, M> {
        &self.engine
    }
}

impl<P, M> SweepSearch<P, M> for EngineIndex<P, M>
where
    P: Sync + AsRef<[f64]>,
    M: Metric<P> + Metric<[f64]> + Sync,
{
    fn search_one(&self, data: &Dataset<P, M>, q: &P, ef: usize, k: usize) -> BeamOutcome {
        beam_search_detailed(self.engine.graph(), data, self.entry, q, ef, k)
    }

    /// [`QueryEngine::batch_beam_detailed`] over the pre-built engine — no
    /// per-call construction, no clones inside a caller's timing window.
    fn search_batch(
        &self,
        _data: &Dataset<P, M>,
        queries: &[P],
        ef: usize,
        k: usize,
    ) -> Vec<BeamOutcome> {
        let starts = vec![self.entry; queries.len()];
        self.engine
            .batch_beam_detailed(&starts, queries, ef, k)
            .outcomes
    }
}

/// Adapter that serves **quantized** search through a pre-built
/// [`QueryEngine`] plus a [`CompactPoints`] store: beam navigation runs on
/// the compact surrogate (`f32` or SQ8), then the whole candidate set is
/// re-ranked with exact `f64` distances before truncating to `k` — the
/// re-rank contract of `pg_metric::quant`. Reported results are therefore
/// in the same exact `(dist, id)` order every other adapter reports, so
/// frontiers for f64/f32/SQ8 storage are directly comparable on one plot.
///
/// Per-query `dist_comps` counts quantized surrogate evaluations **plus**
/// one exact evaluation per re-ranked candidate — the true cost of the
/// two-phase search, never just the cheap phase.
#[derive(Debug, Clone)]
pub struct QuantizedEngineIndex<P, M> {
    engine: QueryEngine<P, M>,
    compact: CompactPoints,
    entry: u32,
}

impl<P: Sync + AsRef<[f64]>, M: Metric<P> + Sync> QuantizedEngineIndex<P, M> {
    /// Quantizes the engine's own points at `kind` and wraps both with
    /// entry vertex `0`. Fails (with a description) only if the points
    /// cannot be encoded — empty set, ragged rows, non-finite coordinates.
    pub fn new(engine: QueryEngine<P, M>, kind: QuantKind) -> Result<Self, String> {
        let compact = engine.quantize(kind)?;
        Ok(QuantizedEngineIndex {
            engine,
            compact,
            entry: 0,
        })
    }

    /// Wraps an engine with an already-built compact store (e.g. one loaded
    /// from a version-2 snapshot). The store must describe exactly the
    /// engine's points.
    pub fn from_parts(engine: QueryEngine<P, M>, compact: CompactPoints) -> Self {
        QuantizedEngineIndex {
            engine,
            compact,
            entry: 0,
        }
    }

    /// Overrides the entry vertex.
    pub fn with_entry(mut self, entry: u32) -> Self {
        self.entry = entry;
        self
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &QueryEngine<P, M> {
        &self.engine
    }

    /// The compact store navigation runs on.
    pub fn compact(&self) -> &CompactPoints {
        &self.compact
    }
}

impl<P: Sync + AsRef<[f64]>, M: Metric<P> + Sync> SweepSearch<P, M> for QuantizedEngineIndex<P, M> {
    fn search_one(&self, data: &Dataset<P, M>, q: &P, ef: usize, k: usize) -> BeamOutcome {
        beam_search_quantized(
            self.engine.graph(),
            data,
            &self.compact,
            self.entry,
            q,
            ef,
            k,
        )
    }

    /// [`QueryEngine::batch_beam_quantized_detailed`] over the pre-built
    /// engine and store — the quantized analogue of [`EngineIndex`]'s
    /// batch path, with zero per-call setup.
    fn search_batch(
        &self,
        _data: &Dataset<P, M>,
        queries: &[P],
        ef: usize,
        k: usize,
    ) -> Vec<BeamOutcome> {
        let starts = vec![self.entry; queries.len()];
        self.engine
            .batch_beam_quantized_detailed(&self.compact, &starts, queries, ef, k)
            .outcomes
    }
}

/// Adapter for exact brute-force search: [`Dataset::k_nearest_brute`],
/// reported as a [`BeamOutcome`] with `dist_comps = n` (a full scan) and
/// `expansions = 0` (no graph is walked). `ef` is ignored — see the
/// [module docs](self). This is the exact reference every recall frontier
/// is scored against: its recall is 1.0 **by construction**, a property the
/// evaluation harness asserts as a self-check before trusting any sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct BruteIndex;

impl<P: Sync, M: Metric<P> + Sync> SweepSearch<P, M> for BruteIndex {
    fn search_one(&self, data: &Dataset<P, M>, q: &P, _ef: usize, k: usize) -> BeamOutcome {
        let results = data
            .k_nearest_brute(q, k)
            .into_iter()
            .map(|(i, d)| (i as u32, d))
            .collect();
        BeamOutcome {
            results,
            dist_comps: data.len() as u64,
            expansions: 0,
        }
    }
}

impl<P: Sync, M: Metric<P> + Sync> SweepSearch<P, M> for crate::Hnsw {
    /// [`Hnsw::search_detailed`](crate::Hnsw::search_detailed): greedy
    /// descent plus a ground-layer beam of effective width `ef.max(k).max(1)`.
    fn search_one(&self, data: &Dataset<P, M>, q: &P, ef: usize, k: usize) -> BeamOutcome {
        self.search_detailed(data, q, ef, k)
    }

    /// [`Hnsw::search_detailed_with`](crate::Hnsw::search_detailed_with)
    /// per query, on one reusable [`SearchScratch`] per worker.
    fn search_batch(
        &self,
        data: &Dataset<P, M>,
        queries: &[P],
        ef: usize,
        k: usize,
    ) -> Vec<BeamOutcome> {
        per_worker_scratch(queries, |scratch, q| {
            self.search_detailed_with(scratch, data, q, ef, k)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{nsw, vamana, Hnsw, HnswParams, NswParams, VamanaParams};
    use pg_core::GNet;
    use pg_metric::{Euclidean, FlatPoints, FlatRow};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_dataset(n: usize, seed: u64) -> Dataset<FlatRow, Euclidean> {
        let mut rng = StdRng::seed_from_u64(seed);
        FlatPoints::from_fn(n, 2, |_, out| {
            out.push(rng.random_range(0.0..30.0));
            out.push(rng.random_range(0.0..30.0));
        })
        .into_dataset(Euclidean)
    }

    fn random_queries(m: usize, seed: u64) -> Vec<FlatRow> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..m)
            .map(|_| {
                FlatRow::from(vec![
                    rng.random_range(0.0..30.0),
                    rng.random_range(0.0..30.0),
                ])
            })
            .collect()
    }

    #[test]
    fn brute_adapter_matches_k_nearest_brute_exactly() {
        let ds = random_dataset(120, 1);
        for q in random_queries(10, 2) {
            let out = BruteIndex.search_one(&ds, &q, 7, 4);
            let want: Vec<(u32, f64)> = ds
                .k_nearest_brute(&q, 4)
                .into_iter()
                .map(|(i, d)| (i as u32, d))
                .collect();
            assert_eq!(out.results, want);
            assert_eq!(out.dist_comps, 120);
            assert_eq!(out.expansions, 0);
        }
    }

    #[test]
    fn graph_adapter_batch_equals_one_by_one_for_every_thread_count() {
        let ds = random_dataset(200, 3);
        let pg = GNet::build(&ds, 1.0);
        let index = GraphIndex::new(pg.graph).with_entry(5);
        let queries = random_queries(24, 4);
        let solo: Vec<BeamOutcome> = queries
            .iter()
            .map(|q| index.search_one(&ds, q, 10, 3))
            .collect();
        for threads in [1, 2, 4] {
            let batch = rayon::with_threads(threads, || index.search_batch(&ds, &queries, 10, 3));
            assert_eq!(batch, solo, "diverged at {threads} threads");
        }
    }

    #[test]
    fn engine_adapter_agrees_with_graph_adapter_exactly() {
        let ds = random_dataset(220, 9);
        let pg = GNet::build(&ds, 1.0);
        let plain = GraphIndex::new(pg.graph.clone()).with_entry(3);
        let engined = EngineIndex::new(QueryEngine::new(pg.graph, ds.clone())).with_entry(3);
        let queries = random_queries(16, 10);
        for threads in [1, 4] {
            let a = rayon::with_threads(threads, || plain.search_batch(&ds, &queries, 9, 2));
            let b = rayon::with_threads(threads, || {
                // Engines resolve their worker count at construction, so
                // rebuild inside the pool override like a caller would.
                EngineIndex::new(QueryEngine::new(plain.graph.clone(), ds.clone()))
                    .with_entry(3)
                    .search_batch(&ds, &queries, 9, 2)
            });
            assert_eq!(a, b, "adapters diverged at {threads} threads");
        }
        // And the long-lived engine path agrees too.
        assert_eq!(
            engined.search_batch(&ds, &queries, 9, 2),
            plain.search_batch(&ds, &queries, 9, 2)
        );
        assert_eq!(
            engined.search_one(&ds, &queries[0], 9, 2),
            plain.search_one(&ds, &queries[0], 9, 2)
        );
    }

    #[test]
    fn scratch_reusing_batches_equal_search_one_at_1_2_and_7_threads() {
        let ds = random_dataset(260, 15);
        let queries = random_queries(40, 16);
        let hnsw = Hnsw::build(&ds, HnswParams::default());
        let graph = GraphIndex::new(GNet::build(&ds, 1.0).graph).with_entry(7);
        // Several widths, so one worker's scratch serves walks of
        // different sizes back to back.
        for (ef, k) in [(1, 1), (12, 3), (40, 10)] {
            let solo_hnsw: Vec<BeamOutcome> = queries
                .iter()
                .map(|q| SweepSearch::<FlatRow, Euclidean>::search_one(&hnsw, &ds, q, ef, k))
                .collect();
            let solo_graph: Vec<BeamOutcome> = queries
                .iter()
                .map(|q| graph.search_one(&ds, q, ef, k))
                .collect();
            for threads in [1, 2, 7] {
                let (h, g) = rayon::with_threads(threads, || {
                    (
                        hnsw.search_batch(&ds, &queries, ef, k),
                        graph.search_batch(&ds, &queries, ef, k),
                    )
                });
                assert_eq!(h, solo_hnsw, "HNSW ef = {ef} at {threads} threads");
                assert_eq!(g, solo_graph, "graph ef = {ef} at {threads} threads");
            }
        }
    }

    #[test]
    fn hnsw_adapter_agrees_with_plain_search_and_counts_expansions() {
        let ds = random_dataset(300, 5);
        let h = Hnsw::build(&ds, HnswParams::default());
        for q in random_queries(12, 6) {
            let (res, comps) = h.search(&ds, &q, 24, 3);
            let out = SweepSearch::<FlatRow, Euclidean>::search_one(&h, &ds, &q, 24, 3);
            assert_eq!(out.results, res);
            assert_eq!(out.dist_comps, comps);
            assert!(out.expansions >= 1);
            assert!(out.expansions <= out.dist_comps);
        }
    }

    #[test]
    fn quantized_adapter_at_full_width_matches_the_exact_engine_adapter() {
        // At ef = n the candidate set is the whole (connected) graph, and
        // the exact re-rank makes the quantized adapter's output identical
        // to full-precision search — for both representations.
        let ds = random_dataset(130, 11);
        let pg = GNet::build(&ds, 1.0);
        let exact = EngineIndex::new(QueryEngine::new(pg.graph.clone(), ds.clone()));
        let queries = random_queries(10, 12);
        let n = ds.len();
        let want = exact.search_batch(&ds, &queries, n, 5);
        for kind in [QuantKind::F32, QuantKind::Sq8] {
            let quant =
                QuantizedEngineIndex::new(QueryEngine::new(pg.graph.clone(), ds.clone()), kind)
                    .unwrap();
            let got = quant.search_batch(&ds, &queries, n, 5);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.results, w.results, "{} diverged", kind.name());
            }
        }
    }

    #[test]
    fn quantized_adapter_batch_equals_one_by_one_for_every_thread_count() {
        let ds = random_dataset(180, 13);
        let pg = GNet::build(&ds, 1.0);
        let queries = random_queries(20, 14);
        for kind in [QuantKind::F32, QuantKind::Sq8] {
            let solo: Vec<BeamOutcome> = {
                let index =
                    QuantizedEngineIndex::new(QueryEngine::new(pg.graph.clone(), ds.clone()), kind)
                        .unwrap()
                        .with_entry(2);
                queries
                    .iter()
                    .map(|q| index.search_one(&ds, q, 12, 3))
                    .collect()
            };
            for threads in [1, 2, 4] {
                let batch = rayon::with_threads(threads, || {
                    QuantizedEngineIndex::new(QueryEngine::new(pg.graph.clone(), ds.clone()), kind)
                        .unwrap()
                        .with_entry(2)
                        .search_batch(&ds, &queries, 12, 3)
                });
                assert_eq!(batch, solo, "{} diverged at {threads} threads", kind.name());
            }
        }
    }

    #[test]
    fn every_graph_family_is_sweepable_through_the_one_trait() {
        let ds = random_dataset(150, 7);
        let queries = random_queries(8, 8);
        let indexes: Vec<GraphIndex> = vec![
            GraphIndex::new(GNet::build(&ds, 1.0).graph),
            GraphIndex::new(vamana(&ds, VamanaParams::default())),
            GraphIndex::new(nsw(&ds, NswParams::default())),
        ];
        for index in &indexes {
            let batch = index.search_batch(&ds, &queries, 16, 2);
            assert_eq!(batch.len(), 8);
            for out in &batch {
                assert_eq!(out.results.len(), 2);
                assert!(out.results[0].1 <= out.results[1].1);
                assert!(out.dist_comps >= 1);
            }
        }
    }
}
