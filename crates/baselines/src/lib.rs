//! Baseline ANN indexes the paper positions itself against (Section 1.2),
//! implemented from scratch:
//!
//! * [`mod@diskann`] — the **slow-preprocessing DiskANN** (α-pruned graph) that
//!   Indyk–Xu \[18\] showed to be the only popular proximity graph with
//!   non-trivial worst-case guarantees (`O(n^3)`-ish construction,
//!   `(α+1)/(α-1)`-navigability), plus the practical **Vamana** heuristic
//!   (random graph + two α-robust-prune passes) used by DiskANN in practice;
//! * [`mod@hnsw`] — Hierarchical Navigable Small World graphs \[22\], the dominant
//!   practical proximity-graph index;
//! * [`mod@nsw`] — the flat small-world predecessor \[21\];
//! * [`mod@brute`] — exact brute-force search, the recall ground truth.
//!
//! All constructions emit [`pg_core::Graph`]s (HNSW additionally keeps its
//! layer stack), so the comparison experiments can route queries through the
//! exact same `greedy`/beam code paths and count distance computations with
//! the same instrumentation. The insertion-built indexes (HNSW, Vamana, NSW)
//! also *build* and search on those paths: every walk they take is
//! [`pg_core::greedy`] or [`pg_core::SearchScratch::best_first`], over the
//! adjacency lists the build is still growing, with one scratch per build.
//! The crate has no search loop of its own. The [`adapter`] module goes one
//! step further and puts every family — plain graphs, HNSW's layered
//! search, and brute force — behind the single [`SweepSearch`] trait, which
//! is what the evaluation crate (`pg_eval`) sweeps recall/QPS frontiers
//! through.
//!
//! Where this crate sits in the workspace is mapped in `ARCHITECTURE.md`
//! at the repository root.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adapter;
pub mod brute;
pub mod diskann;
pub mod hnsw;
pub mod nsw;

use pg_metric::{Dataset, Metric};

/// Below this many candidates a parallel distance-labelling pass costs more
/// in thread startup than it saves; the sequential path is used instead.
pub(crate) const PAR_DIST_THRESHOLD: usize = 512;

/// Distance-labels `cands` against point `p`, **in input order** — the
/// neighbor-selection primitive of the HNSW/Vamana constructions. Over the
/// immutable dataset snapshot each evaluation is independent, so large lists
/// are sharded across the thread pool; the order-preserving map keeps the
/// output (and therefore the built graph) bit-identical to the sequential
/// path for any thread count.
pub(crate) fn label_dists<P: Sync, M: Metric<P> + Sync>(
    data: &Dataset<P, M>,
    p: usize,
    cands: &[u32],
) -> Vec<(f64, u32)> {
    let label = |&v: &u32| (data.dist(p, v as usize), v);
    if cands.len() >= PAR_DIST_THRESHOLD {
        rayon::par_map(cands, label)
    } else {
        cands.iter().map(label).collect()
    }
}

pub use adapter::{BruteIndex, EngineIndex, GraphIndex, QuantizedEngineIndex, SweepSearch};
pub use brute::brute_force_nn;
pub use diskann::{slow_preprocessing, vamana, VamanaParams};
pub use hnsw::{Hnsw, HnswParams};
pub use nsw::{nsw, NswParams};
