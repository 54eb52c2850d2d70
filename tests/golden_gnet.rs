//! Golden values for `G_net` construction: an FNV-1a checksum of every net
//! level (`centers`, `cover`, `parent_pos`), of the built graph's CSR
//! arrays, and the total distance computations of `GNet::build_fast` under
//! `Counting`, on fixed inputs — a 128-dimensional swiss roll, 2-d Gaussian
//! clusters, and a tie-heavy integer lattice under plain and `Scaled`
//! Euclidean distance.
//!
//! The values were recorded while every construction distance test still
//! computed the full `dist`, before the net ladder, the relatives steps and
//! the edge scan moved to surrogate thresholds with an early-exit kernel.
//! Those tests must answer exactly as `dist(..) <= reach` did, at the same
//! count; any drift in a cover choice, a relatives list, an edge or a
//! count moves at least one value.

use proximity_graphs::core::{GNet, Graph};
use proximity_graphs::metric::{Counting, Dataset, Euclidean, FlatRow, Metric, Scaled};
use proximity_graphs::nets::NetHierarchy;
use proximity_graphs::workloads;

/// FNV-1a 64 over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a 64 over a `u32` sequence, little-endian.
fn fnv_u32(values: &[u32]) -> u64 {
    fnv1a(values.iter().flat_map(|v| v.to_le_bytes()))
}

/// FNV-1a 64 over the CSR offsets (as `u64`) and targets, little-endian.
fn graph_checksum(g: &Graph) -> u64 {
    let offsets = g.csr_offsets().iter().map(|&o| o as u64);
    fnv1a(
        offsets
            .flat_map(u64::to_le_bytes)
            .chain(g.csr_targets().iter().flat_map(|t| t.to_le_bytes())),
    )
}

/// One checksum over every level, bottom-up: each level's radius bits,
/// then its `centers`, `cover` and `parent_pos` checksums.
fn hierarchy_checksum(h: &NetHierarchy) -> u64 {
    let per_level = h.levels().iter().flat_map(|lvl| {
        [
            lvl.radius.to_bits(),
            fnv_u32(&lvl.centers),
            fnv_u32(&lvl.cover),
            fnv_u32(&lvl.parent_pos),
        ]
    });
    fnv1a(per_level.flat_map(u64::to_le_bytes))
}

/// `(levels, hierarchy checksum, graph checksum, edges, distance
/// computations of GNet::build_fast)` at `ε = 1`.
fn fingerprint<M: Metric<FlatRow> + Sync>(
    data: &Dataset<FlatRow, Counting<M>>,
) -> (usize, u64, u64, usize, u64) {
    data.metric().reset();
    let g = GNet::build_fast(data, 1.0);
    (
        g.hierarchy.num_levels(),
        hierarchy_checksum(&g.hierarchy),
        graph_checksum(&g.graph),
        g.graph.edge_count(),
        data.metric().count(),
    )
}

#[test]
fn swiss_roll_128d_matches_its_golden_values() {
    let data = workloads::swiss_roll_flat(1500, 128, 1).into_dataset(Counting::new(Euclidean));
    assert_eq!(
        fingerprint(&data),
        (
            10,
            13_151_999_438_909_935_995,
            15_820_970_866_746_537_678,
            386_407,
            1_686_459
        )
    );
}

#[test]
fn gaussian_clusters_2d_match_their_golden_values() {
    let data = workloads::gaussian_clusters_flat(3000, 2, 16, 1.0, 100.0, 1)
        .into_dataset(Counting::new(Euclidean));
    assert_eq!(
        fingerprint(&data),
        (
            17,
            14_129_077_257_476_559_419,
            5_719_673_987_717_821_333,
            356_859,
            1_771_673
        )
    );
}

#[test]
fn integer_lattice_matches_its_golden_values() {
    let data = workloads::lattice_flat(30, 2, 1.0).into_dataset(Counting::new(Euclidean));
    assert_eq!(
        fingerprint(&data),
        (
            8,
            10_012_517_741_073_219_653,
            2_946_270_640_915_331_410,
            205_688,
            972_918
        )
    );
}

#[test]
fn scaled_integer_lattice_matches_its_golden_values() {
    // A factor that is not a power of two, so the scaled distances round.
    let data = workloads::lattice_flat(30, 2, 1.0)
        .into_dataset(Counting::new(Scaled::new(Euclidean, 0.3)));
    assert_eq!(
        fingerprint(&data),
        (
            8,
            2_591_314_194_113_781_737,
            2_946_270_640_915_331_410,
            205_688,
            972_918
        )
    );
}
