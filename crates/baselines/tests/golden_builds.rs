//! Golden values for the three insertion-built baselines: an FNV-1a
//! checksum of the built graph's CSR arrays, its edge count, and the
//! build's total distance computations under `Counting`, on fixed-seed
//! datasets (a tie-heavy integer grid and random floats at d = 2 and d = 8).
//!
//! The values were recorded from the builds' own private beam loops, before
//! HNSW, Vamana and NSW moved onto `pg_core`'s shared best-first kernel.
//! HNSW's searches are pinned the same way. Any drift in a walk — an
//! ordering, a tie break, a visited set, a count — moves at least one of
//! them.

use pg_baselines::{nsw, vamana, Hnsw, HnswParams, NswParams, VamanaParams};
use pg_core::Graph;
use pg_metric::{Counting, Dataset, Euclidean};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

type Data = Dataset<Vec<f64>, Counting<Euclidean>>;

/// FNV-1a 64 over a byte stream.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
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

/// A 15 × 15 integer grid: every distance is the square root of an integer,
/// so equal-distance ties are everywhere.
fn grid() -> Data {
    let pts = (0..15)
        .flat_map(|x| (0..15).map(move |y| vec![x as f64, y as f64]))
        .collect();
    Dataset::new(pts, Counting::new(Euclidean))
}

fn random(n: usize, d: usize, seed: u64) -> Data {
    let mut rng = StdRng::seed_from_u64(seed);
    let pts = (0..n)
        .map(|_| (0..d).map(|_| rng.random_range(0.0..30.0)).collect())
        .collect();
    Dataset::new(pts, Counting::new(Euclidean))
}

/// `(checksum, edges, build distance computations)` of one build.
fn fingerprint(data: &Data, build: impl FnOnce(&Data) -> Graph) -> (u64, usize, u64) {
    data.metric().reset();
    let g = build(data);
    (graph_checksum(&g), g.edge_count(), data.metric().count())
}

/// HNSW (ground layer), Vamana and NSW fingerprints, in that order.
fn builds(data: &Data) -> [(u64, usize, u64); 3] {
    [
        fingerprint(data, |d| {
            Hnsw::build(d, HnswParams::default()).ground_layer()
        }),
        fingerprint(data, |d| vamana(d, VamanaParams::default())),
        fingerprint(data, |d| nsw(d, NswParams::default())),
    ]
}

#[test]
fn integer_grid_builds_match_their_golden_values() {
    assert_eq!(
        builds(&grid()),
        [
            (11_484_538_631_161_970_940, 5072, 49_816),
            (14_303_078_225_040_382_074, 1528, 454_549),
            (3_579_008_714_414_731_193, 4390, 18_740),
        ]
    );
}

#[test]
fn random_2d_builds_match_their_golden_values() {
    assert_eq!(
        builds(&random(300, 2, 41)),
        [
            (8_879_394_124_711_233_273, 5814, 145_672),
            (7_718_805_771_406_773_516, 3072, 836_759),
            (7_425_953_987_128_771_558, 5890, 27_907),
        ]
    );
}

#[test]
fn random_8d_builds_match_their_golden_values() {
    assert_eq!(
        builds(&random(300, 8, 42)),
        [
            (11_619_570_560_542_147_127, 5765, 194_880),
            (10_328_393_506_499_022_114, 5634, 1_362_802),
            (863_580_778_670_226_627, 5890, 39_715),
        ]
    );
}

/// `(checksum of every result id and distance bit pattern, total
/// dist_comps, total expansions)` of HNSW searches for 20 fixed queries at
/// `ef` ∈ {0, 1, 16, n} and `k` ∈ {1, 5}.
fn hnsw_search_fingerprint(data: &Data, seed: u64) -> (u64, u64, u64) {
    let h = Hnsw::build(data, HnswParams::default());
    let d = data.point(0).len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bytes = Vec::new();
    let (mut comps, mut expansions) = (0, 0);
    for _ in 0..20 {
        let q: Vec<f64> = (0..d).map(|_| rng.random_range(-2.0..32.0)).collect();
        for ef in [0, 1, 16, data.len()] {
            for k in [1, 5] {
                let out = h.search_detailed(data, &q, ef, k);
                for (v, dist) in out.results {
                    bytes.extend(v.to_le_bytes());
                    bytes.extend(dist.to_bits().to_le_bytes());
                }
                comps += out.dist_comps;
                expansions += out.expansions;
            }
        }
    }
    (fnv1a(bytes), comps, expansions)
}

#[test]
fn hnsw_searches_match_their_golden_values() {
    let got = [
        hnsw_search_fingerprint(&grid(), 51),
        hnsw_search_fingerprint(&random(300, 2, 41), 52),
        hnsw_search_fingerprint(&random(300, 8, 42), 53),
    ];
    assert_eq!(
        got,
        [
            (17_313_980_940_089_302_981, 18_938, 10_550),
            (15_986_805_528_460_246_373, 21_996, 13_570),
            (11_033_232_685_254_467_057, 25_558, 13_504),
        ]
    );
}
