//! Exact ground truth: parallel brute-force top-`k`, with a versioned
//! on-disk cache so repeated sweeps never recompute it.
//!
//! Computing ground truth is the most expensive part of an evaluation run —
//! `Θ(n · m)` distance computations for `m` queries over `n` points, paid
//! before a single index is measured. [`GroundTruth::compute`] shards the
//! per-query scans across the thread pool (the order-preserving parallel
//! map, so the result is identical for every thread count), and
//! [`GroundTruth::compute_or_load`] caches the result in a small versioned
//! file keyed by a [`fingerprint`] of everything the answer depends on:
//! the data coordinates, the query coordinates, the metric, and `k`. Any
//! change to any of them changes the fingerprint, so a cache can never
//! serve ground truth for the wrong workload — the failure mode of ad-hoc
//! "did anyone delete the cache dir?" schemes.
//!
//! # Cache file format (version 1)
//!
//! The format follows the `pg_store` snapshot conventions (see
//! `ARCHITECTURE.md` § Index snapshots): little-endian, magic +
//! `format_version` header, FNV-1a-64 checksummed payload
//! ([`pg_store::checksum`] — the exact same function, so the two formats
//! are conformance-testable together), typed errors, and reads that never
//! panic and never return partial data.
//!
//! | Offset | Size | Field |
//! |-------:|-----:|-------|
//! | 0 | 8 | magic `PGGTSNAP` |
//! | 8 | 4 | `format_version` (u32) = 1 |
//! | 12 | 8 | fingerprint (u64) — see [`fingerprint`] |
//! | 20 | 8 | `k` (u64) |
//! | 28 | 8 | `m` = query count (u64) |
//! | 36 | 4mk | neighbor ids (u32 each), query-major |
//! | … | 8mk | neighbor distances (f64 bits each), query-major, each row ascending |
//! | … | 8 | checksum: FNV-1a 64 of bytes `12..` up to here |
//!
//! Versioning follows the `pg_store` rules: readers accept exactly the
//! versions they implement and reject the rest with
//! [`GroundTruthError::UnsupportedVersion`]; any layout change is a new
//! version, never a reinterpretation.

use std::fmt;
use std::path::Path;

use pg_core::SnapshotMetric;
use pg_metric::{Dataset, Metric};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The 8-byte magic prefix of every ground-truth cache file.
pub const GT_MAGIC: [u8; 8] = *b"PGGTSNAP";

/// The cache format version this crate reads and writes.
pub const GT_FORMAT_VERSION: u32 = 1;

/// Typed failure of a ground-truth cache read/write. Mirrors
/// `pg_store::SnapshotError`: loading never panics, and every rejected file
/// says why.
#[derive(Debug)]
pub enum GroundTruthError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with [`GT_MAGIC`].
    BadMagic,
    /// The file declares a format version this reader does not implement.
    UnsupportedVersion(u32),
    /// The file ends before the declared payload does.
    Truncated,
    /// The payload checksum does not match its contents.
    ChecksumMismatch,
    /// The file is internally consistent but was computed for a different
    /// workload (data, queries, metric, or `k` differ) — the cache-staleness
    /// signal [`GroundTruth::compute_or_load`] recomputes on.
    FingerprintMismatch,
    /// A structural invariant fails (sizes, finiteness, row ordering).
    Invalid(String),
}

impl fmt::Display for GroundTruthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroundTruthError::Io(e) => write!(f, "i/o error: {e}"),
            GroundTruthError::BadMagic => write!(f, "not a ground-truth cache file (bad magic)"),
            GroundTruthError::UnsupportedVersion(v) => {
                write!(f, "unsupported ground-truth format version {v}")
            }
            GroundTruthError::Truncated => write!(f, "truncated ground-truth cache file"),
            GroundTruthError::ChecksumMismatch => {
                write!(f, "ground-truth payload checksum mismatch")
            }
            GroundTruthError::FingerprintMismatch => {
                write!(f, "ground-truth fingerprint mismatch (stale cache)")
            }
            GroundTruthError::Invalid(reason) => write!(f, "invalid ground truth: {reason}"),
        }
    }
}

impl std::error::Error for GroundTruthError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GroundTruthError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GroundTruthError {
    fn from(e: std::io::Error) -> Self {
        GroundTruthError::Io(e)
    }
}

/// Whether [`GroundTruth::compute_or_load`] served from the cache or had to
/// recompute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheStatus {
    /// A valid cache file with a matching fingerprint was loaded.
    Hit,
    /// No usable cache existed (missing, corrupt, stale, or wrong version);
    /// the ground truth was computed and the cache rewritten.
    Miss,
}

/// Fingerprint of everything an exact top-`k` answer set depends on: the
/// metric (its stable `pg_store::MetricTag` code), `k`, and the full
/// coordinate streams of the data points and the queries (counts, per-point
/// dimensions, and every `f64` bit pattern), folded through the shared
/// [`pg_store::Fnv64`] hasher. Two workloads fingerprint equal iff a
/// cached ground truth for one is valid for the other.
pub fn fingerprint<P: AsRef<[f64]>>(
    points: &[P],
    queries: &[P],
    metric_code: u32,
    k: usize,
) -> u64 {
    let mut h = pg_store::Fnv64::new();
    h.update(&metric_code.to_le_bytes());
    h.update(&(k as u64).to_le_bytes());
    for (label, set) in [(b'P', points), (b'Q', queries)] {
        h.update(&[label]);
        h.update(&(set.len() as u64).to_le_bytes());
        for p in set {
            let row = p.as_ref();
            h.update(&(row.len() as u64).to_le_bytes());
            for c in row {
                h.update(&c.to_bits().to_le_bytes());
            }
        }
    }
    h.finish()
}

/// Fingerprint of a **sampled** ground truth: the full-workload
/// [`fingerprint`] (over *all* `m` queries, not just the sampled ones)
/// plus the sample seed and count, behind an explicit `GTSAMPLE` domain
/// tag. Folding the tag first guarantees a sampled cache and a full-truth
/// cache for the same workload never share a fingerprint, so one can never
/// be served in place of the other; folding seed and count makes every
/// distinct sample of the same query set its own cache key.
pub fn fingerprint_sampled<P: AsRef<[f64]>>(
    points: &[P],
    queries: &[P],
    metric_code: u32,
    k: usize,
    sample_seed: u64,
    sample_count: usize,
) -> u64 {
    let mut h = pg_store::Fnv64::new();
    h.update(b"GTSAMPLE");
    h.update(&sample_seed.to_le_bytes());
    h.update(&(sample_count as u64).to_le_bytes());
    h.update(&fingerprint(points, queries, metric_code, k).to_le_bytes());
    h.finish()
}

/// Draws `count` distinct query indices from `0..m` — a seeded partial
/// Fisher–Yates shuffle, returned **ascending** so sampled query order is
/// a stable function of `(m, count, seed)` alone. Requires
/// `1 <= count <= m`.
pub fn sample_indices(m: usize, count: usize, seed: u64) -> Vec<usize> {
    assert!(count >= 1, "a query sample needs at least one query");
    assert!(
        count <= m,
        "cannot sample {count} of {m} queries without replacement"
    );
    let mut pool: Vec<usize> = (0..m).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..count {
        let j = rng.random_range(i..m);
        pool.swap(i, j);
    }
    let mut picked = pool;
    picked.truncate(count);
    picked.sort_unstable();
    picked
}

/// Exact top-`k` neighbors (ids and distances) of a fixed query set over a
/// fixed dataset — the reference every quality metric in this crate scores
/// against.
///
/// Rows are query-major: query `q`'s neighbors are
/// [`ids_for(q)`](GroundTruth::ids_for) /
/// [`dists_for(q)`](GroundTruth::dists_for), ascending by distance with
/// ties broken by smaller id — exactly the
/// [`Dataset::k_nearest_brute`] order that every search routine in the
/// workspace also reports, so comparisons never need re-sorting.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruth {
    k: usize,
    m: usize,
    ids: Vec<u32>,
    dists: Vec<f64>,
}

impl GroundTruth {
    /// Computes exact ground truth by parallel brute force: one
    /// [`Dataset::k_nearest_brute`] scan per query, sharded across the
    /// thread pool with the order-preserving map — the result is
    /// bit-identical for every thread count.
    ///
    /// Requires `1 <= k <= data.len()` and at least one query. Cost:
    /// `m · n` distance computations (counted by a `Counting` metric, if
    /// the dataset wears one). Memory: `O(k)` per query — each scan keeps
    /// only a bounded `k`-entry buffer, never an `n`-long one — so the
    /// whole computation holds `O(m · k)` beyond the dataset, exactly the
    /// size of the result.
    pub fn compute<P: Sync, M: Metric<P> + Sync>(
        data: &Dataset<P, M>,
        queries: &[P],
        k: usize,
    ) -> Self {
        assert!(k >= 1, "ground truth needs k >= 1");
        assert!(
            k <= data.len(),
            "k = {k} exceeds the dataset size {}",
            data.len()
        );
        assert!(!queries.is_empty(), "ground truth needs at least one query");
        let per_query = rayon::par_map(queries, |q| data.k_nearest_brute(q, k));
        let mut ids = Vec::with_capacity(queries.len() * k);
        let mut dists = Vec::with_capacity(queries.len() * k);
        for row in per_query {
            debug_assert_eq!(row.len(), k);
            for (id, d) in row {
                ids.push(id as u32);
                dists.push(d);
            }
        }
        GroundTruth {
            k,
            m: queries.len(),
            ids,
            dists,
        }
    }

    /// `k` — neighbors stored per query.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of queries `m`.
    pub fn queries(&self) -> usize {
        self.m
    }

    /// The exact top-`k` neighbor ids of query `q`, ascending by distance
    /// (ties by id).
    pub fn ids_for(&self, q: usize) -> &[u32] {
        &self.ids[q * self.k..(q + 1) * self.k]
    }

    /// The exact top-`k` neighbor distances of query `q`, ascending.
    pub fn dists_for(&self, q: usize) -> &[f64] {
        &self.dists[q * self.k..(q + 1) * self.k]
    }

    /// The `k`-th smallest true distance for query `q` — the membership
    /// threshold of the exact top-`k` set (see
    /// [`recall_at_k`](crate::metrics::recall_at_k) for why hits are decided
    /// by this threshold rather than by id membership).
    pub fn threshold(&self, q: usize) -> f64 {
        self.dists_for(q)[self.k - 1]
    }

    /// The exact nearest-neighbor distance of query `q`.
    pub fn nearest_dist(&self, q: usize) -> f64 {
        self.dists_for(q)[0]
    }

    /// Serializes to the version-1 cache format (see the module docs),
    /// embedding `fingerprint` so a later load can detect staleness.
    pub fn to_bytes(&self, fingerprint: u64) -> Vec<u8> {
        let cells = self.m * self.k;
        let mut out = Vec::with_capacity(8 + 4 + 24 + cells * 12 + 8);
        out.extend_from_slice(&GT_MAGIC);
        out.extend_from_slice(&GT_FORMAT_VERSION.to_le_bytes());
        let payload_start = out.len();
        out.extend_from_slice(&fingerprint.to_le_bytes());
        out.extend_from_slice(&(self.k as u64).to_le_bytes());
        out.extend_from_slice(&(self.m as u64).to_le_bytes());
        for id in &self.ids {
            out.extend_from_slice(&id.to_le_bytes());
        }
        for d in &self.dists {
            out.extend_from_slice(&d.to_bits().to_le_bytes());
        }
        let sum = pg_store::checksum(&out[payload_start..]);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parses the version-1 cache format. Never panics; a [`GroundTruth`]
    /// is only returned after the magic, version, checksum, fingerprint and
    /// all structural invariants check out.
    pub fn from_bytes(bytes: &[u8], expected_fingerprint: u64) -> Result<Self, GroundTruthError> {
        let header = 8 + 4;
        let magic_prefix = &bytes[..bytes.len().min(8)];
        if magic_prefix != &GT_MAGIC[..magic_prefix.len()] {
            return Err(GroundTruthError::BadMagic);
        }
        if bytes.len() < header {
            return Err(GroundTruthError::Truncated);
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
        if version != GT_FORMAT_VERSION {
            return Err(GroundTruthError::UnsupportedVersion(version));
        }
        // payload = [fingerprint | k | m | ids | dists]; the file ends with
        // the payload checksum.
        if bytes.len() < header + 24 + 8 {
            return Err(GroundTruthError::Truncated);
        }
        let payload = &bytes[header..bytes.len() - 8];
        let stored_sum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().unwrap());
        if pg_store::checksum(payload) != stored_sum {
            return Err(GroundTruthError::ChecksumMismatch);
        }
        let fingerprint = u64::from_le_bytes(payload[..8].try_into().unwrap());
        let k = u64::from_le_bytes(payload[8..16].try_into().unwrap()) as usize;
        let m = u64::from_le_bytes(payload[16..24].try_into().unwrap()) as usize;
        if k == 0 || m == 0 {
            return Err(GroundTruthError::Invalid("k and m must be >= 1".into()));
        }
        let cells = k
            .checked_mul(m)
            .ok_or_else(|| GroundTruthError::Invalid("k * m overflows".into()))?;
        let body = &payload[24..];
        let expected = cells
            .checked_mul(12)
            .ok_or_else(|| GroundTruthError::Invalid("payload size overflows".into()))?;
        match body.len().cmp(&expected) {
            std::cmp::Ordering::Less => return Err(GroundTruthError::Truncated),
            std::cmp::Ordering::Greater => {
                return Err(GroundTruthError::Invalid("trailing payload bytes".into()))
            }
            std::cmp::Ordering::Equal => {}
        }
        if fingerprint != expected_fingerprint {
            return Err(GroundTruthError::FingerprintMismatch);
        }
        let ids: Vec<u32> = body[..cells * 4]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let dists: Vec<f64> = body[cells * 4..]
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
            .collect();
        for (q, row) in dists.chunks_exact(k).enumerate() {
            if row.iter().any(|d| !d.is_finite() || *d < 0.0) {
                return Err(GroundTruthError::Invalid(format!(
                    "non-finite or negative distance in row {q}"
                )));
            }
            if row.windows(2).any(|w| w[0] > w[1]) {
                return Err(GroundTruthError::Invalid(format!(
                    "row {q} is not ascending"
                )));
            }
        }
        Ok(GroundTruth { k, m, ids, dists })
    }

    /// Writes the cache file (see [`GroundTruth::to_bytes`]).
    pub fn save(&self, path: impl AsRef<Path>, fingerprint: u64) -> Result<(), GroundTruthError> {
        std::fs::write(path, self.to_bytes(fingerprint))?;
        Ok(())
    }

    /// Reads a cache file and validates it against `expected_fingerprint`
    /// (see [`GroundTruth::from_bytes`]).
    pub fn load(
        path: impl AsRef<Path>,
        expected_fingerprint: u64,
    ) -> Result<Self, GroundTruthError> {
        let bytes = std::fs::read(path)?;
        GroundTruth::from_bytes(&bytes, expected_fingerprint)
    }

    /// The cache entry point the sweeps use: load `path` if it holds valid
    /// ground truth for exactly this `(data, queries, metric, k)` workload
    /// (the [`fingerprint`] decides), otherwise compute it fresh and rewrite
    /// the cache. Any load failure — missing file, corruption, old format
    /// version, stale fingerprint — falls back to recomputation; only a
    /// failure to *write* the fresh result is an error.
    ///
    /// The metric must carry a stable on-disk identity
    /// ([`SnapshotMetric`]), which keys the fingerprint; wrap-free `L_p`
    /// metrics qualify, `Counting` deliberately does not (instrument the
    /// computation by wrapping the dataset instead).
    pub fn compute_or_load<P, M>(
        path: impl AsRef<Path>,
        data: &Dataset<P, M>,
        queries: &[P],
        k: usize,
    ) -> Result<(Self, CacheStatus), GroundTruthError>
    where
        P: AsRef<[f64]> + Sync,
        M: Metric<P> + SnapshotMetric + Sync,
    {
        let fp = fingerprint(data.points(), queries, M::TAG.code(), k);
        if let Ok(gt) = GroundTruth::load(&path, fp) {
            return Ok((gt, CacheStatus::Hit));
        }
        let gt = GroundTruth::compute(data, queries, k);
        if let Some(parent) = path.as_ref().parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        gt.save(&path, fp)?;
        Ok((gt, CacheStatus::Miss))
    }

    /// Exact ground truth for a seeded sample of the query set — the
    /// million-point escape hatch: at `n = 10^6`, full ground truth for
    /// thousands of queries costs billions of distance computations, but
    /// recall estimated on a few hundred sampled queries already has a
    /// standard error below a percentage point. Returns the truth plus the
    /// **ascending** sampled indices ([`sample_indices`]) so callers can
    /// line their own answers up against it.
    pub fn compute_sampled<P: Sync + Clone, M: Metric<P> + Sync>(
        data: &Dataset<P, M>,
        queries: &[P],
        k: usize,
        sample_seed: u64,
        sample_count: usize,
    ) -> (Self, Vec<usize>) {
        let picked = sample_indices(queries.len(), sample_count, sample_seed);
        let sampled: Vec<P> = picked.iter().map(|&i| queries[i].clone()).collect();
        (GroundTruth::compute(data, &sampled, k), picked)
    }

    /// [`GroundTruth::compute_or_load`] for a sampled query set: the cache
    /// file reuses the `PGGTSNAP` format verbatim (with `m` = sample
    /// count), keyed by [`fingerprint_sampled`] — the sample seed and
    /// count are folded into the fingerprint, so a cache computed for a
    /// different sample, a different full query set, or the *unsampled*
    /// workload is structurally impossible to serve. Same fallback rules
    /// as the full-truth entry point.
    pub fn compute_or_load_sampled<P, M>(
        path: impl AsRef<Path>,
        data: &Dataset<P, M>,
        queries: &[P],
        k: usize,
        sample_seed: u64,
        sample_count: usize,
    ) -> Result<(Self, Vec<usize>, CacheStatus), GroundTruthError>
    where
        P: AsRef<[f64]> + Sync + Clone,
        M: Metric<P> + SnapshotMetric + Sync,
    {
        let fp = fingerprint_sampled(
            data.points(),
            queries,
            M::TAG.code(),
            k,
            sample_seed,
            sample_count,
        );
        let picked = sample_indices(queries.len(), sample_count, sample_seed);
        if let Ok(gt) = GroundTruth::load(&path, fp) {
            return Ok((gt, picked, CacheStatus::Hit));
        }
        let sampled: Vec<P> = picked.iter().map(|&i| queries[i].clone()).collect();
        let gt = GroundTruth::compute(data, &sampled, k);
        if let Some(parent) = path.as_ref().parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        gt.save(&path, fp)?;
        Ok((gt, picked, CacheStatus::Miss))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_metric::{Euclidean, FlatPoints, FlatRow};

    fn grid(n: usize) -> Dataset<FlatRow, Euclidean> {
        FlatPoints::from_fn(n, 2, |i, out| {
            out.push((i % 8) as f64);
            out.push((i / 8) as f64);
        })
        .into_dataset(Euclidean)
    }

    fn queries() -> Vec<FlatRow> {
        (0..6)
            .map(|i| FlatRow::from(vec![i as f64 * 1.3, 2.0 - i as f64 * 0.4]))
            .collect()
    }

    #[test]
    fn compute_matches_k_nearest_brute_per_query() {
        let ds = grid(40);
        let qs = queries();
        let gt = GroundTruth::compute(&ds, &qs, 5);
        assert_eq!(gt.k(), 5);
        assert_eq!(gt.queries(), qs.len());
        for (i, q) in qs.iter().enumerate() {
            let want = ds.k_nearest_brute(q, 5);
            let ids: Vec<u32> = want.iter().map(|&(id, _)| id as u32).collect();
            let dists: Vec<f64> = want.iter().map(|&(_, d)| d).collect();
            assert_eq!(gt.ids_for(i), &ids[..]);
            assert_eq!(gt.dists_for(i), &dists[..]);
            assert_eq!(gt.threshold(i), dists[4]);
            assert_eq!(gt.nearest_dist(i), dists[0]);
        }
    }

    #[test]
    fn compute_is_thread_count_invariant() {
        let ds = grid(50);
        let qs = queries();
        let one = rayon::with_threads(1, || GroundTruth::compute(&ds, &qs, 4));
        let machine = std::thread::available_parallelism().map_or(1, |t| t.get());
        for threads in [2, machine] {
            let t = rayon::with_threads(threads, || GroundTruth::compute(&ds, &qs, 4));
            assert_eq!(one, t, "diverged at {threads} threads");
        }
    }

    #[test]
    fn bytes_round_trip_and_every_corruption_is_typed() {
        let ds = grid(30);
        let qs = queries();
        let gt = GroundTruth::compute(&ds, &qs, 3);
        let fp = fingerprint(ds.points(), &qs, 0, 3);
        let bytes = gt.to_bytes(fp);
        assert_eq!(GroundTruth::from_bytes(&bytes, fp).unwrap(), gt);

        // Wrong magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            GroundTruth::from_bytes(&bad, fp),
            Err(GroundTruthError::BadMagic)
        ));
        // Future version.
        let mut bad = bytes.clone();
        bad[8..12].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            GroundTruth::from_bytes(&bad, fp),
            Err(GroundTruthError::UnsupportedVersion(9))
        ));
        // Every truncation point fails with a typed error, never a panic.
        for cut in 0..bytes.len() {
            assert!(
                GroundTruth::from_bytes(&bytes[..cut], fp).is_err(),
                "truncation at {cut} was accepted"
            );
        }
        // Every payload byte flip is caught by the checksum.
        for i in 12..bytes.len() - 8 {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(matches!(
                GroundTruth::from_bytes(&bad, fp),
                Err(GroundTruthError::ChecksumMismatch)
            ));
        }
        // A fingerprint for a different workload is rejected.
        assert!(matches!(
            GroundTruth::from_bytes(&bytes, fp ^ 1),
            Err(GroundTruthError::FingerprintMismatch)
        ));
    }

    #[test]
    fn fingerprint_matches_pg_store_checksum_constants() {
        // The shared incremental hasher must agree with the store's
        // one-shot function: fold the same byte stream both ways.
        let stream: Vec<u8> = (0u16..500).flat_map(|x| x.to_le_bytes()).collect();
        let mut inc = pg_store::Fnv64::new();
        inc.update(&stream[..123]);
        inc.update(&stream[123..]);
        assert_eq!(inc.finish(), pg_store::checksum(&stream));
    }

    #[test]
    fn fingerprint_is_sensitive_to_every_input() {
        let ds = grid(20);
        let qs = queries();
        let base = fingerprint(ds.points(), &qs, 0, 3);
        assert_ne!(base, fingerprint(ds.points(), &qs, 1, 3), "metric code");
        assert_ne!(base, fingerprint(ds.points(), &qs, 0, 4), "k");
        assert_ne!(base, fingerprint(qs.as_slice(), &qs, 0, 3), "points");
        let fewer = &qs[..5];
        assert_ne!(base, fingerprint(ds.points(), fewer, 0, 3), "queries");
        // Swapping the roles of points and queries must not collide.
        let swapped = fingerprint(&qs, ds.points(), 0, 3);
        assert_ne!(base, swapped, "points/queries domain separation");
    }

    #[test]
    fn compute_or_load_misses_then_hits_then_detects_staleness() {
        let dir = std::env::temp_dir().join(format!("pg_eval_gt_test_{}", std::process::id()));
        let path = dir.join("gt.pggt");
        let ds = grid(25);
        let qs = queries();
        let (first, st1) = GroundTruth::compute_or_load(&path, &ds, &qs, 2).unwrap();
        assert_eq!(st1, CacheStatus::Miss);
        let (second, st2) = GroundTruth::compute_or_load(&path, &ds, &qs, 2).unwrap();
        assert_eq!(st2, CacheStatus::Hit);
        assert_eq!(first, second);
        // A different k is a different workload: the stale file is replaced.
        let (third, st3) = GroundTruth::compute_or_load(&path, &ds, &qs, 3).unwrap();
        assert_eq!(st3, CacheStatus::Miss);
        assert_eq!(third.k(), 3);
        // And the rewritten cache now hits for the new workload.
        let (_, st4) = GroundTruth::compute_or_load(&path, &ds, &qs, 3).unwrap();
        assert_eq!(st4, CacheStatus::Hit);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "exceeds the dataset size")]
    fn compute_rejects_oversized_k() {
        let ds = grid(4);
        let _ = GroundTruth::compute(&ds, &queries(), 5);
    }

    #[test]
    fn sample_indices_are_a_deterministic_ascending_subset() {
        let picked = sample_indices(100, 17, 9);
        assert_eq!(picked, sample_indices(100, 17, 9), "same seed, same sample");
        assert_ne!(picked, sample_indices(100, 17, 10), "seed changes sample");
        assert_eq!(picked.len(), 17);
        assert!(
            picked.windows(2).all(|w| w[0] < w[1]),
            "ascending, distinct"
        );
        assert!(picked.iter().all(|&i| i < 100), "in range");
        // Sampling everything is the identity.
        assert_eq!(sample_indices(6, 6, 3), vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn compute_sampled_is_full_truth_restricted_to_the_sample() {
        let ds = grid(40);
        let qs = queries();
        let full = GroundTruth::compute(&ds, &qs, 4);
        let (sampled, picked) = GroundTruth::compute_sampled(&ds, &qs, 4, 7, 3);
        assert_eq!(sampled.queries(), 3);
        for (row, &q) in picked.iter().enumerate() {
            assert_eq!(sampled.ids_for(row), full.ids_for(q));
            assert_eq!(sampled.dists_for(row), full.dists_for(q));
        }
    }

    #[test]
    fn sampled_and_full_fingerprints_never_collide() {
        let ds = grid(30);
        let qs = queries();
        let full = fingerprint(ds.points(), &qs, 0, 3);
        let sampled = fingerprint_sampled(ds.points(), &qs, 0, 3, 0, qs.len());
        // Even a sample of *all* queries keys a different cache than the
        // full truth: the GTSAMPLE domain tag separates them.
        assert_ne!(full, sampled, "sampled/full domain separation");
        // Seed and count each key their own cache.
        assert_ne!(
            sampled,
            fingerprint_sampled(ds.points(), &qs, 0, 3, 1, qs.len()),
            "sample seed"
        );
        assert_ne!(
            sampled,
            fingerprint_sampled(ds.points(), &qs, 0, 3, 0, qs.len() - 1),
            "sample count"
        );
        // And the full-workload inputs still matter.
        assert_ne!(
            sampled,
            fingerprint_sampled(ds.points(), &qs, 1, 3, 0, qs.len()),
            "metric code"
        );
        assert_ne!(
            sampled,
            fingerprint_sampled(ds.points(), &qs[..5], 0, 3, 0, 5),
            "full query set"
        );
    }

    #[test]
    fn sampled_cache_every_corruption_is_typed() {
        let ds = grid(30);
        let qs = queries();
        let (gt, _) = GroundTruth::compute_sampled(&ds, &qs, 3, 5, 4);
        let fp = fingerprint_sampled(ds.points(), &qs, 0, 3, 5, 4);
        let bytes = gt.to_bytes(fp);
        assert_eq!(GroundTruth::from_bytes(&bytes, fp).unwrap(), gt);

        // Every truncation point fails with a typed error, never a panic.
        for cut in 0..bytes.len() {
            assert!(
                GroundTruth::from_bytes(&bytes[..cut], fp).is_err(),
                "truncation at {cut} was accepted"
            );
        }
        // Every payload byte flip is caught by the checksum.
        for i in 12..bytes.len() - 8 {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(matches!(
                GroundTruth::from_bytes(&bad, fp),
                Err(GroundTruthError::ChecksumMismatch)
            ));
        }
        // A full-truth reader rejects a sampled cache outright.
        let full_fp = fingerprint(ds.points(), &qs, 0, 3);
        assert!(matches!(
            GroundTruth::from_bytes(&bytes, full_fp),
            Err(GroundTruthError::FingerprintMismatch)
        ));
    }

    #[test]
    fn compute_or_load_sampled_misses_hits_and_reseeds() {
        let dir =
            std::env::temp_dir().join(format!("pg_eval_gt_sampled_test_{}", std::process::id()));
        let path = dir.join("gt_sampled.pggt");
        let ds = grid(25);
        let qs = queries();
        let (first, idx1, st1) =
            GroundTruth::compute_or_load_sampled(&path, &ds, &qs, 2, 3, 4).unwrap();
        assert_eq!(st1, CacheStatus::Miss);
        let (second, idx2, st2) =
            GroundTruth::compute_or_load_sampled(&path, &ds, &qs, 2, 3, 4).unwrap();
        assert_eq!(st2, CacheStatus::Hit);
        assert_eq!(first, second);
        assert_eq!(idx1, idx2);
        // A different sample seed is a different workload: miss + rewrite.
        let (_, idx3, st3) =
            GroundTruth::compute_or_load_sampled(&path, &ds, &qs, 2, 4, 4).unwrap();
        assert_eq!(st3, CacheStatus::Miss);
        assert_ne!(idx1, idx3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
