//! Pieces every workload shares: the workload table, seeded inputs, the
//! correctness gate, and the report the run prints.

use std::path::PathBuf;

use pg_core::search::BeamOutcome;
use pg_eval::{recall_at_k, GroundTruth};
use pg_metric::{Dataset, Euclidean, FlatPoints, FlatRow};

use crate::stats::{self, Summary};

/// `G_net`'s ε on every workload.
pub const EPSILON: f64 = 1.0;
/// Times the index is set up per run; `setup_s` is their median.
pub const SETUPS: usize = 3;
/// Query-set size on every workload.
pub const QUERIES: usize = 2000;
/// Perturbation of the near-data query model (`perturbed_queries_flat`).
pub const QUERY_SIGMA: f64 = 0.5;
/// Latency samples per window, so each window's p99 has 10 samples beyond
/// it.
pub const LATENCY_WINDOW: usize = 1000;

/// One workload's fixed shape; only the seed varies between runs.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name as given to `--workload`.
    pub name: &'static str,
    /// Indexed points.
    pub n: usize,
    /// Dimensionality.
    pub d: usize,
    /// Shards (1: a single `QueryEngine`).
    pub shards: usize,
    /// Beam width.
    pub ef: usize,
    /// Results per query.
    pub k: usize,
    /// Served over TCP by `pg_serve` (closed loop) instead of batched.
    pub served: bool,
    /// Generates the `n × d` points from the seed.
    pub points: fn(&Spec, u64) -> FlatPoints,
}

impl Spec {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Spec> {
        match name {
            "shard-2d" => Some(Spec {
                name: "shard-2d",
                n: 100_000,
                d: 2,
                shards: 4,
                ef: 32,
                k: 10,
                served: false,
                points: |s, seed| {
                    pg_workloads::gaussian_clusters_flat(s.n, s.d, 16, 1.0, 100.0, seed)
                },
            }),
            "roll-128d" => Some(Spec {
                name: "roll-128d",
                n: 10_000,
                d: 128,
                shards: 1,
                ef: 32,
                k: 10,
                served: false,
                points: |s, seed| pg_workloads::swiss_roll_flat(s.n, s.d, seed),
            }),
            "serve-3d" => Some(Spec {
                name: "serve-3d",
                n: 5_000,
                d: 3,
                shards: 1,
                ef: 16,
                k: 10,
                served: true,
                points: |s, seed| {
                    pg_workloads::uniform_cube_flat(s.n, s.d, (s.n as f64).sqrt() * 4.0, seed)
                },
            }),
            _ => None,
        }
    }
}

/// Worker threads for every parallel call: the machine's, capped at 2.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |t| t.get().min(2))
}

/// Per-seed derived seeds, so data, queries and shard assignment are
/// independent streams.
pub fn query_seed(seed: u64) -> u64 {
    seed ^ 0x5EED_0F9E_7A00_0001
}

/// The shard-assignment seed.
pub fn assign_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(7)
}

/// A workload's generated inputs and their exact ground truth (neither is
/// part of any timed figure).
pub struct Inputs {
    /// The indexed points.
    pub points: FlatPoints,
    /// The same points as one dataset, for the distance check.
    pub data: Dataset<FlatRow, Euclidean>,
    /// The query set.
    pub queries: Vec<FlatRow>,
    /// Exact `k`-NN of every query.
    pub truth: GroundTruth,
}

impl Inputs {
    /// Generates the workload's points and queries from `seed`.
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let points = (spec.points)(spec, seed);
        let queries =
            pg_workloads::perturbed_queries_flat(&points, QUERIES, QUERY_SIGMA, query_seed(seed))
                .into_rows();
        let data = points.clone().into_dataset(Euclidean);
        let truth = GroundTruth::compute(&data, &queries, spec.k);
        Inputs {
            points,
            data,
            queries,
            truth,
        }
    }
}

/// What the correctness gate found over one set of answers.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    /// Queries whose answer broke a check.
    pub failed: u64,
    /// Mean recall@k against the exact ground truth.
    pub recall: f64,
}

/// Checks one answer per query: exactly `k` results, ascending by
/// `(distance, id)`, every distance bit-identical to `Dataset::dist` of
/// its id, and scores recall against the ground truth.
pub fn check_answers(inputs: &Inputs, outcomes: &[BeamOutcome], k: usize) -> Gate {
    assert_eq!(
        outcomes.len(),
        inputs.queries.len(),
        "one outcome per query"
    );
    let mut failed = 0;
    let mut recall = 0.0;
    for (q, out) in outcomes.iter().enumerate() {
        let problem = answer_problem(inputs, q, &out.results, k);
        if let Some(p) = problem {
            if failed < 5 {
                eprintln!("correctness: query {q}: {p}");
            }
            failed += 1;
        }
        recall += recall_at_k(&inputs.truth, q, &out.results);
    }
    Gate {
        failed,
        recall: recall / outcomes.len() as f64,
    }
}

fn answer_problem(inputs: &Inputs, q: usize, results: &[(u32, f64)], k: usize) -> Option<String> {
    if results.len() != k {
        return Some(format!("{} results, expected {k}", results.len()));
    }
    if let Some(w) = results
        .windows(2)
        .find(|w| w[0].1.total_cmp(&w[1].1).then(w[0].0.cmp(&w[1].0)).is_ge())
    {
        return Some(format!("results out of order at {:?}", w));
    }
    for &(id, dist) in results {
        if id as usize >= inputs.data.len() {
            return Some(format!("id {id} out of range"));
        }
        let exact = inputs.data.dist_to(id as usize, &inputs.queries[q]);
        if exact.to_bits() != dist.to_bits() {
            return Some(format!("id {id}: reported {dist}, Dataset::dist {exact}"));
        }
    }
    None
}

/// Sets the index up [`SETUPS`] times with `setup` and reports the median
/// as `setup_s`; returns the last one. Each earlier result is dropped
/// before the next set-up starts, so they never hold memory together.
pub fn timed_setups<T>(
    what: &str,
    report: &mut Report,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = std::time::Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let s = Summary::of(&times);
    report.metric(
        "setup_s",
        s.median,
        "s",
        format!("median of {} {what} ({times:.3?} s)", s.n),
    );
    Ok(last.expect("SETUPS >= 1"))
}

/// `p50_us` of latencies in time order: the interquartile mean over
/// windows of [`LATENCY_WINDOW`] consecutive samples of each window's
/// median (the pooled median when there is no full window).
pub fn p50_us(latency_us: &[f64]) -> f64 {
    stats::window_percentiles(latency_us, LATENCY_WINDOW, 50.0).map_or_else(
        || Summary::of(latency_us).median,
        |medians| stats::interquartile_mean(&medians),
    )
}

/// Reports `p50_us` for latencies in time order: the median of each window
/// of [`LATENCY_WINDOW`] consecutive samples, averaged over the windows by
/// their interquartile mean. Its note carries the sample count and the
/// tail: the median over windows of each window's p99 (10 samples beyond
/// it), and the highest percentile the pooled sample supports. The tail is
/// printed, not a bounded metric: on a shared 2-vCPU host it follows thread
/// wake-up latency, which moves with the host's load far more than the
/// median does (`README.md`). Fewer samples than one window is a failed
/// run.
pub fn latency_metrics(latency_us: &[f64], what: &str, report: &mut Report) {
    let pooled = Summary::of(latency_us);
    let Some(tails) = stats::window_percentiles(latency_us, LATENCY_WINDOW, 99.0) else {
        eprintln!(
            "only {} latency samples, fewer than one window of {LATENCY_WINDOW}",
            pooled.n
        );
        report.ops(0, 1);
        return;
    };
    let tail = pooled
        .tail
        .map_or(String::new(), |(p, v)| format!(", pooled p{p} = {v:.1} us"));
    report.metric(
        "p50_us",
        p50_us(latency_us),
        "us",
        format!(
            "{what}, n = {} in {} windows of {LATENCY_WINDOW}; p99 = {:.1} us (median over windows){tail}",
            pooled.n,
            tails.len(),
            Summary::of(&tails).median
        ),
    );
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Scratch directory for this run's snapshots and span log, under the
/// directory the benchmark runs from. Created empty.
pub fn out_dir(spec: &Spec, seed: u64) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from("perfbench/out").join(format!(
        "{}-seed{seed}-{}",
        spec.name,
        std::process::id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Microseconds in a duration.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Adds the metrics every plain run reports last and removes the run's
/// scratch files.
pub fn finish(report: &mut Report, out: &std::path::Path) -> Result<(), String> {
    if !report.traced() {
        let rss = peak_rss_mb().ok_or("VmHWM missing from /proc/self/status")?;
        report.metric("peak_rss_mb", rss, "MB", "VmHWM of this run");
        let success = 1.0 - report.failed() as f64 / report.attempted() as f64;
        report.metric(
            "success_rate",
            success,
            "ratio",
            format!("1 - error_rate over {} operations", report.attempted()),
        );
    }
    std::fs::remove_dir_all(out).map_err(|e| format!("removing {}: {e}", out.display()))
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

/// The metrics a run reports, plus its operation counts.
pub struct Report {
    workload: &'static str,
    traced: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static str, traced: bool) -> Self {
        Report {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    /// Counts `attempted` operations of which `failed` went wrong.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Operations that failed so far.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Whether this is the traced (per-layer) run.
    pub fn traced(&self) -> bool {
        self.traced
    }

    /// Operations attempted so far.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Adds a metric. `note` says how it was measured (sample count etc.).
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Prints the human-readable table, then the JSON result as the last
    /// line of standard output.
    pub fn print(&self) {
        let kind = if self.traced {
            "per-layer"
        } else {
            "end-to-end"
        };
        println!("\n{kind} metrics, workload {}:", self.workload);
        let width = self.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
        for m in &self.metrics {
            println!(
                "  {:<width$}  {:>14} {:<6} {}",
                m.name,
                format!("{:.4}", m.value),
                m.unit,
                m.note
            );
        }
        let error_rate = if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "  error_rate = {} ({} failed of {} attempted operations)",
            error_rate, self.failed, self.attempted
        );
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}
