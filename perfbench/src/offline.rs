//! The offline workloads (`shard-2d`, `roll-128d`): the whole query set goes
//! through one `batch_beam_detailed` call per pass at the benchmark's
//! thread count, and single queries go through the same call one at a time
//! for the latency figures.

use std::time::{Duration, Instant};

use pg_core::{BatchBeamDetail, GNet, QueryEngine, ShardAssignment, ShardedEngine};
use pg_metric::{Euclidean, FlatRow};

use crate::common::{self, Inputs, Report, Spec, EPSILON};
use crate::layers;
use crate::stats::{self, Series, Summary};
use crate::trace::{Tracer, NO_REQUEST};

/// Single-query time per round, as a share of the round's batch pass: a
/// third of each run times single queries, two thirds whole batches, and
/// both are spread over the whole run.
const LATENCY_PER_PASS: f64 = 0.5;
/// Fewest timed passes a run accepts, after the discarded warm-up pass.
const MIN_PASSES: usize = 3;
/// Single-query calls discarded before latency samples are kept.
const LATENCY_WARMUP: usize = 50;
/// Fewest latency windows a run accepts.
const MIN_LATENCY_WINDOWS: usize = 3;

/// The index an offline workload searches.
pub enum Index {
    /// One `QueryEngine`, every query entered at vertex 0.
    Single(QueryEngine<FlatRow, Euclidean>, Vec<u32>),
    /// A `ShardedEngine` (each shard entered at its local vertex 0).
    Sharded(ShardedEngine<Euclidean>),
}

impl Index {
    /// Wraps a single engine.
    pub fn single(engine: QueryEngine<FlatRow, Euclidean>) -> Index {
        Index::Single(engine, vec![0; common::QUERIES])
    }

    /// The library call an offline workload times.
    pub fn search(&self, queries: &[FlatRow], ef: usize, k: usize) -> BatchBeamDetail {
        match self {
            Index::Single(engine, starts) => {
                engine.batch_beam_detailed(&starts[..queries.len()], queries, ef, k)
            }
            Index::Sharded(engine) => engine.batch_beam_detailed(queries, ef, k),
        }
    }

    /// The engines that hold the graph (one per shard).
    pub fn shards(&self) -> &[QueryEngine<FlatRow, Euclidean>] {
        match self {
            Index::Single(engine, _) => std::slice::from_ref(engine),
            Index::Sharded(engine) => engine.shards(),
        }
    }
}

/// Builds the index the way a user would: one call to the library's
/// constructor.
fn build(spec: &Spec, inputs: &Inputs, seed: u64) -> Index {
    let threads = common::threads();
    if spec.shards > 1 {
        let assignment = ShardAssignment::SeededRandom {
            seed: common::assign_seed(seed),
        };
        Index::Sharded(
            ShardedEngine::build(&inputs.points, Euclidean, EPSILON, spec.shards, &assignment)
                .with_threads(threads),
        )
    } else {
        let data = inputs.points.clone().into_dataset(Euclidean);
        let graph = GNet::build_fast(&data, EPSILON).graph;
        Index::single(QueryEngine::new(graph, data).with_threads(threads))
    }
}

/// What the timed phase of one offline run measured.
pub struct E2e {
    /// Wall time of each whole-batch pass after the warm-up, seconds.
    pub pass_s: Vec<f64>,
    /// Round trip of each single-query call, microseconds, in time order.
    pub latency_us: Vec<f64>,
}

impl E2e {
    /// Wall time of one whole-batch pass: the interquartile mean.
    pub fn pass_wall_s(&self) -> f64 {
        stats::interquartile_mean(&self.pass_s)
    }

    /// Queries per second over whole-batch passes.
    pub fn qps(&self, m: usize) -> f64 {
        m as f64 / self.pass_wall_s()
    }
}

/// The timed phase: rounds of one whole-batch pass followed by
/// single-query calls, every answer compared with the gate's. Spans go to
/// `tracer` when it records.
pub fn measure(
    spec: &Spec,
    inputs: &Inputs,
    index: &Index,
    expected: &BatchBeamDetail,
    seconds: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> E2e {
    let m = inputs.queries.len();
    let budget = Duration::from_secs_f64(seconds);
    let mut passes = Series::new(1);
    let mut latency = Series::new(LATENCY_WARMUP);
    let t0 = Instant::now();
    let mut i = 0;
    while t0.elapsed() < budget
        || passes.len() < MIN_PASSES
        || latency.len() < MIN_LATENCY_WINDOWS * common::LATENCY_WINDOW
    {
        let span = tracer.begin("offline.batch_pass", None, NO_REQUEST);
        let t = Instant::now();
        let got = index.search(&inputs.queries, spec.ef, spec.k);
        let wall = t.elapsed();
        tracer.end(span);
        passes.push(wall.as_secs_f64());
        let wrong = got
            .outcomes
            .iter()
            .zip(&expected.outcomes)
            .filter(|(a, b)| a != b)
            .count();
        report.ops(m as u64, wrong as u64);

        let until = Instant::now() + wall.mul_f64(LATENCY_PER_PASS);
        while Instant::now() < until {
            let q = i % m;
            let span = tracer.begin("offline.single_query", None, q as u64);
            let t = Instant::now();
            let got = index.search(&inputs.queries[q..=q], spec.ef, spec.k);
            let lat = common::us(t.elapsed());
            tracer.end(span);
            latency.push(lat);
            report.ops(1, u64::from(got.outcomes[0] != expected.outcomes[q]));
            i += 1;
        }
    }
    E2e {
        pass_s: passes.samples().to_vec(),
        latency_us: latency.samples().to_vec(),
    }
}

/// Runs one offline workload and fills `report`.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    report: &mut Report,
) -> Result<(), String> {
    let inputs = Inputs::generate(spec, seed);
    let m = inputs.queries.len();
    let mut tracer = Tracer::new(trace);
    let out = common::out_dir(spec, seed).map_err(|e| format!("creating output dir: {e}"))?;

    let (index, setup) = if trace {
        let (index, built) = layers::build_traced(spec, &inputs, seed, &out, &mut tracer)?;
        (index, Some(built))
    } else {
        let index =
            common::timed_setups("index builds", report, || Ok(build(spec, &inputs, seed)))?;
        (index, None)
    };

    // Correctness gate, before anything is timed.
    let expected = index.search(&inputs.queries, spec.ef, spec.k);
    let gate = common::check_answers(&inputs, &expected.outcomes, spec.k);
    report.ops(m as u64, gate.failed);
    println!(
        "correctness gate: {} of {m} answers pass (k = {}, ascending, distances bit-identical \
         to Dataset::dist), recall@{} = {:.4}",
        m as u64 - gate.failed,
        spec.k,
        spec.k,
        gate.recall
    );
    if gate.failed > 0 {
        return common::finish(report, &out);
    }

    if !trace {
        let e2e = measure(
            spec,
            &inputs,
            &index,
            &expected,
            seconds,
            &mut tracer,
            report,
        );
        e2e_metrics(&e2e, m, gate.recall, report);
        return common::finish(report, &out);
    }

    let plain = measure(
        spec,
        &inputs,
        &index,
        &expected,
        seconds / 2.0,
        &mut Tracer::new(false),
        report,
    );
    let traced = measure(
        spec,
        &inputs,
        &index,
        &expected,
        seconds / 2.0,
        &mut tracer,
        report,
    );
    let p50_us = common::p50_us(&plain.latency_us);
    layers::print_overhead(
        (plain.qps(m), traced.qps(m)),
        (p50_us, common::p50_us(&traced.latency_us)),
    );
    layers::measure_offline(
        spec,
        &inputs,
        seed,
        &index,
        &expected,
        &setup.expect("the traced run builds through the layers"),
        plain.pass_wall_s(),
        p50_us,
        &mut tracer,
        report,
    )?;
    layers::finish_trace(spec, seed, &tracer, (plain.qps(m), traced.qps(m)), report)?;
    common::finish(report, &out)
}

fn e2e_metrics(e2e: &E2e, m: usize, recall: f64, report: &mut Report) {
    report.metric(
        "qps",
        e2e.qps(m),
        "1/s",
        format!(
            "{m} queries over the interquartile mean of {} whole-batch passes (IQR {:.1}%)",
            e2e.pass_s.len(),
            100.0 * Summary::of(&e2e.pass_s).rel_iqr()
        ),
    );
    common::latency_metrics(&e2e.latency_us, "single-query call", report);
    report.metric(
        "recall_at_10",
        recall,
        "ratio",
        format!("mean over {m} queries"),
    );
}
