//! The `serve-3d` workload: a `G_net` snapshot saved through `pg_store`,
//! registered from its file and served by an in-process `pg_serve::Server`
//! with the default configuration, under a closed loop of one `Client`
//! connection with one outstanding query and no think time.
//!
//! One connection, not two: on a 2-vCPU machine two in-process clients
//! plus their two handler threads and the batcher oversubscribe the CPUs,
//! and the run-to-run spread of `qps` and of p99 latency then exceeded any
//! usable bound (see `README.md`). The correctness gate still drives two
//! concurrent connections, so coalesced execution is checked.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pg_core::search::BeamOutcome;
use pg_core::{AnyEngine, BatchBeamDetail, GNet, QueryEngine};
use pg_metric::Euclidean;
use pg_serve::{BatcherStats, Client, IndexRegistry, QueryReply, ServeConfig, Server};
use pg_store::shard_file_name;

use crate::common::{self, Inputs, Report, Spec, EPSILON};
use crate::layers::{self, INDEX};
use crate::stats::{self, Series, Summary};
use crate::trace::Tracer;

/// Load-generating connections (one outstanding request each).
const CLIENTS: usize = 1;
/// Concurrent connections in the correctness gate.
const GATE_CLIENTS: usize = 2;
/// Closed-loop time discarded before samples are kept.
const WARMUP: Duration = Duration::from_secs(1);
/// Throughput is counted per window; `qps` is the interquartile mean.
const WINDOW: Duration = Duration::from_millis(500);

/// `true` when a TCP reply is bit-identical to the direct engine's answer,
/// distance counts included.
fn same(reply: &QueryReply, want: &BeamOutcome) -> bool {
    reply.dist_comps == want.dist_comps
        && reply.expansions == want.expansions
        && reply.results.len() == want.results.len()
        && reply
            .results
            .iter()
            .zip(&want.results)
            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
}

/// Registers the snapshot at `path` and binds a server on it.
fn serve_from(path: &std::path::Path) -> Result<Server, String> {
    let registry = Arc::new(IndexRegistry::new());
    registry
        .register_from_path(INDEX, path)
        .map_err(|e| format!("registering {}: {e}", path.display()))?;
    Server::bind("127.0.0.1:0", registry, ServeConfig::default())
        .map_err(|e| format!("binding: {e}"))
}

/// Everything between generated points and a server ready for its first
/// query: build, save, register from the file, bind.
fn setup(inputs: &Inputs, path: &std::path::Path) -> Result<Server, String> {
    let data = inputs.points.clone().into_dataset(Euclidean);
    let graph = GNet::build_fast(&data, EPSILON).graph;
    QueryEngine::new(graph, data)
        .save(path)
        .map_err(|e| format!("saving {}: {e}", path.display()))?;
    serve_from(path)
}

/// One closed-loop phase's samples.
struct Load {
    latency_us: Vec<f64>,
    window_qps: Vec<f64>,
    stats: BatcherStats,
}

impl Load {
    /// Completed requests per second: the interquartile mean over windows.
    fn qps(&self) -> f64 {
        stats::interquartile_mean(&self.window_qps)
    }
}

/// Runs `CLIENTS` closed-loop connections for `WARMUP + measure`, keeping
/// the samples of requests sent after the warm-up. Every reply is compared
/// with the direct engine's answer.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    spec: &Spec,
    server: &Server,
    queries: &[Vec<f64>],
    expected: &[BeamOutcome],
    measure: Duration,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<Load, String> {
    let addr: SocketAddr = server.local_addr();
    let m = queries.len();
    let t0 = Instant::now();
    let end = WARMUP + measure;
    let (before, results) = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let mut tr = tracer.fork();
                s.spawn(move || -> Result<_, String> {
                    let mut client =
                        Client::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
                    let (mut lat, mut done) = (Vec::new(), Vec::new());
                    let (mut attempted, mut failed) = (0u64, 0u64);
                    let mut j = 0usize;
                    loop {
                        let sent = t0.elapsed();
                        if sent >= end {
                            break;
                        }
                        let qi = (c * m / CLIENTS + j) % m;
                        let req = ((c as u64) << 32) | j as u64;
                        let t = Instant::now();
                        let reply = tr.span("pg_serve.Client::query", None, req, || {
                            client.query(INDEX, &queries[qi], spec.ef as u32, spec.k as u32)
                        });
                        let took = common::us(t.elapsed());
                        if sent >= WARMUP {
                            lat.push(took);
                            done.push(t0.elapsed() - WARMUP);
                            attempted += 1;
                            failed += u64::from(!reply.is_ok_and(|r| same(&r, &expected[qi])));
                        }
                        j += 1;
                    }
                    Ok((lat, done, attempted, failed, tr))
                })
            })
            .collect();
        std::thread::sleep(WARMUP.saturating_sub(t0.elapsed()));
        let before = server.stats();
        let results: Vec<_> = workers
            .into_iter()
            .map(|w| w.join().expect("a load client panicked"))
            .collect();
        (before, results)
    });
    let after = server.stats();
    let windows = (measure.as_secs_f64() / WINDOW.as_secs_f64()).floor() as usize;
    let mut per_window = vec![0u64; windows.max(1)];
    let mut timed: Vec<(Duration, f64)> = Vec::new();
    for r in results {
        let (lat, done, attempted, failed, tr) = r?;
        report.ops(attempted, failed);
        for (&d, &l) in done.iter().zip(&lat) {
            let w = (d.as_secs_f64() / WINDOW.as_secs_f64()) as usize;
            if w < per_window.len() {
                per_window[w] += 1;
            }
            timed.push((d, l));
        }
        tracer.absorb(tr);
    }
    // Both clients' samples in completion order, for windowed percentiles.
    timed.sort_by_key(|&(d, _)| d);
    let latency_us = timed.into_iter().map(|(_, l)| l).collect();
    let qps: Vec<f64> = per_window
        .iter()
        .map(|&c| c as f64 / WINDOW.as_secs_f64())
        .collect();
    Ok(Load {
        latency_us,
        window_qps: qps,
        stats: BatcherStats {
            requests: after.requests - before.requests,
            batches: after.batches - before.batches,
            coalesced_batches: after.coalesced_batches - before.coalesced_batches,
            max_batch: after.max_batch,
            shed: after.shed - before.shed,
        },
    })
}

/// The correctness gate: the direct engine's answers pass the structural
/// checks, then every TCP reply — from one sequential client and from
/// `GATE_CLIENTS` concurrent ones — must be bit-identical to them.
fn gate(
    spec: &Spec,
    inputs: &Inputs,
    server: &Server,
    queries: &[Vec<f64>],
    expected: &BatchBeamDetail,
    report: &mut Report,
) -> Result<f64, String> {
    let m = queries.len();
    let checked = common::check_answers(inputs, &expected.outcomes, spec.k);
    report.ops(m as u64, checked.failed);
    let addr = server.local_addr();
    let run_client = |offset: usize| -> Result<u64, String> {
        let mut client = Client::connect(addr).map_err(|e| format!("connecting: {e}"))?;
        let mut failed = 0;
        for j in 0..m {
            let qi = (offset + j) % m;
            let reply = client.query(INDEX, &queries[qi], spec.ef as u32, spec.k as u32);
            failed += u64::from(!reply.is_ok_and(|r| same(&r, &expected.outcomes[qi])));
        }
        Ok(failed)
    };
    let sequential = run_client(0)?;
    report.ops(m as u64, sequential);
    let concurrent: Vec<Result<u64, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..GATE_CLIENTS)
            .map(|c| s.spawn(move || run_client(c * m / GATE_CLIENTS)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a gate client panicked"))
            .collect()
    });
    let mut concurrent_failed = 0;
    for r in concurrent {
        concurrent_failed += r?;
    }
    report.ops((GATE_CLIENTS * m) as u64, concurrent_failed);
    println!(
        "correctness gate: {} of {m} direct answers pass (k = {}, ascending, distances \
         bit-identical to Dataset::dist), recall@{} = {:.4}; TCP replies bit-identical to \
         AnyEngine::batch_beam_detailed: {} of {m} sequential, {} of {} concurrent",
        m as u64 - checked.failed,
        spec.k,
        spec.k,
        checked.recall,
        m as u64 - sequential,
        (GATE_CLIENTS * m) as u64 - concurrent_failed,
        GATE_CLIENTS * m
    );
    Ok(checked.recall)
}

/// Runs `serve-3d` and fills `report`.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    report: &mut Report,
) -> Result<(), String> {
    let inputs = Inputs::generate(spec, seed);
    let m = inputs.queries.len();
    let queries: Vec<Vec<f64>> = inputs.queries.iter().map(|q| q.coords().to_vec()).collect();
    let mut tracer = Tracer::new(trace);
    let out = common::out_dir(spec, seed).map_err(|e| format!("creating output dir: {e}"))?;

    let (server, path, traced) = if trace {
        let (index, built) = layers::build_traced(spec, &inputs, seed, &out, &mut tracer)?;
        let path = built.snapshot_dir.join(shard_file_name(0));
        (serve_from(&path)?, path, Some((index, built)))
    } else {
        let path = out.join("index.pgix");
        let server =
            common::timed_setups("build + save + register_from_path + bind", report, || {
                setup(&inputs, &path)
            })?;
        (server, path, None)
    };

    let (direct, meta) =
        AnyEngine::load(&path).map_err(|e| format!("loading {}: {e}", path.display()))?;
    let starts = vec![meta.entry_point; m];
    let expected = direct.batch_beam_detailed(&starts, &inputs.queries, spec.ef, spec.k);
    let recall = gate(spec, &inputs, &server, &queries, &expected, report)?;
    if report.failed() > 0 {
        drop(server);
        return common::finish(report, &out);
    }

    let Some((index, built)) = traced else {
        let load = closed_loop(
            spec,
            &server,
            &queries,
            &expected.outcomes,
            Duration::from_secs_f64(seconds),
            &mut tracer,
            report,
        )?;
        e2e_metrics(&load, recall, m, report);
        drop(server);
        return common::finish(report, &out);
    };

    let half = Duration::from_secs_f64(seconds / 2.0);
    let plain = closed_loop(
        spec,
        &server,
        &queries,
        &expected.outcomes,
        half,
        &mut Tracer::new(false),
        report,
    )?;
    let traced = closed_loop(
        spec,
        &server,
        &queries,
        &expected.outcomes,
        half,
        &mut tracer,
        report,
    )?;
    let p50_us = common::p50_us(&plain.latency_us);
    layers::print_overhead(
        (plain.qps(), traced.qps()),
        (p50_us, common::p50_us(&traced.latency_us)),
    );

    let live = server.registry().get(INDEX).expect("registered above");
    let (c, _) = layers::measure_common(
        spec,
        &inputs,
        seed,
        &built,
        &index,
        &expected,
        &live,
        server.local_addr(),
        &mut tracer,
        report,
    )?;
    layers::batcher_metrics(plain.stats, "the plain closed-loop phase", report);

    let mut walls = Series::new(1);
    for _ in 0..6 {
        let t = Instant::now();
        tracer.span(
            "pg_core.AnyEngine::batch_beam_detailed",
            None,
            crate::trace::NO_REQUEST,
            || direct.batch_beam_detailed(&starts, &inputs.queries, spec.ef, spec.k),
        );
        walls.push(t.elapsed().as_secs_f64());
    }
    let threads = common::threads();
    report.metric(
        "pg_core.engine.batch_efficiency",
        c.query_us * m as f64 / (threads as f64 * walls.summary().median * 1e6),
        "ratio",
        format!(
            "sequential query time / ({threads} threads x median batch wall of the loaded engine)"
        ),
    );
    let sum = c.query_us + c.handoff_us + c.protocol_us + c.ping_us;
    report.metric(
        "pg_serve.residual_us",
        p50_us - sum,
        "us",
        "p50_us - (query_us + handoff_us + protocol + ping_us)",
    );
    println!(
        "reconciliation: client p50 {p50_us:.1} us = layers {sum:.1} us (query {:.1} + hand-off {:.1} \
         + protocol {:.2} + ping {:.1}) + residual {:.1} us",
        c.query_us,
        c.handoff_us,
        c.protocol_us,
        c.ping_us,
        p50_us - sum
    );
    drop(server);
    layers::finish_trace(spec, seed, &tracer, (plain.qps(), traced.qps()), report)?;
    common::finish(report, &out)
}

fn e2e_metrics(load: &Load, recall: f64, m: usize, report: &mut Report) {
    report.metric(
        "qps",
        load.qps(),
        "1/s",
        format!(
            "completed requests, interquartile mean of {} {} ms windows (IQR {:.1}%)",
            load.window_qps.len(),
            WINDOW.as_millis(),
            100.0 * Summary::of(&load.window_qps).rel_iqr()
        ),
    );
    common::latency_metrics(&load.latency_us, "client round trip", report);
    report.metric(
        "recall_at_10",
        recall,
        "ratio",
        format!("mean over {m} queries"),
    );
    if load.stats.shed > 0 {
        eprintln!("the server shed {} requests", load.stats.shed);
        report.ops(0, load.stats.shed);
    }
}
