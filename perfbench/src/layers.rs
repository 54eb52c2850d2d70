//! The traced run's per-layer measurements. Each layer is timed from
//! outside, around calls into that module's public functions, and every
//! call is recorded as a span; nothing inside the library is instrumented.
//!
//! `README.md` lists which end-to-end metric each layer metric should move,
//! and on which workload it should not.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use pg_core::search::beam_search_detailed;
use pg_core::{AnyEngine, BatchBeamDetail, GNet, QueryEngine, ShardAssignment, ShardedEngine};
use pg_metric::{CompactPoints, Counting, Euclidean, FlatPoints, FlatRow, QuantKind, Quantized};
use pg_nets::NetHierarchy;
use pg_serve::batcher::run_single;
use pg_serve::protocol::{decode_request, decode_response, encode_request, encode_response};
use pg_serve::{
    Batcher, BatcherStats, Client, IndexRegistry, QueryReply, Request, Response, ServeConfig,
    Server, ServingIndex,
};
use pg_store::{shard_file_name, ShardManifest, SHARD_MANIFEST_FILE};

use crate::common::{self, Inputs, Report, Spec, EPSILON};
use crate::offline::Index;
use crate::stats::{Series, Summary};
use crate::trace::{Tracer, NO_REQUEST};

/// Index name used for every registry the benchmark creates.
pub const INDEX: &str = "main";

/// What the traced build measured, beside the index it produced.
pub struct TracedBuild {
    /// A `ShardedEngine` over the same graphs, loaded back from the saved
    /// snapshots. `None` when the index is itself that sharded engine.
    view: Option<ShardedEngine<Euclidean>>,
    /// Where the snapshots were written (shard `i` in `shard_file_name(i)`).
    pub snapshot_dir: std::path::PathBuf,
    hierarchy_s: f64,
    cascade_s: f64,
    edges: u64,
    build_dist_comps: u64,
    store: Store,
}

impl TracedBuild {
    fn view<'a>(&'a self, index: &'a Index) -> &'a ShardedEngine<Euclidean> {
        match (&self.view, index) {
            (Some(view), _) => view,
            (None, Index::Sharded(engine)) => engine,
            (None, Index::Single(..)) => unreachable!("a single index always carries a view"),
        }
    }
}

/// Splits the workload's points the way `ShardedEngine::build` does.
fn partition(spec: &Spec, inputs: &Inputs, seed: u64) -> Vec<(Vec<u32>, FlatPoints)> {
    let ids = if spec.shards > 1 {
        ShardAssignment::SeededRandom {
            seed: common::assign_seed(seed),
        }
        .assign(inputs.points.len(), spec.shards)
    } else {
        vec![(0..inputs.points.len() as u32).collect()]
    };
    ids.into_iter()
        .map(|ids| {
            let mut pts = FlatPoints::with_capacity(ids.len(), inputs.points.dim());
            for &id in &ids {
                pts.push(inputs.points.row(id as usize));
            }
            (ids, pts)
        })
        .collect()
}

/// Builds every shard's `G_net` in its two layers (net hierarchy, then the
/// relatives cascade), counts build distances in a second build under
/// `Counting`, saves and reloads the snapshots, and hands back the index.
pub fn build_traced(
    spec: &Spec,
    inputs: &Inputs,
    seed: u64,
    out: &Path,
    tracer: &mut Tracer,
) -> Result<(Index, TracedBuild), String> {
    let threads = common::threads();
    let sets = partition(spec, inputs, seed);
    let root = tracer.begin("layer.build", None, NO_REQUEST);
    let (mut hierarchy_s, mut cascade_s, mut edges) = (0.0, 0.0, 0u64);
    let mut engines = Vec::with_capacity(sets.len());
    for (_, pts) in &sets {
        let data = pts.clone().into_dataset(Euclidean);
        let t = Instant::now();
        let hierarchy = tracer.span("pg_nets.NetHierarchy::build", root, NO_REQUEST, || {
            NetHierarchy::build(&data)
        });
        hierarchy_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let gnet = tracer.span("pg_core.GNet::build_fast_on", root, NO_REQUEST, || {
            GNet::build_fast_on(&data, EPSILON, hierarchy)
        });
        cascade_s += t.elapsed().as_secs_f64();
        edges += gnet.graph.edge_count() as u64;
        engines.push(QueryEngine::new(gnet.graph, data).with_threads(threads));
    }
    tracer.end(root);

    let build_dist_comps = tracer.span("layer.build_counted", None, NO_REQUEST, || {
        sets.iter()
            .map(|(_, pts)| {
                let data = pts.clone().into_dataset(Counting::new(Euclidean));
                drop(GNet::build_fast(&data, EPSILON));
                data.metric().count()
            })
            .sum::<u64>()
    });

    let global_ids: Vec<Vec<u32>> = sets.into_iter().map(|(ids, _)| ids).collect();
    let snapshot_dir = out.join("snapshots");
    let (store, view) = save_load(
        &engines,
        global_ids,
        inputs.points.len(),
        &snapshot_dir,
        tracer,
    )?;
    let view = view.with_threads(threads);
    let (index, view) = if spec.shards > 1 {
        drop(engines);
        (Index::Sharded(view), None)
    } else {
        let engine = engines.pop().expect("one engine");
        (Index::single(engine), Some(view))
    };
    Ok((
        index,
        TracedBuild {
            view,
            snapshot_dir,
            hierarchy_s,
            cascade_s,
            edges,
            build_dist_comps,
            store,
        },
    ))
}

struct Store {
    save_s: f64,
    load_s: f64,
    bytes: u64,
}

/// Repetitions of the save/load round; the median is reported.
const STORE_ROUNDS: usize = 3;

/// Times `QueryEngine::save` and `AnyEngine::load` over every shard
/// (median of [`STORE_ROUNDS`]), then writes a shard manifest and loads the
/// whole set back as a `ShardedEngine`.
fn save_load(
    engines: &[QueryEngine<FlatRow, Euclidean>],
    global_ids: Vec<Vec<u32>>,
    n: usize,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<(Store, ShardedEngine<Euclidean>), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let root = tracer.begin("layer.store", None, NO_REQUEST);
    let (mut saves, mut loads) = (Vec::new(), Vec::new());
    let mut bytes = 0;
    for _ in 0..STORE_ROUNDS {
        let (mut save_s, mut load_s) = (0.0, 0.0);
        bytes = 0;
        for (i, engine) in engines.iter().enumerate() {
            let path = dir.join(shard_file_name(i));
            let t = Instant::now();
            tracer
                .span("pg_core.QueryEngine::save", root, NO_REQUEST, || {
                    engine.save(&path)
                })
                .map_err(|e| format!("saving {}: {e}", path.display()))?;
            save_s += t.elapsed().as_secs_f64();
            bytes += std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
            let t = Instant::now();
            let (loaded, _) = tracer
                .span("pg_core.AnyEngine::load", root, NO_REQUEST, || {
                    AnyEngine::load(&path)
                })
                .map_err(|e| format!("loading {}: {e}", path.display()))?;
            load_s += t.elapsed().as_secs_f64();
            drop(loaded);
        }
        saves.push(save_s);
        loads.push(load_s);
    }
    tracer.end(root);
    ShardManifest::new(n as u64, global_ids)
        .and_then(|m| m.save(dir.join(SHARD_MANIFEST_FILE)))
        .map_err(|e| format!("writing the shard manifest: {e}"))?;
    let view = ShardedEngine::load(dir).map_err(|e| format!("loading the sharded view: {e}"))?;
    Ok((
        Store {
            save_s: Summary::of(&saves).median,
            load_s: Summary::of(&loads).median,
            bytes,
        },
        view,
    ))
}

/// Query/point pairs per kernel round.
const KERNEL_QUERIES: usize = 256;
const KERNEL_IDS_PER_QUERY: usize = 64;
/// Kernel rounds; the first is discarded.
const KERNEL_ROUNDS: usize = 31;

/// Nanoseconds per distance evaluation for the exact `f64` surrogate and
/// for the two compact stores (`Quantized::prepare` once per query, then
/// `surrogate` per stored point), over the same pseudo-random pairs.
fn kernel(inputs: &Inputs, seed: u64, tracer: &mut Tracer) -> (f64, f64, f64) {
    let n = inputs.points.len();
    let mut state = seed ^ 0xD1B5_4A32_D192_ED03;
    let mut next = move || {
        // SplitMix64: a fixed pseudo-random order that depends only on the seed.
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let pairs: Vec<(usize, Vec<usize>)> = (0..KERNEL_QUERIES)
        .map(|_| {
            let q = (next() % inputs.queries.len() as u64) as usize;
            let ids = (0..KERNEL_IDS_PER_QUERY)
                .map(|_| (next() % n as u64) as usize)
                .collect();
            (q, ids)
        })
        .collect();
    let evals = (KERNEL_QUERIES * KERNEL_IDS_PER_QUERY) as f64;
    let root = tracer.begin("layer.kernel", None, NO_REQUEST);

    let mut exact = Series::new(1);
    for _ in 0..KERNEL_ROUNDS {
        let t = Instant::now();
        tracer.span("pg_metric.Metric::surrogate", root, NO_REQUEST, || {
            let mut acc = 0.0;
            for (q, ids) in &pairs {
                let q = &inputs.queries[*q];
                for &i in ids {
                    acc += inputs.data.surrogate_to(i, std::hint::black_box(q));
                }
            }
            std::hint::black_box(acc)
        });
        exact.push(t.elapsed().as_nanos() as f64 / evals);
    }

    let compact_ns = |kind: QuantKind, name: &'static str, tracer: &mut Tracer| {
        let store = CompactPoints::from_flat(kind, &inputs.points).expect("finite points encode");
        let mut s = Series::new(1);
        for _ in 0..KERNEL_ROUNDS {
            let t = Instant::now();
            tracer.span(name, root, NO_REQUEST, || {
                let mut acc = 0.0;
                for (q, ids) in &pairs {
                    let prepared = store.prepare(inputs.queries[*q].coords());
                    for &i in ids {
                        acc += store.surrogate(i, std::hint::black_box(&prepared));
                    }
                }
                std::hint::black_box(acc)
            });
            s.push(t.elapsed().as_nanos() as f64 / evals);
        }
        s.summary().median
    };
    let f32_ns = compact_ns(QuantKind::F32, "pg_metric.F32Points::surrogate", tracer);
    let sq8_ns = compact_ns(QuantKind::Sq8, "pg_metric.Sq8Points::surrogate", tracer);
    tracer.end(root);
    (exact.summary().median, f32_ns, sq8_ns)
}

struct Sequential {
    query_us: f64,
    dist_comps_per_query: f64,
    expansions_per_query: f64,
}

/// Passes of the sequential replay; the first is discarded.
const SEQ_PASSES: usize = 4;

/// Every query as sequential `beam_search_detailed` calls at one thread,
/// one per shard (each entered at vertex 0, as the engines do). The summed
/// counts must equal the batched answer's exactly.
fn sequential(
    spec: &Spec,
    inputs: &Inputs,
    shards: &[QueryEngine<FlatRow, Euclidean>],
    expected: &BatchBeamDetail,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Sequential {
    let m = inputs.queries.len();
    let mut passes = Series::new(1);
    let (mut dist_comps, mut expansions) = (0u64, 0u64);
    let root = tracer.begin("layer.sequential", None, NO_REQUEST);
    for _ in 0..SEQ_PASSES {
        let pass = tracer.begin("layer.sequential_pass", root, NO_REQUEST);
        let (mut dc, mut ex, mut wrong, mut busy) = (0u64, 0u64, 0u64, 0.0);
        for (qi, q) in inputs.queries.iter().enumerate() {
            let req = tracer.begin("pg_core.search.query", pass, qi as u64);
            let (mut qdc, mut qex) = (0, 0);
            let t = Instant::now();
            for shard in shards {
                let out = tracer.span(
                    "pg_core.search::beam_search_detailed",
                    req,
                    qi as u64,
                    || beam_search_detailed(shard.graph(), shard.data(), 0, q, spec.ef, spec.k),
                );
                qdc += out.dist_comps;
                qex += out.expansions;
                if shards.len() == 1 && out != expected.outcomes[qi] {
                    wrong += 1;
                }
            }
            busy += t.elapsed().as_secs_f64();
            tracer.end(req);
            let want = &expected.outcomes[qi];
            if qdc != want.dist_comps || qex != want.expansions {
                wrong += 1;
            }
            dc += qdc;
            ex += qex;
        }
        tracer.end(pass);
        report.ops(m as u64, wrong);
        passes.push(busy * 1e6 / m as f64);
        (dist_comps, expansions) = (dc, ex);
    }
    tracer.end(root);
    Sequential {
        query_us: passes.summary().median,
        dist_comps_per_query: dist_comps as f64 / m as f64,
        expansions_per_query: expansions as f64 / m as f64,
    }
}

/// Two-query batches timed for the dispatch cost.
const DISPATCH_PAIRS: usize = 400;

/// Median over query pairs of: wall time of a 2-query
/// `batch_beam_detailed` at the benchmark's thread count, minus the longer
/// of the two queries run sequentially. With two workers the pair's search
/// work overlaps, so what remains is the pool's spawn/join cost. Each pair
/// runs once untimed first, so both timings see the same warm caches.
fn dispatch(
    spec: &Spec,
    inputs: &Inputs,
    engine: &QueryEngine<FlatRow, Euclidean>,
    tracer: &mut Tracer,
) -> f64 {
    let m = inputs.queries.len();
    let mut diffs = Series::new(10);
    let root = tracer.begin("layer.dispatch", None, NO_REQUEST);
    for j in 0..DISPATCH_PAIRS + 10 {
        let (a, b) = ((2 * j) % m, (2 * j + 1) % m);
        let pair = [inputs.queries[a].clone(), inputs.queries[b].clone()];
        engine.batch_beam_detailed(&[0, 0], &pair, spec.ef, spec.k);
        let mut seq = 0.0f64;
        for (qi, q) in [(a, &pair[0]), (b, &pair[1])] {
            let t = Instant::now();
            tracer.span(
                "pg_core.search::beam_search_detailed",
                root,
                qi as u64,
                || beam_search_detailed(engine.graph(), engine.data(), 0, q, spec.ef, spec.k),
            );
            seq = seq.max(common::us(t.elapsed()));
        }
        let t = Instant::now();
        tracer.span(
            "pg_core.QueryEngine::batch_beam_detailed",
            root,
            NO_REQUEST,
            || engine.batch_beam_detailed(&[0, 0], &pair, spec.ef, spec.k),
        );
        diffs.push(common::us(t.elapsed()) - seq);
    }
    tracer.end(root);
    diffs.summary().median
}

/// Rounds of the fan-out comparison; the first is discarded.
const FANOUT_ROUNDS: usize = 4;

/// (`ShardedEngine::batch_beam_detailed` wall − Σ per-shard
/// `QueryEngine::batch_beam_detailed` walls on the same queries, start 0)
/// ÷ m, medians over rounds.
fn fanout_merge(
    spec: &Spec,
    inputs: &Inputs,
    view: &ShardedEngine<Euclidean>,
    tracer: &mut Tracer,
) -> f64 {
    let m = inputs.queries.len();
    let starts = vec![0u32; m];
    let (mut sharded, mut parts) = (Series::new(1), Series::new(1));
    let root = tracer.begin("layer.fanout_merge", None, NO_REQUEST);
    for _ in 0..FANOUT_ROUNDS {
        let t = Instant::now();
        tracer.span(
            "pg_core.ShardedEngine::batch_beam_detailed",
            root,
            NO_REQUEST,
            || view.batch_beam_detailed(&inputs.queries, spec.ef, spec.k),
        );
        sharded.push(t.elapsed().as_secs_f64());
        let mut sum = 0.0;
        for shard in view.shards() {
            let t = Instant::now();
            tracer.span(
                "pg_core.QueryEngine::batch_beam_detailed",
                root,
                NO_REQUEST,
                || shard.batch_beam_detailed(&starts, &inputs.queries, spec.ef, spec.k),
            );
            sum += t.elapsed().as_secs_f64();
        }
        parts.push(sum);
    }
    tracer.end(root);
    (sharded.summary().median - parts.summary().median) * 1e6 / m as f64
}

struct Protocol {
    request_ns: f64,
    response_ns: f64,
    request_bytes: f64,
    response_bytes: f64,
}

/// Frames per protocol round, and rounds (the first discarded).
const PROTOCOL_FRAMES: usize = 256;
const PROTOCOL_ROUNDS: usize = 21;

/// `encode_request` + `decode_request` and `encode_response` +
/// `decode_response` on the workload's own query and answer frames.
fn protocol(
    inputs: &Inputs,
    spec: &Spec,
    expected: &BatchBeamDetail,
    tracer: &mut Tracer,
) -> Protocol {
    let frames = PROTOCOL_FRAMES.min(inputs.queries.len());
    let requests: Vec<Request> = inputs.queries[..frames]
        .iter()
        .map(|q| Request::Query {
            index: INDEX.into(),
            ef: spec.ef as u32,
            k: spec.k as u32,
            coords: q.coords().to_vec(),
        })
        .collect();
    let responses: Vec<Response> = expected.outcomes[..frames]
        .iter()
        .map(|o| {
            Response::Query(QueryReply {
                epoch: 1,
                dist_comps: o.dist_comps,
                expansions: o.expansions,
                results: o.results.clone(),
            })
        })
        .collect();
    let request_bytes: usize = requests.iter().map(|r| encode_request(r).len()).sum();
    let response_bytes: usize = responses.iter().map(|r| encode_response(r).len()).sum();
    let root = tracer.begin("layer.protocol", None, NO_REQUEST);
    let (mut req, mut resp) = (Series::new(1), Series::new(1));
    for _ in 0..PROTOCOL_ROUNDS {
        let t = Instant::now();
        tracer.span("pg_serve.protocol.request", root, NO_REQUEST, || {
            for r in &requests {
                let frame = encode_request(std::hint::black_box(r));
                let back = decode_request(&frame).expect("a frame just encoded decodes");
                std::hint::black_box(back);
            }
        });
        req.push(t.elapsed().as_nanos() as f64 / frames as f64);
        let t = Instant::now();
        tracer.span("pg_serve.protocol.response", root, NO_REQUEST, || {
            for r in &responses {
                let frame = encode_response(std::hint::black_box(r));
                let back = decode_response(&frame).expect("a frame just encoded decodes");
                std::hint::black_box(back);
            }
        });
        resp.push(t.elapsed().as_nanos() as f64 / frames as f64);
    }
    tracer.end(root);
    Protocol {
        request_ns: req.summary().median,
        response_ns: resp.summary().median,
        request_bytes: request_bytes as f64 / frames as f64,
        response_bytes: response_bytes as f64 / frames as f64,
    }
}

/// Queries timed for the batcher hand-off (after 20 discarded).
const HANDOFF_QUERIES: usize = 1000;

/// Median over queries of `Batcher::run` minus `run_single` on the same
/// query and generation: the queue, the dispatcher wake-up and the reply
/// channel. Both answers must agree. Each query runs once untimed first,
/// so both timings see the same warm caches.
fn handoff(
    spec: &Spec,
    inputs: &Inputs,
    index: &Arc<ServingIndex>,
    tracer: &mut Tracer,
    report: &mut Report,
) -> (f64, BatcherStats) {
    let config = ServeConfig::default();
    let batcher = Batcher::start(config.max_batch, config.max_queue);
    let m = inputs.queries.len();
    let mut diffs = Series::new(20);
    let mut wrong = 0;
    let root = tracer.begin("layer.handoff", None, NO_REQUEST);
    for j in 0..HANDOFF_QUERIES + 20 {
        let qi = j % m;
        let q = &inputs.queries[qi];
        run_single(index, q.clone(), spec.ef as u32, spec.k as u32);
        let t = Instant::now();
        let direct = tracer.span("pg_serve.batcher::run_single", root, qi as u64, || {
            run_single(index, q.clone(), spec.ef as u32, spec.k as u32)
        });
        let single = common::us(t.elapsed());
        let t = Instant::now();
        let queued = tracer.span("pg_serve.Batcher::run", root, qi as u64, || {
            batcher.run(Arc::clone(index), q.clone(), spec.ef as u32, spec.k as u32)
        });
        diffs.push(common::us(t.elapsed()) - single);
        if !queued.is_ok_and(|r| r == direct) {
            wrong += 1;
        }
    }
    tracer.end(root);
    report.ops((HANDOFF_QUERIES + 20) as u64, wrong);
    (diffs.summary().median, batcher.stats())
}

/// Pings timed (after 50 discarded).
const PINGS: usize = 2000;

/// Median `Client::ping` round trip to `addr`.
fn ping(addr: SocketAddr, tracer: &mut Tracer, report: &mut Report) -> Result<f64, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let mut rtt = Series::new(50);
    let mut wrong = 0;
    let root = tracer.begin("layer.ping", None, NO_REQUEST);
    for _ in 0..PINGS + 50 {
        let t = Instant::now();
        let ok = tracer.span("pg_serve.Client::ping", root, NO_REQUEST, || client.ping());
        rtt.push(common::us(t.elapsed()));
        wrong += u64::from(ok.is_err());
    }
    tracer.end(root);
    report.ops((PINGS + 50) as u64, wrong);
    Ok(rtt.summary().median)
}

/// The layer figures every workload reports, measured the same way.
pub struct Common {
    /// µs per sequential query (all shards).
    pub query_us: f64,
    /// µs of pool dispatch per batch call.
    pub dispatch_us: f64,
    /// µs of shard fan-out and merge per query.
    pub fanout_merge_us: f64,
    /// µs the batcher hand-off adds per query.
    pub handoff_us: f64,
    /// µs per protocol round (request + response encode/decode).
    pub protocol_us: f64,
    /// µs per ping round trip.
    pub ping_us: f64,
}

/// Measures every shared layer and reports its metrics. `serving` is the
/// generation the batcher hand-off runs on and `addr` a server to ping.
#[allow(clippy::too_many_arguments)]
pub fn measure_common(
    spec: &Spec,
    inputs: &Inputs,
    seed: u64,
    build: &TracedBuild,
    index: &Index,
    expected: &BatchBeamDetail,
    serving: &Arc<ServingIndex>,
    addr: SocketAddr,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(Common, BatcherStats), String> {
    let (dist_ns, f32_ns, sq8_ns) = kernel(inputs, seed, tracer);
    let shards = index.shards();
    let seq = sequential(spec, inputs, shards, expected, tracer, report);
    let dispatch_us = dispatch(spec, inputs, &shards[0], tracer);
    let fanout_merge_us = fanout_merge(spec, inputs, build.view(index), tracer);
    let proto = protocol(inputs, spec, expected, tracer);
    let (handoff_us, batcher_stats) = handoff(spec, inputs, serving, tracer, report);
    let ping_us = ping(addr, tracer, report)?;

    let kernel_us = seq.dist_comps_per_query * dist_ns / 1e3;
    let pairs = format!(
        "{} query/point pairs, median of {} rounds",
        KERNEL_QUERIES * KERNEL_IDS_PER_QUERY,
        KERNEL_ROUNDS - 1
    );
    report.metric(
        "pg_metric.dist_ns",
        dist_ns,
        "ns",
        format!("exact f64 surrogate, {pairs}"),
    );
    report.metric(
        "pg_metric.kernel_share",
        kernel_us / seq.query_us,
        "ratio",
        "dist_comps_per_query x dist_ns / query_us",
    );
    report.metric(
        "pg_metric.f32_dist_ns",
        f32_ns,
        "ns",
        format!("Quantized::prepare per query + surrogate, {pairs}"),
    );
    report.metric(
        "pg_metric.sq8_dist_ns",
        sq8_ns,
        "ns",
        format!("Quantized::prepare per query + surrogate, {pairs}"),
    );
    report.metric(
        "pg_nets.hierarchy_s",
        build.hierarchy_s,
        "s",
        "NetHierarchy::build, summed over shards",
    );
    report.metric(
        "pg_core.gnet.cascade_s",
        build.cascade_s,
        "s",
        "GNet::build_fast_on, summed over shards",
    );
    report.metric("pg_core.gnet.edges", build.edges as f64, "count", "exact");
    report.metric(
        "pg_core.gnet.build_dist_comps",
        build.build_dist_comps as f64,
        "count",
        "exact, Counting build (hierarchy + cascade)",
    );
    report.metric("pg_core.search.query_us", seq.query_us, "us", format!("sequential beam_search_detailed over every shard, mean of {} queries, median of {} passes", inputs.queries.len(), SEQ_PASSES - 1));
    report.metric(
        "pg_core.search.dist_comps_per_query",
        seq.dist_comps_per_query,
        "count",
        "exact",
    );
    report.metric(
        "pg_core.search.expansions_per_query",
        seq.expansions_per_query,
        "count",
        "exact",
    );
    report.metric(
        "pg_core.search.loop_us",
        seq.query_us - kernel_us,
        "us",
        "query_us - dist_comps_per_query x dist_ns",
    );
    report.metric(
        "pg_core.engine.dispatch_us",
        dispatch_us,
        "us",
        format!("2-query batch wall - longer sequential query, median of {DISPATCH_PAIRS} pairs"),
    );
    report.metric(
        "pg_core.sharded.fanout_merge_us",
        fanout_merge_us,
        "us",
        format!(
            "per query, {} shard(s), median of {} rounds",
            build.view(index).shard_count(),
            FANOUT_ROUNDS - 1
        ),
    );
    let n = inputs.points.len() as u64;
    let d = inputs.points.dim() as u64;
    report.metric(
        "pg_core.graph.index_bytes",
        (build.edges * 4 + n * d * 8) as f64,
        "bytes",
        "edges x 4 + n x d x 8",
    );
    report.metric(
        "pg_store.save_s",
        build.store.save_s,
        "s",
        format!("QueryEngine::save over every shard, median of {STORE_ROUNDS}"),
    );
    report.metric(
        "pg_store.load_s",
        build.store.load_s,
        "s",
        format!("AnyEngine::load over every shard, median of {STORE_ROUNDS}"),
    );
    report.metric(
        "pg_store.snapshot_bytes",
        build.store.bytes as f64,
        "bytes",
        "exact, all shard files",
    );
    report.metric(
        "pg_serve.protocol.request_ns",
        proto.request_ns,
        "ns",
        format!("encode_request + decode_request, {PROTOCOL_FRAMES} frames"),
    );
    report.metric(
        "pg_serve.protocol.response_ns",
        proto.response_ns,
        "ns",
        format!("encode_response + decode_response, {PROTOCOL_FRAMES} frames"),
    );
    report.metric(
        "pg_serve.protocol.request_bytes",
        proto.request_bytes,
        "bytes",
        "exact",
    );
    report.metric(
        "pg_serve.protocol.response_bytes",
        proto.response_bytes,
        "bytes",
        "exact",
    );
    report.metric(
        "pg_serve.batcher.handoff_us",
        handoff_us,
        "us",
        format!("Batcher::run - run_single, median of {HANDOFF_QUERIES}"),
    );
    report.metric(
        "pg_serve.socket.ping_us",
        ping_us,
        "us",
        format!("median of {PINGS} Client::ping"),
    );
    Ok((
        Common {
            query_us: seq.query_us,
            dispatch_us,
            fanout_merge_us,
            handoff_us,
            protocol_us: (proto.request_ns + proto.response_ns) / 1e3,
            ping_us,
        },
        batcher_stats,
    ))
}

/// Reports the batcher's counters over a measured phase.
pub fn batcher_metrics(delta: BatcherStats, phase: &str, report: &mut Report) {
    let mean = if delta.batches == 0 {
        0.0
    } else {
        delta.requests as f64 / delta.batches as f64
    };
    report.metric(
        "pg_serve.batcher.mean_batch",
        mean,
        "count",
        format!("BatcherStats over {phase}"),
    );
    report.metric(
        "pg_serve.batcher.shed",
        delta.shed as f64,
        "count",
        format!("exact, must be 0; {phase}"),
    );
    if delta.shed > 0 {
        eprintln!("the batcher shed {} requests", delta.shed);
        report.ops(0, delta.shed);
    }
}

/// The layer measurements of an offline workload.
#[allow(clippy::too_many_arguments)]
pub fn measure_offline(
    spec: &Spec,
    inputs: &Inputs,
    seed: u64,
    index: &Index,
    expected: &BatchBeamDetail,
    build: &TracedBuild,
    batch_wall_s: f64,
    p50_us: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    // A registry and server of the workload's own, so the serving layers
    // are measured on this workload's engine and frames.
    let registry = Arc::new(IndexRegistry::new());
    registry
        .register(INDEX, AnyEngine::from(index.shards()[0].clone()), 0)
        .map_err(|e| format!("registering: {e}"))?;
    let serving = registry.get(INDEX).expect("just registered");
    let server = Server::bind("127.0.0.1:0", Arc::clone(&registry), ServeConfig::default())
        .map_err(|e| format!("binding: {e}"))?;
    let (c, handoff_stats) = measure_common(
        spec,
        inputs,
        seed,
        build,
        index,
        expected,
        &serving,
        server.local_addr(),
        tracer,
        report,
    )?;
    drop(server);
    batcher_metrics(handoff_stats, "the hand-off measurement", report);

    let threads = common::threads();
    let m = inputs.queries.len() as f64;
    report.metric(
        "pg_core.engine.batch_efficiency",
        c.query_us * m / (threads as f64 * batch_wall_s * 1e6),
        "ratio",
        format!("sequential query time / ({threads} threads x median batch wall)"),
    );
    // A one-query call runs its shard searches on min(S, threads) workers.
    let parallel = spec.shards.min(threads);
    let mut sum = c.query_us / parallel as f64;
    let mut parts = format!("query_us/{parallel}");
    if parallel > 1 {
        sum += c.dispatch_us;
        parts += " + dispatch_us";
    }
    if spec.shards > 1 {
        sum += c.fanout_merge_us;
        parts += " + fanout_merge_us";
    }
    report.metric(
        "pg_serve.residual_us",
        p50_us - sum,
        "us",
        format!("p50_us - ({parts}) on the single-query path"),
    );
    println!(
        "reconciliation: single-query p50 {p50_us:.1} us = layers {sum:.1} us ({parts}) + residual {:.1} us",
        p50_us - sum
    );
    Ok(())
}

/// Prints the traced run's own end-to-end figures next to the plain ones.
pub fn print_overhead(qps: (f64, f64), p50_us: (f64, f64)) {
    println!(
        "tracing overhead: qps {:.1} plain vs {:.1} traced ({:+.2}%), p50 {:.1} us plain vs {:.1} us traced ({:+.2}%)",
        qps.0,
        qps.1,
        100.0 * (qps.0 - qps.1) / qps.0,
        p50_us.0,
        p50_us.1,
        100.0 * (p50_us.1 - p50_us.0) / p50_us.0
    );
}

/// Prints span self times, writes the span log, and reports the tracing
/// overhead on throughput.
pub fn finish_trace(
    spec: &Spec,
    seed: u64,
    tracer: &Tracer,
    qps: (f64, f64),
    report: &mut Report,
) -> Result<(), String> {
    println!("\nspans (count, total ms, self ms):");
    for (name, (count, total, self_ns)) in tracer.self_times() {
        println!(
            "  {name:<48} {count:>8} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            self_ns as f64 / 1e6
        );
    }
    let path = Path::new("perfbench/out").join(format!("trace-{}-seed{seed}.jsonl", spec.name));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("span log: {} ({} spans)", path.display(), tracer.len());
    report.metric(
        "trace.qps_overhead_pct",
        100.0 * (qps.0 - qps.1) / qps.0,
        "%",
        "plain vs traced qps in this run",
    );
    Ok(())
}
