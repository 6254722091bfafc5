//! The traced run: the workload once untraced and once with spans, then
//! the same seeded requests replayed through each inner layer's public
//! entry point, outermost first:
//!
//! 1. `Client::query` / `Client::update` (the traced pass itself; for
//!    `cold-deploy`, a wire replay of each cycle's GCT query);
//! 2. `Batcher::submit_many_async` on the tenant's batcher;
//! 3. `SearchService::top_r_many_pinned` on a replica service (for
//!    `cold-deploy` also on a fresh service per query, which times the
//!    index-miss fallback), and `apply_updates` on the replica;
//! 4. `DiversityEngine::top_r` and `build_engine`;
//! 5. the kernels: triangle listing, truss and core peeling, ego-network
//!    extraction, CSR snapshot and fingerprint.
//!
//! Spans are recorded from this crate around those calls, kept in
//! memory, and written out when the run ends. A request keeps its id in
//! every layer, so a layer's self time is its span minus the span of the
//! next layer inward for the same id.

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use sd_core::egonet::EgoNetwork;
use sd_core::{
    build_engine, DiversityEngine, EngineKind, GraphFingerprint, QuerySpec, SearchService,
};
use sd_graph::triangles::triangle_count;
use sd_graph::DynamicGraph;
use sd_server::{
    BatchReply, Frame, QueryOutcome, QueryRequest, QueryResponse, Request, Response, WireQuery,
};
use sd_truss::{core_decomposition, truss_decomposition};

use crate::gen::{Config, Inputs, QueryFrame, Workload};
use crate::run::{
    self, one_per_query, query_id, update_id, Counters, Deployment, Refs, Tally, FALLBACK, KERNEL,
    SETUP, SWEEP,
};
use crate::stats::{mean, median, ms, percentile, Metric, Outcome};

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    pub layer: &'static str,
    /// The request's id, shared by its spans in every layer.
    pub id: u64,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    fn ms(&self) -> f64 {
        ms(self.end - self.start)
    }
}

/// Collects spans in memory.
#[derive(Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn record(&self, layer: &'static str, id: u64, start: Instant, end: Instant) {
        self.spans.lock().expect("no span recorder panics").push(Span { layer, id, start, end });
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("no span recorder panics"))
    }
}

/// Runs `f`, recording it as a span of `layer` when tracing.
pub fn span<R>(tracer: Option<&Tracer>, layer: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
    match tracer {
        None => f(),
        Some(tracer) => {
            let start = Instant::now();
            let out = f();
            tracer.record(layer, id, start, Instant::now());
            out
        }
    }
}

/// Inner-layer replays take at most this many frames of each stream, so
/// a traced run stays well inside the time limit.
const REPLAY_FRAMES: usize = 200;

/// `cold-deploy`'s service-layer replay also builds a fresh service for
/// each of this many first queries, enough for a named median.
const COLD_REPLAY: usize = 24;

/// Each engine runs the workload's distinct queries until it has this
/// many samples, enough for a named median.
const ENGINE_SAMPLES: usize = 20;

/// Layers from outermost to innermost; a span's parent is the same
/// request's span one layer out.
const LAYER_ORDER: [&str; 5] = ["conn", "batch", "service", "engine", "kernel"];

fn rank(layer: &str) -> usize {
    LAYER_ORDER.iter().position(|l| layer.starts_with(l)).unwrap_or(LAYER_ORDER.len())
}

/// Span durations of `layer` per request id (summed when a request has
/// several, as a frame of queries has one engine call each).
fn by_id(spans: &[Span], layer: &str) -> HashMap<u64, f64> {
    let mut out = HashMap::new();
    for s in spans.iter().filter(|s| s.layer.starts_with(layer)) {
        *out.entry(s.id).or_insert(0.0) += s.ms();
    }
    out
}

/// Per-request `outer − inner`, over the requests both layers saw.
fn self_times(spans: &[Span], outer: &str, inner: &str) -> Vec<f64> {
    let inner = by_id(spans, inner);
    let mut out: Vec<(u64, f64)> = by_id(spans, outer)
        .into_iter()
        .filter_map(|(id, o)| inner.get(&id).map(|i| (id, o - i)))
        .collect();
    out.sort_by_key(|&(id, _)| id);
    out.into_iter().map(|(_, d)| d).collect()
}

/// Per-frame `service − engine`, for the service spans of `layer`. A frame
/// of several queries fans out over the pool's `lanes`, so its engine
/// calls, replayed one after another, cover their sum divided by the
/// lanes they ran on.
fn service_self_times(spans: &[Span], layer: &str, lanes: usize) -> Vec<f64> {
    let mut engine: HashMap<u64, (f64, usize)> = HashMap::new();
    for s in spans.iter().filter(|s| s.layer.starts_with("engine")) {
        let (sum, calls) = engine.entry(s.id).or_insert((0.0, 0));
        *sum += s.ms();
        *calls += 1;
    }
    let mut out: Vec<(u64, f64)> = by_id(spans, layer)
        .into_iter()
        .filter_map(|(id, service)| {
            let &(sum, calls) = engine.get(&id)?;
            let parallel = if calls >= 2 { calls.min(lanes.max(1)) } else { 1 };
            Some((id, service - sum / parallel as f64))
        })
        .collect();
    out.sort_by_key(|&(id, _)| id);
    out.into_iter().map(|(_, d)| d).collect()
}

fn durations(spans: &[Span], layer: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.layer == layer).map(Span::ms).collect()
}

fn p50(values: &[f64], what: &str) -> Result<f64, String> {
    percentile(values, 0.5).map_err(|e| format!("{what}: {e}"))
}

/// Accumulates the traced run's per-layer figures.
struct Layers {
    metrics: Vec<Metric>,
}

impl Layers {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric::new(name, value, unit, samples));
    }

    fn p50(&mut self, name: &'static str, values: &[f64]) -> Result<(), String> {
        let value = p50(values, name)?;
        self.push(name, value, "ms", values.len());
        Ok(())
    }
}

/// The traced run of `workload`; returns the per-layer metrics.
pub fn traced(
    workload: Workload,
    config: &Config,
    inputs: &Inputs,
    refs: &Refs,
    spans_out: &std::path::Path,
) -> Result<Outcome, String> {
    let plain = run::run(workload, config, inputs, refs, None)?;
    let tracer = Tracer::default();
    let traced = run::run(workload, config, inputs, refs, Some(&tracer))?;
    let mut tally = Tally::default();
    tally.merge(plain.tally);
    let sent = traced.sent.clone();
    // Each distinct update request once.
    let applied = traced.updates_applied.min(inputs.updates.len());
    let counters = traced.counters;
    let lag_ms = traced.lag_ms.clone();
    let traced_metrics = traced.metrics.clone();
    tally.merge(traced.tally);

    let mut replay_counters = Counters::default();
    let mut codec_us = Vec::new();
    let mut response_bytes = Vec::new();
    replay_wire(
        workload,
        inputs,
        refs,
        (&sent, applied),
        &tracer,
        &mut replay_counters,
        &mut codec_us,
        &mut response_bytes,
        &mut tally,
    )?;
    let updates = replay_service(workload, inputs, refs, (&sent, applied), &tracer, &mut tally)?;
    let mut layers = Layers { metrics: Vec::new() };
    let spans = {
        let mut spans = tracer.take();
        spans.sort_by_key(|s| s.start);
        spans
    };

    // conn
    let rtt: Vec<f64> = durations(&spans, "conn.query");
    layers.p50("conn.rtt_p50_ms", &rtt)?;
    layers.p50("conn.self_p50_ms", &self_times(&spans, "conn.query", "batch"))?;
    layers.push("conn.codec_us", median(&codec_us), "us", codec_us.len());
    layers.push("conn.response_bytes", median(&response_bytes), "bytes", response_bytes.len());
    layers.p50("conn.update_self_p50_ms", &self_times(&spans, "conn.update", "service.apply"))?;

    // batch: counters from the wire traffic (the traced pass, or the
    // wire replay of `cold-deploy`)
    let wire = if workload == Workload::ColdDeploy { replay_counters } else { counters };
    layers.p50("batch.latency_p50_ms", &durations(&spans, "batch"))?;
    layers.p50("batch.wait_p50_ms", &self_times(&spans, "batch", "service.query"))?;
    let batches = wire.batches.max(1) as f64;
    layers.push("batch.size_mean", wire.batched as f64 / batches, "queries", wire.batches as usize);
    layers.push("batch.expired", wire.expired as f64, "count", wire.batched as usize);
    layers.push("batch.shed", wire.shed as f64, "count", wire.batched as usize);
    layers.push("batch.cancelled", wire.cancelled as f64, "count", wire.batched as usize);
    layers.push("admission.overloaded", wire.overloaded as f64, "count", wire.batched as usize);

    // service: on `cold-deploy`, the index-miss fallback its first
    // queries take
    let service =
        if workload == Workload::ColdDeploy { "service.fallback" } else { "service.query" };
    layers.p50("service.latency_p50_ms", &durations(&spans, service))?;
    let lanes = sd_core::default_pool_threads();
    layers.p50("service.self_p50_ms", &service_self_times(&spans, service, lanes))?;
    let queries = counters.queries.max(1) as f64;
    layers.push(
        "service.fallback_ratio",
        counters.fallbacks as f64 / queries,
        "ratio",
        counters.queries,
    );
    layers.push("service.parallel_queries", counters.parallel as f64, "count", counters.queries);
    layers.push(
        "service.background_builds",
        counters.background_builds as f64,
        "count",
        counters.queries,
    );
    layers.p50("service.apply_p50_ms", &durations(&spans, "service.apply"))?;
    let batches = updates.len();
    let per_batch =
        |f: fn(&sd_core::UpdateStats) -> f64| mean(&updates.iter().map(f).collect::<Vec<f64>>());
    layers.push(
        "service.tsd_repairs_per_batch",
        per_batch(|s| s.tsd_repairs as f64),
        "count",
        batches,
    );
    layers.push(
        "service.gct_repairs_per_batch",
        per_batch(|s| s.gct_repairs as f64),
        "count",
        batches,
    );
    layers.push(
        "service.gct_carried_ratio",
        per_batch(|s| f64::from(u8::from(s.gct_carried))),
        "ratio",
        batches,
    );
    let ops: usize = updates.iter().map(|s| s.applied + s.rejected).sum();
    let rejected: usize = updates.iter().map(|s| s.rejected).sum();
    layers.push("service.rejected_ratio", rejected as f64 / ops.max(1) as f64, "ratio", ops);

    // engines, builds and kernels
    engines(inputs, refs, &tracer, &mut layers, &mut tally)?;
    kernels(inputs, applied, &tracer, &mut layers);
    let kernel_spans = tracer.take();

    // generator and tracing overhead
    let lag = percentile(&lag_ms, 0.9).map_err(|e| format!("gen.lag_p90_ms: {e}"))?;
    layers.push("gen.lag_p90_ms", lag, "ms", lag_ms.len());
    for ((before, after), name) in plain.metrics.iter().zip(&traced_metrics).zip(OVERHEAD) {
        debug_assert_eq!(name.strip_prefix("overhead."), Some(before.name));
        layers.push(name, overhead_pct(before.value, after.value), "%", after.samples);
    }

    let mut all = spans;
    all.extend(kernel_spans);
    write_spans(&all, spans_out).map_err(|e| format!("writing {}: {e}", spans_out.display()))?;
    eprintln!("wrote {} spans to {}", all.len(), spans_out.display());

    if let Some(what) = &tally.first_wrong {
        eprintln!("wrong answer: {what}");
    }
    Ok(Outcome {
        correct: tally.wrong == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: layers.metrics,
    })
}

/// How far each end-to-end metric moved with tracing on, in the order
/// `run::run` reports them.
const OVERHEAD: [&str; 8] = [
    "overhead.setup_s",
    "overhead.query_p50_ms",
    "overhead.query_p90_ms",
    "overhead.update_p50_ms",
    "overhead.update_p90_ms",
    "overhead.cold_query_p50_ms",
    "overhead.cold_query_p90_ms",
    "overhead.peak_heap_mb",
];

/// How much worse a metric got with tracing on, in percent of its
/// untraced value; every end-to-end metric is better lower, so this is
/// positive when tracing costs.
fn overhead_pct(plain: f64, traced: f64) -> f64 {
    (traced / plain - 1.0) * 100.0
}

/// A query frame to replay: its span id and its queries.
type Replayed = (u64, QueryFrame);

/// The query frames each stream replays: its first frames, up to what the
/// traced pass sent and [`REPLAY_FRAMES`].
fn replayed(inputs: &Inputs, sent: &[usize]) -> Vec<Vec<Replayed>> {
    (0..inputs.streams.len())
        .map(|i| {
            let count = sent.get(i).copied().unwrap_or(0).min(REPLAY_FRAMES);
            (0..count).map(|seq| (query_id(i, seq), inputs.frame(i, seq).0.clone())).collect()
        })
        .collect()
}

/// Replays the query frames through the tenant's batcher on a fresh
/// deployment (and, for `cold-deploy`, first over the wire), then the
/// first `applied` update frames through `Client::update` for
/// `cold-deploy`.
#[allow(clippy::too_many_arguments)]
fn replay_wire(
    workload: Workload,
    inputs: &Inputs,
    refs: &Refs,
    (sent, applied): (&[usize], usize),
    tracer: &Tracer,
    counters: &mut Counters,
    codec_us: &mut Vec<f64>,
    response_bytes: &mut Vec<f64>,
    tally: &mut Tally,
) -> Result<(), String> {
    let (mut dep, _) =
        Deployment::start(&inputs.graph, 1, refs, SETUP, None, tally).map_err(|e| e.to_string())?;
    let tenant = dep.registry.lookup(&dep.key).expect("registered tenant");
    let frames = replayed(inputs, sent);
    let (service0, batch0, server0) =
        (dep.service.stats(), tenant.batcher.stats(), dep.server.stats());
    if workload == Workload::ColdDeploy {
        for (id, queries) in frames.iter().flatten() {
            let client = &mut dep.clients[0];
            run::query_frame(client, dep.key, queries, *id, refs, &mut None, Some(tracer), tally);
        }
    }
    let results: Vec<(Tally, Vec<f64>, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = frames
            .iter()
            .filter(|f| !f.is_empty())
            .map(|stream| {
                let tenant = tenant.clone();
                let key = dep.key;
                scope.spawn(move || {
                    let mut tally = Tally::default();
                    let (mut codec_samples, mut bytes) = (Vec::new(), Vec::new());
                    // Back to back, as the closed loops sent them.
                    for (id, queries) in stream {
                        let specs: Vec<QuerySpec> =
                            queries.iter().map(|q| q.to_spec().expect("valid spec")).collect();
                        let (tx, rx) = mpsc::channel();
                        let replies = span(Some(tracer), "batch", *id, || {
                            let submitted = tenant.batcher.submit_many_async(
                                &tenant.service,
                                specs,
                                None,
                                None,
                                move |replies| {
                                    let _ = tx.send(replies);
                                },
                            );
                            submitted.ok().and_then(|()| rx.recv().ok())
                        });
                        let Some(replies) = replies else {
                            tally.fail("batcher shed the frame");
                            continue;
                        };
                        if !one_per_query(queries.len(), replies.len(), &mut tally) {
                            continue;
                        }
                        let mut outcomes = Vec::with_capacity(replies.len());
                        let mut epoch = 0;
                        for (q, reply) in queries.iter().zip(replies) {
                            let BatchReply::Answered { epoch: e, result } = reply else {
                                tally.fail(format_args!("batch reply {reply:?}"));
                                continue;
                            };
                            epoch = e;
                            let outcome = QueryOutcome::Answered(result.entries);
                            run::book(q, &outcome, refs, &mut tally);
                            outcomes.push(outcome);
                        }
                        let (us, len) = codec(key, queries, QueryResponse { epoch, outcomes });
                        codec_samples.push(us);
                        bytes.push(len as f64);
                    }
                    (tally, codec_samples, bytes)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("replay thread panicked")).collect()
    });
    for (t, codec, bytes) in results {
        tally.merge(t);
        codec_us.extend(codec);
        response_bytes.extend(bytes);
    }
    if workload == Workload::ColdDeploy {
        let mut epoch = None;
        for (j, frame) in inputs.updates[..applied].iter().enumerate() {
            let client = &mut dep.clients[0];
            run::send_update(client, dep.key, frame, update_id(j), &mut epoch, Some(tracer), tally);
        }
    }
    counters.add_service(&service0, &dep.service.stats());
    counters.add_batch(&batch0, &tenant.batcher.stats());
    counters.overloaded = dep.server.stats().shed_overload - server0.shed_overload;
    drop(tenant);
    dep.stop();
    Ok(())
}

/// Encodes and decodes one query exchange the way the connection layer
/// does: the request frame out and in, the response frame out and in.
/// Returns the codec time in µs and the response frame's size.
fn codec(key: GraphFingerprint, queries: &[WireQuery], response: QueryResponse) -> (f64, usize) {
    let request = Request::Query(QueryRequest { deadline_ms: 0, queries: queries.to_vec() });
    let response = Response::Query(response);
    let t = Instant::now();
    let wire = request.to_frame(key).encode();
    let decoded = Frame::decode(wire).ok().and_then(|f| Request::from_frame(&f).ok());
    let out = response.to_frame(key).encode();
    let len = out.len();
    let back = Frame::decode(out).ok().and_then(|f| Response::from_frame(&f).ok());
    let us = t.elapsed().as_secs_f64() * 1e6;
    debug_assert!(decoded.as_ref() == Some(&request) && back.as_ref() == Some(&response));
    std::hint::black_box((decoded, back));
    (us, len)
}

/// Replays the requests through `SearchService` on a replica with TSD and
/// GCT built: the query frames via `top_r_many_pinned`, then each query via
/// `DiversityEngine::top_r` on the engine that answered it; after them the
/// first `applied` update frames via `apply_updates`. The replica serves
/// one call at a time, so the order only decides which graph the reads
/// see: the original, checked against the references. `cold-deploy`'s first [`COLD_REPLAY`] queries also run
/// on a fresh service each, as in the workload, under the span
/// `service.fallback`: the index miss and its fallback scan.
fn replay_service(
    workload: Workload,
    inputs: &Inputs,
    refs: &Refs,
    (sent, applied): (&[usize], usize),
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<Vec<sd_core::UpdateStats>, String> {
    let replica = SearchService::from_arc(inputs.graph.clone());
    replica.warmup([EngineKind::Tsd, EngineKind::Gct]);
    replica.wait_ready([EngineKind::Tsd, EngineKind::Gct]);
    let mut updates = Vec::new();
    let mut fallbacks = 0;
    for (id, queries) in replayed(inputs, sent).iter().flatten() {
        let on = |service: &SearchService, layer, id, tally: &mut Tally| {
            replay_query(service, layer, id, queries, refs, tracer, tally)
        };
        on(&replica, "service.query", *id, tally)?;
        if workload == Workload::ColdDeploy && fallbacks < COLD_REPLAY {
            let fresh = SearchService::from_arc(inputs.graph.clone());
            on(&fresh, "service.fallback", FALLBACK | id, tally)?;
            fresh.wait_ready([EngineKind::Gct]);
            fallbacks += 1;
        }
    }
    for (j, frame) in inputs.updates[..applied].iter().enumerate() {
        let result =
            span(Some(tracer), "service.apply", update_id(j), || replica.apply_updates(frame));
        match result {
            Ok(s) if s.applied == frame.len() => {
                tally.ok();
                updates.push(s);
            }
            Ok(s) => tally.wrong(format!("replica applied {} of {} ops", s.applied, frame.len())),
            Err(e) => tally.fail(e),
        }
    }
    if replica.fingerprint() != GraphFingerprint::of(&inputs.graph_after(applied)) {
        tally.wrong("replica fingerprint differs from the replayed graph".into());
    }
    Ok(updates)
}

/// One query frame through `service.top_r_many_pinned` (span `layer`),
/// then each query through `DiversityEngine::top_r` on the engine that
/// answered it; the answers are booked.
fn replay_query(
    service: &SearchService,
    layer: &'static str,
    id: u64,
    queries: &[WireQuery],
    refs: &Refs,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<(), String> {
    let specs: Vec<QuerySpec> = queries.iter().map(|q| q.to_spec().expect("valid spec")).collect();
    let results = match span(Some(tracer), layer, id, || service.top_r_many_pinned(&specs)) {
        Ok((_, results)) => results,
        Err(e) => {
            tally.fail(e);
            return Ok(());
        }
    };
    if !one_per_query(queries.len(), results.len(), tally) {
        return Ok(());
    }
    for ((q, spec), result) in queries.iter().zip(&specs).zip(results) {
        let kind = EngineKind::ALL
            .into_iter()
            .find(|k| k.name() == result.metrics.engine)
            .ok_or_else(|| format!("unknown engine {:?}", result.metrics.engine))?;
        let engine = service.engine(kind);
        span(Some(tracer), engine_names(kind).query_span, id, || engine.top_r(spec))
            .map_err(|e| e.to_string())?;
        run::book(q, &QueryOutcome::Answered(result.entries), refs, tally);
    }
    Ok(())
}

/// Builds TSD and GCT with `build_engine`, and runs every distinct
/// `(k, r)` of the workload on Online, Bound, TSD and GCT.
fn engines(
    inputs: &Inputs,
    refs: &Refs,
    tracer: &Tracer,
    layers: &mut Layers,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut specs: Vec<(u32, u64)> = inputs.distinct_queries().iter().map(|q| (q.k, q.r)).collect();
    specs.dedup();
    let reps = ENGINE_SAMPLES.div_ceil(specs.len().max(1));
    let mut sweeps: Vec<(EngineKind, Box<dyn DiversityEngine>)> = vec![
        (EngineKind::Online, build_engine(EngineKind::Online, inputs.graph.clone())),
        (EngineKind::Bound, build_engine(EngineKind::Bound, inputs.graph.clone())),
    ];
    for kind in [EngineKind::Tsd, EngineKind::Gct] {
        let names = engine_names(kind);
        let mut times = Vec::new();
        let mut engine = None;
        for i in 0..3 {
            let t = Instant::now();
            let built = span(Some(tracer), names.build_span, SWEEP | i, || {
                build_engine(kind, inputs.graph.clone())
            });
            times.push(ms(t.elapsed()));
            engine = Some(built);
        }
        let engine = engine.expect("built three times");
        let bytes = run::index_bytes(&*engine);
        layers.push(names.build, median(&times), "ms", times.len());
        layers.push(names.index, bytes as f64 / 1e6, "MB", 1);
        sweeps.push((kind, engine));
    }
    for (kind, engine) in &sweeps {
        let names = engine_names(*kind);
        let (mut times, mut space) = (Vec::new(), Vec::new());
        for rep in 0..reps {
            for (i, &(k, r)) in specs.iter().enumerate() {
                let spec = QuerySpec::new(k, r as usize).map_err(|e| e.to_string())?;
                let id = SWEEP | (rep * specs.len() + i) as u64;
                let t = Instant::now();
                let result = span(Some(tracer), names.query_span, id, || engine.top_r(&spec))
                    .map_err(|e| e.to_string())?;
                times.push(ms(t.elapsed()));
                space.push(result.metrics.score_computations as f64);
                match refs.check(k, r, &result.scores()) {
                    Ok(()) => tally.ok(),
                    Err(what) => tally.wrong(format!("{}: {what}", kind.name())),
                }
            }
        }
        layers.p50(names.query, &times)?;
        layers.push(names.space, median(&space), "vertices", space.len());
    }
    Ok(())
}

/// Span and metric names of one engine.
struct EngineNames {
    query_span: &'static str,
    build_span: &'static str,
    query: &'static str,
    space: &'static str,
    build: &'static str,
    index: &'static str,
}

fn engine_names(kind: EngineKind) -> EngineNames {
    macro_rules! names {
        ($e:literal) => {
            EngineNames {
                query_span: concat!("engine.", $e),
                build_span: concat!("engine.", $e, ".build"),
                query: concat!("engine.", $e, ".query_p50_ms"),
                space: concat!("engine.", $e, ".search_space"),
                build: concat!("engine.", $e, ".build_ms"),
                index: concat!("engine.", $e, ".index_mb"),
            }
        };
    }
    match kind {
        EngineKind::Online => names!("online"),
        EngineKind::Bound => names!("bound"),
        EngineKind::Tsd => names!("tsd"),
        EngineKind::Gct => names!("gct"),
        other => unreachable!("no workload runs {}", other.name()),
    }
}

/// The kernels on the workload's graph, and the per-frame snapshot and
/// fingerprint the update path pays over the first `applied` frames.
fn kernels(inputs: &Inputs, applied: usize, tracer: &Tracer, layers: &mut Layers) {
    let g = &inputs.graph;
    let repeat = |layer: &'static str, reps: usize, f: &mut dyn FnMut()| -> (f64, usize) {
        let times: Vec<f64> = (0..reps)
            .map(|i| {
                let t = Instant::now();
                span(Some(tracer), layer, KERNEL | i as u64, &mut *f);
                ms(t.elapsed())
            })
            .collect();
        (median(&times), reps)
    };
    let mut triangles = 0;
    let (tri_ms, n) = repeat("kernel.triangles", 5, &mut || triangles = triangle_count(g));
    layers.push("kernel.triangles_ms", tri_ms, "ms", n);
    layers.push("kernel.triangles", triangles as f64, "count", 1);
    let (truss_ms, n) = repeat("kernel.truss", 3, &mut || {
        std::hint::black_box(truss_decomposition(g));
    });
    layers.push("kernel.truss_ms", truss_ms, "ms", n);
    let (core_ms, n) = repeat("kernel.core", 5, &mut || {
        std::hint::black_box(core_decomposition(g));
    });
    layers.push("kernel.core_ms", core_ms, "ms", n);

    // Every ego-network once: extraction, then peeling, timed apart.
    let (mut extract, mut peel, mut ego_edges) = (Duration::ZERO, Duration::ZERO, 0usize);
    for v in g.vertices() {
        let t = Instant::now();
        let ego = EgoNetwork::extract(g, v);
        let t1 = Instant::now();
        std::hint::black_box(truss_decomposition(&ego.graph));
        peel += t1.elapsed();
        extract += t1 - t;
        ego_edges += ego.m();
    }
    layers.push("kernel.ego_extract_ms", ms(extract), "ms", g.n());
    layers.push("kernel.ego_edges", ego_edges as f64, "count", g.n());
    layers.push("kernel.ego_truss_ms", ms(peel), "ms", g.n());

    let mut dynamic = DynamicGraph::from_base(g.clone());
    let (mut snapshot, mut fingerprint) = (Vec::new(), Vec::new());
    for (j, frame) in inputs.updates[..applied].iter().enumerate() {
        dynamic.apply_batch(frame);
        let t = Instant::now();
        let csr = span(Some(tracer), "kernel.snapshot", update_id(j), || dynamic.to_csr());
        let t1 = Instant::now();
        std::hint::black_box(span(Some(tracer), "kernel.fingerprint", update_id(j), || {
            GraphFingerprint::of(&csr)
        }));
        fingerprint.push(ms(t1.elapsed()));
        snapshot.push(ms(t1 - t));
    }
    layers.push("kernel.snapshot_ms", median(&snapshot), "ms", snapshot.len());
    layers.push("kernel.fingerprint_ms", median(&fingerprint), "ms", fingerprint.len());
}

/// Writes the spans as tab-separated lines: layer, request id, the
/// parent span's line number (0 for none), start and end in µs from the
/// first span.
fn write_spans(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let origin = spans.iter().map(|s| s.start).min().unwrap_or_else(Instant::now);
    let mut first_of: HashMap<(usize, u64), usize> = HashMap::new();
    for (line, s) in spans.iter().enumerate() {
        first_of.entry((rank(s.layer), s.id)).or_insert(line + 1);
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "line\tlayer\tid\tparent\tstart_us\tend_us")?;
    for (line, s) in spans.iter().enumerate() {
        let r = rank(s.layer);
        let parent =
            (0..r).rev().find_map(|outer| first_of.get(&(outer, s.id))).copied().unwrap_or(0);
        writeln!(
            out,
            "{}\t{}\t{:#x}\t{}\t{:.3}\t{:.3}",
            line + 1,
            s.layer,
            s.id,
            parent,
            (s.start - origin).as_secs_f64() * 1e6,
            (s.end - origin).as_secs_f64() * 1e6
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_positive_when_tracing_costs() {
        assert_eq!(overhead_pct(2.0, 2.5), 25.0);
        assert!(overhead_pct(2.5, 2.0) < 0.0);
    }
}
