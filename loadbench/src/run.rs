//! The measured run of each workload: set-up, the traffic, the probes
//! that give every end-to-end metric its samples, and the answer checks.

use std::collections::BTreeMap;
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sd_core::{
    DiversityEngine, EngineKind, GraphFingerprint, OnlineEngine, QuerySpec, SearchService,
    ServiceStats,
};
use sd_graph::{CsrGraph, GraphUpdate};
use sd_server::{
    BatchLimits, BatchStats, Client, ClientConfig, QueryOutcome, Server, ServerConfig,
    TenantRegistry, WireQuery,
};

use crate::alloc;
use crate::gen::{Config, Inputs, Workload};
use crate::stats::{median, ms, percentile, Best, Metric};
use crate::trace::{span, Tracer};

/// A wire query frame slower than this, timed from when it went out,
/// counts as failed. `BENCHMARK.json` states the same limits in each `why`.
pub const QUERY_LIMIT: Duration = Duration::from_millis(250);
/// The same for one update frame.
pub const UPDATE_LIMIT: Duration = Duration::from_millis(1000);
/// The same for `cold-deploy`'s first query of a cycle.
pub const COLD_LIMIT: Duration = Duration::from_millis(2000);

/// `cold-deploy` runs past `--seconds` if needed to reach this many
/// cycles: 10 beyond its p90.
pub const MIN_COLD_CYCLES: usize = 100;

/// The thresholds `cold-deploy` cycles through.
pub const COLD_KS: std::ops::RangeInclusive<u32> = 3..=5;

/// Connections the serving workloads open, one per generator thread.
pub const CONNECTIONS: usize = 2;

/// Every `FRESH_EVERY`-th query frame of a serving stream goes out on a
/// fresh connection (connect, send, close); its latency is a `cold_query`
/// sample. Rarer would leave too few repeats of each fresh frame, more
/// often would pile up closed sockets across back-to-back runs.
pub const FRESH_EVERY: usize = 4;

/// A standing-connection frame's sample is its best of this many repeats;
/// a slow run still sends each about 25 times.
pub const STANDING_REPEATS: usize = 20;

/// The same for a frame sent on fresh connections (about 9 in a slow run).
const FRESH_REPEATS: usize = 8;

/// Every update request is sent this many times, and its sample is its
/// best repeat.
const UPDATE_REPEATS: usize = 4;

/// `serve-burst`'s measured phase is this many segments. Each sends reads
/// on both connections, then update requests on the first, ending on an
/// undo, so the reads always meet the original graph and the repeats of
/// every request are spread over the whole run.
const SEGMENTS: usize = 10;

/// The share of `--seconds` spent on reads; the update requests take what
/// they take.
const READ_SHARE: f64 = 2.0 / 3.0;

/// Update requests `cold-deploy` applies after each cycle: two frames,
/// each followed by its undo.
pub const UPDATES_PER_CYCLE: usize = 4;

/// Span id of query frame `seq` on stream `stream`.
pub fn query_id(stream: usize, seq: usize) -> u64 {
    ((stream as u64) << 32) | seq as u64
}

/// Span id of update frame `frame` (its index in [`Inputs::updates`]).
pub fn update_id(frame: usize) -> u64 {
    UPDATE | frame as u64
}

/// High bits that keep the span ids of different request kinds apart.
pub const UPDATE: u64 = 1 << 63;
pub const SWEEP: u64 = 1 << 62;
pub const FALLBACK: u64 = 1 << 61;
pub const SETUP: u64 = 1 << 60;
pub const KERNEL: u64 = 1 << 59;

/// Operations attempted, failed and answered wrongly.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    /// The first wrong answer, for the error message.
    pub first_wrong: Option<String>,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, what: impl std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        if self.failed <= 3 {
            eprintln!("failed: {what}");
        }
    }

    pub fn wrong(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        self.wrong += 1;
        self.first_wrong.get_or_insert(what);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        if self.first_wrong.is_none() {
            self.first_wrong = other.first_wrong;
        }
    }
}

/// Reference top score multisets, per `k`, from the index-free Online
/// engine.
pub struct Refs {
    by_k: BTreeMap<u32, Vec<u32>>,
}

impl Refs {
    /// Scans `graph` once per distinct `k` of `queries`, at the largest
    /// `r` asked with it.
    pub fn compute(graph: &Arc<CsrGraph>, queries: &[WireQuery]) -> Refs {
        let mut r_max: BTreeMap<u32, u64> = BTreeMap::new();
        for q in queries {
            let r = r_max.entry(q.k).or_default();
            *r = (*r).max(q.r);
        }
        let online = OnlineEngine::new(graph.clone());
        let by_k = r_max
            .into_iter()
            .map(|(k, r)| {
                let spec = QuerySpec::new(k, r as usize).expect("generated specs are valid");
                (k, online.top_r(&spec).expect("r is at most n").scores())
            })
            .collect();
        Refs { by_k }
    }

    /// The top-`r` scores for `k`, if `k` was computed.
    pub fn get(&self, k: u32, r: u64) -> Option<&[u32]> {
        self.by_k.get(&k).and_then(|s| s.get(..r as usize))
    }

    /// Whether `scores` answer `(k, r)`; a mismatch is described.
    pub fn check(&self, k: u32, r: u64, scores: &[u32]) -> Result<(), String> {
        match self.get(k, r) {
            Some(expected) if expected == scores => Ok(()),
            expected => Err(format!("k={k} r={r}: got {scores:?}, expected {expected:?}")),
        }
    }
}

/// A reply must carry one outcome per query. When it does not, every
/// query of the frame is booked as a wrong answer and this is false.
pub fn one_per_query(queries: usize, outcomes: usize, tally: &mut Tally) -> bool {
    if outcomes == queries {
        return true;
    }
    for _ in 0..queries.max(1) {
        tally.wrong(format!("{outcomes} outcomes for {queries} queries"));
    }
    false
}

/// Books a frame's outcomes against its queries and `refs`.
pub fn book_frame(
    queries: &[WireQuery],
    outcomes: &[QueryOutcome],
    refs: &Refs,
    tally: &mut Tally,
) {
    if one_per_query(queries.len(), outcomes.len(), tally) {
        for (q, outcome) in queries.iter().zip(outcomes) {
            book(q, outcome, refs, tally);
        }
    }
}

/// Books one query outcome against `refs`.
pub fn book(q: &WireQuery, outcome: &QueryOutcome, refs: &Refs, tally: &mut Tally) {
    match outcome {
        QueryOutcome::Answered(entries) => {
            let scores: Vec<u32> = entries.iter().map(|e| e.score).collect();
            match refs.check(q.k, q.r, &scores) {
                Ok(()) => tally.ok(),
                Err(what) => tally.wrong(what),
            }
        }
        QueryOutcome::Failed { code, message } => {
            tally.fail(format_args!("query failed ({code:?}): {message}"))
        }
        QueryOutcome::Expired => tally.fail("query expired"),
    }
}

/// How long each frame of a stream took.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// From when the frame went out to its reply.
    pub latency: Duration,
    /// How long after the previous reply the generator sent it.
    pub lag: Duration,
}

/// Closed loop: sends frame after frame until `until`.
pub fn closed_loop<R>(until: Instant, mut send: impl FnMut(usize) -> R) -> Vec<(Timing, R)> {
    let mut out = Vec::new();
    let mut previous: Option<Instant> = None;
    while Instant::now() < until {
        let sent = Instant::now();
        let reply = send(out.len());
        let done = Instant::now();
        let lag = previous.map_or(Duration::ZERO, |p| sent.saturating_duration_since(p));
        out.push((Timing { latency: done - sent, lag }, reply));
        previous = Some(done);
    }
    out
}

/// What one connection's traffic measured, over every segment.
struct StreamRun {
    /// Each distinct frame's best latency on the standing connection.
    query: Best,
    /// The same for the frames sent on a fresh connection, connect
    /// included.
    cold: Best,
    lag_ms: Vec<f64>,
    /// Frames sent so far; the next segment continues the stream there.
    sent: usize,
    /// The last epoch the standing connection saw.
    epoch: Option<u64>,
    tally: Tally,
}

impl StreamRun {
    fn new() -> StreamRun {
        StreamRun {
            query: Best::first(STANDING_REPEATS),
            cold: Best::first(FRESH_REPEATS),
            lag_ms: Vec::new(),
            sent: 0,
            epoch: None,
            tally: Tally::default(),
        }
    }
}

/// Client timeouts bound a wedged server; retries are off, so every
/// `Overloaded` reply counts as a failure.
pub fn client_config() -> ClientConfig {
    ClientConfig {
        connect_timeout: Some(Duration::from_secs(5)),
        io_timeout: Some(Duration::from_secs(30)),
        retries: 0,
    }
}

/// One query frame over the wire, checked against `refs` and booked; the
/// epoch must not go back on a connection.
#[allow(clippy::too_many_arguments)]
pub fn query_frame(
    client: &mut Client,
    key: GraphFingerprint,
    queries: &[WireQuery],
    id: u64,
    refs: &Refs,
    epoch: &mut Option<u64>,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) {
    match span(tracer, "conn.query", id, || client.query(key, 0, queries.to_vec())) {
        Ok(resp) => {
            if epoch.is_some_and(|e| resp.epoch < e) {
                tally.wrong(format!("epoch went back from {epoch:?} to {}", resp.epoch));
            }
            *epoch = Some(resp.epoch);
            book_frame(queries, &resp.outcomes, refs, tally);
        }
        Err(e) => {
            for _ in queries {
                tally.fail(&e);
            }
        }
    }
}

/// One update request over the wire: every op must apply, at the epoch
/// after the previous request's, within [`UPDATE_LIMIT`]. Returns its time
/// in ms.
pub fn send_update(
    client: &mut Client,
    key: GraphFingerprint,
    frame: &[GraphUpdate],
    id: u64,
    epoch: &mut Option<u64>,
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> f64 {
    let t = Instant::now();
    let result = span(tracer, "conn.update", id, || client.update(key, frame.to_vec()));
    let took = t.elapsed();
    match result {
        Ok(resp) => {
            let next = epoch.map_or(resp.epoch, |e| e + 1);
            if resp.applied != frame.len() as u64 || resp.epoch != next {
                tally.wrong(format!(
                    "update applied {} of {} ops at epoch {} (expected epoch {next})",
                    resp.applied,
                    frame.len(),
                    resp.epoch
                ));
            } else if took > UPDATE_LIMIT {
                tally.fail(format_args!("update frame {took:?} over the {UPDATE_LIMIT:?} limit"));
            } else {
                tally.ok();
            }
            *epoch = Some(resp.epoch);
        }
        Err(e) => tally.fail(&e),
    }
    ms(took)
}

/// Drives stream `index` over `client`, from where it stopped, until
/// `until`; its fresh-connection frames go to `addr` instead (see
/// [`Inputs::frame`]). A frame is keyed by its place in its list, so its
/// repeats in later cycles and segments meet in one [`Best`].
#[allow(clippy::too_many_arguments)]
fn drive(
    client: &mut Client,
    addr: SocketAddr,
    key: GraphFingerprint,
    inputs: &Inputs,
    index: usize,
    until: Instant,
    refs: &Refs,
    tracer: Option<&Tracer>,
    run: &mut StreamRun,
) {
    let from = run.sent;
    let (tally, epoch) = (&mut run.tally, &mut run.epoch);
    let send = |i: usize| {
        let seq = from + i;
        let (queries, fresh, place) = inputs.frame(index, seq);
        let id = query_id(index, seq);
        if !fresh {
            query_frame(client, key, queries, id, refs, epoch, tracer, tally);
            return (false, place);
        }
        let connect = || Client::connect_with(addr, client_config());
        match span(tracer, "conn.connect", id, connect) {
            Ok(mut fresh) => {
                query_frame(&mut fresh, key, queries, id, refs, &mut None, tracer, tally);
            }
            Err(e) => queries.iter().for_each(|_| tally.fail(&e)),
        }
        (true, place)
    };
    let timed = closed_loop(until, send);
    for (timing, (fresh, place)) in &timed {
        let best = if *fresh { &mut run.cold } else { &mut run.query };
        best.add(query_id(index, *place), ms(timing.latency));
        if timing.latency > QUERY_LIMIT {
            run.tally.fail(format_args!("{:?} over the {QUERY_LIMIT:?} limit", timing.latency));
        }
        run.lag_ms.push(ms(timing.lag));
    }
    run.sent += timed.len();
}

/// A running serving stack with its connections.
pub struct Deployment {
    pub service: Arc<SearchService>,
    pub registry: Arc<TenantRegistry>,
    pub server: Server,
    pub key: GraphFingerprint,
    pub clients: Vec<Client>,
}

impl Deployment {
    /// Set-up: a service with TSD and GCT built, a server with the
    /// shipped defaults, `conns` connections, and one checked warm-up
    /// query on each. Returns the deployment and the set-up time.
    pub fn start(
        graph: &Arc<CsrGraph>,
        conns: usize,
        refs: &Refs,
        id: u64,
        tracer: Option<&Tracer>,
        tally: &mut Tally,
    ) -> io::Result<(Deployment, Duration)> {
        let t0 = Instant::now();
        let service = span(tracer, "setup.build", id, || {
            let service = Arc::new(SearchService::from_arc(graph.clone()));
            service.warmup([EngineKind::Tsd, EngineKind::Gct]);
            service.wait_ready([EngineKind::Tsd, EngineKind::Gct]);
            service
        });
        let registry = Arc::new(TenantRegistry::new(BatchLimits::default()));
        let key = registry
            .register(service.clone())
            .map_err(|_| io::Error::other("tenant fingerprint already registered"))?;
        let server = span(tracer, "setup.server", id, || {
            Server::start(ServerConfig::new(), registry.clone())
        })?;
        let clients = span(tracer, "setup.connect", id, || {
            (0..conns)
                .map(|_| Client::connect_with(server.local_addr(), client_config()))
                .collect::<io::Result<Vec<_>>>()
        })?;
        let mut dep = Deployment { service, registry, server, key, clients };
        span(tracer, "setup.warm", id, || {
            let warm = [WireQuery::new(3, 10)];
            for client in &mut dep.clients {
                query_frame(client, key, &warm, id, refs, &mut None, None, tally);
            }
        });
        Ok((dep, t0.elapsed()))
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Closes the connections, drains the server and drops the service.
    pub fn stop(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// Counter movements over a measured phase, for the traced run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub queries: usize,
    pub fallbacks: usize,
    pub parallel: usize,
    pub background_builds: usize,
    pub batched: u64,
    pub batches: u64,
    pub expired: u64,
    pub shed: u64,
    pub cancelled: u64,
    pub overloaded: u64,
}

impl Counters {
    pub fn add_service(&mut self, before: &ServiceStats, after: &ServiceStats) {
        self.queries += after.queries_served - before.queries_served;
        self.fallbacks += after.foreground_fallbacks - before.foreground_fallbacks;
        self.parallel += after.parallel_queries - before.parallel_queries;
        self.background_builds += after.background_builds - before.background_builds;
    }

    pub fn add_batch(&mut self, before: &BatchStats, after: &BatchStats) {
        self.batched += after.queries_batched - before.queries_batched;
        self.batches += after.batches_executed - before.batches_executed;
        self.expired += after.expired - before.expired;
        self.shed += after.shed_queue_full - before.shed_queue_full;
        self.cancelled += after.cancelled - before.cancelled;
    }
}

/// Heap bytes of an index engine's index; 0 for the index-free engines.
pub fn index_bytes(engine: &dyn DiversityEngine) -> usize {
    engine
        .gct_index()
        .map(|i| i.index_size_bytes())
        .or_else(|| engine.tsd_index().map(|i| i.index_size_bytes()))
        .unwrap_or(0)
}

/// A finished measured run.
pub struct Run {
    /// Every end-to-end metric.
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Frames each stream sent in the measured phase (cycles, for
    /// `cold-deploy`).
    pub sent: Vec<usize>,
    /// How many requests of [`Inputs::updates`] the run applied, cycled.
    pub updates_applied: usize,
    /// How late the generator sent its frames (see [`Timing::lag`]);
    /// for `cold-deploy`, the caller's own time between cycles.
    pub lag_ms: Vec<f64>,
    pub counters: Counters,
    pub gct_index_bytes: usize,
    pub tsd_index_bytes: usize,
}

/// Runs `workload` once and measures it.
pub fn run(
    workload: Workload,
    config: &Config,
    inputs: &Inputs,
    refs: &Refs,
    tracer: Option<&Tracer>,
) -> Result<Run, String> {
    alloc::reset_peak();
    let mut run = match workload {
        Workload::ColdDeploy => cold(config, inputs, refs, tracer),
        Workload::ServeBurst => serve(config, inputs, refs, tracer).map_err(|e| e.to_string()),
    }?;
    run.metrics.push(Metric::new("peak_heap_mb", alloc::peak_bytes() as f64 / 1e6, "MB", 1));
    Ok(run)
}

fn p(values: &[f64], q: f64) -> Result<f64, String> {
    percentile(values, q).map_err(|e| e.to_string())
}

fn end_to_end(
    setup: &[f64],
    query_ms: &[f64],
    update_ms: &[f64],
    cold_ms: &[f64],
) -> Result<Vec<Metric>, String> {
    Ok(vec![
        Metric::new("setup_s", median(setup), "s", setup.len()),
        Metric::new("query_p50_ms", p(query_ms, 0.5)?, "ms", query_ms.len()),
        Metric::new("query_p90_ms", p(query_ms, 0.9)?, "ms", query_ms.len()),
        Metric::new("update_p50_ms", p(update_ms, 0.5)?, "ms", update_ms.len()),
        Metric::new("update_p90_ms", p(update_ms, 0.9)?, "ms", update_ms.len()),
        Metric::new("cold_query_p50_ms", p(cold_ms, 0.5)?, "ms", cold_ms.len()),
        Metric::new("cold_query_p90_ms", p(cold_ms, 0.9)?, "ms", cold_ms.len()),
    ])
}

/// `serve-burst`.
fn serve(
    config: &Config,
    inputs: &Inputs,
    refs: &Refs,
    tracer: Option<&Tracer>,
) -> io::Result<Run> {
    let mut tally = Tally::default();
    let mut setup = Vec::with_capacity(config.setups);
    let mut dep: Option<Deployment> = None;
    for i in 0..config.setups.max(1) {
        if let Some(previous) = dep.take() {
            previous.stop();
        }
        let (next, took) = Deployment::start(
            &inputs.graph,
            CONNECTIONS,
            refs,
            SETUP | i as u64,
            tracer,
            &mut tally,
        )?;
        setup.push(took.as_secs_f64());
        dep = Some(next);
    }
    let mut dep = dep.expect("at least one set-up");
    let tenant = dep.registry.lookup(&dep.key).expect("registered tenant");
    let gct_index_bytes = index_bytes(&*dep.service.engine(EngineKind::Gct));
    let tsd_index_bytes = index_bytes(&*dep.service.engine(EngineKind::Tsd));
    let (service0, batch0, server0) =
        (dep.service.stats(), tenant.batcher.stats(), dep.server.stats());

    let (key, addr) = (dep.key, dep.addr());
    let mut streams: Vec<StreamRun> = inputs.streams.iter().map(|_| StreamRun::new()).collect();
    let (mut updates, mut applied, mut epoch) = (Best::first(UPDATE_REPEATS), 0, None);
    let reads = Duration::from_secs_f64(config.seconds * READ_SHARE / SEGMENTS as f64);
    // An even count per segment, so each segment ends on an undo.
    let per_segment = inputs.updates.len() * UPDATE_REPEATS / SEGMENTS;
    assert_eq!(per_segment % 2, 0, "a segment must end on an undo");
    for _ in 0..SEGMENTS {
        let reads_until = Instant::now() + reads;
        std::thread::scope(|scope| {
            for (i, (client, run)) in dep.clients.iter_mut().zip(&mut streams).enumerate() {
                scope.spawn(move || {
                    drive(client, addr, key, inputs, i, reads_until, refs, tracer, run)
                });
            }
        });
        for _ in 0..per_segment {
            let j = applied % inputs.updates.len();
            let frame = &inputs.updates[j];
            let id = update_id(applied);
            let took =
                send_update(&mut dep.clients[0], key, frame, id, &mut epoch, tracer, &mut tally);
            updates.add(j as u64, took);
            applied += 1;
        }
    }
    let (mut query, mut cold) = (Best::first(STANDING_REPEATS), Best::first(FRESH_REPEATS));
    let (mut lag_ms, mut sent) = (Vec::new(), Vec::new());
    for r in streams {
        query.merge(r.query);
        cold.merge(r.cold);
        lag_ms.extend(r.lag_ms);
        sent.push(r.sent);
        tally.merge(r.tally);
    }
    check_fingerprint(&mut dep.clients[0], key, &inputs.graph_after(applied), &mut tally);

    let mut counters = Counters::default();
    counters.add_service(&service0, &dep.service.stats());
    counters.add_batch(&batch0, &tenant.batcher.stats());
    counters.overloaded = dep.server.stats().shed_overload - server0.shed_overload;
    let metrics = end_to_end(&setup, &query.values(), &updates.values(), &cold.values())
        .map_err(io::Error::other)?;
    drop(tenant);
    dep.stop();
    Ok(Run {
        metrics,
        tally,
        sent,
        updates_applied: applied,
        lag_ms,
        counters,
        gct_index_bytes,
        tsd_index_bytes,
    })
}

/// The tenant's current fingerprint must be that of the graph the update
/// requests lead to, replayed apart from the service.
fn check_fingerprint(
    client: &mut Client,
    key: GraphFingerprint,
    expected: &CsrGraph,
    tally: &mut Tally,
) {
    match client.tenant_stats(key) {
        Ok(stats) if stats.fingerprint == GraphFingerprint::of(expected) => tally.ok(),
        Ok(stats) => tally.wrong(format!(
            "tenant fingerprint {} after the updates, expected {}",
            stats.fingerprint,
            GraphFingerprint::of(expected)
        )),
        Err(e) => tally.fail(e),
    }
}

/// `cold-deploy`: cycles of a fresh service whose first query misses the
/// index. After each cycle [`UPDATES_PER_CYCLE`] update requests go
/// through `apply_updates` on a standing service with TSD and GCT built,
/// so every update request repeats across the whole measured phase.
fn cold(
    config: &Config,
    inputs: &Inputs,
    refs: &Refs,
    tracer: Option<&Tracer>,
) -> Result<Run, String> {
    let mut tally = Tally::default();
    let mut counters = Counters::default();
    let standing = SearchService::from_arc(inputs.graph.clone());
    standing.warmup([EngineKind::Tsd, EngineKind::Gct]);
    standing.wait_ready([EngineKind::Tsd, EngineKind::Gct]);
    let gct_index_bytes = index_bytes(&*standing.engine(EngineKind::Gct));
    let tsd_index_bytes = index_bytes(&*standing.engine(EngineKind::Tsd));

    let (mut setup, mut query_ms, mut cold_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut updates, mut applied) = (Best::first(UPDATE_REPEATS), 0);
    let stream = &inputs.streams[0];
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(config.seconds);
    let mut cycle = 0;
    let (mut lag_ms, mut previous) = (Vec::new(), start);
    // A slow machine still gets the samples a named p90 needs.
    while Instant::now() < until || cycle < MIN_COLD_CYCLES {
        let q = stream[cycle % stream.len()][0];
        let spec = q.to_spec().map_err(|e| e.to_string())?;
        let id = query_id(0, cycle);
        let t0 = Instant::now();
        lag_ms.push(ms(t0 - previous));
        let service = SearchService::from_arc(inputs.graph.clone());
        let tq = Instant::now();
        let first = span(tracer, "cold.first", id, || service.top_r(&spec));
        let first_took = tq.elapsed();
        span(tracer, "cold.ready", id, || service.wait_ready([EngineKind::Gct]));
        setup.push(t0.elapsed().as_secs_f64());
        cold_ms.push(ms(first_took));
        // The warm GCT queries: this cycle's, then the other thresholds,
        // three samples per cycle for `query_p50_ms`/`query_p90_ms`.
        let mut warm_scores = None;
        for k in std::iter::once(q.k).chain(COLD_KS.filter(|&k| k != q.k)) {
            let warm_spec = QuerySpec::new(k, q.r as usize).map_err(|e| e.to_string())?;
            let warm_spec = warm_spec.with_engine(EngineKind::Gct);
            let tw = Instant::now();
            let warm = span(tracer, "cold.warm", id, || service.top_r(&warm_spec));
            query_ms.push(ms(tw.elapsed()));
            match warm {
                Ok(warm) => {
                    match refs.check(k, q.r, &warm.scores()) {
                        Ok(()) => tally.ok(),
                        Err(what) => tally.wrong(what),
                    }
                    warm_scores.get_or_insert(warm.scores());
                }
                Err(e) => tally.fail(e),
            }
        }
        counters.add_service(&ServiceStats::default(), &service.stats());
        drop(service);
        match first {
            Ok(first) => match refs.check(q.k, q.r, &first.scores()) {
                Ok(()) if warm_scores == Some(first.scores()) => tally.ok(),
                Ok(()) => tally.wrong(format!("k={}: fallback and GCT answers differ", q.k)),
                Err(what) => tally.wrong(what),
            },
            Err(e) => tally.fail(e),
        }
        if first_took > COLD_LIMIT {
            tally.fail(format_args!("first query {first_took:?} over the {COLD_LIMIT:?} limit"));
        }
        for _ in 0..UPDATES_PER_CYCLE {
            let j = applied % inputs.updates.len();
            let took = apply_frame(&standing, applied, &inputs.updates[j], tracer, &mut tally);
            updates.add(j as u64, took);
            applied += 1;
        }
        previous = Instant::now();
        cycle += 1;
    }
    if standing.fingerprint() == GraphFingerprint::of(&inputs.graph_after(applied)) {
        tally.ok();
    } else {
        tally.wrong("service fingerprint after the updates differs from the replay".into());
    }
    let metrics = end_to_end(&setup, &query_ms, &updates.values(), &cold_ms)?;
    Ok(Run {
        metrics,
        tally,
        sent: vec![cycle],
        updates_applied: applied,
        lag_ms,
        counters,
        gct_index_bytes,
        tsd_index_bytes,
    })
}

/// Applies update request `j` through [`SearchService::apply_updates`],
/// checking that every op applies; returns its time in ms.
fn apply_frame(
    service: &SearchService,
    j: usize,
    frame: &[GraphUpdate],
    tracer: Option<&Tracer>,
    tally: &mut Tally,
) -> f64 {
    let t = Instant::now();
    let result = span(tracer, "cold.apply", update_id(j), || service.apply_updates(frame));
    let took = t.elapsed();
    match result {
        Ok(s) if s.applied == frame.len() => {
            if took > UPDATE_LIMIT {
                tally.fail(format_args!("update frame {took:?} over the {UPDATE_LIMIT:?} limit"));
            } else {
                tally.ok();
            }
        }
        Ok(s) => tally.wrong(format!("update applied {} of {} ops", s.applied, frame.len())),
        Err(e) => tally.fail(e),
    }
    ms(took)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_core::TopREntry;

    fn answered(scores: &[u32]) -> QueryOutcome {
        let entry = |(vertex, &score)| TopREntry { vertex, score, contexts: Vec::new() };
        QueryOutcome::Answered(scores.iter().zip(0..).map(|(s, v)| entry((v, s))).collect())
    }

    #[test]
    fn a_reply_short_of_outcomes_is_a_wrong_answer() {
        let refs = Refs { by_k: BTreeMap::from([(3, vec![5, 4, 3])]) };
        let queries = [WireQuery::new(3, 2), WireQuery::new(3, 3)];
        let mut tally = Tally::default();
        let full = [answered(&[5, 4]), answered(&[5, 4, 3])];
        book_frame(&queries, &full, &refs, &mut tally);
        assert_eq!((tally.attempted, tally.wrong), (2, 0));

        let mut tally = Tally::default();
        book_frame(&queries, &full[..1], &refs, &mut tally);
        assert_eq!((tally.attempted, tally.failed, tally.wrong), (2, 2, 2));
        let mut tally = Tally::default();
        book_frame(&queries, &[], &refs, &mut tally);
        assert_eq!(tally.wrong, 2);

        let mut tally = Tally::default();
        let wrong = [answered(&[5, 4]), answered(&[5, 4, 2])];
        book_frame(&queries, &wrong, &refs, &mut tally);
        assert_eq!((tally.attempted, tally.wrong), (2, 1));
    }

    #[test]
    fn closed_loop_stops_at_the_deadline() {
        let until = Instant::now() + Duration::from_millis(30);
        let timed = closed_loop(until, |_| std::thread::sleep(Duration::from_millis(5)));
        assert!((4..=7).contains(&timed.len()), "{}", timed.len());
        assert!(timed[0].0.lag.is_zero());
        assert!(timed.iter().all(|(t, _)| t.lag < Duration::from_millis(5)));
    }
}
