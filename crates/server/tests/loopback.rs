//! Loopback end-to-end suite: a real `Server` on 127.0.0.1, real TCP
//! clients, two tenants, concurrent batched queries racing live updates —
//! wire answers must byte-match in-process answers for the epoch each
//! response reports. Plus the operational paths: every admission shed is
//! a typed `Overloaded`, an engine the service does not serve fails its
//! own slot, deadlines produce partial batches, and graceful shutdown
//! drains accepted requests.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sd_core::{
    paper_figure18_graph, paper_figure1_graph, EngineKind, GraphFingerprint, QuerySpec,
    SearchService, TopREntry, WorkerPool,
};
use sd_graph::GraphUpdate;
use sd_server::{
    AdmissionLimits, BatchLimits, Client, ErrorCode, OverloadReason, QueryOutcome, Response,
    ServeError, Server, ServerConfig, TenantRegistry, WireQuery,
};

fn figure1_service() -> Arc<SearchService> {
    let (graph, _, _) = paper_figure1_graph();
    Arc::new(SearchService::new(graph))
}

fn figure18_service() -> Arc<SearchService> {
    let (graph, _, _) = paper_figure18_graph();
    Arc::new(SearchService::new(graph))
}

/// `service` with its GCT index built, so a query runs without a build.
fn warmed(service: Arc<SearchService>) -> Arc<SearchService> {
    service.wait_ready([EngineKind::Gct]);
    service
}

/// A warmed Figure-1 service on a 1-thread private pool whose only worker
/// stays parked until the returned sender is dropped: the batch leader is
/// a pool job, so every query frame waits in the accumulator until then.
fn parked_figure1_service() -> (Arc<SearchService>, Sender<()>) {
    let (graph, _, _) = paper_figure1_graph();
    let service = Arc::new(SearchService::with_pool(graph, Arc::new(WorkerPool::new(1))));
    service.wait_ready([EngineKind::Gct]);
    let (release, parked) = channel::<()>();
    service.pool().submit(move || {
        let _ = parked.recv();
    });
    (service, release)
}

/// Spins until `probe` returns true or ~5 s elapse.
fn wait_for(what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn start(
    batch: BatchLimits,
    admission: AdmissionLimits,
    services: Vec<Arc<SearchService>>,
) -> (Server, Vec<GraphFingerprint>) {
    let registry = Arc::new(TenantRegistry::new(batch));
    let keys = services
        .into_iter()
        .map(|svc| registry.register(svc).expect("unique fingerprint"))
        .collect();
    let config = ServerConfig::new()
        .addr("127.0.0.1:0")
        .admission(admission)
        .drain_grace(Duration::from_secs(20));
    (Server::start(config, registry).expect("bind"), keys)
}

/// The tentpole E2E: two tenants, several client threads firing batched
/// queries while another client applies live updates over TCP. Every
/// QueryOk reports the exact epoch it pinned; a client-side replica
/// applying the same update batches reproduces every epoch's expected
/// answer, and all observed (epoch, entries) pairs must byte-match it.
#[test]
fn concurrent_queries_and_updates_match_in_process_answers() {
    let (server, keys) = start(
        BatchLimits::default(),
        AdmissionLimits::default(),
        vec![warmed(figure1_service()), warmed(figure18_service())],
    );
    let addr = server.local_addr();
    let (key1, key18) = (keys[0], keys[1]);
    let spec1 = QuerySpec::new(3, 4).unwrap().with_engine(EngineKind::Gct);
    let spec18 = QuerySpec::new(4, 3).unwrap().with_engine(EngineKind::Gct);
    let wire1 = WireQuery { k: 3, r: 4, engine: EngineKind::Gct };
    let wire18 = WireQuery { k: 4, r: 3, engine: EngineKind::Gct };

    // Client-side replica of tenant 1: applies the same update batches in
    // the same order, so its epoch numbering and answers match the
    // server's tenant exactly.
    let replica = warmed(figure1_service());
    let expected1: Arc<Mutex<HashMap<u64, Vec<TopREntry>>>> = Arc::new(Mutex::new(HashMap::new()));
    expected1.lock().unwrap().insert(0, replica.top_r(&spec1).unwrap().entries);
    let expected18 = warmed(figure18_service()).top_r(&spec18).unwrap().entries;

    const UPDATE_BATCHES: u64 = 6;
    let updater = {
        let replica = replica.clone();
        let expected1 = expected1.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("updater connect");
            for i in 0..UPDATE_BATCHES {
                // Toggle a non-paper edge: every batch applies, so every
                // batch publishes exactly one epoch on both sides.
                let batch = if i % 2 == 0 {
                    vec![GraphUpdate::Insert { u: 0, v: 40 }]
                } else {
                    vec![GraphUpdate::Remove { u: 0, v: 40 }]
                };
                let resp = client.update(key1, batch.clone()).expect("wire update");
                assert_eq!(resp.applied, 1);
                assert_eq!(resp.epoch, i + 1, "wire epochs are sequential");
                let mirror = replica.apply_updates(&batch).expect("replica update");
                assert_eq!(mirror.epoch, resp.epoch, "replica tracks wire epochs");
                expected1
                    .lock()
                    .unwrap()
                    .insert(resp.epoch, replica.top_r(&spec1).unwrap().entries);
                std::thread::sleep(Duration::from_millis(3));
            }
        })
    };

    // Tenant-1 queriers: collect observed (epoch, entries) pairs and
    // verify after every thread joined — no races with the updater's
    // bookkeeping.
    let mut queriers = Vec::new();
    for _ in 0..2 {
        queriers.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("querier connect");
            let mut observed = Vec::new();
            for _ in 0..20 {
                let resp = client.query(key1, 0, vec![wire1]).expect("wire query");
                assert_eq!(resp.outcomes.len(), 1);
                let QueryOutcome::Answered(entries) = resp.outcomes.into_iter().next().unwrap()
                else {
                    panic!("expected an answer");
                };
                observed.push((resp.epoch, entries));
                std::thread::sleep(Duration::from_millis(1));
            }
            observed
        }));
    }
    // Tenant-18 querier: no updates there, so every answer is epoch 0 and
    // byte-identical — multi-tenant routing does not bleed across graphs.
    let quiet = {
        let expected18 = expected18.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("quiet connect");
            for _ in 0..15 {
                let resp = client.query(key18, 0, vec![wire18]).expect("wire query");
                assert_eq!(resp.epoch, 0, "tenant 18 never updated");
                let QueryOutcome::Answered(entries) = &resp.outcomes[0] else {
                    panic!("expected an answer");
                };
                assert_eq!(entries, &expected18, "tenant 18 answers never drift");
            }
        })
    };

    updater.join().expect("updater");
    quiet.join().expect("quiet querier");
    let expected1 = expected1.lock().unwrap();
    let mut checked = 0usize;
    for handle in queriers {
        for (epoch, entries) in handle.join().expect("querier") {
            let want = expected1
                .get(&epoch)
                .unwrap_or_else(|| panic!("answer pinned unpublished epoch {epoch}"));
            assert_eq!(&entries, want, "epoch {epoch} answer byte-matches in-process");
            checked += 1;
        }
    }
    assert_eq!(checked, 40, "every query verified against its epoch");
    drop(expected1);

    let stats = server.stats();
    assert!(stats.queries_batched >= 55, "tenant batchers saw the queries");
    assert!(stats.batches_executed >= 1);
    let report = server.shutdown();
    assert!(report.within_grace);
}

#[test]
fn connection_limit_sheds_with_typed_overloaded_frame() {
    let (server, keys) = start(
        BatchLimits::default(),
        AdmissionLimits { max_connections: 1, retry_after_ms: 7 },
        vec![figure1_service()],
    );
    let addr = server.local_addr();
    // First client occupies the single slot (a query proves it is live).
    let mut first = Client::connect(addr).expect("first connect");
    first.query(keys[0], 0, vec![WireQuery::new(3, 2)]).expect("admitted");
    // Second client is shed with the typed frame, not a hang or a bare
    // close.
    let mut second = Client::connect(addr).expect("tcp connect still succeeds");
    let resp = second.read_response().expect("typed shed frame");
    let Response::Overloaded(info) = resp else { panic!("expected Overloaded, got {resp:?}") };
    assert_eq!(info.reason, OverloadReason::Connections);
    assert_eq!((info.measured, info.limit, info.retry_after_ms), (1, 1, 7));
    // The shed connection is closed afterwards…
    assert!(second.read_response().is_err());
    // …and the admitted one keeps working.
    first.query(keys[0], 0, vec![WireQuery::new(3, 2)]).expect("still admitted");
    let report = server.shutdown();
    assert!(report.within_grace);
}

#[test]
fn full_query_queue_sheds_whole_frames_with_typed_overloaded_frame() {
    let (service, release) = parked_figure1_service();
    let (server, keys) = start(
        BatchLimits { max_pending: 1 },
        AdmissionLimits { retry_after_ms: 13, ..AdmissionLimits::default() },
        vec![service],
    );
    let addr = server.local_addr();
    let key = keys[0];
    let tenant = server.registry().lookup(&key).expect("registered");
    // Leader frame: its one query parks behind the parked worker.
    let leader = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("leader connect");
        client.query(key, 0, vec![WireQuery::new(3, 2)]).expect("leader admitted")
    });
    wait_for("the leader's query to park", || tenant.batcher.pending() == 1);
    // Second frame while the leader's query still occupies the 1-slot
    // accumulator: shed atomically.
    let mut client = Client::connect(addr).expect("connect");
    let err = client.query(key, 0, vec![WireQuery::new(3, 2)]).expect_err("accumulator full");
    let ServeError::Overloaded(info) = err else { panic!("expected Overloaded, got {err:?}") };
    assert_eq!(info.reason, OverloadReason::QueryQueue);
    assert_eq!((info.measured, info.limit, info.retry_after_ms), (1, 1, 13));
    // The shed did not hurt the parked leader.
    drop(release);
    let resp = leader.join().expect("leader thread");
    assert!(matches!(resp.outcomes[0], QueryOutcome::Answered(_)));
    let report = server.shutdown();
    assert!(report.within_grace);
}

#[test]
fn short_deadline_behind_a_running_batch_expires_and_its_mates_run() {
    // No window and no deadline-capped wait: a frame whose deadline
    // passes while a batch runs ahead of it is answered `Expired`, and
    // the frame that queued beside it runs in the next batch.
    let (graph, _, _) = paper_figure1_graph();
    let service = Arc::new(SearchService::with_pool(graph, Arc::new(WorkerPool::new(1))));
    let (server, keys) =
        start(BatchLimits::default(), AdmissionLimits::default(), vec![service.clone()]);
    let (addr, key) = (server.local_addr(), keys[0]);
    let tenant = server.registry().lookup(&key).expect("registered");
    // The running batch: an in-process frame whose completion callback
    // keeps its leader inside the batch until released.
    let (entered_tx, entered) = channel();
    let (release, held) = channel::<()>();
    let spec = QuerySpec::new(3, 2).unwrap();
    tenant
        .batcher
        .submit_many_async(&service, vec![spec], None, None, move |_| {
            let _ = entered_tx.send(());
            let _ = held.recv();
        })
        .expect("admitted");
    entered.recv_timeout(Duration::from_secs(10)).expect("the batch runs");

    let late = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client.query(key, 1, vec![WireQuery::new(3, 2), WireQuery::new(3, 3)]).expect("admitted")
    });
    wait_for("the 1 ms frame to queue", || tenant.batcher.pending() == 2);
    let mate = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client.query(key, 0, vec![WireQuery::new(3, 2)]).expect("admitted")
    });
    wait_for("the mate frame to queue", || tenant.batcher.pending() == 3);
    std::thread::sleep(Duration::from_millis(5)); // past the 1 ms deadline
    drop(release);

    let resp = late.join().expect("late frame thread");
    assert_eq!(resp.outcomes.len(), 2, "expired queries still get outcome slots");
    assert!(
        resp.outcomes.iter().all(|o| matches!(o, QueryOutcome::Expired)),
        "got {:?}",
        resp.outcomes
    );
    let resp = mate.join().expect("mate frame thread");
    assert!(matches!(resp.outcomes[0], QueryOutcome::Answered(_)), "got {:?}", resp.outcomes);
    let stats = tenant.batcher.stats();
    assert_eq!((stats.expired, stats.batches_executed), (2, 2), "the held batch, then one more");
    let report = server.shutdown();
    assert!(report.within_grace);
}

#[test]
fn expired_deadline_yields_partial_batch_not_a_drop() {
    // The batch leader is a pool job, so parking the pool pins *every*
    // pending query in the accumulator until release — a deterministic
    // way to hold a short-deadline frame past its deadline.
    let (service, release) = parked_figure1_service();
    let (server, keys) = start(BatchLimits::default(), AdmissionLimits::default(), vec![service]);
    let addr = server.local_addr();
    let key = keys[0];
    let tenant = server.registry().lookup(&key).expect("registered");

    // Frame A: no deadline. Its flush is queued behind the parked worker.
    let lively = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client.query(key, 0, vec![WireQuery::new(3, 2)]).expect("admitted")
    });
    wait_for("frame A to park", || tenant.batcher.pending() == 1);
    // Frame B: 1 ms deadline, coalescing behind A while the leader is
    // still parked. By the time the worker is released the deadline is
    // past — expired per-entry, never dropping its batch mates.
    let late = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client.query(key, 1, vec![WireQuery::new(3, 2), WireQuery::new(3, 3)]).expect("admitted")
    });
    wait_for("frame B to park", || tenant.batcher.pending() == 3);
    std::thread::sleep(Duration::from_millis(5)); // past the 1 ms deadline
    drop(release);

    let resp = late.join().expect("late frame thread");
    assert_eq!(resp.outcomes.len(), 2, "expired queries still get outcome slots");
    assert!(
        resp.outcomes.iter().all(|o| matches!(o, QueryOutcome::Expired)),
        "got {:?}",
        resp.outcomes
    );
    let mate = lively.join().expect("lively thread");
    assert!(matches!(mate.outcomes[0], QueryOutcome::Answered(_)), "mate frame ran");
    let report = server.shutdown();
    assert!(report.within_grace);
}

#[test]
fn invalid_query_fails_its_slot_but_frame_mates_answer() {
    let (server, keys) =
        start(BatchLimits::default(), AdmissionLimits::default(), vec![figure1_service()]);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let resp = client
        .query(
            keys[0],
            0,
            vec![
                WireQuery::new(3, 2),
                WireQuery::new(1, 2),     // k < 2: rejected at spec resolution
                WireQuery::new(3, 9_999), // r > n: rejected at execution
                WireQuery::new(3, 1),
            ],
        )
        .expect("frame admitted");
    assert!(matches!(resp.outcomes[0], QueryOutcome::Answered(_)), "got {:?}", resp.outcomes[0]);
    let QueryOutcome::Failed { code, .. } = &resp.outcomes[1] else {
        panic!("expected failure, got {:?}", resp.outcomes[1]);
    };
    assert_eq!(*code, ErrorCode::BadRequest);
    assert!(matches!(resp.outcomes[2], QueryOutcome::Failed { .. }), "got {:?}", resp.outcomes[2]);
    assert!(matches!(resp.outcomes[3], QueryOutcome::Answered(_)), "got {:?}", resp.outcomes[3]);
    let report = server.shutdown();
    assert!(report.within_grace);
}

/// The service serves the GCT index: an Online query and a TSD query
/// (tags 1 and 3) each fail their own slot with `BadRequest`, before any
/// scan or build, and the GCT query beside them in the same frame is
/// answered.
#[test]
fn unserved_engine_fails_its_slot_and_the_frame_mate_answers() {
    let (server, keys) =
        start(BatchLimits::default(), AdmissionLimits::default(), vec![figure1_service()]);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let online = WireQuery { k: 4, r: 1, engine: EngineKind::Online };
    let tsd = WireQuery { k: 4, r: 1, engine: EngineKind::Tsd };
    let gct = WireQuery { k: 4, r: 1, engine: EngineKind::Gct };
    let resp = client.query(keys[0], 0, vec![online, tsd, gct]).expect("frame admitted");
    for (slot, name) in [(0, "online"), (1, "tsd")] {
        let QueryOutcome::Failed { code, message } = &resp.outcomes[slot] else {
            panic!("the {name} slot is refused, got {:?}", resp.outcomes[slot]);
        };
        assert_eq!(*code, ErrorCode::BadRequest);
        assert!(message.contains(name), "{message}");
        assert!(message.ends_with("it serves gct"), "{message}");
    }
    let expected =
        figure1_service().top_r(&QuerySpec::new(4, 1).unwrap().with_engine(EngineKind::Gct));
    assert_eq!(resp.outcomes[2], QueryOutcome::Answered(expected.unwrap().entries));
    let stats = client.tenant_stats(keys[0]).expect("tenant stats");
    assert_eq!(stats.queries_served, 1, "only the GCT query ran: {stats:?}");
    assert_eq!(stats.engines_built, 1, "only the GCT index was built: {stats:?}");
    let report = server.shutdown();
    assert!(report.within_grace);
}

#[test]
fn graceful_shutdown_drains_the_inflight_query() {
    let (service, release) = parked_figure1_service();
    let (server, keys) = start(BatchLimits::default(), AdmissionLimits::default(), vec![service]);
    let addr = server.local_addr();
    let key = keys[0];
    let tenant = server.registry().lookup(&key).expect("registered");
    let expected = warmed(figure1_service())
        .top_r(&QuerySpec::new(3, 4).unwrap().with_engine(EngineKind::Gct))
        .unwrap()
        .entries;

    // A slow in-flight query: accepted, parked behind the parked worker.
    let inflight = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client
            .query(key, 0, vec![WireQuery { k: 3, r: 4, engine: EngineKind::Gct }])
            .expect("accepted before drain")
    });
    wait_for("the query to park", || tenant.batcher.pending() == 1);

    // Trigger graceful shutdown over the wire while that query is parked.
    let mut admin = Client::connect(addr).expect("admin connect");
    admin.shutdown().expect("shutdown acknowledged");
    assert!(server.is_draining());

    // The accepted query still completes with the right answer.
    drop(release);
    let resp = inflight.join().expect("inflight thread");
    let QueryOutcome::Answered(entries) = &resp.outcomes[0] else {
        panic!("drained query must be answered, got {:?}", resp.outcomes[0]);
    };
    assert_eq!(entries, &expected, "drained answer byte-matches in-process");

    let report = server.shutdown();
    assert!(report.within_grace, "drain finished without force-closes: {report:?}");
    assert_eq!(report.forced_closes, 0);

    // The listener is gone: new connections are refused (or die
    // instantly), not silently queued.
    match Client::connect(addr) {
        Err(_) => {}
        Ok(mut late) => assert!(late.read_response().is_err(), "post-drain socket must be dead"),
    }
}
