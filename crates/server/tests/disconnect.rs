//! Disconnect-cancellation end-to-end: a client that hangs up while its
//! query is still queued must cancel that query, not burn a batch slot
//! computing an answer nobody will read. The poller observes the hangup,
//! flips the connection's [`sd_server::CancelToken`], and the batch
//! leader skips the slot and counts it `cancelled`. The frame's reply,
//! which no connection is left to take, is not counted as served.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sd_core::{paper_figure1_graph, SearchService, WorkerPool};
use sd_server::{
    BatchLimits, Client, QueryRequest, Request, Server, ServerConfig, TenantRegistry, WireQuery,
};

/// Spins until `probe` returns true or ~5 s elapse.
fn wait_for(what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !probe() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn mid_query_disconnect_cancels_the_batched_query() {
    // A 1-thread private pool the test parks: the batch leader is a pool
    // job, so the submitted query is pinned in the accumulator — queued,
    // not yet running — for as long as the worker stays parked.
    let (graph, _, _) = paper_figure1_graph();
    let service = Arc::new(SearchService::with_pool(graph, Arc::new(WorkerPool::new(1))));
    let registry = Arc::new(TenantRegistry::new(BatchLimits::default()));
    let key = registry.register(service.clone()).expect("register");
    let tenant = registry.lookup(&key).expect("registered above");
    // One I/O loop: it takes posted replies before it accepts or reads.
    let config = ServerConfig::new().addr("127.0.0.1:0").io_threads(1);
    let server = Server::start(config, registry).expect("bind");

    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    service.pool().submit(move || {
        let _ = release_rx.recv();
    });

    // Send a query frame raw — and never read the response.
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let frame =
        Request::Query(QueryRequest { deadline_ms: 0, queries: vec![WireQuery::new(3, 2)] })
            .to_frame(key);
    client.send_bytes(frame.encode().as_ref()).expect("send query");
    wait_for("the query to reach the accumulator", || tenant.batcher.pending() == 1);

    // Hang up while the query is still queued behind the parked worker.
    drop(client);
    wait_for("the poller to observe the hangup", || server.stats().active_connections == 0);

    // Release the worker: the leader drains the batch and finds the
    // slot's token already cancelled.
    release_tx.send(()).expect("release");
    wait_for("the cancelled slot to be dropped", || tenant.batcher.stats().cancelled == 1);
    assert_eq!(service.queries_served(), 0, "the abandoned query never reached an engine");

    // The server-scope wire stats surface the counter too.
    assert_eq!(server.stats().cancelled, 1);

    // Once one more job has run on the one-thread pool, the leader has
    // posted the dropped frame's reply, and the I/O loop takes it before
    // a later connection's request: the stats that request reads back do
    // not count it.
    let (ran_tx, ran_rx) = std::sync::mpsc::channel::<()>();
    service.pool().submit(move || {
        let _ = ran_tx.send(());
    });
    ran_rx.recv_timeout(Duration::from_secs(5)).expect("the pool to run one more job");
    let mut stats_client = Client::connect(server.local_addr()).expect("connect");
    let served = stats_client.server_stats().expect("server stats").requests_served;
    assert_eq!(served, 0, "a reply to a client that hung up is not served");

    let report = server.shutdown();
    assert!(report.within_grace, "{report:?}");
}
