//! I/O-multiplexing soak: the readiness loop must hold many more open
//! connections than it has threads. 64 concurrent clients all round-trip
//! queries while `/proc` shows exactly the configured number of live
//! `sd-io-*` threads — the thread-per-connection regime would show 64.

use std::sync::Arc;

use sd_core::{paper_figure1_graph, SearchService};
use sd_server::{
    BatchLimits, Client, QueryOutcome, Server, ServerConfig, TenantRegistry, WireQuery,
};

/// Counts this process's live threads whose name starts with `sd-io-`,
/// by reading `/proc/self/task/*/comm` (Linux truncates names to 15
/// bytes, well past our prefix).
fn live_io_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("linux procfs")
        .filter_map(|entry| {
            let comm = entry.ok()?.path().join("comm");
            let name = std::fs::read_to_string(comm).ok()?;
            name.trim_end().starts_with("sd-io-").then_some(())
        })
        .count()
}

#[test]
fn sixty_four_connections_share_a_fixed_io_thread_set() {
    const CLIENTS: usize = 64;
    const IO_THREADS: usize = 2;

    let registry = Arc::new(TenantRegistry::new(BatchLimits::default()));
    let (graph, _, _) = paper_figure1_graph();
    let key = registry.register(Arc::new(SearchService::new(graph))).expect("register");
    let config = ServerConfig::new().addr("127.0.0.1:0").io_threads(IO_THREADS);
    let server = Server::start(config, registry).expect("bind");
    let addr = server.local_addr();

    // Open all 64 connections first — every socket stays open for the
    // whole test, so the server really is multiplexing 64 at once.
    let mut clients: Vec<Client> =
        (0..CLIENTS).map(|_| Client::connect(addr).expect("connect")).collect();

    // Each connection proves it is live with a full query round-trip.
    for client in &mut clients {
        let resp = client.query(key, 0, vec![WireQuery::new(3, 2)]).expect("query");
        assert!(matches!(resp.outcomes[0], QueryOutcome::Answered(_)), "got {:?}", resp.outcomes);
    }

    // All 64 are still open server-side… (the gauge is claimed at accept,
    // so no settling loop is needed once every round-trip answered)
    let stats = server.stats();
    assert_eq!(stats.active_connections, CLIENTS as u64, "all connections held open");
    assert!(stats.accepted_connections >= CLIENTS as u64);

    // …yet the process runs exactly the configured I/O threads, not one
    // per connection.
    assert_eq!(live_io_threads(), IO_THREADS, "connection count must not grow the I/O thread set");

    drop(clients);
    let report = server.shutdown();
    assert!(report.within_grace, "{report:?}");
}
