//! Multi-tenant routing: one [`sd_core::SearchService`] per graph, keyed
//! by the [`GraphFingerprint`] it was registered under.
//!
//! The routing key is the fingerprint of the graph **at registration
//! time** and never changes: `apply_updates` batches drift the tenant's
//! *current* fingerprint (a new epoch is a new edge set), and re-keying
//! on every update would race every client that learned the key a moment
//! earlier. Clients route by the stable registration key and read the
//! current fingerprint back from the `stats` verb when they care.
//!
//! A frame whose fingerprint matches no registered tenant is answered
//! with a typed `UnknownTenant` error — the wrong-graph analogue of
//! [`sd_core::SearchError::FingerprintMismatch`] on the index-import path.

use std::sync::Arc;

use parking_lot::RwLock;
use sd_core::lock_order::SERVER_TENANTS;
use sd_core::{GraphFingerprint, SearchService};

use crate::batch::Batcher;
use crate::BatchLimits;

/// One registered tenant: its service plus the query-coalescing batcher
/// all connections routing to it share.
pub struct Tenant {
    /// The fingerprint this tenant is routed by (fixed at registration).
    pub key: GraphFingerprint,
    /// The tenant's search service.
    pub service: Arc<SearchService>,
    /// The tenant's shared query batcher.
    pub batcher: Arc<Batcher>,
}

/// The tenant table: registration and fingerprint routing.
pub struct TenantRegistry {
    tenants: RwLock<Vec<Arc<Tenant>>>,
    limits: BatchLimits,
}

impl TenantRegistry {
    /// An empty registry whose tenants batch under `limits`.
    pub fn new(limits: BatchLimits) -> Self {
        TenantRegistry { tenants: SERVER_TENANTS.rwlock(Vec::new()), limits }
    }

    /// Registers `service` under its **current** fingerprint and returns
    /// that routing key. Fails if the key is already taken — two tenants
    /// under one fingerprint would make routing ambiguous.
    pub fn register(
        &self,
        service: Arc<SearchService>,
    ) -> Result<GraphFingerprint, GraphFingerprint> {
        let key = service.fingerprint();
        let tenant =
            Arc::new(Tenant { key, service, batcher: Arc::new(Batcher::new(self.limits)) });
        let mut tenants = self.tenants.write(); // lock: server.tenants
        if tenants.iter().any(|t| t.key == key) {
            return Err(key);
        }
        tenants.push(tenant);
        Ok(key)
    }

    /// The tenant routed by `key`, if registered.
    pub fn lookup(&self, key: &GraphFingerprint) -> Option<Arc<Tenant>> {
        let tenants = self.tenants.read(); // lock: server.tenants
        tenants.iter().find(|t| t.key == *key).cloned()
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.read().len() // lock: server.tenants
    }

    /// Whether no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs `visit` over every tenant **while holding the routing-table
    /// read lock** — the stats verb uses this so one response sees one
    /// consistent tenant set. Each visit typically pins the tenant's
    /// epoch pointer inside, which is the documented
    /// `server.tenants → epoch.ptr` hierarchy edge.
    pub fn for_each(&self, mut visit: impl FnMut(&Tenant)) {
        let tenants = self.tenants.read(); // lock: server.tenants
        for tenant in tenants.iter() {
            visit(tenant);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sd_core::paper_figure1_graph;

    fn figure1_service() -> Arc<SearchService> {
        let (graph, _, _) = paper_figure1_graph();
        Arc::new(SearchService::new(graph))
    }

    fn registry() -> TenantRegistry {
        TenantRegistry::new(BatchLimits::default())
    }

    #[test]
    fn register_and_lookup_round_trip() {
        let reg = registry();
        assert!(reg.is_empty());
        let svc = figure1_service();
        let key = reg.register(svc.clone()).expect("first registration");
        assert_eq!(key, svc.fingerprint());
        assert_eq!(reg.len(), 1);
        let tenant = reg.lookup(&key).expect("registered");
        assert_eq!(tenant.key, key);
        assert!(reg.lookup(&GraphFingerprint { n: 1, m: 2, edge_checksum: 3 }).is_none());
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let reg = registry();
        let svc = figure1_service();
        let key = reg.register(svc.clone()).expect("first");
        let twin = figure1_service();
        assert_eq!(reg.register(twin), Err(key), "same fingerprint, ambiguous route");
        assert_eq!(reg.len(), 1);
    }
}
