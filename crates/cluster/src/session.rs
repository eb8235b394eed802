//! The client-facing session layer: versioned-directory routing with a
//! stale-directory redirect protocol.
//!
//! Clients never talk to partitions through live CC state. Instead they
//! open a [`Session`] ([`Cluster::session`]), which caches an immutable
//! snapshot of the dataset's routing state — the versioned global directory
//! plus the partition list — and routes every `put` / `delete` / `get` /
//! `scan` / `index_scan` from that cache (Section III: queries and feeds
//! take an immutable copy of the directory when they start). The session is
//! the one holder of such a copy: it is the one client that outlives the
//! call that made it, so the one that can go stale. The query executor, the
//! feed path behind [`Session::ingest`] and an in-flight job read the CC's
//! directory, which nothing can change while they hold the cluster. A
//! session's `scan` and `index_scan` run the executor's partition passes
//! over the cached partition list, uncharged.
//!
//! Rebalancing stays transparent because stale routes are *detected and
//! redirected*, never blocked:
//!
//! ```text
//! client ──route from cached directory──▶ partition
//!                                          │ owns the bucket?  ──yes──▶ serve
//!                                          └──no──▶ reject
//!                                                   RouteError::StaleDirectory
//!                                                   { server_version }
//! client ◀──refresh (DirectoryDelta if the change log reaches back far
//!           enough, full snapshot otherwise)── CC
//! client ──retry with the fresh route──▶ new owner ──▶ serve
//! ```
//!
//! Mid-rebalance the protocol never fires: the old owner keeps serving a
//! moving bucket until the commit (pending copies stay invisible), and the
//! directory version only changes when the commit installs the new
//! directory. A session left stale across a whole rebalance therefore pays
//! at most one redirect-plus-refresh when it next touches a moved bucket —
//! redirect counts are bounded by the number of buckets that actually moved,
//! which `tests/session_routing.rs` asserts.
//!
//! Like [`crate::job::RebalanceJob`], a `Session` holds **no borrow of the
//! cluster**: each operation takes the cluster as an argument (standing in
//! for the connection a real client would hold), so any number of sessions
//! with independently stale caches can interleave with rebalance job steps.

use dynahash_lsm::entry::{Entry, Key, Value};
use dynahash_lsm::{hash_key, ScanOrder, SecondaryEntry};
use std::collections::BTreeMap;

use dynahash_core::PartitionId;

use crate::cluster::{Cluster, Write};
use crate::dataset::{DatasetId, DatasetMeta};
use crate::feed::IngestReport;
use crate::query::{index_pass, scan_pass};
use crate::{ClusterError, Result};

/// How many stale-directory redirects one logical request may absorb before
/// the session gives up (a bound, not a tuning knob: a healthy cluster
/// resolves any staleness with a single refresh).
pub const DEFAULT_MAX_REDIRECTS: usize = 8;

/// The routing-protocol errors a partition (or the session itself) can
/// answer a request with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteError {
    /// The request was routed under a directory version older than the last
    /// move of the target bucket: the partition no longer owns it. The
    /// client must refresh its cached directory (to at least
    /// `server_version`) and retry.
    StaleDirectory {
        /// The authoritative routing version at rejection time.
        server_version: u64,
    },
    /// The session refreshed and retried [`DEFAULT_MAX_REDIRECTS`] times and
    /// was still rejected — something is wrong beyond ordinary staleness.
    RedirectLoop {
        /// How many redirects were absorbed before giving up.
        attempts: usize,
        /// The last authoritative routing version seen.
        server_version: u64,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::StaleDirectory { server_version } => write!(
                f,
                "request routed under a stale directory (server is at version {server_version})"
            ),
            RouteError::RedirectLoop {
                attempts,
                server_version,
            } => write!(
                f,
                "still stale after {attempts} redirects (server version {server_version})"
            ),
        }
    }
}

/// Counters a session keeps about its traffic and the redirect protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionMetrics {
    /// Logical requests issued (one per record for batch ingestion).
    pub requests: u64,
    /// Stale-directory rejections received from partitions.
    pub redirects: u64,
    /// Refreshes served as a cheap [`dynahash_core::DirectoryDelta`].
    pub delta_refreshes: u64,
    /// Refreshes that had to copy the full routing snapshot.
    pub full_refreshes: u64,
    /// Requests re-sent after a refresh.
    pub retries: u64,
}

impl SessionMetrics {
    /// Total refreshes, delta or full.
    pub fn refreshes(&self) -> u64 {
        self.delta_refreshes + self.full_refreshes
    }
}

/// A client handle for one dataset: the only sanctioned way to read and
/// write data. See the module docs for the routing protocol.
#[derive(Debug, Clone)]
pub struct Session {
    dataset: DatasetId,
    cache: DatasetMeta,
    metrics: SessionMetrics,
}

impl Cluster {
    /// Opens a client session on a dataset, caching a snapshot of its
    /// routing state (the versioned directory and the partition list).
    pub fn session(&self, dataset: DatasetId) -> Result<Session> {
        Ok(Session {
            dataset,
            cache: self.controller.dataset(dataset)?.clone(),
            metrics: SessionMetrics::default(),
        })
    }

    /// Validated point read in one partition pass: the hot path of
    /// [`Session::get`]. `hash` is the session's one `hash_key(key)`, so
    /// the success path does the work a direct read does: one local
    /// directory probe, one tree read. The partition serves the read only
    /// if it serves the key ([`Cluster::serving`]) and its node is up
    /// ([`Cluster::require_up`]); a lost bucket refuses first, and a stale
    /// route redirects before the node's state is read.
    pub(crate) fn validated_get(
        &self,
        dataset: DatasetId,
        key: &Key,
        hash: u64,
        partition: PartitionId,
    ) -> Result<Option<Value>> {
        let meta = self.controller.dataset(dataset)?;
        // A bucket whose only copy died with a lost node serves a typed
        // degraded error, never silently-empty data (the replanned
        // directory routes to a survivor's *empty* replacement bucket).
        if let Some(bucket) = self.lost_bucket_of(dataset, key) {
            return Err(ClusterError::BucketDegraded { dataset, bucket });
        }
        let Some((ds, bucket)) = self.serving(meta, partition, hash) else {
            return Err(ClusterError::Route(RouteError::StaleDirectory {
                server_version: meta.routing_version(),
            }));
        };
        self.require_up_at(partition)?;
        // The local probe already named the bucket, so the armed heat path
        // costs nothing extra (and the disarmed one a single flag check),
        // and the read goes to that bucket's tree without resolving it
        // again. A Hashing dataset has no bucket the control plane could
        // move, so only a bucketed dataset's reads are heat.
        if meta.is_bucketed() {
            self.heat.note_read(dataset, bucket);
        }
        let tree = ds.primary.bucket_tree(&bucket);
        Ok(tree.and_then(|t| t.get_ref_hashed(key, hash)).cloned())
    }
}

impl Session {
    /// The dataset this session talks to.
    pub fn dataset(&self) -> DatasetId {
        self.dataset
    }

    /// The version of the cached routing snapshot.
    pub fn cached_version(&self) -> u64 {
        self.cache.routing_version()
    }

    /// The session's traffic and redirect counters.
    pub fn metrics(&self) -> SessionMetrics {
        self.metrics
    }

    /// Routes a key, given its `hash_key`, through the cached snapshot.
    fn route_hash(&self, hash: u64) -> Result<PartitionId> {
        self.cache
            .route_hash(hash)
            .ok_or(ClusterError::RoutingFailed(self.dataset))
    }

    /// Handles a rejection: count it, refresh the cache, and either allow a
    /// retry or give up once the redirect bound is hit. Non-protocol errors
    /// propagate unchanged.
    fn handle_rejection(
        &mut self,
        cluster: &Cluster,
        err: ClusterError,
        attempts: &mut usize,
    ) -> Result<()> {
        let ClusterError::Route(RouteError::StaleDirectory { server_version }) = err else {
            return Err(err);
        };
        self.metrics.redirects += 1;
        *attempts += 1;
        if *attempts > DEFAULT_MAX_REDIRECTS {
            return Err(ClusterError::Route(RouteError::RedirectLoop {
                attempts: *attempts,
                server_version,
            }));
        }
        self.refresh(cluster)?;
        self.metrics.retries += 1;
        Ok(())
    }

    /// Brings the cached routing snapshot up to date: a cheap directory
    /// delta when the CC's change log still covers the cached version, a
    /// full snapshot copy otherwise. Idempotent when already current.
    pub fn refresh(&mut self, cluster: &Cluster) -> Result<()> {
        let meta = cluster.controller.dataset(self.dataset)?;
        // Pairing the mutable cached directory with the delta up front keeps
        // the "delta implies a cached directory" invariant structural: the
        // delta can only exist alongside the directory it applies to.
        let delta = match (self.cache.directory.as_mut(), &meta.directory) {
            (Some(cached), Some(server)) => {
                server.delta_since(cached.version()).map(|d| (cached, d))
            }
            _ => None,
        };
        match delta {
            Some((cached, delta)) => {
                cached.apply_delta(&delta).map_err(ClusterError::Core)?;
                // The partition list and its version travel with every
                // refresh reply.
                self.cache.partitions = meta.partitions.clone();
                self.cache.partitions_version = meta.partitions_version;
                self.metrics.delta_refreshes += 1;
            }
            None => {
                self.cache = meta.clone();
                self.metrics.full_refreshes += 1;
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------ point ops

    /// Point lookup: routes from the cache, lets the partition validate the
    /// route, and transparently refreshes and retries on a stale rejection.
    pub fn get(&mut self, cluster: &Cluster, key: &Key) -> Result<Option<Value>> {
        self.metrics.requests += 1;
        let mut attempts = 0usize;
        // hashed once: for the cached directory, the partition's local
        // directory, and every filter of the bucket's tree
        let hash = hash_key(key);
        loop {
            let partition = self.route_hash(hash)?;
            match cluster.validated_get(self.dataset, key, hash, partition) {
                Ok(v) => return Ok(v),
                Err(e) => self.handle_rejection(cluster, e, &mut attempts)?,
            }
        }
    }

    /// Inserts (or updates) one record through the normal feed pipeline —
    /// index maintenance, and replication to already-shipped buckets while
    /// a rebalance is mid-flight. Writes are rejected with
    /// [`ClusterError::DatasetWriteBlocked`] only during the brief
    /// prepare-to-decision window. A rejected write stored nothing.
    pub fn put(&mut self, cluster: &mut Cluster, key: Key, value: Value) -> Result<()> {
        self.write(cluster, key, Some(value)).map(drop)
    }

    /// Deletes a record (a tombstone through the same routed write path).
    /// Returns whether the key was live before the delete.
    pub fn delete(&mut self, cluster: &mut Cluster, key: &Key) -> Result<bool> {
        self.write(cluster, key.clone(), None)
    }

    /// One routed write — `Some(value)` puts, `None` deletes: routes from
    /// the cache, lets the partition validate the route, and refreshes and
    /// retries on a stale rejection. Returns whether a delete found the key
    /// live.
    fn write(&mut self, cluster: &mut Cluster, key: Key, value: Option<Value>) -> Result<bool> {
        self.metrics.requests += 1;
        let mut write = Write::new(key, value);
        let mut attempts = 0usize;
        loop {
            let group = std::slice::from_mut(&mut write);
            match cluster.write_group(self.dataset, group, Some(&self.cache), |_, _, _| {}) {
                Ok(live) => return Ok(live > 0),
                Err(e) => self.handle_rejection(cluster, e, &mut attempts)?,
            }
        }
    }

    // ----------------------------------------------------------- batch ops

    /// Ingests a batch through the session (the data-feed path): every
    /// record is routed from the cached directory and validated by its
    /// target partition; a stale rejection refreshes the cache and re-routes
    /// the batch. Returns the usual feed cost report; a refused batch stored
    /// none of its records.
    pub fn ingest(
        &mut self,
        cluster: &mut Cluster,
        records: impl IntoIterator<Item = (Key, Value)>,
    ) -> Result<IngestReport> {
        let mut writes: Vec<Write> = (records.into_iter())
            .map(|(key, value)| Write::new(key, Some(value)))
            .collect();
        self.metrics.requests += writes.len() as u64;
        let mut attempts = 0usize;
        loop {
            match cluster.ingest_writes(self.dataset, &mut writes, Some(&self.cache)) {
                Ok(report) => return Ok(report),
                Err(e) => self.handle_rejection(cluster, e, &mut attempts)?,
            }
        }
    }

    // ------------------------------------------------------------ scan ops

    /// Checks the cached snapshot against the authoritative routing version
    /// before a whole-dataset operation (the coordinator-side half of the
    /// protocol: per-bucket validation cannot cover a scan's full key range,
    /// so version equality stands in for it).
    fn ensure_current(&mut self, cluster: &Cluster) -> Result<()> {
        let server = cluster.controller.routing_version(self.dataset)?;
        if self.cached_version() != server {
            self.metrics.redirects += 1;
            self.refresh(cluster)?;
            self.metrics.retries += 1;
        }
        Ok(())
    }

    /// Scans the dataset on every cached partition, through the executor's
    /// scan pass. `ScanOrder::Ordered` asks each partition for
    /// primary-key-ordered output.
    pub fn scan(
        &mut self,
        cluster: &Cluster,
        order: ScanOrder,
    ) -> Result<Vec<(PartitionId, Vec<Entry>)>> {
        self.metrics.requests += 1;
        self.ensure_current(cluster)?;
        let passes = scan_pass(
            cluster,
            self.dataset,
            &self.cache.partitions,
            order,
            Vec::with_capacity,
            |rows, key, op| rows.push(Entry::from_parts(key, op)),
        )?;
        Ok(passes.into_iter().map(|(p, rows, _)| (p, rows)).collect())
    }

    /// Scans the whole dataset unordered and folds it into one key → value
    /// map, also returning the raw (pre-dedup) record count. On a consistent
    /// cluster every key lives on exactly one partition, so
    /// `raw == map.len()`.
    pub fn collect_records(&mut self, cluster: &Cluster) -> Result<(BTreeMap<Key, Value>, usize)> {
        let scans = self.scan(cluster, ScanOrder::Unordered)?;
        let mut out = BTreeMap::new();
        let mut raw = 0usize;
        for (_, entries) in scans {
            for e in entries {
                if let Some(v) = e.op.value() {
                    raw += 1;
                    out.insert(e.key, v.clone());
                }
            }
        }
        Ok((out, raw))
    }

    /// Searches a secondary index on every cached partition, through the
    /// executor's index pass, returning the candidate (secondary, primary)
    /// pairs: like [`crate::query::QueryExecutor::index_scan`], it does not
    /// check a pair against its record. Buckets whose secondary entries were
    /// deferred at rebalance-install time are warmed on first touch.
    pub fn index_scan(
        &mut self,
        cluster: &mut Cluster,
        index: &str,
        lo: Option<&Key>,
        hi: Option<&Key>,
    ) -> Result<Vec<(PartitionId, Vec<SecondaryEntry>)>> {
        self.metrics.requests += 1;
        self.ensure_current(cluster)?;
        let passes = index_pass(
            cluster,
            self.dataset,
            &self.cache.partitions,
            (index, lo, hi),
            Vec::new,
            |hits, _, _, secondary, primary| {
                hits.push(SecondaryEntry::from_slices(secondary, primary))
            },
        )?;
        Ok(passes.into_iter().map(|(p, hits, _)| (p, hits)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetSpec;
    use crate::rebalance::RebalanceOptions;
    use dynahash_core::{NodeId, Scheme};
    use dynahash_lsm::Bytes;

    fn record(i: u64) -> (Key, Value) {
        (Key::from_u64(i), Bytes::from(vec![(i % 251) as u8; 48]))
    }

    fn loaded(nodes: u32, scheme: Scheme, n: u64) -> (Cluster, DatasetId) {
        let mut cluster = Cluster::with_config(
            nodes,
            crate::ClusterConfig {
                partitions_per_node: 2,
            },
        );
        let ds = cluster
            .create_dataset(DatasetSpec::new("events", scheme))
            .unwrap();
        let mut session = cluster.session(ds).unwrap();
        session.ingest(&mut cluster, (0..n).map(record)).unwrap();
        (cluster, ds)
    }

    #[test]
    fn a_session_caches_a_copy_of_the_routing_state() {
        let (mut cluster, ds) = loaded(2, Scheme::dynahash(1 << 20, 4), 0);
        let session = cluster.session(ds).unwrap();
        // mutate the CC's copy; the session's cache must be unaffected
        cluster
            .controller
            .dataset_mut(ds)
            .unwrap()
            .partitions
            .clear();
        assert_eq!(session.cache.partitions.len(), 4);
    }

    #[test]
    fn session_roundtrips_put_get_delete() {
        let (mut cluster, ds) = loaded(2, Scheme::StaticHash { num_buckets: 16 }, 500);
        let mut session = cluster.session(ds).unwrap();
        let (k, v) = record(7);
        assert_eq!(session.get(&cluster, &k).unwrap(), Some(v));
        session
            .put(
                &mut cluster,
                Key::from_u64(9000),
                Bytes::from(vec![1, 2, 3]),
            )
            .unwrap();
        assert_eq!(
            session.get(&cluster, &Key::from_u64(9000)).unwrap(),
            Some(Bytes::from(vec![1, 2, 3]))
        );
        assert!(session.delete(&mut cluster, &Key::from_u64(9000)).unwrap());
        assert_eq!(session.get(&cluster, &Key::from_u64(9000)).unwrap(), None);
        assert!(!session.delete(&mut cluster, &Key::from_u64(9000)).unwrap());
        assert_eq!(cluster.dataset_len(ds).unwrap(), 500);
        assert_eq!(session.metrics().redirects, 0, "no rebalance, no redirects");
        cluster.check_dataset_consistency(ds).unwrap();
    }

    #[test]
    fn scans_and_index_scans_route_from_the_cache() {
        let mut cluster = Cluster::new(2);
        let spec = DatasetSpec::new("events", Scheme::StaticHash { num_buckets: 16 })
            .with_secondary_index(crate::dataset::SecondaryIndexDef::new(
                "idx",
                |p: &[u8]| p.first().map(|&b| Key::from_u64(b as u64)),
            ));
        let ds = cluster.create_dataset(spec).unwrap();
        let mut session = cluster.session(ds).unwrap();
        session.ingest(&mut cluster, (0..800).map(record)).unwrap();
        let (map, raw) = session.collect_records(&cluster).unwrap();
        assert_eq!(map.len(), 800);
        assert_eq!(raw, 800);
        let hits = session.index_scan(&mut cluster, "idx", None, None).unwrap();
        let total: usize = hits.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, 800);
        assert!(session
            .index_scan(&mut cluster, "nope", None, None)
            .is_err());
        // deletes drive the secondary extractors with the old payload, so
        // index scans return no phantom hits for deleted records
        for i in 0..50u64 {
            assert!(session.delete(&mut cluster, &record(i).0).unwrap());
        }
        let hits = session.index_scan(&mut cluster, "idx", None, None).unwrap();
        let total: usize = hits.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, 750, "deleted records must leave the index");
    }

    /// A node that is down serves no read. Under both schemes, with node 1
    /// crashed or lost, a get routed to it, a scan, an index scan and a
    /// fetch from its partition each refuse with the node's state (a lost
    /// bucket refuses as degraded first), every other key reads back, and a
    /// recovered node serves again.
    #[test]
    fn reads_refuse_a_node_that_is_down() {
        let down = NodeId(1);
        for scheme in [Scheme::StaticHash { num_buckets: 16 }, Scheme::Hashing] {
            for lost in [false, true] {
                let ctx = format!("{scheme:?}, lost {lost}");
                let mut cluster = Cluster::new(3);
                let spec = DatasetSpec::new("events", scheme).with_secondary_index(
                    crate::dataset::SecondaryIndexDef::new("idx", |p: &[u8]| {
                        p.first().map(|&b| Key::from_u64(b as u64))
                    }),
                );
                let ds = cluster.create_dataset(spec).unwrap();
                let mut session = cluster.session(ds).unwrap();
                session.ingest(&mut cluster, (0..2000).map(record)).unwrap();
                let hosted = cluster.topology().partitions_of_node(down);
                match lost {
                    false => cluster.crash_node(down).unwrap(),
                    true => cluster.lose_node(down).unwrap(),
                }
                let refused = |e: &ClusterError| match e {
                    ClusterError::NodeDown(n) => !lost && *n == down,
                    ClusterError::NodeLost(n) => lost && *n == down,
                    ClusterError::BucketDegraded { .. } => lost,
                    _ => false,
                };
                let meta = cluster.controller.dataset(ds).unwrap().clone();
                for (key, value) in (0..2000).map(record) {
                    let got = session.get(&cluster, &key);
                    if hosted.contains(&meta.route_key(&key).unwrap()) {
                        assert!(got.as_ref().is_err_and(refused), "{ctx}: {got:?}");
                    } else {
                        assert_eq!(got.unwrap(), Some(value), "{ctx}");
                    }
                }
                let scan = session.scan(&cluster, ScanOrder::Unordered);
                assert!(scan.as_ref().is_err_and(refused), "{ctx}: scan");
                let hits = session.index_scan(&mut cluster, "idx", None, None);
                assert!(hits.as_ref().is_err_and(refused), "{ctx}: index scan");
                let fetched = cluster.query().fetch(ds, hosted[0], &[record(7).0]);
                assert!(fetched.as_ref().is_err_and(refused), "{ctx}: fetch");
                if !lost {
                    cluster.recover_node(down).unwrap();
                    let (records, _) = session.collect_records(&cluster).unwrap();
                    assert_eq!(records.len(), 2000, "{ctx}: recovered");
                }
            }
        }
    }

    #[test]
    fn stale_session_redirects_once_and_converges_after_a_rebalance() {
        let (mut cluster, ds) = loaded(2, Scheme::StaticHash { num_buckets: 32 }, 2000);
        // the stale client: opened before the rebalance, never told about it
        let mut stale = cluster.session(ds).unwrap();
        let v0 = stale.cached_version();
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        let report = cluster
            .rebalance(ds, &target, RebalanceOptions::none())
            .unwrap();
        assert!(report.buckets_moved > 0);

        // drive every key through the stale session: the first touch of a
        // moved bucket redirects, one refresh catches the whole cache up,
        // and everything after that routes cleanly
        for i in 0..2000u64 {
            let (k, v) = record(i);
            assert_eq!(stale.get(&cluster, &k).unwrap(), Some(v), "key {i}");
        }
        let m = stale.metrics();
        assert_eq!(m.redirects, 1, "one redirect resolves all staleness");
        assert_eq!(m.refreshes(), 1);
        assert_eq!(
            m.delta_refreshes, 1,
            "a commit-sized change fits the delta log"
        );
        assert!(stale.cached_version() > v0);

        // converged: a second full pass is redirect-free
        for i in 0..2000u64 {
            let (k, _) = record(i);
            stale.get(&cluster, &k).unwrap();
        }
        assert_eq!(stale.metrics().redirects, 1);
    }

    /// Writes take part in the redirect protocol too: a stale session's
    /// first put to a moved bucket is refused, refreshes the cache and
    /// lands on the retry, and so does a stale session's batch; both
    /// sessions then route cleanly, and every record reads back.
    #[test]
    fn stale_session_writes_redirect_once_and_land() {
        let (mut cluster, ds) = loaded(2, Scheme::StaticHash { num_buckets: 32 }, 0);
        let (mut puts, mut batches) = (cluster.session(ds).unwrap(), cluster.session(ds).unwrap());
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        let report = cluster
            .rebalance(ds, &target, RebalanceOptions::none())
            .unwrap();
        assert!(report.buckets_moved > 0);
        for i in 0..1000u64 {
            let (k, v) = record(i);
            puts.put(&mut cluster, k, v).unwrap();
        }
        batches
            .ingest(&mut cluster, (1000..2000).map(record))
            .unwrap();
        batches
            .ingest(&mut cluster, (2000..3000).map(record))
            .unwrap();
        for session in [&puts, &batches] {
            let m = session.metrics();
            assert_eq!((m.redirects, m.delta_refreshes, m.retries), (1, 1, 1));
        }
        let mut reader = cluster.session(ds).unwrap();
        for i in 0..3000u64 {
            let (k, v) = record(i);
            assert_eq!(reader.get(&cluster, &k).unwrap(), Some(v), "key {i}");
        }
        cluster.check_dataset_consistency(ds).unwrap();
    }

    /// A session that cached routes to a node since scaled in and
    /// decommissioned names partition ids past the end of the cluster's
    /// partition table: its first get, and its first put, of such a key is
    /// one stale redirect, and lands after one refresh.
    #[test]
    fn a_route_to_a_retired_partition_redirects_once() {
        for scheme in [Scheme::StaticHash { num_buckets: 32 }, Scheme::Hashing] {
            let (mut cluster, ds) = loaded(2, scheme, 0);
            cluster.add_node().unwrap();
            let wide = cluster.topology().clone();
            cluster
                .rebalance(ds, &wide, RebalanceOptions::none())
                .unwrap();
            let mut session = cluster.session(ds).unwrap();
            session.ingest(&mut cluster, (0..600).map(record)).unwrap();
            let (mut reads, mut writes) = (session.clone(), session);
            let retired = cluster.topology().partitions_of_node(NodeId(2));
            let narrow = cluster.topology_without(NodeId(2));
            cluster
                .rebalance(ds, &narrow, RebalanceOptions::none())
                .unwrap();
            cluster.decommission_node(NodeId(2)).unwrap();
            assert!(retired.iter().all(|p| cluster.partition(*p).is_err()));
            let on_retired = |session: &Session, i: u64| {
                let route = session.route_hash(hash_key(&record(i).0)).unwrap();
                retired.contains(&route)
            };
            let i = (0..600).find(|&i| on_retired(&reads, i)).unwrap();
            let (k, v) = record(i);
            assert_eq!(reads.get(&cluster, &k).unwrap(), Some(v), "{scheme:?}");
            let j = (600..1200).find(|&j| on_retired(&writes, j)).unwrap();
            let (k, v) = record(j);
            writes.put(&mut cluster, k.clone(), v.clone()).unwrap();
            assert_eq!(reads.get(&cluster, &k).unwrap(), Some(v), "{scheme:?}");
            for session in [&reads, &writes] {
                let m = session.metrics();
                assert_eq!((m.redirects, m.refreshes(), m.retries), (1, 1, 1));
            }
        }
    }

    #[test]
    fn stale_session_survives_a_hashing_rebuild() {
        let (mut cluster, ds) = loaded(2, Scheme::Hashing, 600);
        let mut stale = cluster.session(ds).unwrap();
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        cluster
            .rebalance(ds, &target, RebalanceOptions::none())
            .unwrap();
        for i in 0..600u64 {
            let (k, v) = record(i);
            assert_eq!(stale.get(&cluster, &k).unwrap(), Some(v), "key {i}");
        }
        assert!(stale.metrics().redirects >= 1);
        assert!(stale.metrics().full_refreshes >= 1);
        let (map, _) = stale.collect_records(&cluster).unwrap();
        assert_eq!(map.len(), 600);
    }

    #[test]
    fn redirect_loop_is_bounded() {
        let (mut cluster, ds) = loaded(2, Scheme::StaticHash { num_buckets: 16 }, 200);
        // A CC directory that routes a bucket to a partition not holding it:
        // every refresh brings the same wrong route back, so the session
        // must surface the protocol error once its redirect bound is spent
        // instead of spinning.
        let key = record(0).0;
        let meta = cluster.controller.dataset_mut(ds).unwrap();
        let dir = meta.directory.as_mut().unwrap();
        let (bucket, owner) = dir.lookup_key(&key).unwrap();
        let wrong = meta.partitions.iter().find(|p| **p != owner).unwrap();
        dir.reassign(bucket, *wrong);
        let mut session = cluster.session(ds).unwrap();
        match session.get(&cluster, &key) {
            Err(ClusterError::Route(RouteError::RedirectLoop { attempts, .. })) => {
                assert_eq!(attempts, DEFAULT_MAX_REDIRECTS + 1);
            }
            other => panic!("expected a redirect loop, got {other:?}"),
        }
        assert_eq!(
            session.metrics().redirects,
            DEFAULT_MAX_REDIRECTS as u64 + 1
        );
    }

    #[test]
    fn scans_refresh_on_version_mismatch() {
        let (mut cluster, ds) = loaded(2, Scheme::StaticHash { num_buckets: 16 }, 900);
        let mut stale = cluster.session(ds).unwrap();
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        cluster
            .rebalance(ds, &target, RebalanceOptions::none())
            .unwrap();
        let (map, raw) = stale.collect_records(&cluster).unwrap();
        assert_eq!(map.len(), 900);
        assert_eq!(raw, 900, "no key may be visible twice");
        assert_eq!(stale.metrics().refreshes(), 1);
    }
}
