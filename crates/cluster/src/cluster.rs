//! The simulated shared-nothing cluster.
//!
//! [`Cluster`] wires together the Cluster Controller, the storage partitions
//! (one map, keyed by partition id; the topology says which node hosts
//! each), every Node Controller's liveness state, and the hardware cost
//! model. It exposes the operations the experiments need: creating
//! datasets, ingesting records through data feeds, running queries (see
//! [`crate::query`]), scaling the cluster in or out, and rebalancing
//! datasets (see [`crate::rebalance`]).
//!
//! The routing state lives once, at the CC. Every operation here holds the
//! cluster for its whole run, so the feed path routes each batch through
//! the CC's directory and an in-flight job's write replication looks its
//! buckets up there too: only a [`crate::session::Session`] keeps a copy.

use std::collections::BTreeMap;

use dynahash_core::{BucketHeat, ClusterTopology, GlobalDirectory, NodeId, PartitionId, Scheme};
use dynahash_lsm::bucket::{hash_key, BucketId};
use dynahash_lsm::entry::{Key, Value};
use dynahash_lsm::metrics::MetricsSnapshot;
use dynahash_lsm::wal::{RebalanceId, RebalanceLogStatus};

use crate::control::{HeatCell, HeatReport};
use crate::controller::ClusterController;
use crate::dataset::{DatasetId, DatasetSpec};
use crate::fault::{ClusterHealth, FaultSchedule, FaultState, NodeState};
use crate::feed::IngestReport;
use crate::job::RebalanceJob;
use crate::obs::{jobs_in_flight, Event};
use crate::partition::{Partition, PartitionDataset};
use crate::rebalance::RebalanceReport;
use crate::sim::{CostModel, NodeTimeline, SimDuration};
use crate::ClusterError;

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of storage partitions per node (the paper uses 4).
    pub partitions_per_node: u32,
    /// The hardware cost model.
    pub cost_model: CostModel,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            partitions_per_node: 4,
            cost_model: CostModel::default(),
        }
    }
}

/// Replication state of one in-flight job (rebalance or repair), registered
/// when the [`crate::job::RebalanceJob`] is planned — so no second job can be
/// planned over it — and consulted by the *normal* ingestion path, which
/// stays online during data movement: writes routed to a bucket whose wave has
/// already shipped it are transparently replicated to the destination's
/// pending copy (Section V-C), and writes are briefly blocked once the
/// prepare phase has flushed the pending components. A write finds its
/// bucket in the CC's directory, which is the plan's old directory until the
/// commit installs the new one, and its destination's node in the topology.
pub(crate) struct ActiveRebalance {
    /// Shipped bucket -> destination partition (grows wave by wave).
    pub shipped: BTreeMap<BucketId, PartitionId>,
    /// True from the prepare phase until commit/abort: writes are blocked.
    pub write_blocked: bool,
}

/// What one applied write touched (see `Cluster::write_record`).
struct Written {
    /// The node owning the record.
    node: NodeId,
    /// The destination node the write was replicated to, and the payload
    /// bytes sent there.
    replica: Option<(NodeId, u64)>,
    /// Whether a delete found the key live (never true for a put).
    was_live: bool,
}

/// The simulated cluster.
pub struct Cluster {
    config: ClusterConfig,
    topology: ClusterTopology,
    /// Every partition of the topology, whichever node hosts it.
    partitions: BTreeMap<PartitionId, Partition>,
    /// Every Node Controller of the topology: a node is its liveness state
    /// (see [`crate::recovery`] for the rules that change it).
    pub(crate) nodes: BTreeMap<NodeId, NodeState>,
    /// The Cluster Controller.
    pub controller: ClusterController,
    /// In-flight step-driven rebalances, by dataset (see [`ActiveRebalance`]).
    pub(crate) active_rebalances: BTreeMap<DatasetId, ActiveRebalance>,
    /// The deterministic fault plane (see [`crate::fault`]).
    pub(crate) faults: FaultState,
    /// The (optional) armed per-bucket heat counters (see [`crate::control`]).
    /// Disarmed (`None` inside), every data path takes its pre-control-plane
    /// code path — the same arming shape as the fault plane.
    pub(crate) heat: HeatCell,
    /// The event log of the control, job and fault planes (see
    /// [`crate::obs`]): appended to by [`Cluster::record`] alone.
    events: Vec<Event>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.nodes.len())
            .field("partitions", &self.topology.num_partitions())
            .finish()
    }
}

impl Cluster {
    /// Creates a cluster of `num_nodes` nodes with the default configuration.
    pub fn new(num_nodes: u32) -> Self {
        Self::with_config(num_nodes, ClusterConfig::default())
    }

    /// Creates a cluster with an explicit configuration.
    pub fn with_config(num_nodes: u32, config: ClusterConfig) -> Self {
        let topology = ClusterTopology::uniform(num_nodes, config.partitions_per_node);
        let partitions = (topology.partitions().into_iter())
            .map(|p| (p, Partition::new(p)))
            .collect();
        let nodes = (topology.nodes().into_iter())
            .map(|n| (n, NodeState::Alive))
            .collect();
        Cluster {
            config,
            topology,
            partitions,
            nodes,
            controller: ClusterController::new(),
            active_rebalances: BTreeMap::new(),
            faults: FaultState::default(),
            heat: HeatCell::default(),
            events: Vec::new(),
        }
    }

    // -------------------------------------------------------- control plane

    /// Arms or disarms per-bucket heat tracking. Armed, every session read
    /// and routed write feeds the heat counters the control plane's
    /// decisions run on (one local-directory probe per operation); disarmed
    /// — the default — the data paths are byte-identical to a cluster
    /// without the control plane. Disarming drops all counters.
    pub fn set_heat_tracking(&mut self, enabled: bool) {
        if enabled {
            self.heat.arm();
        } else {
            self.heat.disarm();
        }
    }

    /// True when heat tracking is armed.
    pub fn heat_tracking_enabled(&self) -> bool {
        self.heat.armed()
    }

    /// A copy of a dataset's decayed per-bucket op counters (empty when heat
    /// tracking is disarmed). The merged view — ops joined with storage
    /// residency — is [`Admin::heat`].
    pub fn heat_ops_snapshot(&self, dataset: DatasetId) -> BTreeMap<BucketId, BucketHeat> {
        self.heat.ops_snapshot(dataset)
    }

    /// The local bucket a key lives in on `partition`, probed only while
    /// heat tracking is armed (`None` otherwise, and for non-bucketed
    /// datasets). Keying heat by the *local* directory keeps read heat,
    /// write heat, bucket sizes, and the planner's load map on the same
    /// bucket granularity even before the CC absorbs local splits.
    fn heat_bucket_of(
        &self,
        dataset: DatasetId,
        partition: PartitionId,
        key: &Key,
    ) -> Option<BucketId> {
        if !self.heat.armed() {
            return None;
        }
        let ds = self.partition(partition).ok()?.dataset(dataset).ok()?;
        ds.primary.bucket_of(key)
    }

    // ------------------------------------------------------------ event log

    /// The events logged from sequence number `since` on, oldest first (an
    /// event's sequence number is its position; `since` past the end reads
    /// nothing). The next read starts at `since` plus the slice's length.
    pub fn events(&self, since: usize) -> &[Event] {
        self.events.get(since..).unwrap_or_default()
    }

    /// Appends `event` to the log.
    pub(crate) fn record(&mut self, event: Event) {
        self.events.push(event);
    }

    // ---------------------------------------------------------- fault plane

    /// Installs a seeded fault schedule. Transfers consult it per attempt;
    /// drivers fire its step faults at the boundaries they pass
    /// ([`Cluster::fire_faults`]). Replaces the schedule already installed;
    /// [`FaultSchedule::none`] disarms the plane.
    pub fn set_fault_plane(&mut self, schedule: FaultSchedule) {
        self.faults.plane = schedule;
    }

    /// The installed fault schedule (empty when the plane is disarmed).
    pub fn fault_plane(&self) -> &FaultSchedule {
        &self.faults.plane
    }

    /// The lost bucket `key` routes to, when the dataset is serving degraded
    /// and the key's bucket died with a lost node (`None` on the healthy
    /// path — the first map probe is the only cost then). Reads and writes
    /// touching such a bucket get the typed
    /// [`ClusterError::BucketDegraded`] instead of silently-empty data.
    pub(crate) fn lost_bucket_of(&self, dataset: DatasetId, key: &Key) -> Option<BucketId> {
        let lost = self.faults.lost_buckets.get(&dataset)?;
        if lost.is_empty() {
            return None;
        }
        let meta = self.controller.dataset(dataset).ok()?;
        let (bucket, _) = meta.directory.as_ref()?.lookup_key(key)?;
        lost.contains(&bucket).then_some(bucket)
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The cost model.
    pub fn cost_model(&self) -> CostModel {
        self.config.cost_model
    }

    /// The current topology.
    pub fn topology(&self) -> &ClusterTopology {
        &self.topology
    }

    /// The node hosting a partition.
    pub fn node_of_partition(&self, partition: PartitionId) -> Result<NodeId, ClusterError> {
        self.topology
            .node_of(partition)
            .ok_or(ClusterError::UnknownPartition(partition))
    }

    /// A node's liveness state.
    pub(crate) fn node_state(&self, id: NodeId) -> Result<NodeState, ClusterError> {
        self.nodes
            .get(&id)
            .copied()
            .ok_or(ClusterError::UnknownNode(id))
    }

    /// Access a partition. Crate-internal: clients go through
    /// [`crate::session::Session`]; tests and operators that need white-box
    /// access use [`Cluster::admin`].
    pub(crate) fn partition(&self, id: PartitionId) -> Result<&Partition, ClusterError> {
        (self.partitions.get(&id)).ok_or(ClusterError::UnknownPartition(id))
    }

    /// Mutable access to a partition (crate-internal, see
    /// [`Cluster::partition`]).
    pub(crate) fn partition_mut(
        &mut self,
        id: PartitionId,
    ) -> Result<&mut Partition, ClusterError> {
        (self.partitions.get_mut(&id)).ok_or(ClusterError::UnknownPartition(id))
    }

    /// The local storage of `dataset` on every partition that holds it, in
    /// partition order.
    pub(crate) fn stores(
        &self,
        dataset: DatasetId,
    ) -> impl Iterator<Item = (PartitionId, &PartitionDataset)> {
        (self.partitions.iter())
            .filter_map(move |(p, part)| Some((*p, part.dataset(dataset).ok()?)))
    }

    /// Mutable form of [`Cluster::stores`].
    pub(crate) fn stores_mut(
        &mut self,
        dataset: DatasetId,
    ) -> impl Iterator<Item = (PartitionId, &mut PartitionDataset)> {
        (self.partitions.iter_mut())
            .filter_map(move |(p, part)| Some((*p, part.dataset_mut(dataset).ok()?)))
    }

    /// The white-box escape hatch around the session API: direct partition
    /// access, omniscient routing, and unrouted ingestion. For tests,
    /// benchmarks, and operational tooling that must inspect or seed
    /// physical state; everything on the data path belongs on
    /// [`Cluster::session`] instead.
    pub fn admin(&mut self) -> Admin<'_> {
        Admin { cluster: self }
    }

    // ------------------------------------------------------------- datasets

    /// Creates a dataset across all current partitions. For bucketed schemes
    /// the initial buckets are assigned round-robin; for the Hashing scheme
    /// each partition owns the whole hash space locally and routing uses
    /// `hash(K) mod N`.
    pub fn create_dataset(&mut self, spec: DatasetSpec) -> Result<DatasetId, ClusterError> {
        let partitions = self.topology.partitions();
        let id = self
            .controller
            .register_dataset(spec.clone(), partitions.clone())?;
        for p in partitions {
            let initial_buckets: Vec<BucketId> = match &self.controller.dataset(id)?.directory {
                Some(dir) => dir.buckets_of_partition(p),
                None => vec![BucketId::root()],
            };
            self.partition_mut(p)?
                .create_dataset(id, &spec, initial_buckets);
        }
        Ok(id)
    }

    /// Routes a key of a dataset to its partition using the CC's current
    /// routing state. Crate-internal: clients route through their cached
    /// [`crate::session::Session`] snapshot; white-box code uses
    /// [`crate::cluster::Admin::route_key`].
    pub(crate) fn route_key(
        &self,
        dataset: DatasetId,
        key: &Key,
    ) -> Result<PartitionId, ClusterError> {
        let meta = self.controller.dataset(dataset)?;
        meta.route_key(key)
            .ok_or(ClusterError::RoutingFailed(dataset))
    }

    // ------------------------------------------------------------ ingestion

    /// What every write path checks before it touches a record. A
    /// step-driven rebalance keeps writes online during data movement by
    /// replicating them to already-shipped buckets; only the brief
    /// prepare-to-commit window refuses them (Section V-C). A degraded
    /// dataset refuses writes to its lost buckets *atomically*: every key is
    /// validated before any record applies, so a feed never half-applies
    /// against a bucket awaiting repair (a healthy dataset pays one probe of
    /// the empty lost-bucket map per key).
    fn check_writable<'a>(
        &self,
        dataset: DatasetId,
        keys: impl IntoIterator<Item = &'a Key>,
    ) -> Result<(), ClusterError> {
        if (self.active_rebalances.get(&dataset)).is_some_and(|active| active.write_blocked) {
            return Err(ClusterError::DatasetWriteBlocked(dataset));
        }
        for key in keys {
            if let Some(bucket) = self.lost_bucket_of(dataset, key) {
                return Err(ClusterError::BucketDegraded { dataset, bucket });
            }
        }
        Ok(())
    }

    /// Applies one write on the `partition` its key routes to — `Some(value)`
    /// inserts or updates the record, `None` deletes the key — and is the
    /// one place a record changes. The bucket's heat is noted (an attempted
    /// write is load, served or not), the owner must be alive, and the write
    /// goes into the primary and secondary indexes (a delete's
    /// old payload drives the secondary extractors, so index scans never
    /// return phantom hits). While a job is
    /// in flight, a write to a bucket whose wave has *already shipped it*
    /// must also reach the destination's pending copy — tombstones included —
    /// or the commit-time cleanup of the source bucket would drop it
    /// (Section V-C); a dead destination fails the write loudly, exactly like
    /// a dead owner. Only the primary write is replicated: the destination's
    /// index learns the bucket from its installed components.
    fn write_record(
        &mut self,
        dataset: DatasetId,
        partition: PartitionId,
        key: Key,
        value: Option<Value>,
    ) -> Result<Written, ClusterError> {
        if let Some(bucket) = self.heat_bucket_of(dataset, partition, &key) {
            self.heat.note_write(dataset, bucket);
        }
        let node_id = self.node_of_partition(partition)?;
        let replica = self.active_rebalances.get(&dataset).and_then(|active| {
            let directory = self.controller.dataset(dataset).ok()?.directory.as_ref()?;
            let (bucket, _) = directory.lookup_key(&key)?;
            let dst_partition = *active.shipped.get(&bucket)?;
            Some((bucket, dst_partition, key.clone(), value.clone()))
        });
        if self.node_state(node_id)? != NodeState::Alive {
            return Err(ClusterError::NodeDown(node_id));
        }
        let ds = self.partition_mut(partition)?.dataset_mut(dataset)?;
        let was_live = match value {
            Some(value) => {
                ds.ingest(key, value)?;
                false
            }
            None => ds.delete(&key)?,
        };
        let mut written = Written {
            node: node_id,
            replica: None,
            was_live,
        };
        if let Some((bucket, dst_partition, key, value)) = replica {
            let dst_node = self.node_of_partition(dst_partition)?;
            if !self.node_is_alive(dst_node) {
                return Err(ClusterError::NodeDown(dst_node));
            }
            let bytes = key.len() + value.as_ref().map_or(0, |v| v.len());
            written.replica = Some((dst_node, bytes as u64));
            let ds = self.partition_mut(dst_partition)?.dataset_mut(dataset)?;
            // The bucket is in the active job's shipped set, so a missing
            // pending copy means a destination crash wiped the uncommitted
            // transfer: re-create it here so replication keeps flowing, and
            // the commit re-ships the lost base data from the metadata log.
            ds.ensure_pending_bucket(bucket)?;
            let entry = match value {
                Some(value) => dynahash_lsm::Entry::put(key, value),
                None => dynahash_lsm::Entry::delete(key),
            };
            ds.primary.apply_replicated(bucket, entry)?;
        }
        Ok(written)
    }

    /// One routed point write, backing [`crate::session::Session::put`]
    /// (`Some(value)`) and [`crate::session::Session::delete`] (`None`):
    /// [`Cluster::ingest`]'s per-record routine without the batch path's
    /// cluster-wide metrics sweeps (a point write's cost report is discarded
    /// anyway). Returns whether a delete found the key live.
    pub(crate) fn write_routed(
        &mut self,
        dataset: DatasetId,
        key: Key,
        value: Option<Value>,
    ) -> Result<bool, ClusterError> {
        self.check_writable(dataset, [&key])?;
        let partition = self.route_key(dataset, &key)?;
        Ok(self.write_record(dataset, partition, key, value)?.was_live)
    }

    /// Ingests a batch of records through a data feed: the batch is routed
    /// through the CC's directory and packed, then each record is inserted
    /// into the primary and secondary indexes. Nothing in between can change
    /// the directory, so the feed copies none.
    ///
    /// Returns an [`IngestReport`] with the simulated elapsed time (the
    /// slowest node bounds the feed, as in the paper's ingestion experiment).
    ///
    /// Crate-internal: the public feed path is
    /// [`crate::session::Session::ingest`], which routes from the client's
    /// cached directory and participates in the stale-directory redirect
    /// protocol; unrouted seeding for tests goes through
    /// [`crate::cluster::Admin::ingest`].
    pub(crate) fn ingest(
        &mut self,
        dataset: DatasetId,
        records: impl IntoIterator<Item = (Key, Value)>,
    ) -> Result<IngestReport, ClusterError> {
        let mut batch: Vec<(Key, Value)> = records.into_iter().collect();
        self.check_writable(dataset, batch.iter().map(|(key, _)| key))?;
        let cost_model = self.config.cost_model;
        let routes = self.route_and_pack(dataset, &mut batch)?;

        // Per-partition metric snapshots to charge IO costs ex post.
        let before: BTreeMap<PartitionId, MetricsSnapshot> = self
            .topology
            .partitions()
            .iter()
            .map(|p| {
                (
                    *p,
                    self.partition(*p)
                        .map(|x| x.metrics().snapshot())
                        .unwrap_or_default(),
                )
            })
            .collect();

        let mut per_node_records: BTreeMap<NodeId, u64> = BTreeMap::new();
        // Per-node replication traffic (records, bytes) to pending buckets.
        let mut replicated: BTreeMap<NodeId, (u64, u64)> = BTreeMap::new();
        let mut total = 0u64;
        for ((key, value), partition) in batch.into_iter().zip(routes) {
            let written = self.write_record(dataset, partition, key, Some(value))?;
            *per_node_records.entry(written.node).or_default() += 1;
            total += 1;
            if let Some((dst_node, bytes)) = written.replica {
                let entry = replicated.entry(dst_node).or_default();
                entry.0 += 1;
                entry.1 += bytes;
            }
        }

        // Cost accounting: CPU for parsing/routing plus the IO the storage
        // engine performed (flushes and merges), per node.
        let mut timeline = NodeTimeline::new();
        timeline.charge_coordinator(SimDuration::from_nanos(cost_model.job_overhead_ns));
        for (node_id, records) in &per_node_records {
            timeline.charge(*node_id, cost_model.ingest_cpu(*records));
        }
        for (node_id, (records, bytes)) in &replicated {
            timeline.charge(
                *node_id,
                cost_model.network(*bytes) + cost_model.ingest_cpu(*records),
            );
        }
        for p in self.topology.partitions() {
            let node_id = self.node_of_partition(p)?;
            let after = self.partition(p)?.metrics().snapshot();
            let delta = after.delta_since(before.get(&p).unwrap_or(&MetricsSnapshot::default()));
            let io = cost_model.disk_write(delta.bytes_flushed)
                + cost_model.merge_cost(delta.bytes_merge_read, delta.bytes_merged);
            timeline.charge(node_id, io);
        }

        Ok(IngestReport {
            records: total,
            elapsed: timeline.elapsed(),
            per_node: timeline.breakdown(),
        })
    }

    /// Routes a feed batch through the CC's directory and packs its payloads
    /// at the door: the records bound for one bucket share one allocation,
    /// so what the memory components hold — and the flushes hand on — are
    /// slices of a few slabs that die whole when a merge rewrites the run,
    /// instead of one small allocation per record for the allocator to take
    /// back piecemeal. Records are grouped by as many low-order hash bits as
    /// the deepest local directory uses, so a group never straddles two
    /// buckets; under the Hashing scheme, by partition. Returns each
    /// record's partition, in batch order.
    fn route_and_pack(
        &self,
        dataset: DatasetId,
        batch: &mut [(Key, Value)],
    ) -> Result<Vec<PartitionId>, ClusterError> {
        let meta = self.controller.dataset(dataset)?;
        let depth = (meta.partitions.iter())
            .filter_map(|p| self.partition(*p).ok()?.dataset(dataset).ok())
            .map(|ds| ds.primary.local_depth())
            .max()
            .unwrap_or(0);
        let mask = (1u64 << depth.min(32)) - 1;
        let mut routes = Vec::with_capacity(batch.len());
        let mut groups: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (at, (key, _)) in batch.iter().enumerate() {
            let hash = hash_key(key);
            let partition = (meta.route_hash(hash)).ok_or(ClusterError::RoutingFailed(dataset))?;
            let group = match &meta.directory {
                Some(_) => hash & mask,
                None => u64::from(partition.0),
            };
            groups.entry(group).or_default().push(at);
            routes.push(partition);
        }
        // Every slab is built before any old payload is let go, and those go
        // in batch order — the order their writer made them in — so the
        // allocator gets one region back whole, not small chunks between
        // live ones.
        let mut packed: Vec<Option<Value>> = vec![None; batch.len()];
        for members in groups.values().filter(|m| m.len() > 1) {
            let mut slab = Value::concat(members.iter().map(|&at| &batch[at].1));
            for &at in members {
                packed[at] = Some(slab.split_to(batch[at].1.len()));
            }
        }
        for ((_, value), packed) in batch.iter_mut().zip(packed) {
            if let Some(packed) = packed {
                *value = packed;
            }
        }
        Ok(routes)
    }

    // -------------------------------------------------------------- scaling

    /// Adds a node with the configured number of partitions. The new node is
    /// empty until datasets are rebalanced onto it. Existing datasets get
    /// empty local storage created on the new partitions so that rebalanced
    /// buckets have somewhere to land.
    pub fn add_node(&mut self) -> Result<NodeId, ClusterError> {
        let new_topology = self
            .topology
            .with_added_node(self.config.partitions_per_node);
        let new_node_id = *new_topology
            .nodes()
            .last()
            .ok_or(ClusterError::Core(dynahash_core::CoreError::EmptyTopology))?;
        for p in new_topology.partitions_of_node(new_node_id) {
            let mut partition = Partition::new(p);
            for dataset in self.controller.dataset_ids() {
                let spec = &self.controller.dataset(dataset)?.spec;
                partition.create_dataset(dataset, spec, vec![]);
            }
            self.partitions.insert(p, partition);
        }
        self.nodes.insert(new_node_id, NodeState::Alive);
        self.topology = new_topology;
        Ok(new_node_id)
    }

    /// Removes a node from the cluster. All datasets must have been
    /// rebalanced away from it first; the call fails if any partition on the
    /// node still holds data.
    pub fn decommission_node(&mut self, node: NodeId) -> Result<(), ClusterError> {
        self.node_state(node)?;
        let remaining: usize = (self.topology.partitions_of_node(node).iter())
            .filter_map(|p| self.partitions.get(p))
            .flat_map(|p| {
                p.dataset_ids()
                    .into_iter()
                    .filter_map(|d| p.dataset(d).ok())
            })
            .map(|ds| ds.primary.live_len())
            .sum();
        if remaining > 0 {
            return Err(ClusterError::NodeNotEmpty(node, remaining));
        }
        self.retire_node(node)
    }

    /// Removes a permanently lost node from the topology. Unlike
    /// [`Cluster::decommission_node`] this does not require the node to be
    /// empty — its data is unreachable either way — but it does require
    /// that no dataset's global directory still routes to its partitions
    /// (i.e. every in-flight rebalance has re-planned around the loss and
    /// committed).
    pub fn remove_lost_node(&mut self, node: NodeId) -> Result<(), ClusterError> {
        if self.node_state(node)? != NodeState::Lost {
            return Err(ClusterError::Inconsistent(format!(
                "node {node} is not lost; use decommission_node"
            )));
        }
        let partitions = self.topology.partitions_of_node(node);
        for dataset in self.controller.dataset_ids() {
            let meta = self.controller.dataset(dataset)?;
            if let Some(dir) = &meta.directory {
                for p in &partitions {
                    if !dir.buckets_of_partition(*p).is_empty() {
                        return Err(ClusterError::Inconsistent(format!(
                            "dataset {dataset} still routes buckets to lost partition {p}"
                        )));
                    }
                }
            }
        }
        self.retire_node(node)
    }

    /// Drops `node` from the cluster and its partitions from every dataset's
    /// partition list, bumping the routing version so cached sessions stop
    /// dispatching scans to partitions that no longer exist.
    fn retire_node(&mut self, node: NodeId) -> Result<(), ClusterError> {
        self.nodes.remove(&node);
        for p in self.topology.partitions_of_node(node) {
            self.partitions.remove(&p);
        }
        self.topology = self.topology.without_node(node);
        for dataset in self.controller.dataset_ids() {
            let topo = self.topology.clone();
            let meta = self.controller.dataset_mut(dataset)?;
            let before = meta.partitions.len();
            meta.partitions.retain(|p| topo.node_of(*p).is_some());
            if meta.partitions.len() != before {
                meta.bump_partitions_version();
            }
        }
        Ok(())
    }

    /// The topology that would result from removing a node (used to plan a
    /// scale-in rebalance before actually decommissioning the node).
    pub fn topology_without(&self, node: NodeId) -> ClusterTopology {
        self.topology.without_node(node)
    }

    // ------------------------------------------------------------- reporting

    /// Number of live records of a dataset on each partition.
    pub fn dataset_distribution(
        &self,
        dataset: DatasetId,
    ) -> Result<BTreeMap<PartitionId, usize>, ClusterError> {
        Ok((self.stores(dataset))
            .map(|(p, ds)| (p, ds.primary.live_len()))
            .collect())
    }

    /// Total live records of a dataset.
    pub fn dataset_len(&self, dataset: DatasetId) -> Result<usize, ClusterError> {
        Ok(self.dataset_distribution(dataset)?.values().sum())
    }

    /// Total primary-index bytes of a dataset (what a global rebalance would
    /// have to move).
    pub fn dataset_primary_bytes(&self, dataset: DatasetId) -> Result<u64, ClusterError> {
        Ok((self.stores(dataset))
            .map(|(_, ds)| ds.primary.logical_size_bytes() as u64)
            .sum())
    }

    /// Per-bucket byte sizes of a bucketed dataset across the whole cluster
    /// (reported by the NCs to the CC during rebalance initialization).
    pub fn dataset_bucket_sizes(
        &self,
        dataset: DatasetId,
    ) -> Result<BTreeMap<BucketId, u64>, ClusterError> {
        let mut out = BTreeMap::new();
        for (_, ds) in self.stores(dataset) {
            for (b, s) in ds.primary.bucket_sizes() {
                *out.entry(b).or_default() += s as u64;
            }
        }
        Ok(out)
    }

    /// The partitions' local directories for a dataset (partition → buckets),
    /// used by the CC to refresh the global directory.
    pub fn local_directories(
        &self,
        dataset: DatasetId,
    ) -> Result<Vec<(PartitionId, Vec<BucketId>)>, ClusterError> {
        Ok((self.stores(dataset))
            .map(|(p, ds)| (p, ds.primary.bucket_ids()))
            .collect())
    }

    /// Convenience: the scheme of a dataset.
    pub fn scheme_of(&self, dataset: DatasetId) -> Result<Scheme, ClusterError> {
        self.controller.scheme_of(dataset)
    }

    /// Enables or disables bucket splits for a dataset on every partition
    /// (splits are suspended for the duration of a rebalance).
    pub(crate) fn set_splits_enabled(
        &mut self,
        dataset: DatasetId,
        enabled: bool,
    ) -> Result<(), ClusterError> {
        for (_, ds) in self.stores_mut(dataset) {
            ds.primary.set_splits_enabled(enabled);
        }
        Ok(())
    }

    /// Checks global consistency for a dataset: every record is stored on the
    /// partition its key routes to, and partitions' local directories are
    /// internally consistent. Used by integration and property tests.
    pub fn check_dataset_consistency(&self, dataset: DatasetId) -> Result<(), ClusterError> {
        let meta = self.controller.dataset(dataset)?;
        for (p, ds) in self.stores(dataset) {
            if !ds.primary.is_consistent() {
                return Err(ClusterError::Inconsistent(format!(
                    "partition {p} local directory inconsistent"
                )));
            }
            for entry in ds.primary.scan(dynahash_lsm::ScanOrder::Unordered) {
                let expected = meta
                    .route_key(&entry.key)
                    .ok_or(ClusterError::RoutingFailed(dataset))?;
                if expected != p {
                    return Err(ClusterError::Inconsistent(format!(
                        "key {:?} stored on {p} but routes to {expected}",
                        entry.key
                    )));
                }
            }
        }
        Ok(())
    }

    /// The full post-rebalance integrity contract, used by the failure-point
    /// matrix tests: whatever happened during the rebalance, after it reaches
    /// a terminal state the cluster must satisfy, all at once:
    ///
    /// 1. every record is stored on the partition its key routes to and the
    ///    local directories are internally consistent
    ///    ([`Cluster::check_dataset_consistency`]);
    /// 2. for bucketed schemes, the CC's global directory covers the whole
    ///    hash space **and** equals the directory rebuilt from the
    ///    partitions' local directories (directory agreement);
    /// 3. no partition holds leftover pending rebalance state (received
    ///    buckets were either installed or discarded);
    /// 4. the metadata log reached the terminal `Done` status for the
    ///    operation (WAL agreement).
    pub fn check_rebalance_integrity(
        &self,
        dataset: DatasetId,
        rebalance: RebalanceId,
    ) -> Result<(), ClusterError> {
        self.check_dataset_consistency(dataset)?;
        let meta = self.controller.dataset(dataset)?;
        if let Some(dir) = &meta.directory {
            if !dir.covers_full_space() {
                return Err(ClusterError::Inconsistent(
                    "global directory does not cover the hash space".to_string(),
                ));
            }
            let refreshed = GlobalDirectory::refresh_from_locals(self.local_directories(dataset)?)
                .map_err(ClusterError::Core)?;
            if &refreshed != dir {
                return Err(ClusterError::Inconsistent(
                    "local directories disagree with the CC's global directory".to_string(),
                ));
            }
        }
        for (p, ds) in self.stores(dataset) {
            if !ds.primary.pending_bucket_ids().is_empty() || ds.primary.pending_storage_bytes() > 0
            {
                return Err(ClusterError::Inconsistent(format!(
                    "partition {p} still holds pending rebalance state"
                )));
            }
        }
        match self.controller.metadata_log.rebalance_status(rebalance) {
            RebalanceLogStatus::Done => Ok(()),
            status => Err(ClusterError::Inconsistent(format!(
                "rebalance {rebalance} has non-terminal log status {status:?}"
            ))),
        }
    }
}

#[cfg(test)]
impl Cluster {
    /// Live records of `dataset` stored on `node`'s partitions.
    pub(crate) fn live_on_node(&self, dataset: DatasetId, node: NodeId) -> usize {
        let live = self.dataset_distribution(dataset).unwrap_or_default();
        let partitions = self.topology.partitions_of_node(node);
        partitions.iter().filter_map(|p| live.get(p)).sum()
    }
}

/// White-box access to a cluster, handed out by [`Cluster::admin`].
///
/// This is the clearly named escape hatch around the [`Cluster::session`]
/// API: it routes with the CC's live state and touches partitions directly,
/// bypassing the versioned-directory redirect protocol. Integration tests
/// use it to verify *physical* placement ("is the record stored where its
/// key routes?"); nothing on the data path should.
pub struct Admin<'a> {
    cluster: &'a mut Cluster,
}

impl Admin<'_> {
    /// Routes a key with the CC's current (always-fresh) routing state.
    pub fn route_key(&self, dataset: DatasetId, key: &Key) -> Result<PartitionId, ClusterError> {
        self.cluster.route_key(dataset, key)
    }

    /// Direct read access to a partition.
    pub fn partition(&self, id: PartitionId) -> Result<&Partition, ClusterError> {
        self.cluster.partition(id)
    }

    /// Direct mutable access to a partition.
    pub fn partition_mut(&mut self, id: PartitionId) -> Result<&mut Partition, ClusterError> {
        self.cluster.partition_mut(id)
    }

    /// Unrouted batch ingestion with the CC's live routing state (test
    /// seeding; the sanctioned feed path is
    /// [`crate::session::Session::ingest`]).
    pub fn ingest(
        &mut self,
        dataset: DatasetId,
        records: impl IntoIterator<Item = (Key, Value)>,
    ) -> Result<IngestReport, ClusterError> {
        self.cluster.ingest(dataset, records)
    }

    /// Cheap structural directory probe for continuous soak invariants:
    /// checks the CC's global directory covers the full hash space and its
    /// O(1) slot array agrees with the bucket assignment
    /// ([`GlobalDirectory::check_invariants`]). `O(2^D)` — no record scans —
    /// so harnesses can call it between *every* step; the full
    /// route-every-record [`Cluster::check_rebalance_integrity`] stays
    /// reserved for rebalance boundaries.
    pub fn check_directory_invariants(&self, dataset: DatasetId) -> Result<(), ClusterError> {
        let meta = self.cluster.controller.dataset(dataset)?;
        if let Some(dir) = &meta.directory {
            dir.check_invariants()
                .map_err(|e| ClusterError::Inconsistent(e.to_string()))?;
        }
        Ok(())
    }

    /// The cluster health surface: every node with its liveness state
    /// (alive / crashed / permanently lost), the fault-plane counters —
    /// transient faults absorbed, retries, reroutes, and the datasets
    /// serving in degraded mode because a bucket's only copy died with a
    /// lost node — and the jobs in flight, all folded from the event log.
    /// This is how operators (and the chaos gates) observe degraded serving
    /// without scraping partitions.
    pub fn health(&self) -> ClusterHealth {
        ClusterHealth {
            nodes: self
                .cluster
                .topology()
                .nodes()
                .into_iter()
                .filter_map(|n| Some((n, self.cluster.node_state(n).ok()?)))
                .collect(),
            stats: self.cluster.fault_stats(),
            jobs: jobs_in_flight(self.cluster.events(0)),
        }
    }

    /// One-shot degraded-dataset repair: restores every currently-lost
    /// bucket of the dataset from the operator-supplied feed by planning a
    /// repair ([`RebalanceJob::plan_repair`]) and driving it to completion
    /// like any other job ([`RebalanceJob::drive`]). Returns `None` — and
    /// forces no log records — when nothing is degraded, so repeating a
    /// repair is free and idempotent. Buckets of a node lost *during* the
    /// repair stay degraded (the job re-plans around the node and commits
    /// the rest); repairing again restores them.
    pub fn repair_dataset(
        &mut self,
        dataset: DatasetId,
        feed: &[(Key, Value)],
    ) -> Result<Option<RebalanceReport>, ClusterError> {
        if !self.cluster.faults.lost_buckets.contains_key(&dataset) {
            return Ok(None);
        }
        let mut job = RebalanceJob::plan_repair(self.cluster, dataset, feed)?;
        job.drive(self.cluster).map(Some)
    }

    /// The merged heat snapshot of a dataset: the decayed per-bucket op
    /// counters (zero while heat tracking is disarmed) joined with current
    /// storage residency — resident bytes per bucket — aggregated per
    /// partition. This is the monitor half of the control plane's
    /// monitor→decide→act loop, and an operator's view of where a dataset's
    /// traffic concentrates.
    pub fn heat(&self, dataset: DatasetId) -> Result<HeatReport, ClusterError> {
        let ops = self.cluster.heat.ops_snapshot(dataset);
        let mut report = HeatReport::default();
        for (p, buckets) in self.cluster.local_directories(dataset)? {
            let ds = self.cluster.partition(p)?.dataset(dataset)?;
            let sizes: BTreeMap<BucketId, usize> = ds.primary.bucket_sizes().into_iter().collect();
            let mut agg = BucketHeat::default();
            for b in buckets {
                let mut h = ops.get(&b).copied().unwrap_or_default();
                h.resident_bytes = sizes.get(&b).map_or(0, |s| *s as u64);
                report.per_bucket.entry(b).or_default().absorb(&h);
                agg.absorb(&h);
            }
            report.per_partition.insert(p, agg);
        }
        Ok(report)
    }

    /// Materializes every deferred secondary rebuild of a dataset across the
    /// cluster — the operator's way to pre-pay the lazy rebuild (e.g. before
    /// a query burst) instead of letting the first `index_scan` do it.
    /// Returns the number of records whose secondary entries were rebuilt.
    pub fn warm_indexes(&mut self, dataset: DatasetId) -> Result<u64, ClusterError> {
        Ok((self.cluster.stores_mut(dataset))
            .map(|(_, ds)| ds.warm_secondary_indexes())
            .sum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynahash_lsm::Bytes;

    fn records(n: u64) -> Vec<(Key, Value)> {
        (0..n)
            .map(|i| (Key::from_u64(i), Bytes::from(vec![(i % 251) as u8; 64])))
            .collect()
    }

    #[test]
    fn create_and_ingest_bucketed_dataset() {
        let mut cluster = Cluster::new(2);
        let ds = cluster
            .create_dataset(DatasetSpec::new("orders", Scheme::static_hash_256()))
            .unwrap();
        let report = cluster.ingest(ds, records(2000)).unwrap();
        assert_eq!(report.records, 2000);
        assert!(report.elapsed > SimDuration::ZERO);
        assert_eq!(cluster.dataset_len(ds).unwrap(), 2000);
        cluster.check_dataset_consistency(ds).unwrap();
        // hash partitioning spreads records across all 8 partitions
        let dist = cluster.dataset_distribution(ds).unwrap();
        assert_eq!(dist.len(), 8);
        assert!(dist.values().all(|&n| n > 100));
    }

    /// A feed batch is packed at the door: what one bucket buffers of it is
    /// slices of one allocation, which no other bucket shares (so the slab
    /// dies whole with that bucket's run), under either routing scheme;
    /// a point write keeps the allocation its writer made.
    #[test]
    fn a_feed_batch_is_packed_per_bucket_and_a_point_write_is_not() {
        for scheme in [Scheme::static_hash_256(), Scheme::Hashing] {
            let mut cluster = Cluster::new(2);
            let ds = cluster
                .create_dataset(DatasetSpec::new("orders", scheme))
                .unwrap();
            cluster.ingest(ds, records(4000)).unwrap();
            let own = Bytes::from(vec![9u8; 64]);
            cluster
                .write_routed(ds, Key::from_u64(4000), Some(own.clone()))
                .unwrap();
            let mut slabs: Vec<std::ops::Range<*const u8>> = Vec::new();
            for p in cluster.topology().partitions() {
                let primary = &cluster.partition(p).unwrap().dataset(ds).unwrap().primary;
                for b in primary.bucket_ids() {
                    let buffered: Vec<&Value> = primary
                        .bucket_tree(&b)
                        .unwrap()
                        .memtable()
                        .iter()
                        .filter_map(|(k, op)| op.value().filter(|_| k.as_u64() < 4000))
                        .collect();
                    assert!(buffered.len() > 1, "4000 records over at most 256 buckets");
                    // One slab: the values lie back to back in memory. Nobody
                    // else's: no other bucket's run of values touches this one
                    // (two allocations never abut — an `Arc<[u8]>` starts with
                    // its counts).
                    let mut spans: Vec<_> = buffered.iter().map(|v| v.as_ptr_range()).collect();
                    spans.sort_by_key(|s| s.start);
                    assert!(spans.windows(2).all(|w| w[0].end == w[1].start));
                    let slab = spans[0].start..spans[spans.len() - 1].end;
                    assert!(slabs
                        .iter()
                        .all(|s| s.end != slab.start && s.start != slab.end));
                    slabs.push(slab);
                }
            }
            let mut session = cluster.session(ds).unwrap();
            let got = session
                .get(&cluster, &Key::from_u64(4000))
                .unwrap()
                .unwrap();
            assert!(std::ptr::eq(got.as_ptr(), own.as_ptr()));
            for (key, value) in records(4000).into_iter().step_by(97) {
                assert_eq!(session.get(&cluster, &key).unwrap(), Some(value));
            }
        }
    }

    #[test]
    fn create_and_ingest_hashing_dataset() {
        let mut cluster = Cluster::new(2);
        let ds = cluster
            .create_dataset(DatasetSpec::new("orders", Scheme::Hashing))
            .unwrap();
        cluster.ingest(ds, records(1000)).unwrap();
        assert_eq!(cluster.dataset_len(ds).unwrap(), 1000);
        cluster.check_dataset_consistency(ds).unwrap();
    }

    #[test]
    fn dynahash_dataset_splits_buckets_during_ingestion() {
        let mut cluster = Cluster::with_config(
            2,
            ClusterConfig {
                partitions_per_node: 2,
                cost_model: CostModel::default(),
            },
        );
        let ds = cluster
            .create_dataset(
                DatasetSpec::new("lineitem", Scheme::dynahash(8 * 1024, 4))
                    .with_memtable_budget(2 * 1024),
            )
            .unwrap();
        cluster.ingest(ds, records(4000)).unwrap();
        cluster.check_dataset_consistency(ds).unwrap();
        let locals = cluster.local_directories(ds).unwrap();
        let total_buckets: usize = locals.iter().map(|(_, b)| b.len()).sum();
        assert!(
            total_buckets > 4,
            "ingestion should have split buckets: {total_buckets}"
        );
    }

    #[test]
    fn add_node_creates_empty_storage_for_existing_datasets() {
        let mut cluster = Cluster::new(2);
        let ds = cluster
            .create_dataset(DatasetSpec::new("orders", Scheme::static_hash_256()))
            .unwrap();
        cluster.ingest(ds, records(500)).unwrap();
        let new_node = cluster.add_node().unwrap();
        assert_eq!(cluster.topology().num_nodes(), 3);
        // the new node's partitions exist and are empty for the dataset
        for p in cluster.topology().partitions_of_node(new_node) {
            assert_eq!(
                cluster
                    .partition(p)
                    .unwrap()
                    .dataset(ds)
                    .unwrap()
                    .primary
                    .live_len(),
                0
            );
        }
        // routing is unchanged until a rebalance updates the directory
        cluster.check_dataset_consistency(ds).unwrap();
    }

    #[test]
    fn decommission_requires_empty_node() {
        let mut cluster = Cluster::new(2);
        let ds = cluster
            .create_dataset(DatasetSpec::new("orders", Scheme::static_hash_256()))
            .unwrap();
        cluster.ingest(ds, records(500)).unwrap();
        let victim = NodeId(1);
        let err = cluster.decommission_node(victim);
        assert!(matches!(err, Err(ClusterError::NodeNotEmpty(_, _))));
        // an empty cluster node can be removed
        let fresh = cluster.add_node().unwrap();
        cluster.decommission_node(fresh).unwrap();
        assert_eq!(cluster.topology().num_nodes(), 2);
    }

    #[test]
    fn bucket_sizes_and_local_directories_cover_dataset() {
        let mut cluster = Cluster::new(2);
        let ds = cluster
            .create_dataset(DatasetSpec::new(
                "orders",
                Scheme::StaticHash { num_buckets: 16 },
            ))
            .unwrap();
        cluster.ingest(ds, records(1000)).unwrap();
        let sizes = cluster.dataset_bucket_sizes(ds).unwrap();
        assert_eq!(sizes.len(), 16);
        let locals = cluster.local_directories(ds).unwrap();
        let total: usize = locals.iter().map(|(_, b)| b.len()).sum();
        assert_eq!(total, 16);
        assert!(cluster.dataset_primary_bytes(ds).unwrap() > 0);
    }
}
