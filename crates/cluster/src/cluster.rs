//! The simulated shared-nothing cluster.
//!
//! [`Cluster`] wires together the Cluster Controller, the storage partitions
//! (one table, indexed by partition id; the topology says which node hosts
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
//!
//! A record changes through one routine, `Cluster::write_group`: a feed
//! batch is one write group and a point write a group of one. Each key is
//! hashed once, by whoever routes it, and the hash travels with the
//! `Write` down to the memory component. A group is
//! - routed once: one pass stamps each write with its partition, the
//!   owner's local bucket and the replica an in-flight job needs, and
//!   decides every refusal before anything is stored, so a group is stored
//!   whole or refused whole (an `Err` means no tree, pending copy or heat
//!   counter changed);
//! - sorted once: one stable radix sort puts it in (partition, local
//!   bucket) order, batch order kept within a bucket (a group of one needs
//!   none);
//! - packed once: one payload slab per local bucket, cut along that order;
//! - applied from that order one partition at a time: the dataset's storage
//!   resolved once per partition (two table indexings,
//!   `Cluster::store_mut`), the secondary indexes fed in batch order and
//!   the primary bucket by bucket, so every tree sees the operations
//!   one-at-a-time writes would show it.

use std::collections::BTreeMap;

use dynahash_core::{BucketHeat, ClusterTopology, GlobalDirectory, NodeId, PartitionId, Scheme};
use dynahash_lsm::bucket::{hash_key, BucketId};
use dynahash_lsm::entry::{Entry, Key, Op, Value};
use dynahash_lsm::metrics::MetricsSnapshot;
use dynahash_lsm::wal::{RebalanceId, RebalanceLogStatus};
use dynahash_lsm::StorageError;

use crate::control::{HeatCell, HeatReport};
use crate::controller::ClusterController;
use crate::dataset::{DatasetId, DatasetMeta, DatasetSpec};
use crate::fault::{ClusterHealth, FaultSchedule, FaultState, NodeState};
use crate::feed::IngestReport;
use crate::job::RebalanceJob;
use crate::obs::{jobs_in_flight, Event};
use crate::partition::{Partition, PartitionDataset};
use crate::rebalance::RebalanceReport;
use crate::session::RouteError;
use crate::sim::{self, NodeTimeline};
use crate::ClusterError;

/// Cluster-wide configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of storage partitions per node (the paper uses 4).
    pub partitions_per_node: u32,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            partitions_per_node: 4,
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

/// One record on its way into storage: the key, `Some(payload)` to put or
/// `None` to delete, and the key's `hash_key`, computed once — by whoever
/// routes the record — for every step after it: the CC's directory, the
/// partition's local directory and the memory component. Routing stamps the
/// rest (see [`Cluster::route_group`]).
pub(crate) struct Write {
    pub(crate) key: Key,
    pub(crate) value: Option<Value>,
    pub(crate) hash: u64,
    /// The partition the write is routed to.
    partition: PartitionId,
    /// The bucket of the partition's local directory that covers the key.
    pub(crate) bucket: BucketId,
    /// The shipped bucket, and the destination partition, an in-flight job
    /// replicates the write to.
    replica: Option<(BucketId, PartitionId)>,
    /// The slab `Cluster::pack` cuts the payload's copy from.
    slab: u32,
}

impl Write {
    /// A write of `key`, hashed here.
    pub(crate) fn new(key: Key, value: Option<Value>) -> Write {
        let hash = hash_key(&key);
        Write {
            key,
            value,
            hash,
            partition: PartitionId(0),
            bucket: BucketId::root(),
            replica: None,
            slab: u32::MAX,
        }
    }
}

/// A write's sort key beside its position in its group.
pub(crate) type Keyed = (u64, u32);

/// Sorts `order` stably by `key >> from`: an LSD radix sort, eleven bits a
/// pass, that skips every digit all keys share. Its scratch is one copy of
/// `order` and one 2^11-entry histogram, whatever the keys' width.
fn radix_sort(mut order: Vec<Keyed>, from: u32) -> Vec<Keyed> {
    const DIGIT: u32 = 11;
    const MASK: u64 = (1 << DIGIT) - 1;
    let first = order.first().map_or(0, |&(key, _)| key);
    let varying = order.iter().fold(0, |acc, &(key, _)| acc | (key ^ first));
    let mut scratch = Vec::new();
    let mut counts = [0u32; 1 << DIGIT];
    let mut shift = from;
    while shift < u64::BITS && varying >> shift != 0 {
        if (varying >> shift) & MASK != 0 {
            let digit = |key: u64| ((key >> shift) & MASK) as usize;
            counts.fill(0);
            for &(key, _) in &order {
                counts[digit(key)] += 1;
            }
            let mut sum = 0;
            for count in counts.iter_mut() {
                (*count, sum) = (sum, sum + *count);
            }
            scratch.resize(order.len(), (0, 0));
            for &(key, at) in &order {
                let slot = &mut counts[digit(key)];
                scratch[*slot as usize] = (key, at);
                *slot += 1;
            }
            std::mem::swap(&mut order, &mut scratch);
        }
        shift += DIGIT;
    }
    order
}

/// Each routed write's sort key beside its position: the partition above
/// the local bucket's bits (a partition's buckets are disjoint, so no two
/// share their bits). Also returns how many bits the buckets take:
/// `radix_sort(keys, 0)` is the (partition, local bucket) order,
/// `radix_sort(keys, bits)` the partition order.
fn bucket_keys(writes: &[Write]) -> (Vec<Keyed>, u32) {
    let bits = u32::from(writes.iter().map(|w| w.bucket.depth).max().unwrap_or(0));
    let keys = (writes.iter().zip(0..))
        .map(|(w, at)| {
            (
                u64::from(w.partition.0) << bits | u64::from(w.bucket.bits),
                at,
            )
        })
        .collect();
    (keys, bits)
}

/// The simulated cluster.
pub struct Cluster {
    config: ClusterConfig,
    topology: ClusterTopology,
    /// Every partition of the topology, whichever node hosts it, indexed
    /// by partition id: `None` where a retired node's partition was, and
    /// one past the largest id long (ids are dense, and a new node's
    /// continue after the largest).
    partitions: Vec<Option<Partition>>,
    /// Every Node Controller of the topology, indexed by node id: a node is
    /// its liveness state (see [`crate::recovery`] for the rules that change
    /// it), `None` where a retired node was.
    pub(crate) nodes: Vec<Option<NodeState>>,
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
            .field("nodes", &self.nodes.iter().flatten().count())
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
        // A uniform topology numbers its partitions 0, 1, 2, ...
        let partitions = (topology.partitions().into_iter())
            .map(|p| Some(Partition::new(p)))
            .collect();
        // ... and its nodes 0, 1, 2, ...
        let nodes = vec![Some(NodeState::Alive); topology.num_nodes()];
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
        (self.nodes.get(id.0 as usize).copied().flatten()).ok_or(ClusterError::UnknownNode(id))
    }

    /// Access a partition. Crate-internal: clients go through
    /// [`crate::session::Session`]; tests and operators that need white-box
    /// access use [`Cluster::admin`].
    pub(crate) fn partition(&self, id: PartitionId) -> Result<&Partition, ClusterError> {
        (self.partitions.get(id.0 as usize))
            .and_then(Option::as_ref)
            .ok_or(ClusterError::UnknownPartition(id))
    }

    /// Mutable access to a partition (crate-internal, see
    /// [`Cluster::partition`]).
    pub(crate) fn partition_mut(
        &mut self,
        id: PartitionId,
    ) -> Result<&mut Partition, ClusterError> {
        (self.partitions.get_mut(id.0 as usize))
            .and_then(Option::as_mut)
            .ok_or(ClusterError::UnknownPartition(id))
    }

    /// The local storage of `dataset` on `partition`: one index into the
    /// partition table, one into the partition's dataset table. The one
    /// way to look a (partition, dataset) pair up.
    pub(crate) fn store(
        &self,
        partition: PartitionId,
        dataset: DatasetId,
    ) -> Result<&PartitionDataset, ClusterError> {
        self.partition(partition)?.dataset(dataset)
    }

    /// Mutable form of [`Cluster::store`].
    pub(crate) fn store_mut(
        &mut self,
        partition: PartitionId,
        dataset: DatasetId,
    ) -> Result<&mut PartitionDataset, ClusterError> {
        self.partition_mut(partition)?.dataset_mut(dataset)
    }

    /// The local storage of `dataset` on every partition that holds it, in
    /// partition order.
    pub(crate) fn stores(
        &self,
        dataset: DatasetId,
    ) -> impl Iterator<Item = (PartitionId, &PartitionDataset)> {
        (self.partitions.iter().flatten())
            .filter_map(move |part| Some((part.id, part.dataset(dataset).ok()?)))
    }

    /// Mutable form of [`Cluster::stores`].
    pub(crate) fn stores_mut(
        &mut self,
        dataset: DatasetId,
    ) -> impl Iterator<Item = (PartitionId, &mut PartitionDataset)> {
        (self.partitions.iter_mut().flatten())
            .filter_map(move |part| Some((part.id, part.dataset_mut(dataset).ok()?)))
    }

    /// The storage of `meta`'s dataset on `partition`, and the bucket of its
    /// local directory covering the key of `hash`, if `partition` serves
    /// that key: the partition-side half of the redirect protocol. A
    /// partition of a bucketed dataset serves a key while its local
    /// directory owns a bucket covering it — a moving bucket until the
    /// rebalance commits, and locally split children the CC may not have
    /// absorbed yet; under the Hashing scheme it serves the keys the
    /// authoritative modulo route sends it. Anything else — the bucket moved
    /// away, the partition was decommissioned, the dataset was rebuilt
    /// elsewhere — is a stale route.
    pub(crate) fn serving(
        &self,
        meta: &DatasetMeta,
        partition: PartitionId,
        hash: u64,
    ) -> Option<(&PartitionDataset, BucketId)> {
        let ds = self.store(partition, meta.id).ok()?;
        let bucket = ds.primary.bucket_of_hash(hash)?;
        let routed = meta.is_bucketed() || meta.route_hash(hash) == Some(partition);
        routed.then_some((ds, bucket))
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

    /// The one routine a record changes through: a write group — a feed
    /// batch, or a point write as a group of one — routed once, sorted once,
    /// packed once and applied from that order. A step-driven rebalance
    /// keeps writes online during data movement by replicating them to
    /// already-shipped buckets ([`Cluster::replicate`]); only the brief
    /// prepare-to-commit window refuses them (Section V-C).
    ///
    /// A group is refused whole, and every refusal is decided before
    /// anything is packed, replicated or applied — a route `claimed` from a
    /// session's stale cache included — so an `Err` means no tree, pending
    /// copy or heat counter changed, and the writes are as they came. The
    /// refusals come in this order: those [`Cluster::route_group`] decides;
    /// an owner that is not up ([`Cluster::require_up`]), checked once per
    /// partition run of the sorted order (once for a group of one); and,
    /// a routing bug, a key whose owner holds no storage of the dataset or
    /// no local bucket covering it.
    ///
    /// One stable radix sort (`radix_sort`) puts the routed writes in
    /// (partition, local bucket) order, batch order kept within each
    /// bucket; a group of one needs none. The payloads are packed along that
    /// order ([`Cluster::pack`]), and each partition's share is applied from
    /// it ([`PartitionDataset::write`]): the dataset's storage resolved once,
    /// the secondary indexes fed in batch order and the primary bucket by
    /// bucket, so every tree sees the operations applying the writes one at
    /// a time would show it. Every write is heat on its *local* bucket,
    /// which keeps read heat, write heat, bucket sizes and the planner's
    /// load map on one bucket granularity before the CC absorbs local
    /// splits. `tally` hears how many writes each partition took as their
    /// owner (`None`), and each write replicated to a destination partition
    /// with its payload bytes (`Some`). Returns how many deletes found their
    /// record live.
    pub(crate) fn write_group(
        &mut self,
        dataset: DatasetId,
        writes: &mut [Write],
        claimed: Option<&DatasetMeta>,
        mut tally: impl FnMut(PartitionId, u64, Option<u64>),
    ) -> Result<u64, ClusterError> {
        let routing_bug = self.route_group(dataset, writes, claimed)?;
        // Each write's sort key and position in (partition, local bucket)
        // order, and in partition order for the secondary indexes (a point
        // write's are on the stack).
        let one = [(0, 0)];
        let (sorted, partitioned);
        let (by_bucket, mut by_partition, bits): (&[Keyed], &[Keyed], u32) = match writes {
            [_] => (&one, &one, 0),
            _ => {
                let meta = self.controller.dataset(dataset)?;
                let (keys, bits) = bucket_keys(writes);
                if meta.spec.secondary_indexes.is_empty() {
                    sorted = radix_sort(keys, 0);
                    (&sorted, &sorted, bits)
                } else {
                    partitioned = radix_sort(keys.clone(), bits);
                    sorted = radix_sort(keys, 0);
                    (&sorted, &partitioned, bits)
                }
            }
        };
        let runs = || by_bucket.chunk_by(|a, b| a.0 >> bits == b.0 >> bits);
        for run in runs() {
            self.require_up_at(writes[run[0].1 as usize].partition)?;
        }
        if let Some(bug) = routing_bug {
            return Err(bug);
        }
        Self::pack(writes, by_bucket);
        self.replicate(dataset, writes, &mut tally)?;
        // The buckets written are noted as heat once the writes are in:
        // `store_mut` borrows the whole cluster while a partition writes.
        let armed = self.heat.armed();
        let mut heated = Vec::new();
        let mut live = 0;
        for in_bucket in runs() {
            let in_batch;
            (in_batch, by_partition) = by_partition.split_at(in_bucket.len());
            let partition = writes[in_bucket[0].1 as usize].partition;
            tally(partition, in_bucket.len() as u64, None);
            live += self.store_mut(partition, dataset)?.write(
                writes,
                in_batch,
                in_bucket,
                |bucket| {
                    if armed {
                        heated.push(bucket);
                    }
                },
            )?;
        }
        for bucket in heated {
            self.heat.note_write(dataset, bucket);
        }
        Ok(live)
    }

    /// Routes a write group in one pass, stamping each write with its
    /// partition, the bucket of that partition's local directory that covers
    /// the key ([`Cluster::serving`]) and — while a job is in flight — the
    /// shipped bucket and destination it replicates to: one CC directory
    /// lookup and one local directory lookup per write.
    ///
    /// `claimed` is a session's cached routing state, and the pass also
    /// validates its routes: a key the session routed to a partition that
    /// does not serve it ([`Cluster::serving`]) is
    /// [`RouteError::StaleDirectory`], carrying the authoritative version.
    /// Where the session routes as the CC does, the owner's lookup answers
    /// for it.
    ///
    /// Refuses, in this order: a stale claim, or a key the session cannot
    /// route, whichever comes first in the group; a job's prepare-to-commit
    /// window; a write to a lost bucket or whose replica destination is not
    /// up ([`Cluster::require_up`]), whichever comes first; a key the
    /// directory cannot route. The owners' liveness is left to
    /// [`Cluster::write_group`], and so is the refusal returned as
    /// `Ok(Some(_))`: a routing bug, the first key whose owner holds no
    /// storage of the dataset or no local bucket covering it.
    fn route_group(
        &self,
        dataset: DatasetId,
        writes: &mut [Write],
        claimed: Option<&DatasetMeta>,
    ) -> Result<Option<ClusterError>, ClusterError> {
        let meta = self.controller.dataset(dataset)?;
        let active = self.active_rebalances.get(&dataset);
        let lost = (self.faults.lost_buckets.get(&dataset)).filter(|lost| !lost.is_empty());
        let shipped = active.map(|active| &active.shipped);
        // The first refusal of each kind, in group order.
        let (mut stale, mut refused, mut unroutable, mut unowned) = (None, None, false, None);
        for write in writes.iter_mut() {
            let hash = write.hash;
            let (bucket, partition) = match &meta.directory {
                Some(dir) => dir.lookup_hash(hash).unzip(),
                None => (None, meta.route_hash(hash)),
            };
            let local = partition.and_then(|p| Some(self.serving(meta, p, hash)?.1));
            if let Some(claimed) = claimed.filter(|_| stale.is_none()) {
                let served = |claim| match Some(claim) == partition {
                    true => local.is_some(),
                    false => self.serving(meta, claim, hash).is_some(),
                };
                stale = match claimed.route_hash(hash) {
                    None => Some(ClusterError::RoutingFailed(dataset)),
                    Some(claim) if served(claim) => None,
                    Some(_) => Some(ClusterError::Route(RouteError::StaleDirectory {
                        server_version: meta.routing_version(),
                    })),
                };
            }
            if let Some(bucket) = bucket.filter(|b| lost.is_some_and(|lost| lost.contains(b))) {
                refused = refused.or(Some(ClusterError::BucketDegraded { dataset, bucket }));
            }
            write.replica = bucket.and_then(|b| Some((b, *shipped?.get(&b)?)));
            if let (None, Some((_, destination))) = (&refused, write.replica) {
                refused = self.require_up_at(destination).err();
            }
            let Some(partition) = partition else {
                unroutable = true;
                continue;
            };
            write.partition = partition;
            match local {
                Some(local) => write.bucket = local,
                None => unowned = unowned.or(Some((partition, hash))),
            }
        }
        if let Some(refusal) = stale {
            return Err(refusal);
        }
        if active.is_some_and(|active| active.write_blocked) {
            return Err(ClusterError::DatasetWriteBlocked(dataset));
        }
        if let Some(refusal) = refused {
            return Err(refusal);
        }
        if unroutable {
            return Err(ClusterError::RoutingFailed(dataset));
        }
        Ok(unowned.map(|(partition, hash)| {
            let bucket = BucketId::of_hash(hash, 0);
            let unknown = ClusterError::Storage(StorageError::UnknownBucket(bucket));
            self.store(partition, dataset).err().unwrap_or(unknown)
        }))
    }

    /// Replicates writes to the pending copies of the buckets an in-flight
    /// job has already shipped — tombstones included — or the commit-time
    /// cleanup of the source bucket would drop them (Section V-C). Only the
    /// primary write travels: the destination's indexes learn the bucket
    /// from its installed components. `tally` hears each write replicated,
    /// with the payload bytes sent.
    fn replicate(
        &mut self,
        dataset: DatasetId,
        writes: &[Write],
        tally: &mut impl FnMut(PartitionId, u64, Option<u64>),
    ) -> Result<(), ClusterError> {
        for write in writes {
            let Some((bucket, dst)) = write.replica else {
                continue;
            };
            let bytes = write.key.len() + write.value.as_ref().map_or(0, |v| v.len());
            tally(dst, 1, Some(bytes as u64));
            let ds = self.store_mut(dst, dataset)?;
            // The bucket is in the active job's shipped set, so a missing
            // pending copy means a destination crash wiped the uncommitted
            // transfer: re-create it here so replication keeps flowing, and
            // the commit re-ships the lost base data from the metadata log.
            ds.ensure_pending_bucket(bucket)?;
            let op = match &write.value {
                Some(value) => Op::Put(value.clone()),
                None => Op::Delete,
            };
            let entry = Entry {
                key: write.key.clone(),
                op,
            };
            ds.primary.apply_replicated(bucket, entry, write.hash)?;
        }
        Ok(())
    }

    /// Packs a write group's payloads: the writes of one local bucket share
    /// one allocation, so what the memory components hold — and the flushes
    /// hand on — are slices of a few slabs that die whole when a merge
    /// rewrites the run, instead of one small allocation per record for the
    /// allocator to take back piecemeal. `by_bucket` is the group in
    /// (partition, local bucket) order, batch order kept within each bucket:
    /// each bucket's writes are one stretch of it, and its slab holds their
    /// payloads in batch order. A bucket that takes one write, and so a
    /// point write, keeps the allocation its writer made.
    fn pack(writes: &mut [Write], by_bucket: &[Keyed]) {
        let mut slabs: Vec<Value> = Vec::new();
        for members in by_bucket
            .chunk_by(|a, b| a.0 == b.0)
            .filter(|m| m.len() > 1)
        {
            let payloads = members
                .iter()
                .filter_map(|&(_, at)| writes[at as usize].value.as_ref());
            slabs.push(Value::concat(payloads));
            for &(_, at) in members {
                writes[at as usize].slab = (slabs.len() - 1) as u32;
            }
        }
        // Every slab is built before any old payload is let go, and those go
        // in batch order — the order their writer made them in — so the
        // allocator gets one region back whole, not small chunks between
        // live ones. Within a bucket batch order is slab order, so each
        // write cuts its slice off the front of its slab.
        for write in writes.iter_mut() {
            let (Some(slab), Some(value)) = (slabs.get_mut(write.slab as usize), &mut write.value)
            else {
                continue;
            };
            *value = slab.split_to(value.len());
        }
    }

    /// Ingests a batch of records through a data feed: the batch is routed
    /// through the CC's directory, sorted, packed and written
    /// ([`Cluster::write_group`]). Nothing in between can change the
    /// directory, so the feed copies none.
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
        let mut writes: Vec<Write> = (records.into_iter())
            .map(|(key, value)| Write::new(key, Some(value)))
            .collect();
        self.ingest_writes(dataset, &mut writes, None)
    }

    /// [`Cluster::ingest`] of writes whose keys are hashed already, routed
    /// as a session `claimed` if one did. A refused batch leaves the writes
    /// as they came.
    pub(crate) fn ingest_writes(
        &mut self,
        dataset: DatasetId,
        writes: &mut [Write],
        claimed: Option<&DatasetMeta>,
    ) -> Result<IngestReport, ClusterError> {
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

        let mut tallied: Vec<(PartitionId, u64, Option<u64>)> = Vec::new();
        self.write_group(dataset, writes, claimed, |partition, records, bytes| {
            tallied.push((partition, records, bytes));
        })?;
        // Records written per owner node, and records and payload bytes
        // replicated per destination node.
        let mut per_node: BTreeMap<NodeId, u64> = BTreeMap::new();
        let mut replicated: BTreeMap<NodeId, (u64, u64)> = BTreeMap::new();
        for (partition, records, bytes) in tallied {
            let node = self.node_of_partition(partition)?;
            match bytes {
                None => *per_node.entry(node).or_default() += records,
                Some(bytes) => {
                    let sent = replicated.entry(node).or_default();
                    sent.0 += records;
                    sent.1 += bytes;
                }
            }
        }

        // Cost accounting: CPU for parsing/routing plus the IO the storage
        // engine performed (flushes and merges), per node.
        let mut timeline = NodeTimeline::new();
        timeline.charge_coordinator(sim::JOB_OVERHEAD);
        for (node_id, records) in &per_node {
            timeline.charge(*node_id, sim::ingest_cpu(*records));
        }
        for (node_id, (records, bytes)) in &replicated {
            timeline.charge(*node_id, sim::network(*bytes) + sim::ingest_cpu(*records));
        }
        for p in self.topology.partitions() {
            let node_id = self.node_of_partition(p)?;
            let after = self.partition(p)?.metrics().snapshot();
            let delta = after.delta_since(before.get(&p).unwrap_or(&MetricsSnapshot::default()));
            let io = sim::disk_write(delta.bytes_flushed)
                + sim::merge_cost(delta.bytes_merge_read, delta.bytes_merged);
            timeline.charge(node_id, io);
        }

        Ok(IngestReport {
            records: writes.len() as u64,
            elapsed: timeline.elapsed(),
            per_node: timeline.breakdown(),
        })
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
            let at = p.0 as usize;
            (self.partitions).resize_with(self.partitions.len().max(at + 1), || None);
            self.partitions[at] = Some(partition);
        }
        let at = new_node_id.0 as usize;
        (self.nodes).resize(self.nodes.len().max(at + 1), None);
        self.nodes[at] = Some(NodeState::Alive);
        self.topology = new_topology;
        Ok(new_node_id)
    }

    /// Removes a node from the cluster. All datasets must have been
    /// rebalanced away from it first; the call fails if any partition on the
    /// node still holds data, or if any dataset still routes keys to one.
    pub fn decommission_node(&mut self, node: NodeId) -> Result<(), ClusterError> {
        self.node_state(node)?;
        let (cluster, partitions) = (&*self, self.topology.partitions_of_node(node));
        let remaining: usize = (self.controller.dataset_ids().into_iter())
            .flat_map(|d| cluster.stores(d))
            .filter(|(p, _)| partitions.contains(p))
            .map(|(_, ds)| ds.primary.live_len())
            .sum();
        if remaining > 0 {
            return Err(ClusterError::NodeNotEmpty(node, remaining));
        }
        self.retire_node(node)
    }

    /// Removes a permanently lost node from the topology. Unlike
    /// [`Cluster::decommission_node`] this does not require the node to be
    /// empty — its data is unreachable either way — but, like it, it
    /// requires that no dataset still routes keys to its partitions: every
    /// in-flight rebalance has re-planned around the loss and committed.
    /// The Hashing baseline has no degraded mode to re-plan: while a lost
    /// node holds a Hashing dataset's share, the node stays in the topology,
    /// reads of that share refuse with [`ClusterError::NodeLost`], and so
    /// does the rebuild that would move the dataset off it.
    pub fn remove_lost_node(&mut self, node: NodeId) -> Result<(), ClusterError> {
        if self.node_state(node)? != NodeState::Lost {
            return Err(ClusterError::Inconsistent(format!(
                "node {node} is not lost; use decommission_node"
            )));
        }
        self.retire_node(node)
    }

    /// Drops `node` from the cluster and its partitions from every dataset's
    /// partition list, bumping the routing version so cached sessions stop
    /// dispatching scans to partitions that no longer exist. Refuses, and
    /// changes nothing, while any rebalance job is in flight (its waves may
    /// have staged data on the node that no record shows yet), or while any
    /// dataset routes keys to a partition of the node — a bucketed
    /// directory holds a bucket there, or a Hashing partition list includes
    /// it: those keys would route nowhere, or (the modulo taken over a
    /// shorter list) to partitions that do not hold them.
    fn retire_node(&mut self, node: NodeId) -> Result<(), ClusterError> {
        if let Some(dataset) = self.active_rebalances.keys().next() {
            return Err(ClusterError::RebalanceInFlight(*dataset));
        }
        let partitions = self.topology.partitions_of_node(node);
        for dataset in self.controller.dataset_ids() {
            let meta = self.controller.dataset(dataset)?;
            let routed = partitions.iter().find(|p| match &meta.directory {
                Some(dir) => !dir.buckets_of_partition(**p).is_empty(),
                None => meta.partitions.contains(p),
            });
            if let Some(p) = routed {
                return Err(ClusterError::Inconsistent(format!(
                    "dataset {dataset} still routes keys to partition {p} of node {node}"
                )));
            }
        }
        self.nodes[node.0 as usize] = None;
        while self.nodes.last().is_some_and(Option::is_none) {
            self.nodes.pop();
        }
        for p in partitions {
            self.partitions[p.0 as usize] = None;
        }
        while self.partitions.last().is_some_and(Option::is_none) {
            self.partitions.pop();
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

    /// Absorbs the partitions' local bucket splits into the CC's directory
    /// of `dataset` and returns the refreshed directory. Clients see it: the
    /// directory's version moves when anything changed, so cached sessions
    /// pick the finer-grained routing up on their next refresh. Routing is
    /// unaffected — a split bucket's children live on their parent's
    /// partition.
    pub(crate) fn absorb_local_splits(
        &mut self,
        dataset: DatasetId,
    ) -> Result<GlobalDirectory, ClusterError> {
        let refreshed = GlobalDirectory::refresh_from_locals(self.local_directories(dataset)?)
            .map_err(ClusterError::Core)?;
        if let Some(dir) = self.controller.dataset_mut(dataset)?.directory.as_mut() {
            dir.install(&refreshed);
        }
        Ok(refreshed)
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
    /// [`crate::session::Session::ingest`]). A refused batch stored none of
    /// its records.
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
            let ds = self.cluster.store(p, dataset)?;
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
    use crate::rebalance::RebalanceOptions;
    use crate::sim::SimDuration;
    use dynahash_lsm::{Bytes, SplitMix64};
    use std::collections::BTreeSet;

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
            let mut session = cluster.session(ds).unwrap();
            session
                .put(&mut cluster, Key::from_u64(4000), own.clone())
                .unwrap();
            let mut slabs: Vec<std::ops::Range<*const u8>> = Vec::new();
            for p in cluster.topology().partitions() {
                let primary = &cluster.store(p, ds).unwrap().primary;
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
                    // (two heap blocks never abut — the allocator puts its own
                    // header in front of each).
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

    /// A random local directory reaching `depth`: disjoint buckets covering
    /// the hash space, split down one hash's path to `depth` and at random
    /// beside it.
    fn random_directory(rng: &mut SplitMix64, depth: u8) -> BTreeSet<BucketId> {
        let mut buckets = BTreeSet::from([BucketId::root()]);
        let path = rng.next_u64();
        for _ in 0..depth {
            for hash in [path, rng.next_u64()] {
                let bucket = owner(&buckets, hash);
                if bucket.depth < depth {
                    let (lo, hi) = bucket.split();
                    buckets.remove(&bucket);
                    buckets.extend([lo, hi]);
                }
            }
        }
        assert_eq!(owner(&buckets, path).depth, depth);
        buckets
    }

    /// The bucket of `buckets` that covers `hash`.
    fn owner(buckets: &BTreeSet<BucketId>, hash: u64) -> BucketId {
        (0..=32)
            .map(|depth| BucketId::of_hash(hash, depth))
            .find(|b| buckets.contains(b))
            .unwrap()
    }

    /// The radix sort is a stable sort by (partition, local bucket), and by
    /// partition alone, whatever the directories' depth: groups of 0, 1 and
    /// 10 000 routed writes over up to 24 partitions (their ids up to
    /// 23 000 apart), each with a random local directory of depth 0 to 20.
    #[test]
    fn prop_the_radix_sort_is_a_stable_sort_by_partition_and_local_bucket() {
        let mut rng = SplitMix64::seed_from_u64(0x50f7);
        for depth in 0..=20 {
            for n in [0, 1, 10_000] {
                let partitions = 1 + rng.gen_index(24);
                let stride = [1, 7, 1000][rng.gen_index(3)];
                let directories: Vec<_> = (0..partitions)
                    .map(|_| random_directory(&mut rng, depth))
                    .collect();
                let writes: Vec<Write> = (0..n)
                    .map(|i| {
                        let mut write = Write::new(Key::from_u64(i), None);
                        // Half the writes go to the first four partitions,
                        // so that a bucket takes several.
                        let reach = match rng.gen_ratio(1, 2) {
                            true => partitions.min(4),
                            false => partitions,
                        };
                        let p = rng.gen_index(reach);
                        write.partition = PartitionId((p * stride) as u32);
                        write.bucket = owner(&directories[p], write.hash);
                        write
                    })
                    .collect();
                let (keys, bits) = bucket_keys(&writes);
                let ctx = format!("depth {depth}, {n} writes");
                let positions = |order: Vec<Keyed>| -> Vec<u32> {
                    order.into_iter().map(|(_, at)| at).collect()
                };
                let mut expected: Vec<u32> = (0..n as u32).collect();
                expected.sort_by_key(|&at| {
                    let write = &writes[at as usize];
                    (write.partition, write.bucket)
                });
                assert_eq!(positions(radix_sort(keys.clone(), 0)), expected, "{ctx}");
                expected.sort_by_key(|&at| at);
                expected.sort_by_key(|&at| writes[at as usize].partition);
                assert_eq!(positions(radix_sort(keys, bits)), expected, "{ctx}");
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
            assert_eq!(cluster.store(p, ds).unwrap().primary.live_len(), 0);
        }
        // routing is unchanged until a rebalance updates the directory
        cluster.check_dataset_consistency(ds).unwrap();
    }

    /// A node leaves only when it holds no record and no dataset routes a
    /// key to it, under every scheme: a node holding records is refused; so
    /// is an empty node a dataset still routes to (a bucketed directory's
    /// empty buckets, a Hashing partition list), and every record still
    /// reads back; after a rebalance off the node it leaves, and so does a
    /// node added and never routed to.
    #[test]
    fn decommission_requires_empty_node() {
        let schemes = [
            Scheme::Hashing,
            Scheme::StaticHash { num_buckets: 16 },
            Scheme::dynahash(1 << 20, 12),
        ];
        for scheme in schemes {
            let mut cluster = Cluster::new(3);
            let ds = cluster
                .create_dataset(DatasetSpec::new("orders", scheme))
                .unwrap();
            // 500 records, every one routed to node 0 or node 1
            let empty = NodeId(2);
            let held: Vec<(Key, Value)> = (records(5000).into_iter())
                .filter(|(k, _)| {
                    let p = cluster.route_key(ds, k).unwrap();
                    cluster.node_of_partition(p).unwrap() != empty
                })
                .take(500)
                .collect();
            assert_eq!(held.len(), 500, "{scheme:?}");
            cluster.ingest(ds, held.clone()).unwrap();
            let reads_back = |cluster: &Cluster| {
                let mut session = cluster.session(ds).unwrap();
                for (key, value) in &held {
                    let got = session.get(cluster, key);
                    assert_eq!(got.unwrap().as_ref(), Some(value), "{scheme:?}, {key:?}");
                }
            };

            let err = cluster.decommission_node(NodeId(1));
            assert!(
                matches!(err, Err(ClusterError::NodeNotEmpty(_, _))),
                "{scheme:?}"
            );
            let err = cluster.decommission_node(empty);
            assert!(
                matches!(err, Err(ClusterError::Inconsistent(_))),
                "{scheme:?}"
            );
            assert_eq!(cluster.topology().num_nodes(), 3, "{scheme:?}");
            reads_back(&cluster);

            let target = cluster.topology_without(empty);
            (cluster.rebalance(ds, &target, RebalanceOptions::none())).unwrap();
            cluster.decommission_node(empty).unwrap();
            assert_eq!(cluster.topology().num_nodes(), 2, "{scheme:?}");
            reads_back(&cluster);
            cluster.check_dataset_consistency(ds).unwrap();

            let fresh = cluster.add_node().unwrap();
            cluster.decommission_node(fresh).unwrap();
            assert_eq!(cluster.topology().num_nodes(), 2, "{scheme:?}");
        }
    }

    /// The Hashing baseline has no degraded mode: a lost node that holds a
    /// Hashing dataset's share stays in the topology, for retiring it would
    /// take the modulo over fewer partitions and send most keys to
    /// partitions that do not hold them. Every record on the live nodes
    /// reads exactly; the lost share refuses.
    #[test]
    fn a_lost_node_holding_a_hashing_share_is_not_removed() {
        let mut cluster = Cluster::new(3);
        let ds = cluster
            .create_dataset(DatasetSpec::new("orders", Scheme::Hashing))
            .unwrap();
        cluster.ingest(ds, records(2000)).unwrap();
        let lost = NodeId(2);
        cluster.lose_node(lost).unwrap();
        let err = cluster.remove_lost_node(lost);
        assert!(matches!(err, Err(ClusterError::Inconsistent(_))), "{err:?}");
        assert_eq!(cluster.topology().num_nodes(), 3);
        let mut session = cluster.session(ds).unwrap();
        let mut live = 0;
        for (key, value) in records(2000) {
            let partition = cluster.route_key(ds, &key).unwrap();
            match cluster.node_of_partition(partition).unwrap() == lost {
                true => assert!(
                    matches!(session.get(&cluster, &key), Err(ClusterError::NodeLost(_))),
                    "{key:?}"
                ),
                false => {
                    assert_eq!(session.get(&cluster, &key).unwrap(), Some(value), "{key:?}");
                    live += 1;
                }
            }
        }
        assert!(live > 1000, "{live} records on the live nodes");
    }

    /// Retiring the last node shortens the partition table, and the next
    /// `add_node` hands the same ids out again, with empty storage of every
    /// dataset; `stores` walks the table in id order.
    #[test]
    fn a_retired_last_node_gives_its_partition_ids_back() {
        let mut cluster = Cluster::new(2);
        let schemes = [Scheme::static_hash_256(), Scheme::Hashing];
        let datasets = schemes.map(|scheme| {
            let ds = (cluster.create_dataset(DatasetSpec::new("orders", scheme))).unwrap();
            cluster.ingest(ds, records(500)).unwrap();
            ds
        });
        let first = cluster.add_node().unwrap();
        let ids = cluster.topology().partitions_of_node(first);
        cluster.decommission_node(first).unwrap();
        assert_eq!(cluster.partitions.len(), 8);
        assert!(ids.iter().all(|p| cluster.partition(*p).is_err()));
        let again = cluster.add_node().unwrap();
        assert_eq!(cluster.topology().partitions_of_node(again), ids);
        for ds in datasets {
            for p in &ids {
                assert_eq!(cluster.store(*p, ds).unwrap().primary.live_len(), 0);
            }
            let order: Vec<PartitionId> = cluster.stores(ds).map(|(p, _)| p).collect();
            assert_eq!(order, cluster.topology().partitions());
            assert_eq!(cluster.dataset_len(ds).unwrap(), 500);
        }
    }

    /// A wave stages buckets on the joining node before any record is
    /// visible there, so an emptiness check alone would let it go and the
    /// job would then fail on an unknown node. A node leaves only between
    /// jobs: the refusal changes nothing, and the job still commits.
    #[test]
    fn a_node_is_not_retired_under_a_job_in_flight() {
        let mut cluster = Cluster::new(2);
        let ds = cluster
            .create_dataset(DatasetSpec::new(
                "orders",
                Scheme::StaticHash { num_buckets: 32 },
            ))
            .unwrap();
        cluster.ingest(ds, records(3000)).unwrap();
        let joining = cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 4).unwrap();
        job.init(&mut cluster).unwrap();
        job.run_wave(&mut cluster).unwrap();

        let err = cluster.decommission_node(joining);
        assert!(
            matches!(err, Err(ClusterError::RebalanceInFlight(d)) if d == ds),
            "{err:?}"
        );
        assert_eq!(cluster.topology(), &target, "the refusal changes nothing");
        job.drive(&mut cluster).unwrap();
        assert!(
            cluster.dataset_distribution(ds).unwrap()[&target.partitions_of_node(joining)[0]] > 0
        );
        assert_eq!(cluster.dataset_len(ds).unwrap(), 3000);
        cluster.check_dataset_consistency(ds).unwrap();
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
