//! The staged-transaction engine (the resumable form of Section V).
//!
//! [`RebalanceJob`] is the one implementation of the protocol — BEGIN, stage
//! invisible pending buckets, a brief write-blocked 2PC, install, DONE — as
//! an explicit state machine with one method per step:
//!
//! ```text
//! plan -------+
//!             +-> init -> run_wave(0) .. run_wave(n-1) -> prepare -> decide
//! plan_repair-+                |                               |        |
//!                         replan_wave (node lost)            abort      +-> commit
//!                                                              |        |
//!                                                              +--------+-> finalize
//! ```
//!
//! Two planners feed it. [`RebalanceJob::plan`] runs Algorithm 2 and stages
//! each moving bucket from its *live source partition* (sealed components
//! shipped whole); [`RebalanceJob::plan_repair`] (in [`crate::repair`])
//! scopes a degraded dataset's lost buckets and stages each from an
//! *operator feed* filtered to that bucket. Everything after staging — the
//! pending flush, the write block, vote collection, the forced
//! COMMIT/ABORT/DONE records, the install, replan-on-loss, and re-staging
//! after a destination crash — is the same code for both.
//!
//! **What runs while writes are refused.** `prepare` blocks the dataset's
//! writes and `commit` lifts the block, so everything in between is kept
//! independent of how many records moved — O(moves + components):
//!
//! * `prepare` flushes the pending memory components (the writes replicated
//!   since the waves) and collects votes; `decide` forces one log record.
//! * `commit` installs each received bucket by appending the handles of its
//!   pending bucket, staged *during the waves* — a wave stages the shipped
//!   handles (or a repair's one feed component) and reads no record: it
//!   counts the entries it shipped from the handles. The installed
//!   bucket's handles are stashed: its secondary entries wait for the first
//!   index query, which builds them from the bucket as installed.
//! * `commit` then cleans up once per *source partition*, not per bucket:
//!   it drops the moved buckets from the primary index and stamps them into
//!   the lazy-cleanup metadata of each secondary index's components, the
//!   memory component included — a per-component mark that reads no entry
//!   and flushes nothing. The first index query after the commit applies
//!   the marks and counts the entries they hide. The one exception that
//!   reads records is a deferred stash a moved bucket only partly covers
//!   (a received bucket that split locally): it is materialized before the
//!   mark, and that rebuild is charged to finalization.
//! * `finalize` re-drives commit tasks only for participants that missed
//!   the commit — it found a crashed node to recover, or an ack is
//!   outstanding. Fault-free, it forces DONE and returns.
//!
//! The job holds **no borrow of the cluster** between steps, so the cluster
//! stays fully usable mid-rebalance: queries can run, feed batches can be
//! applied through [`RebalanceJob::apply_feed_batch`] (with replication to
//! already-shipped buckets), and nodes or the Cluster Controller can crash
//! and recover. Each wave moves up to `max_concurrent_moves` buckets in
//! parallel and simulated time is charged per wave — the wave's *makespan*
//! is its slowest participating node — so wider waves finish measurably
//! earlier than the serial one-bucket-at-a-time schedule.
//!
//! [`RebalanceJob::drive`] steps a job from wherever it stands to its
//! terminal state; [`crate::cluster::Cluster::rebalance`],
//! [`crate::cluster::Admin::repair_dataset`], the control tick and the soak
//! all finish their jobs through it. There is one door per concern into a
//! job in flight: a *fault* is a `(StepPoint, Fault)` row of the cluster's
//! [`FaultSchedule`](crate::fault::FaultSchedule), applied by
//! [`Cluster::fire_faults`]; anything else a scenario wants between two
//! steps — a query, a feed batch, an assertion, a refusal — is the callback
//! of [`RebalanceJob::drive_with`], or plain code between steps driven by
//! hand. A planned job must always reach [`RebalanceJob::finalize`] (via
//! commit or abort) — abandoning one leaves the dataset's in-flight state
//! registered (no second job can be planned over it) and, after `init`,
//! bucket splits disabled.

use std::collections::{BTreeMap, BTreeSet};

use dynahash_core::{
    BucketId, BucketMove, ClusterTopology, NodeId, PartitionId, RebalanceOutcome, RebalancePlan,
};
use dynahash_lsm::entry::{Key, Value};
use dynahash_lsm::wal::{LogRecordBody, RebalanceId, ShippedMove};
use dynahash_lsm::Component;

use crate::cluster::{ActiveRebalance, Cluster};
use crate::dataset::DatasetId;
use crate::fault::{backoff, MAX_TRANSFER_RETRIES};
use crate::obs::Event;
use crate::rebalance::{PhaseTimes, RebalanceReport};
use crate::sim::{self, NodeTimeline, SimDuration};
use crate::{ClusterError, Result};

/// A step boundary of [`RebalanceJob::drive`]: where a scheduled
/// [`Fault`](crate::fault::Fault) fires and where the callback of
/// [`RebalanceJob::drive_with`] runs. Between any two steps the cluster is
/// fully usable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepPoint {
    /// After the plan is computed (BEGIN forced, waves scheduled).
    AfterPlan,
    /// After initialization (splits disabled, moving buckets snapshotted).
    AfterInit,
    /// After the given wave (0-based) completed.
    AfterWave(usize),
    /// After all waves, before the prepare phase blocks the dataset.
    BeforePrepare,
    /// After every alive participant voted "prepared".
    AfterPrepare,
    /// After the COMMIT record was forced, before commit tasks run.
    AfterCommitLog,
    /// Before finalization (commit tasks ran; DONE not yet forced).
    BeforeFinalize,
    /// After finalization (DONE forced; the job is terminal).
    AfterFinalize,
}

/// The observable state of a [`RebalanceJob`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// The plan is computed and BEGIN is forced; nothing has moved yet.
    Planned,
    /// Data movement is in progress; `completed_waves` waves have run.
    Moving {
        /// Number of waves that have completed so far.
        completed_waves: usize,
    },
    /// All waves ran and every alive participant voted.
    Prepared,
    /// The commit/abort decision is durable (COMMIT or ABORT was forced).
    Decided(RebalanceOutcome),
    /// Commit tasks ran on every alive node and the CC routing is installed.
    CommitTasksDone,
    /// The job is finished (DONE is forced) with the recorded outcome.
    Finalized(RebalanceOutcome),
}

impl JobState {
    pub(crate) fn name(&self) -> &'static str {
        match self {
            JobState::Planned => "Planned",
            JobState::Moving { .. } => "Moving",
            JobState::Prepared => "Prepared",
            JobState::Decided(RebalanceOutcome::Committed) => "Decided(Committed)",
            JobState::Decided(RebalanceOutcome::Aborted) => "Decided(Aborted)",
            JobState::CommitTasksDone => "CommitTasksDone",
            JobState::Finalized(_) => "Finalized",
        }
    }
}

/// Cost and shape summary of one executed wave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaveReport {
    /// The wave index (0-based).
    pub wave: usize,
    /// Bucket moves executed by this wave.
    pub moves: usize,
    /// Primary-index bytes shipped by this wave.
    pub bytes: u64,
    /// Entries shipped by this wave: the entries visible through its shipped
    /// components' handles, plus the records of its feed-staged buckets. For
    /// a shipped bucket this is an upper bound on its live records, since
    /// shadowed versions and tombstones in older components count too; a
    /// feed-staged bucket holds one entry per key, so its count is exact.
    pub entries: u64,
    /// Sealed components shipped whole by this wave (0 for a wave that only
    /// stages feed records or empty buckets).
    pub components: usize,
    /// The wave's simulated makespan (slowest participating node).
    pub makespan: SimDuration,
}

/// What [`RebalanceJob::replan_wave`] did to route a rebalance around one or
/// more permanently lost nodes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplanReport {
    /// The lost participants the job re-planned around.
    pub lost_nodes: Vec<NodeId>,
    /// Moves whose destination died and were redirected to a survivor.
    pub rerouted: u64,
    /// Of the rerouted moves, those already shipped whose transfer will be
    /// repeated from the (still live) source.
    pub reshipped: u64,
    /// Waves appended to carry the rerouted and re-shipped moves.
    pub waves_appended: usize,
}

impl ReplanReport {
    /// True when no lost participant was found and nothing changed.
    pub fn is_noop(&self) -> bool {
        self.lost_nodes.is_empty()
    }
}

/// A resumable, step-driven rebalance of one bucketed dataset.
pub struct RebalanceJob {
    dataset: DatasetId,
    rebalance_id: RebalanceId,
    plan: RebalancePlan,
    waves: Vec<Vec<BucketMove>>,
    participants: Vec<NodeId>,
    /// Every participant voted "prepared" (a dead node casts no vote).
    all_voted: bool,
    /// Every participant ran its commit tasks.
    all_acked: bool,
    /// Buckets staged from an operator feed instead of a live source
    /// partition, each with the one component built from its feed records
    /// (empty for a rebalance).
    feed: BTreeMap<BucketId, Component>,
    state: JobState,
    init_tl: NodeTimeline,
    move_tl: NodeTimeline,
    fin_tl: NodeTimeline,
    /// Data-movement time: the makespan of each wave, feed batch and replan,
    /// added up — a phase starts only after the one before it has finished,
    /// so a wider wave advances it less than the serial moves it replaces.
    movement: SimDuration,
    total_bytes: u64,
    bytes_moved: u64,
    entries_moved: u64,
    writes_applied: u64,
    /// Lost buckets the commit restored (a repair's scope).
    repaired: u64,
    /// The sequence number of the job's first event: everything the job
    /// logged lies at or after it.
    first_event: usize,
}

impl std::fmt::Debug for RebalanceJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RebalanceJob")
            .field("rebalance_id", &self.rebalance_id)
            .field("dataset", &self.dataset)
            .field("state", &self.state)
            .field("waves", &self.waves.len())
            .field("moves", &self.plan.num_moves())
            .finish()
    }
}

impl RebalanceJob {
    // ------------------------------------------------------------- stepping

    /// Plans a rebalance of `dataset` onto `target`: forces the BEGIN log
    /// record, refreshes the global directory from the partitions' local
    /// directories, runs Algorithm 2, and schedules the resulting moves into
    /// waves of at most `max_concurrent_moves`. Only bucketed schemes can be
    /// driven step-by-step (the Hashing baseline rebuilds the dataset in one
    /// shot and goes through [`Cluster::rebalance`]), and a dataset carries
    /// one in-flight job at a time: planning over another fails before
    /// anything is logged.
    pub fn plan(
        cluster: &mut Cluster,
        dataset: DatasetId,
        target: &ClusterTopology,
        max_concurrent_moves: usize,
    ) -> Result<Self> {
        Self::plan_with_loads(
            cluster,
            dataset,
            target,
            max_concurrent_moves,
            &BTreeMap::new(),
        )
    }

    /// Plans a rebalance that balances *heat-weighted loads* instead of raw
    /// bucket byte sizes: Algorithm 2 runs over `loads` (typically
    /// `resident_bytes + ops * op_weight` from a
    /// [`crate::control::HeatReport`]), so hot buckets repel each other even
    /// when their resident data is small. Directory buckets absent from
    /// `loads` fall back to their byte size. The resulting moves are
    /// re-costed with the buckets' true byte sizes afterwards, so wave
    /// scheduling, migration-budget accounting, and progress reporting stay
    /// in real bytes. This is the planning entry point of the control
    /// plane's auto-triggered jobs; with no loads it is [`RebalanceJob::plan`].
    pub fn plan_with_loads(
        cluster: &mut Cluster,
        dataset: DatasetId,
        target: &ClusterTopology,
        max_concurrent_moves: usize,
        loads: &BTreeMap<BucketId, u64>,
    ) -> Result<Self> {
        if target.is_empty() {
            return Err(ClusterError::Core(dynahash_core::CoreError::EmptyTopology));
        }
        Self::admit(cluster, dataset)?;
        let rebalance_id = cluster.controller.log_begin(dataset);

        let routing = cluster.absorb_local_splits(dataset)?;
        let sizes = cluster.dataset_bucket_sizes(dataset)?;
        let mut weights = sizes.clone();
        weights.extend(loads);
        let mut plan = RebalancePlan::compute(rebalance_id, &routing, &weights, target)
            .map_err(ClusterError::Core)?;
        // The balancer weighed heat; the movers ship bytes.
        for m in &mut plan.moves {
            m.bytes = sizes.get(&m.bucket).copied().unwrap_or(0);
        }
        let total_bytes = cluster.dataset_primary_bytes(dataset)?;

        // Participants: every node hosting a source or destination partition
        // of the plan, plus all target nodes (which must ack the commit).
        let mut participants: Vec<NodeId> = target.nodes();
        for m in &plan.moves {
            if let Some(n) = cluster.topology().node_of(m.from) {
                if !participants.contains(&n) {
                    participants.push(n);
                }
            }
        }
        participants.sort_unstable();

        let topology = cluster.topology().clone();
        let waves = plan.schedule_waves(max_concurrent_moves, |p| topology.node_of(p));
        Ok(Self::planned(
            cluster,
            dataset,
            plan,
            waves,
            participants,
            total_bytes,
            BTreeMap::new(),
        ))
    }

    /// The admission check shared by both planners: only a bucketed dataset
    /// with no job in flight can start one. A planner forces BEGIN only once
    /// nothing can refuse its plan, so a refused plan leaves nothing in the
    /// metadata log.
    pub(crate) fn admit(cluster: &Cluster, dataset: DatasetId) -> Result<()> {
        if !cluster.scheme_of(dataset)?.is_bucketed() {
            return Err(ClusterError::RebalanceAborted(
                "the step-driven RebalanceJob requires a bucketed scheme".to_string(),
            ));
        }
        if cluster.active_rebalances.contains_key(&dataset) {
            return Err(ClusterError::RebalanceInFlight(dataset));
        }
        Ok(())
    }

    /// Wraps a planner's output into a `Planned` job and registers the
    /// dataset's in-flight state, so the normal ingestion path replicates
    /// writes to shipped buckets for the duration of data movement. `feed`
    /// holds the buckets staged from an operator feed, each with its
    /// component (none for a rebalance). Until the commit installs
    /// `plan.new_directory` at the CC, the CC's directory is
    /// `plan.old_directory`, and every write routes through it.
    pub(crate) fn planned(
        cluster: &mut Cluster,
        dataset: DatasetId,
        plan: RebalancePlan,
        waves: Vec<Vec<BucketMove>>,
        participants: Vec<NodeId>,
        total_bytes: u64,
        feed: BTreeMap<BucketId, Component>,
    ) -> Self {
        let first_event = cluster.events(0).len();
        cluster.record(Event::JobPlanned {
            dataset,
            rebalance: plan.rebalance_id,
            waves: waves.len(),
        });
        cluster.active_rebalances.insert(
            dataset,
            ActiveRebalance {
                shipped: BTreeMap::new(),
                write_blocked: false,
            },
        );
        RebalanceJob {
            dataset,
            rebalance_id: plan.rebalance_id,
            plan,
            waves,
            participants,
            all_voted: false,
            all_acked: false,
            feed,
            state: JobState::Planned,
            init_tl: NodeTimeline::new(),
            move_tl: NodeTimeline::new(),
            fin_tl: NodeTimeline::new(),
            movement: SimDuration::ZERO,
            total_bytes,
            bytes_moved: 0,
            entries_moved: 0,
            writes_applied: 0,
            repaired: 0,
            first_event,
        }
    }

    /// Initialization: disables bucket splits for the duration of the
    /// rebalance, snapshot-flushes every moving bucket (its flush time is the
    /// rebalance start time for the concurrency-control split), and moves the
    /// job into the data-movement phase.
    pub fn init(&mut self, cluster: &mut Cluster) -> Result<()> {
        self.require(matches!(self.state, JobState::Planned), "init")?;
        cluster.set_splits_enabled(self.dataset, false)?;

        // CC contacts every participant to fetch directories / dispatch work.
        for n in &self.participants {
            self.init_tl.charge(*n, sim::NETWORK_LATENCY);
        }
        self.init_tl.charge_coordinator(sim::JOB_OVERHEAD);

        for m in &self.plan.moves {
            if self.feed_staged(m) {
                continue; // no source copy to snapshot
            }
            let node = cluster.node_of_partition(m.from)?;
            let before = cluster.partition(m.from)?.metrics().snapshot();
            (cluster.store_mut(m.from, self.dataset)?.primary)
                .snapshot_bucket(m.bucket)
                .map_err(ClusterError::Storage)?;
            let after = cluster.partition(m.from)?.metrics().snapshot();
            let delta = after.delta_since(&before);
            self.init_tl
                .charge(node, sim::disk_write(delta.bytes_flushed));
        }

        self.state = JobState::Moving { completed_waves: 0 };
        Ok(())
    }

    /// Runs the next wave, staging each of the wave's buckets as a pending
    /// (invisible) copy on its destination. A moving bucket is shipped from
    /// its live source: the source flushes the bucket's memory component and
    /// ships its sealed components whole — cheap handle clones carrying
    /// their Bloom filters and sorted runs. A bucket of a repair is the one
    /// component its plan built from the feed. Either way the destination
    /// stages the components into the pending bucket directly; the bucket's
    /// secondary-index entries wait for the first index query after the
    /// commit.
    ///
    /// All moves of a wave run in parallel and ship into one wave timeline,
    /// where each node's charges add, so the wave is charged its makespan —
    /// the slowest participating node. The CC forces a
    /// `RebalanceShip` metadata record after the wave so crash recovery can
    /// replay the component-level moves. Both ends of every move must be
    /// alive; crash a node mid-movement and the operator must either recover
    /// it or [`RebalanceJob::abort`], while a *permanently lost* endpoint
    /// reports [`ClusterError::NodeLost`] and the driver re-plans around it
    /// with [`RebalanceJob::replan_wave`] instead of aborting.
    ///
    /// With a [`FaultSchedule`](crate::fault::FaultSchedule) installed on
    /// the cluster, each transfer consults it per attempt and retries
    /// transient failures up to [`MAX_TRANSFER_RETRIES`] times, charging
    /// capped exponential [`backoff`] into the wave's makespan.
    pub fn run_wave(&mut self, cluster: &mut Cluster) -> Result<WaveReport> {
        let wave_index = match self.state {
            JobState::Moving { completed_waves } if completed_waves < self.waves.len() => {
                completed_waves
            }
            _ => return Err(self.invalid_step("run_wave")),
        };
        let wave = self.waves[wave_index].clone();

        // Data movement needs both ends of every move up before any ships.
        for m in &wave {
            let (src_node, dst_node) = self.endpoints(cluster, m)?;
            cluster.require_up(src_node)?;
            cluster.require_up(dst_node)?;
        }

        let mut bytes = 0u64;
        let mut entries = 0u64;
        let mut components = 0usize;
        let mut shipped: Vec<ShippedMove> = Vec::with_capacity(wave.len());
        let mut wave_tl = NodeTimeline::new();
        for m in &wave {
            let moved = self.ship_move(cluster, m, &mut wave_tl)?;
            bytes += moved.bytes;
            entries += moved.entries;
            components += moved.component_ids.len();
            shipped.push(moved);
        }
        // The CC forces the wave's ship record: if a destination later loses
        // its uncommitted pending state in a crash, recovery replays these
        // moves by re-shipping from the sources.
        cluster
            .controller
            .metadata_log
            .append_forced(LogRecordBody::RebalanceShip {
                rebalance: self.rebalance_id,
                dataset: self.dataset,
                wave: wave_index as u32,
                moves: shipped,
            });

        // From now on, writes routed to this wave's buckets replicate to the
        // destinations' pending copies (the normal ingest path consults this).
        if let Some(active) = cluster.active_rebalances.get_mut(&self.dataset) {
            for m in &wave {
                active.shipped.insert(m.bucket, m.to);
            }
        }

        let makespan = wave_tl.elapsed();
        self.movement += makespan;
        self.move_tl.extend(&wave_tl);
        self.bytes_moved += bytes;
        self.entries_moved += entries;
        self.state = JobState::Moving {
            completed_waves: wave_index + 1,
        };
        cluster.record(Event::WaveRun {
            rebalance: self.rebalance_id,
            wave: wave_index,
            moves: wave.len(),
            bytes,
            makespan,
        });
        Ok(WaveReport {
            wave: wave_index,
            moves: wave.len(),
            bytes,
            entries,
            components,
            makespan,
        })
    }

    /// True when `m`'s bucket is staged from the job's feed, not shipped
    /// from `m.from`.
    fn feed_staged(&self, m: &BucketMove) -> bool {
        self.feed.contains_key(&m.bucket)
    }

    /// True when the node `m` is planned to land on is permanently lost.
    fn dst_lost(&self, cluster: &Cluster, m: &BucketMove) -> bool {
        (self.plan.target.node_of(m.to)).is_some_and(|n| cluster.node_is_lost(n))
    }

    /// True when `m` is shipped from a partition of a permanently lost node
    /// (a feed-staged bucket's source is the job's feed, which no loss takes).
    fn src_lost(&self, cluster: &Cluster, m: &BucketMove) -> bool {
        !self.feed_staged(m)
            && (cluster.topology().node_of(m.from)).is_some_and(|n| cluster.node_is_lost(n))
    }

    /// The nodes staging `m` keeps busy: its source and destination — or the
    /// destination alone for a feed-staged bucket, whose previous owner
    /// `m.from` may be long dead.
    fn endpoints(&self, cluster: &Cluster, m: &BucketMove) -> Result<(NodeId, NodeId)> {
        let dst_node = self
            .plan
            .target
            .node_of(m.to)
            .ok_or(ClusterError::UnknownPartition(m.to))?;
        let src_node = if self.feed_staged(m) {
            dst_node
        } else {
            cluster.node_of_partition(m.from)?
        };
        Ok((src_node, dst_node))
    }

    /// Stages one bucket on its destination, charging the participating
    /// nodes on `tl`, and returns the move's record for the wave's
    /// metadata-log entry. Empty buckets only need a directory update, which
    /// travels with the commit message, so they incur no per-move transfer
    /// cost.
    ///
    /// Under an armed fault schedule, transient failures burn attempts
    /// first: each is logged as an [`Event::TransientFault`], and each
    /// retried one charges a round-trip plus capped exponential [`backoff`]
    /// to both endpoints. Under the empty schedule the charges below are
    /// byte-identical to the fault-free path.
    fn ship_move(
        &mut self,
        cluster: &mut Cluster,
        m: &BucketMove,
        tl: &mut NodeTimeline,
    ) -> Result<ShippedMove> {
        let (src_node, dst_node) = self.endpoints(cluster, m)?;
        let mut attempt = 0u32;
        while cluster
            .fault_plane()
            .transient_failure(m.bucket, m.from, m.to, attempt)
        {
            let retry = (attempt < MAX_TRANSFER_RETRIES).then(|| backoff(attempt));
            cluster.record(Event::TransientFault {
                rebalance: self.rebalance_id,
                bucket: m.bucket,
                backoff: retry,
            });
            let Some(wait) = retry else {
                return Err(ClusterError::RebalanceAborted(format!(
                    "transfer of bucket {} from {} to {} failed transiently {} times, \
                     exhausting its retry budget",
                    m.bucket,
                    m.from,
                    m.to,
                    attempt + 1
                )));
            };
            tl.charge(src_node, sim::NETWORK_LATENCY + wait);
            tl.charge(dst_node, sim::NETWORK_LATENCY + wait);
            attempt += 1;
        }
        let record = |bytes, entries, component_ids| ShippedMove {
            bucket_bits: m.bucket.bits,
            bucket_depth: m.bucket.depth,
            from: m.from.0,
            to: m.to.0,
            component_ids,
            bytes,
            entries,
        };
        if let Some(feed) = self.feed.get(&m.bucket) {
            // The feed's records for this bucket cross the network once and
            // are written on the new owner as one component, staged like a
            // shipped one; a later re-stage (after a crash wiped the pending
            // copy) stages the same component again.
            let dst = cluster.store_mut(m.to, self.dataset)?;
            dst.ensure_pending_bucket(m.bucket)?;
            dst.primary.install_shipped(m.bucket, vec![feed.clone()])?;
            // The feed component holds one entry per key: its count is exact.
            let entries = feed.visible_len() as u64;
            let bytes = m.bytes;
            tl.charge(
                dst_node,
                sim::network(bytes) + sim::ingest_cpu(entries) + sim::disk_write(bytes),
            );
            return Ok(record(bytes, entries, Vec::new()));
        }
        let comps = cluster
            .store_mut(m.from, self.dataset)?
            .primary
            .ship_bucket(m.bucket)?;
        let bytes: u64 = comps.iter().map(|c| c.visible_size_bytes() as u64).sum();
        // O(1) per handle: the byte sum above has built every filtered view.
        let entries: u64 = comps.iter().map(|c| c.visible_len() as u64).sum();
        let component_ids: Vec<u64> = comps.iter().map(|c| c.id()).collect();
        let dst = cluster.store_mut(m.to, self.dataset)?;
        dst.ensure_pending_bucket(m.bucket)?;
        dst.primary.install_shipped(m.bucket, comps)?;
        // Sealed components travel as whole files: one sequential read, one
        // transfer, one sequential write. Bloom filters and sorted runs
        // arrive ready to serve, and the secondary rebuild is charged by
        // whoever runs it later (the first index query, or a commit cleanup).
        if bytes > 0 {
            tl.charge(src_node, sim::disk_read(bytes));
            tl.charge(
                dst_node,
                sim::network(bytes)
                    + sim::component_ship_overhead(component_ids.len() as u64)
                    + sim::disk_write(bytes),
            );
        }
        Ok(record(bytes, entries, component_ids))
    }

    /// Re-plans the in-flight job around permanently lost participants
    /// instead of aborting. Allowed whenever the job is in data movement
    /// (between any two waves, including before the first and after the
    /// last). The replan only re-routes: what shipped where is the job's
    /// shipped map on the cluster (filled by [`RebalanceJob::run_wave`],
    /// read by the write path), and which buckets a loss killed was booked
    /// by [`Cluster::lose_node`] when the node was lost. For each lost node
    /// the job:
    ///
    /// * redirects every move *to* one of its partitions: it cancels the
    ///   move when the source lives on in the target, and otherwise sends it
    ///   to the surviving destination partition with the least planned
    ///   inbound bytes (lowest partition id breaks ties), amending both the
    ///   plan and the planned directory. A redirected bucket leaves the
    ///   shipped map, which stops its write replication to the dead
    ///   destination; when it had shipped and its source lives, that counts
    ///   as a re-ship (the WAL's `ShippedMove` records and the sources' kept
    ///   copies make it safe; a feed-staged bucket's source is the job's own
    ///   feed, which no node loss can take);
    /// * reassigns the node's non-moving buckets to survivors as zero-byte
    ///   moves, so the commit installs them empty and the directory keeps
    ///   covering the hash space while the dataset serves every other bucket
    ///   (degraded mode, surfaced by [`Admin::health`]);
    /// * drops the node from the participant set (its vote and commit ack
    ///   with it) and the target topology, then reschedules into fresh waves
    ///   every move whose source lives and whose bucket the shipped map does
    ///   not hold at its current destination — so a re-ship stays scheduled
    ///   through any number of replans until its wave runs.
    ///
    /// A second call with no new loss is a no-op. Sessions keep serving
    /// reads from still-live sources throughout: the routing directory only
    /// changes at commit.
    ///
    /// [`Admin::health`]: crate::cluster::Admin::health
    pub fn replan_wave(&mut self, cluster: &mut Cluster) -> Result<ReplanReport> {
        let completed = match self.state {
            JobState::Moving { completed_waves } => completed_waves,
            _ => return Err(self.invalid_step("replan_wave")),
        };
        let lost: Vec<NodeId> = self
            .participants
            .iter()
            .copied()
            .filter(|n| cluster.node_is_lost(*n))
            .collect();
        if lost.is_empty() {
            return Ok(ReplanReport::default());
        }

        let mut new_target = self.plan.target.clone();
        for n in &lost {
            new_target = new_target.without_node(*n);
        }
        if new_target.is_empty() {
            return Err(ClusterError::RebalanceAborted(
                "every target node was permanently lost; nothing to re-plan onto".to_string(),
            ));
        }

        // Surviving destinations, ranked by planned inbound bytes so the
        // reroutes spread instead of piling onto one partition.
        let mut inbound: BTreeMap<PartitionId, u64> = new_target
            .partitions()
            .into_iter()
            .map(|p| (p, 0))
            .collect();
        for m in &self.plan.moves {
            if !self.dst_lost(cluster, m) {
                *inbound.entry(m.to).or_default() += m.bytes;
            }
        }

        let mut report = ReplanReport {
            lost_nodes: lost.clone(),
            ..ReplanReport::default()
        };
        // Moves canceled outright (the bucket stays on its live source).
        let mut canceled: Vec<usize> = Vec::new();
        for i in 0..self.plan.moves.len() {
            let m = self.plan.moves[i];
            if !self.dst_lost(cluster, &m) {
                continue;
            }
            let src_lost = self.src_lost(cluster, &m);
            // A dead destination orphans whatever was shipped to it: writes
            // stop replicating there, and the rescheduling below ships the
            // bucket again if its source lives.
            let orphaned = (cluster.active_rebalances.get_mut(&self.dataset))
                .and_then(|active| active.shipped.remove(&m.bucket))
                .is_some();
            if !src_lost && new_target.node_of(m.from).is_some() {
                // The cheapest reroute: cancel the move and let the bucket
                // stay on its live source (which keeps its copy until
                // commit). Shipping a bucket back to itself would confuse
                // the commit-time install/cleanup passes.
                self.plan.new_directory.reassign(m.bucket, m.from);
                canceled.push(i);
            } else {
                let new_to = pick_least_loaded(&mut inbound, m.bytes)?;
                self.plan.moves[i].to = new_to;
                self.plan.new_directory.reassign(m.bucket, new_to);
                if orphaned && !src_lost {
                    report.reshipped += 1;
                }
            }
            report.rerouted += 1;
        }
        for i in canceled.into_iter().rev() {
            self.plan.moves.remove(i);
        }

        // Non-moving buckets resident on a lost node lost their only copy
        // (`lose_node` booked them): reassign each to a survivor as a
        // synthetic zero-byte move, so the commit installs an empty bucket
        // there and the directory keeps covering the full hash space.
        for n in &lost {
            for p in cluster.topology().partitions_of_node(*n) {
                for bucket in self.plan.new_directory.buckets_of_partition(p) {
                    let new_to = pick_least_loaded(&mut inbound, 0)?;
                    self.plan.new_directory.reassign(bucket, new_to);
                    self.plan.moves.push(BucketMove {
                        bucket,
                        from: p,
                        to: new_to,
                        bytes: 0,
                    });
                    report.rerouted += 1;
                }
            }
        }

        // Shrink the 2PC to the survivors and adopt the amended target.
        self.participants.retain(|n| !lost.contains(n));
        self.plan.target = new_target;

        // Reschedule every move with a live source that has not shipped to
        // its current destination. Lost buckets are deliberately absent —
        // their empty install travels with the commit.
        let max_concurrent = self.waves.iter().map(Vec::len).max().unwrap_or(1);
        self.waves.truncate(completed);
        let shipped = (cluster.active_rebalances.get(&self.dataset)).map(|active| &active.shipped);
        let pending: Vec<BucketMove> = (self.plan.moves.iter().copied())
            .filter(|m| {
                !self.src_lost(cluster, m) && shipped.and_then(|s| s.get(&m.bucket)) != Some(&m.to)
            })
            .collect();
        let topology = cluster.topology();
        let new_waves =
            RebalancePlan::schedule_moves(&pending, &self.plan.target, max_concurrent, |p| {
                topology.node_of(p)
            });
        report.waves_appended = new_waves.len();
        self.waves.extend(new_waves);

        // Re-planning is CC work and costs makespan like any wave.
        let mut tl = NodeTimeline::new();
        tl.charge_coordinator(SimDuration(sim::JOB_OVERHEAD.0 * lost.len() as u64));
        self.movement += tl.elapsed();
        self.move_tl.extend(&tl);

        cluster.record(Event::Replanned {
            rebalance: self.rebalance_id,
            rerouted: report.rerouted,
            reshipped: report.reshipped,
            waves_appended: report.waves_appended,
        });
        Ok(report)
    }

    /// Applies a batch of concurrent writes while data movement is in
    /// progress (between any two waves, or before/after all of them). The
    /// batch goes through the *normal* feed path — `Cluster::ingest` —
    /// which consults the registered rebalance state: records hitting a
    /// bucket whose wave has *already shipped it* are replicated to the
    /// destination's pending bucket, while writes to buckets that have not
    /// shipped yet need no replication (the wave's snapshot scan picks them
    /// up). The only thing this wrapper adds is folding the batch into the
    /// job's data-movement time accounting. A refused batch stored none of
    /// its records.
    pub fn apply_feed_batch(
        &mut self,
        cluster: &mut Cluster,
        records: impl IntoIterator<Item = (Key, Value)>,
    ) -> Result<u64> {
        self.require(
            matches!(self.state, JobState::Moving { .. }),
            "apply_feed_batch",
        )?;
        let report = cluster.ingest(self.dataset, records)?;
        // Like a wave, the feed batch is bounded by its slowest node.
        let mut batch_tl = NodeTimeline::new();
        for (node, busy) in &report.per_node {
            batch_tl.charge(*node, *busy);
        }
        self.movement += batch_tl.elapsed();
        self.move_tl.extend(&batch_tl);
        self.writes_applied += report.records;
        Ok(report.records)
    }

    /// Prepare (the first half of 2PC): every destination flushes the memory
    /// components holding replicated writes, and every alive participant
    /// votes "prepared". Requires all waves to have run.
    pub fn prepare(&mut self, cluster: &mut Cluster) -> Result<()> {
        self.require(
            matches!(self.state, JobState::Moving { completed_waves } if completed_waves == self.waves.len()),
            "prepare",
        )?;
        // One flush per live destination partition, priced by the bytes it
        // wrote — the replicated writes only, since shipped components are
        // sealed already.
        let destinations: BTreeSet<PartitionId> = self.plan.moves.iter().map(|m| m.to).collect();
        for to in destinations {
            let dst_node =
                (self.plan.target.node_of(to)).ok_or(ClusterError::UnknownPartition(to))?;
            if cluster.node_is_alive(dst_node) {
                let before = cluster.partition(to)?.metrics().snapshot();
                cluster.store_mut(to, self.dataset)?.primary.flush_pending();
                let after = cluster.partition(to)?.metrics().snapshot();
                let flushed = after.delta_since(&before).bytes_flushed;
                self.fin_tl.charge(dst_node, sim::disk_write(flushed));
            }
        }
        // Reads still proceed, but writes are blocked from here until the
        // decision: the pending components are flushed and a late write
        // could no longer be replicated (Section V-C).
        if let Some(active) = cluster.active_rebalances.get_mut(&self.dataset) {
            active.write_blocked = true;
        }
        // Alive participants vote yes; dead ones cannot vote.
        self.all_voted = self.all_participants_alive(cluster);
        self.fin_tl.charge_coordinator(SimDuration(
            sim::NETWORK_LATENCY.0 * self.participants.len() as u64,
        ));
        self.state = JobState::Prepared;
        Ok(())
    }

    /// Decides the outcome from the collected votes. A unanimous yes forces
    /// the COMMIT log record — the rebalance is then determined to commit —
    /// and any missing vote aborts (forcing the ABORT record and discarding
    /// all pending buckets).
    pub fn decide(&mut self, cluster: &mut Cluster) -> Result<RebalanceOutcome> {
        self.require(matches!(self.state, JobState::Prepared), "decide")?;
        let outcome = if self.all_voted {
            // The outcome is determined by forcing the COMMIT record.
            cluster
                .controller
                .log_outcome(self.rebalance_id, RebalanceOutcome::Committed);
            RebalanceOutcome::Committed
        } else {
            self.abort_cleanup(cluster)?;
            RebalanceOutcome::Aborted
        };
        self.state = JobState::Decided(outcome);
        Ok(outcome)
    }

    /// True when every participant is alive: each votes, or acks, then.
    fn all_participants_alive(&self, cluster: &Cluster) -> bool {
        self.participants.iter().all(|n| cluster.node_is_alive(*n))
    }

    /// Aborts the job from any step before the commit decision (operator
    /// cancellation, or CC recovery finding BEGIN without COMMIT). Forces the
    /// ABORT record and discards all pending buckets; idempotent once the
    /// job is already aborted.
    pub fn abort(&mut self, cluster: &mut Cluster) -> Result<()> {
        match self.state {
            JobState::Planned | JobState::Moving { .. } | JobState::Prepared => {}
            JobState::Decided(RebalanceOutcome::Aborted) => return Ok(()),
            _ => return Err(self.invalid_step("abort")),
        }
        self.abort_cleanup(cluster)?;
        self.state = JobState::Decided(RebalanceOutcome::Aborted);
        Ok(())
    }

    /// Commit tasks (after a committed decision): every alive node installs
    /// its received buckets and cleans up its moved buckets, and the CC
    /// installs the new directory and partition list.
    pub fn commit(&mut self, cluster: &mut Cluster) -> Result<()> {
        self.require(
            matches!(self.state, JobState::Decided(RebalanceOutcome::Committed)),
            "commit",
        )?;
        self.run_commit_tasks(cluster)?;
        let meta = cluster.controller.dataset_mut(self.dataset)?;
        // Install the planned directory *into* the CC's versioned copy: the
        // per-bucket differences land in the change log under one version
        // bump, so stale sessions catch up with a cheap delta instead of a
        // full snapshot.
        match meta.directory.as_mut() {
            Some(dir) => dir.install(&self.plan.new_directory),
            None => meta.directory = Some(self.plan.new_directory.clone()),
        }
        if meta.partitions != self.plan.target.partitions() {
            meta.partitions = self.plan.target.partitions();
            meta.bump_partitions_version();
        }
        // The new directory is live: ingestion resumes through it.
        cluster.active_rebalances.remove(&self.dataset);
        self.state = JobState::CommitTasksDone;
        Ok(())
    }

    /// Finalization: recovers every crashed node, has recovered nodes repeat
    /// their (idempotent) commit or cleanup tasks, forces DONE, re-enables
    /// bucket splits, and produces the report. This is the step that makes
    /// failure Cases 2, 4, and 5 converge — however many participants died,
    /// finalize re-drives their tasks until the cluster agrees with the
    /// durable decision. When nobody died — no node to bring back, every
    /// commit ack already in — there is nothing to re-drive and the tasks
    /// are skipped (the CC's message round is still charged).
    pub fn finalize(&mut self, cluster: &mut Cluster) -> Result<RebalanceReport> {
        let outcome = match self.state {
            JobState::Decided(RebalanceOutcome::Aborted) => {
                cluster.recover_all_nodes();
                // Recovered nodes repeat the cleanup; discarding is
                // idempotent, so this is safe whatever they saw before dying.
                self.drop_all_pending(cluster)?;
                RebalanceOutcome::Aborted
            }
            JobState::CommitTasksDone => {
                // Only a participant that missed the commit has tasks left.
                // With nobody brought back and every ack in, nothing is
                // re-driven; the CC's message round is still charged, so
                // simulated time does not depend on which branch ran.
                if cluster.recover_all_nodes().is_empty() && self.all_acked {
                    self.charge_commit_messages(cluster);
                } else {
                    self.run_commit_tasks(cluster)?;
                }
                RebalanceOutcome::Committed
            }
            _ => return Err(self.invalid_step("finalize")),
        };
        cluster.controller.log_done(self.rebalance_id);
        // Splits resume whatever the outcome. (Commit and abort already
        // dropped the in-flight registration; by now it may be the next job's.)
        cluster.set_splits_enabled(self.dataset, true)?;
        self.state = JobState::Finalized(outcome);
        cluster.record(Event::Finalized {
            rebalance: self.rebalance_id,
            outcome,
            repaired: self.repaired,
        });
        Ok(self.report(cluster, outcome))
    }

    // -------------------------------------------------------------- driving

    /// Steps the job from wherever it stands to [`JobState::Finalized`]:
    /// `init` if still only planned, the remaining waves — a wave that trips
    /// over a permanently lost node re-plans around it with
    /// [`RebalanceJob::replan_wave`] and continues — then prepare, decide,
    /// commit (if the vote carried) and finalize. A step that fails never
    /// leaves the job half-done: before the decision it is aborted and
    /// finalized, after a durable COMMIT the commit is finished, and the
    /// step's error is returned either way. Every caller finishes its jobs
    /// here (see the module docs).
    pub fn drive(&mut self, cluster: &mut Cluster) -> Result<RebalanceReport> {
        self.drive_with(cluster, |_, _, _| Ok(()))
    }

    /// [`RebalanceJob::drive`] with `at` called at every [`StepPoint`] the
    /// job passes. The cluster is fully usable there, and this callback is
    /// the one way a scenario runs code of its own between two steps:
    /// queries, feed batches, assertions, firing the scheduled faults
    /// ([`Cluster::fire_faults`]), or returning an error to refuse the step.
    /// An `at` that aborts the job is honoured at every boundary — the
    /// remaining steps skip to finalize.
    pub fn drive_with(
        &mut self,
        cluster: &mut Cluster,
        mut at: impl FnMut(&mut Cluster, &mut RebalanceJob, StepPoint) -> Result<()>,
    ) -> Result<RebalanceReport> {
        let result = self.step_to_completion(cluster, &mut at);
        if result.is_err() {
            self.settle(cluster);
        }
        result
    }

    fn step_to_completion(
        &mut self,
        cluster: &mut Cluster,
        at: &mut impl FnMut(&mut Cluster, &mut RebalanceJob, StepPoint) -> Result<()>,
    ) -> Result<RebalanceReport> {
        if self.state == JobState::Planned {
            at(cluster, self, StepPoint::AfterPlan)?;
        }
        if self.state == JobState::Planned {
            self.init(cluster)?;
            at(cluster, self, StepPoint::AfterInit)?;
        }
        while self.has_remaining_waves() {
            let wave = self.completed_waves();
            match self.run_wave(cluster) {
                Ok(_) => at(cluster, self, StepPoint::AfterWave(wave))?,
                // A permanent loss surfaced mid-movement: reroute the dead
                // node's moves to survivors and retry the same wave index
                // (a loss outside the participant set is surfaced instead).
                Err(ClusterError::NodeLost(n)) => {
                    if self.replan_wave(cluster)?.is_noop() {
                        return Err(ClusterError::NodeLost(n));
                    }
                }
                Err(e) => return Err(e),
            }
        }
        if matches!(self.state, JobState::Moving { .. }) {
            at(cluster, self, StepPoint::BeforePrepare)?;
        }
        if matches!(self.state, JobState::Moving { .. }) {
            self.prepare(cluster)?;
            at(cluster, self, StepPoint::AfterPrepare)?;
        }
        if self.state == JobState::Prepared {
            self.decide(cluster)?;
        }
        if self.state == JobState::Decided(RebalanceOutcome::Committed) {
            at(cluster, self, StepPoint::AfterCommitLog)?;
            self.commit(cluster)?;
        }
        at(cluster, self, StepPoint::BeforeFinalize)?;
        let report = self.finalize(cluster)?;
        at(cluster, self, StepPoint::AfterFinalize)?;
        Ok(report)
    }

    /// Best-effort cleanup after a failed step, so an error never leaves the
    /// dataset with splits disabled, buckets pending, or its in-flight state
    /// registered: before the decision the job can still abort; once COMMIT
    /// is durable the only way forward is to finish the commit.
    pub(crate) fn settle(&mut self, cluster: &mut Cluster) {
        if self.is_terminal() {
            return;
        }
        if self.outcome() == Some(RebalanceOutcome::Committed) {
            if matches!(self.state, JobState::Decided(_)) {
                let _ = self.commit(cluster);
            }
        } else {
            let _ = self.abort(cluster);
        }
        let _ = self.finalize(cluster);
    }

    // ------------------------------------------------------------ accessors

    /// The rebalance operation id.
    pub fn rebalance_id(&self) -> RebalanceId {
        self.rebalance_id
    }

    /// The dataset being rebalanced.
    pub fn dataset(&self) -> DatasetId {
        self.dataset
    }

    /// The current job state.
    pub fn state(&self) -> JobState {
        self.state
    }

    /// The computed plan.
    pub fn plan_ref(&self) -> &RebalancePlan {
        &self.plan
    }

    /// The scheduled waves.
    pub fn waves(&self) -> &[Vec<dynahash_core::BucketMove>] {
        &self.waves
    }

    /// Total number of scheduled waves.
    pub fn num_waves(&self) -> usize {
        self.waves.len()
    }

    /// Number of waves that have completed.
    pub fn completed_waves(&self) -> usize {
        match self.state {
            JobState::Planned => 0,
            JobState::Moving { completed_waves } => completed_waves,
            _ => self.waves.len(),
        }
    }

    /// True while [`RebalanceJob::run_wave`] has waves left to run.
    pub fn has_remaining_waves(&self) -> bool {
        matches!(self.state, JobState::Moving { completed_waves } if completed_waves < self.waves.len())
    }

    /// Concurrent writes applied through the job so far.
    pub fn writes_applied(&self) -> u64 {
        self.writes_applied
    }

    /// The outcome, once the job is decided.
    pub fn outcome(&self) -> Option<RebalanceOutcome> {
        match self.state {
            JobState::Decided(o) | JobState::Finalized(o) => Some(o),
            JobState::CommitTasksDone => Some(RebalanceOutcome::Committed),
            _ => None,
        }
    }

    /// True once the job is finalized.
    pub fn is_terminal(&self) -> bool {
        matches!(self.state, JobState::Finalized(_))
    }

    /// Bytes shipped across the network so far.
    pub fn bytes_shipped(&self) -> u64 {
        self.bytes_moved
    }

    // ------------------------------------------------------------- internals

    fn require(&self, ok: bool, action: &'static str) -> Result<()> {
        if ok {
            Ok(())
        } else {
            Err(self.invalid_step(action))
        }
    }

    fn invalid_step(&self, action: &'static str) -> ClusterError {
        ClusterError::InvalidJobStep {
            action,
            state: self.state.name(),
        }
    }

    fn abort_cleanup(&mut self, cluster: &mut Cluster) -> Result<()> {
        // The rebalance is off: ingestion resumes through the old directory.
        cluster.active_rebalances.remove(&self.dataset);
        cluster
            .controller
            .log_outcome(self.rebalance_id, RebalanceOutcome::Aborted);
        self.drop_all_pending(cluster)
    }

    /// Discards what the job staged. A dataset carries one job at a time, so
    /// a destination partition's pending state is this job's (a successor
    /// that staged before this job finalized stages again at its commit, as
    /// after a destination crash).
    fn drop_all_pending(&mut self, cluster: &mut Cluster) -> Result<()> {
        let destinations: BTreeSet<PartitionId> = self.plan.moves.iter().map(|m| m.to).collect();
        for to in destinations {
            if cluster.topology().node_of(to).is_some() {
                cluster
                    .store_mut(to, self.dataset)?
                    .primary
                    .drop_all_pending();
            }
        }
        Ok(())
    }

    /// One commit message per participating node covers all of its bucket
    /// installs and cleanups.
    fn charge_commit_messages(&mut self, cluster: &Cluster) {
        for n in self.plan.participating_partitions().iter().filter_map(|p| {
            self.plan
                .target
                .node_of(*p)
                .or_else(|| cluster.topology().node_of(*p))
        }) {
            self.fin_tl.charge(n, sim::NETWORK_LATENCY);
        }
    }

    /// The per-node commit tasks. Inside the write block, so none of it may
    /// depend on how many records moved or stayed: installs append component
    /// handles, a cleanup marks a source's index components and reads no entry.
    fn run_commit_tasks(&mut self, cluster: &mut Cluster) -> Result<()> {
        self.charge_commit_messages(cluster);
        // First pass: every alive destination installs its received buckets,
        // re-shipping transfers that a crash wiped (replayed from the ship
        // records in the metadata log).
        let moves = self.plan.moves.clone();
        for m in &moves {
            let Some(dst_node) = self.plan.target.node_of(m.to) else {
                continue;
            };
            if !cluster.node_is_alive(dst_node) || !self.ensure_shipped(cluster, m)? {
                continue;
            }
            let ds = cluster.store_mut(m.to, self.dataset)?;
            if self.feed_staged(m) {
                // The restored copy replaces the *empty* bucket an earlier
                // re-plan installed on the survivor to keep the hash space
                // covered, and the bucket stops being degraded.
                ds.primary
                    .drop_bucket(m.bucket)
                    .map_err(ClusterError::Storage)?;
                ds.install_pending(m.bucket)?;
                cluster.faults.mark_repaired(self.dataset, m.bucket);
                self.repaired += 1;
            } else {
                ds.install_pending(m.bucket)?;
            }
        }
        // Second pass: a source drops its moved buckets (and marks its
        // indexes for lazy cleanup) only once the destinations serve them —
        // dropping earlier would make a destination-side crash unrecoverable,
        // since re-shipping needs the source copy.
        let mut moved_away: BTreeMap<PartitionId, Vec<BucketId>> = BTreeMap::new();
        for m in &moves {
            if self.feed_staged(m) {
                continue; // nothing moved away: there is no source copy to drop
            }
            let installed =
                (cluster.store(m.to, self.dataset)).is_ok_and(|ds| ds.primary.owns(&m.bucket));
            if installed {
                moved_away.entry(m.from).or_default().push(m.bucket);
            }
        }
        for (from, buckets) in moved_away {
            let Some(src_node) = cluster.topology().node_of(from) else {
                continue;
            };
            if !cluster.node_is_alive(src_node) {
                continue;
            }
            let warmed = cluster
                .store_mut(from, self.dataset)?
                .cleanup_moved_buckets(&buckets)?;
            // A stash partially covered by a moved bucket had to materialize
            // before the lazy-cleanup mark: that rebuild runs here, so it is
            // charged here (finalization), not hidden.
            if warmed > 0 {
                self.fin_tl.charge(src_node, sim::index_rebuild_cpu(warmed));
            }
        }
        // Every alive participant acks; a dead one acks when finalize
        // recovers it and runs these (idempotent) tasks again.
        self.all_acked = self.all_participants_alive(cluster);
        Ok(())
    }

    /// Makes sure the destination of `m` holds the staged bucket data,
    /// staging it again when an uncommitted pending copy was lost to a
    /// crash. Returns false when there is nothing to install: the move
    /// cannot be completed yet (the source is down;
    /// [`RebalanceJob::finalize`] recovers every node and retries), or a
    /// feed-staged bucket was already installed by an earlier pass. A
    /// *permanently lost* source cannot re-ship: whatever reached the
    /// destination (possibly nothing) is installed as the degraded copy and
    /// the bucket is recorded as lost.
    fn ensure_shipped(&mut self, cluster: &mut Cluster, m: &BucketMove) -> Result<bool> {
        let ds = cluster.store(m.to, self.dataset)?;
        let staged = ds.primary.pending_has_base_data(&m.bucket);
        if self.feed_staged(m) {
            // A restored bucket leaves the degraded set the moment it is
            // installed; the destination's directory cannot tell, because it
            // may already list the bucket as an empty replacement.
            if !cluster.faults.is_lost(self.dataset, &m.bucket) {
                return Ok(false);
            }
            if !staged {
                let mut tl = NodeTimeline::new();
                self.ship_move(cluster, m, &mut tl)?;
                self.fin_tl.extend(&tl);
            }
            return Ok(true);
        }
        if staged || ds.primary.owns(&m.bucket) {
            return Ok(true);
        }
        let src_node = cluster.node_of_partition(m.from)?;
        if cluster.node_is_lost(src_node) {
            // The source died for good and the destination holds no base
            // data. Install what little survived — replicated writes that
            // landed after the wipe, or nothing at all — so the committed
            // directory keeps covering the hash space, and record the
            // bucket as degraded.
            cluster
                .store_mut(m.to, self.dataset)?
                .ensure_pending_bucket(m.bucket)?;
            cluster.faults.mark_lost(self.dataset, m.bucket);
            return Ok(true);
        }
        // The transfer must have been recorded durable before it can be
        // replayed (run_wave forces one ship record per wave).
        let was_shipped = cluster
            .controller
            .metadata_log
            .shipped_moves(self.rebalance_id)
            .iter()
            .any(|s| {
                s.bucket_bits == m.bucket.bits
                    && s.bucket_depth == m.bucket.depth
                    && s.from == m.from.0
                    && s.to == m.to.0
            });
        if !was_shipped {
            return Ok(false);
        }
        let src_owns = cluster.store(m.from, self.dataset)?.primary.owns(&m.bucket);
        if !src_owns || !cluster.node_is_alive(src_node) {
            return Ok(false);
        }
        let mut tl = NodeTimeline::new();
        self.ship_move(cluster, m, &mut tl)?;
        self.fin_tl.extend(&tl);
        Ok(true)
    }

    /// The job's report; its retries and reroutes are counted from the
    /// job's own events.
    fn report(&self, cluster: &Cluster, outcome: RebalanceOutcome) -> RebalanceReport {
        let (mut retries, mut reroutes) = (0, 0);
        for event in cluster.events(self.first_event) {
            match *event {
                Event::TransientFault {
                    rebalance,
                    backoff: Some(_),
                    ..
                } if rebalance == self.rebalance_id => retries += 1,
                Event::Replanned {
                    rebalance,
                    rerouted,
                    ..
                } if rebalance == self.rebalance_id => reroutes += rerouted,
                _ => {}
            }
        }
        let mut total_tl = NodeTimeline::new();
        total_tl.extend(&self.init_tl);
        total_tl.extend(&self.move_tl);
        total_tl.extend(&self.fin_tl);
        let phases = PhaseTimes {
            initialization: self.init_tl.elapsed(),
            data_movement: self.movement,
            finalization: self.fin_tl.elapsed(),
        };
        RebalanceReport {
            buckets_moved: self.plan.num_moves(),
            concurrent_writes_applied: self.writes_applied,
            retries,
            reroutes,
            ..RebalanceReport::new(
                self.rebalance_id,
                outcome,
                phases,
                &total_tl,
                self.bytes_moved,
                self.entries_moved,
                self.total_bytes,
            )
        }
    }
}

/// Picks the surviving destination partition with the least planned inbound
/// bytes (lowest partition id breaks ties) and charges `bytes` to it, so
/// successive reroutes spread across the survivors deterministically.
fn pick_least_loaded(inbound: &mut BTreeMap<PartitionId, u64>, bytes: u64) -> Result<PartitionId> {
    let (p, load) = inbound
        .iter_mut()
        .min_by_key(|(p, b)| (**b, **p))
        .ok_or_else(|| {
            ClusterError::RebalanceAborted(
                "no surviving destination partition to re-plan onto".to_string(),
            )
        })?;
    *load += bytes;
    Ok(*p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetSpec;
    use dynahash_core::Scheme;
    use dynahash_lsm::wal::RebalanceLogStatus;
    use dynahash_lsm::Bytes;

    fn loaded(nodes: u32, n: u64) -> (Cluster, DatasetId) {
        let mut cluster = Cluster::with_config(
            nodes,
            crate::ClusterConfig {
                partitions_per_node: 2,
            },
        );
        let ds = cluster
            .create_dataset(DatasetSpec::new(
                "events",
                Scheme::StaticHash { num_buckets: 32 },
            ))
            .unwrap();
        let records: Vec<(Key, Bytes)> = (0..n)
            .map(|i| (Key::from_u64(i), Bytes::from(vec![(i % 251) as u8; 48])))
            .collect();
        cluster.ingest(ds, records).unwrap();
        (cluster, ds)
    }

    #[test]
    fn happy_path_steps_commit() {
        let (mut cluster, ds) = loaded(2, 2000);
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 2).unwrap();
        assert_eq!(job.state(), JobState::Planned);
        assert!(job.num_waves() >= 2, "expected multiple waves");
        job.init(&mut cluster).unwrap();
        let mut seen = 0;
        while job.has_remaining_waves() {
            let report = job.run_wave(&mut cluster).unwrap();
            assert_eq!(report.wave, seen);
            assert!(report.moves >= 1 && report.moves <= 2);
            seen += 1;
        }
        assert_eq!(seen, job.num_waves());
        job.prepare(&mut cluster).unwrap();
        assert_eq!(
            job.decide(&mut cluster).unwrap(),
            RebalanceOutcome::Committed
        );
        // COMMIT is forced: the outcome can no longer be taken back, and
        // DONE cannot be forced before the commit tasks ran
        assert!(matches!(
            job.abort(&mut cluster),
            Err(ClusterError::InvalidJobStep { .. })
        ));
        assert!(matches!(
            job.finalize(&mut cluster),
            Err(ClusterError::InvalidJobStep { .. })
        ));
        job.commit(&mut cluster).unwrap();
        let report = job.finalize(&mut cluster).unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        assert!(job.is_terminal());
        assert_eq!(cluster.dataset_len(ds).unwrap(), 2000);
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .unwrap();
    }

    #[test]
    fn out_of_order_steps_are_rejected() {
        let (mut cluster, ds) = loaded(2, 500);
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 1).unwrap();
        // cannot run a wave, prepare, or commit before init
        assert!(matches!(
            job.run_wave(&mut cluster),
            Err(ClusterError::InvalidJobStep { .. })
        ));
        assert!(job.prepare(&mut cluster).is_err());
        assert!(job.commit(&mut cluster).is_err());
        assert!(job.finalize(&mut cluster).is_err());
        job.init(&mut cluster).unwrap();
        // cannot start data movement twice, or prepare with waves remaining
        assert!(job.init(&mut cluster).is_err());
        assert!(job.prepare(&mut cluster).is_err());
        // abort works mid-movement and is idempotent
        job.abort(&mut cluster).unwrap();
        job.abort(&mut cluster).unwrap();
        let report = job.finalize(&mut cluster).unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Aborted);
        assert_eq!(cluster.dataset_len(ds).unwrap(), 500);
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .unwrap();

        // a participant that is down at prepare casts no vote, and a
        // missing vote aborts: ABORT is forced and nothing stays pending
        let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 4).unwrap();
        job.init(&mut cluster).unwrap();
        while job.has_remaining_waves() {
            job.run_wave(&mut cluster).unwrap();
        }
        cluster.crash_node(NodeId(2)).unwrap();
        job.prepare(&mut cluster).unwrap();
        let down = (job.participants.iter()).filter(|n| !cluster.node_is_alive(**n));
        assert_eq!(down.count(), 1);
        assert!(!job.all_voted);
        assert_eq!(job.decide(&mut cluster).unwrap(), RebalanceOutcome::Aborted);
        // once aborted, the commit tasks can no longer run
        assert!(matches!(
            job.commit(&mut cluster),
            Err(ClusterError::InvalidJobStep { .. })
        ));
        assert_eq!(
            cluster
                .controller
                .metadata_log
                .rebalance_status(job.rebalance_id()),
            RebalanceLogStatus::Aborted
        );
        let report = job.finalize(&mut cluster).unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Aborted);
        for p in cluster.topology().partitions() {
            let ds = cluster.store(p, ds).unwrap();
            assert!(ds.primary.pending_bucket_ids().is_empty(), "{p:?}");
        }
        assert_eq!(cluster.dataset_len(ds).unwrap(), 500);
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .unwrap();
    }

    #[test]
    fn wave_with_a_dead_source_node_reports_node_down() {
        let (mut cluster, ds) = loaded(3, 2000);
        let victim = NodeId(2);
        let target = cluster.topology_without(victim);
        let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 4).unwrap();
        job.init(&mut cluster).unwrap();
        cluster.crash_node(victim).unwrap();
        // every move sources from the victim, so the wave cannot run
        assert!(matches!(
            job.run_wave(&mut cluster),
            Err(ClusterError::NodeDown(n)) if n == victim
        ));
        // recover and the same wave runs
        cluster.recover_node(victim).unwrap();
        job.run_wave(&mut cluster).unwrap();
        let report = job.drive(&mut cluster).unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        assert_eq!(cluster.dataset_len(ds).unwrap(), 2000);
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .unwrap();
    }

    #[test]
    fn components_policy_ships_sealed_components_and_logs_the_waves() {
        let (mut cluster, ds) = loaded(2, 2000);
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 2).unwrap();
        job.init(&mut cluster).unwrap();
        let mut components = 0usize;
        while job.has_remaining_waves() {
            components += job.run_wave(&mut cluster).unwrap().components;
        }
        assert!(components > 0, "waves must ship sealed components");
        let shipped = cluster
            .controller
            .metadata_log
            .shipped_moves(job.rebalance_id());
        assert_eq!(shipped.len(), job.plan_ref().num_moves());
        assert!(shipped.iter().any(|m| !m.component_ids.is_empty()));
        let report = job.drive(&mut cluster).unwrap();
        assert_eq!(cluster.dataset_len(ds).unwrap(), 2000);
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .unwrap();
    }

    /// A wave counts what it shipped from the handles and reads no record:
    /// every entry visible through them, shadowed versions and tombstones
    /// included, and no entry a split child's filter hides.
    #[test]
    fn a_wave_reports_the_visible_entries_it_shipped() {
        let mut cluster = Cluster::new(2);
        let spec = DatasetSpec::new("events", Scheme::dynahash(24 * 1024, 2))
            .with_memtable_budget(4 * 1024);
        let ds = cluster.create_dataset(spec).unwrap();
        let record = |i: u64, tag: u8| (Key::from_u64(i), Bytes::from(vec![tag; 48]));
        cluster.ingest(ds, (0..2000).map(|i| record(i, 0))).unwrap();
        // Overwrites and tombstones land in newer components than the
        // records they shadow.
        cluster
            .ingest(ds, (0..2000).step_by(3).map(|i| record(i, 1)))
            .unwrap();
        let mut session = cluster.session(ds).unwrap();
        for i in (1..2000).step_by(7) {
            session.delete(&mut cluster, &Key::from_u64(i)).unwrap();
        }
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 2).unwrap();
        job.init(&mut cluster).unwrap();

        let (mut visible, mut live, mut filtered, mut most_runs) = (0u64, 0u64, 0, 0);
        while job.has_remaining_waves() {
            let wave = job.waves()[job.completed_waves()].clone();
            let mut wave_visible = 0u64;
            for m in &wave {
                let src = cluster.store(m.from, ds).unwrap();
                let tree = src.primary.bucket_tree(&m.bucket).unwrap();
                for c in tree.components() {
                    wave_visible += c.visible_len() as u64;
                    filtered += usize::from(c.visible_len() < c.raw_len());
                }
                live += tree.live_len() as u64;
                most_runs = most_runs.max(tree.components().len());
            }
            let report = job.run_wave(&mut cluster).unwrap();
            assert_eq!(report.entries, wave_visible, "wave {}", report.wave);
            let log = &cluster.controller.metadata_log;
            let logged = log.shipped_moves(job.rebalance_id());
            let logged: u64 = logged[logged.len() - wave.len()..]
                .iter()
                .map(|m| m.entries)
                .sum();
            assert_eq!(logged, wave_visible, "wave {}", report.wave);
            visible += wave_visible;
        }
        assert!(most_runs >= 2, "no bucket shipped two components");
        assert!(filtered > 0, "no split child shipped a filtered handle");
        assert!(visible > live, "nothing shadowed: {visible} vs {live}");
        let report = job.drive(&mut cluster).unwrap();
        assert_eq!(report.entries_moved, visible);
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .unwrap();
    }

    /// Prepare charges each live destination one flush of what it wrote:
    /// nothing when no write arrived during movement (shipped components
    /// are sealed already), and the flushed replicated writes once when a
    /// feed batch hit a shipped bucket.
    #[test]
    fn prepare_charges_each_destination_the_bytes_it_flushed() {
        let moving = |writes: bool| {
            let (mut cluster, ds) = loaded(2, 2000);
            cluster.add_node().unwrap();
            let target = cluster.topology().clone();
            let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 2).unwrap();
            job.init(&mut cluster).unwrap();
            job.run_wave(&mut cluster).unwrap();
            let m = job.waves()[0][0];
            if writes {
                let src = cluster.store(m.from, ds).unwrap();
                let entries = src.primary.bucket_tree(&m.bucket).unwrap().scan_all();
                let batch: Vec<(Key, Bytes)> = (entries.into_iter().take(20))
                    .map(|e| (e.key, Bytes::from(vec![7u8; 48])))
                    .collect();
                job.apply_feed_batch(&mut cluster, batch).unwrap();
            }
            while job.has_remaining_waves() {
                job.run_wave(&mut cluster).unwrap();
            }
            (cluster, job, m)
        };

        let (mut cluster, mut job, _) = moving(false);
        job.prepare(&mut cluster).unwrap();
        assert_eq!(job.fin_tl.max_node_time(), SimDuration::ZERO);

        let (mut cluster, mut job, m) = moving(true);
        let metrics = |cluster: &Cluster| cluster.partition(m.to).unwrap().metrics().snapshot();
        let before = metrics(&cluster);
        job.prepare(&mut cluster).unwrap();
        let bytes = metrics(&cluster).delta_since(&before).bytes_flushed;
        assert!(bytes > 0, "the replicated batch was not flushed");
        let dst_node = cluster.topology().node_of(m.to).unwrap();
        let charged: Vec<(NodeId, SimDuration)> = (job.fin_tl.breakdown().into_iter())
            .filter(|(_, busy)| *busy > SimDuration::ZERO)
            .collect();
        assert_eq!(charged, vec![(dst_node, sim::disk_write(bytes))]);
    }

    #[test]
    fn transient_faults_are_retried_and_absorbed() {
        use crate::fault::FaultSchedule;
        // The same 2 -> 3 rebalance with the schedule a cluster starts with,
        // an empty one installed, and transients; each run's report, fault
        // counters and contents.
        let run = |schedule: Option<FaultSchedule>| {
            let (mut cluster, ds) = loaded(2, 2000);
            cluster.add_node().unwrap();
            if let Some(schedule) = schedule {
                cluster.set_fault_plane(schedule);
            }
            let target = cluster.topology().clone();
            let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 4).unwrap();
            job.init(&mut cluster).unwrap();
            let report = job.drive(&mut cluster).unwrap();
            assert_eq!(report.outcome, RebalanceOutcome::Committed);
            cluster
                .check_rebalance_integrity(ds, report.rebalance_id)
                .unwrap();
            let (contents, _) = (cluster.session(ds).unwrap())
                .collect_records(&cluster)
                .unwrap();
            assert_eq!(contents.len(), 2000);
            (report, cluster.fault_stats(), contents)
        };
        let (free, _, free_contents) = run(None);
        let (empty, _, empty_contents) = run(Some(FaultSchedule::none()));
        // Fail often (60 %), but cap the injections per transfer below the
        // default retry budget so every fault is absorbed.
        let (report, stats, contents) = run(Some(FaultSchedule::seeded(7).with_transient(600, 2)));

        // An installed but empty schedule is the fault-free run.
        assert_eq!(empty, free);
        assert_eq!((free.retries, free.reroutes), (0, 0));
        assert!(report.retries > 0, "60 % per-mille must trip some retries");
        assert_eq!(stats.transient_faults, report.retries);
        assert!(stats.backoff > SimDuration::ZERO);
        assert!(report.elapsed >= free.elapsed, "retries cost backoff");
        assert_eq!(empty_contents, free_contents);
        assert_eq!(contents, free_contents);
    }

    #[test]
    fn a_transfer_past_its_retry_budget_aborts_the_job_cleanly() {
        let (mut cluster, ds) = loaded(2, 2000);
        cluster.add_node().unwrap();
        // Every attempt under the cap fails, and the cap is one past the
        // retry budget: the first transfer exhausts it.
        cluster.set_fault_plane(
            crate::fault::FaultSchedule::seeded(7).with_transient(1000, MAX_TRANSFER_RETRIES + 1),
        );
        let target = cluster.topology().clone();
        let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 4).unwrap();
        job.init(&mut cluster).unwrap();
        assert!(matches!(
            job.run_wave(&mut cluster),
            Err(ClusterError::RebalanceAborted(_))
        ));
        let stats = cluster.fault_stats();
        assert_eq!(stats.retries, u64::from(MAX_TRANSFER_RETRIES));
        assert_eq!(
            stats.transient_faults,
            stats.retries + 1,
            "the transient that exhausted the budget is counted, and not retried"
        );
        assert!(job.drive(&mut cluster).is_err());
        assert_eq!(job.state(), JobState::Finalized(RebalanceOutcome::Aborted));
        for p in cluster.topology().partitions() {
            let primary = &cluster.store(p, ds).unwrap().primary;
            assert!(primary.pending_bucket_ids().is_empty(), "{p:?}");
            assert!(primary.splits_enabled(), "{p:?}");
        }
        assert_eq!(cluster.dataset_len(ds).unwrap(), 2000);
    }

    #[test]
    fn health_lists_a_job_from_plan_until_finalize() {
        // The scale-in of the reship test below: evacuate node 3, then lose
        // node 2, which received some of its buckets, after every wave ran.
        let (mut cluster, ds) = loaded(4, 4000);
        let target = cluster.topology_without(NodeId(3));
        let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 2).unwrap();
        job.init(&mut cluster).unwrap();
        let wave = job.run_wave(&mut cluster).unwrap();
        let jobs = cluster.admin().health().jobs;
        assert_eq!(jobs.len(), 1);
        let progress = &jobs[0];
        assert_eq!(
            (progress.dataset, progress.rebalance),
            (ds, job.rebalance_id())
        );
        assert_eq!(progress.waves_done, 1);
        assert_eq!(progress.bytes_shipped, wave.bytes);
        assert_eq!(progress.waves_total, job.num_waves());
        assert!(progress.eta > SimDuration::ZERO, "waves remain");

        while job.has_remaining_waves() {
            job.run_wave(&mut cluster).unwrap();
        }
        let waves_run = job.num_waves();
        cluster.lose_node(NodeId(2)).unwrap();
        let replan = job.replan_wave(&mut cluster).unwrap();
        assert!(replan.waves_appended > 0);
        let progress = &cluster.admin().health().jobs[0];
        assert_eq!(progress.waves_done, waves_run);
        assert_eq!(progress.waves_total, waves_run + replan.waves_appended);
        assert_eq!(progress.waves_total, job.num_waves());

        job.drive(&mut cluster).unwrap();
        assert!(cluster.admin().health().jobs.is_empty(), "finalized");

        // A job that fails mid-flight is gone once `settle` finalizes it.
        let (mut cluster, ds) = loaded(2, 2000);
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 1).unwrap();
        let refused = job.drive_with(&mut cluster, |cluster, _, point| {
            assert_eq!(cluster.admin().health().jobs.len(), 1, "{point:?}");
            match point {
                StepPoint::AfterWave(0) => Err(ClusterError::RebalanceAborted("refused".into())),
                _ => Ok(()),
            }
        });
        assert!(refused.is_err());
        assert!(cluster.admin().health().jobs.is_empty(), "settled");
    }

    #[test]
    fn losing_a_pure_destination_cancels_its_moves_and_commits() {
        let (mut cluster, ds) = loaded(3, 3000);
        let new_node = cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 2).unwrap();
        job.init(&mut cluster).unwrap();
        job.run_wave(&mut cluster).unwrap();
        cluster.lose_node(new_node).unwrap();
        // the next wave reports the loss as permanent, not as recoverable
        assert!(matches!(
            job.run_wave(&mut cluster),
            Err(ClusterError::NodeLost(n)) if n == new_node
        ));
        let replan = job.replan_wave(&mut cluster).unwrap();
        assert_eq!(replan.lost_nodes, vec![new_node]);
        assert!(replan.rerouted > 0);
        assert!(
            cluster.fault_stats().degraded_buckets(ds).is_empty(),
            "a pure destination holds no sole copies"
        );
        // every source survives inside the target, so every move cancels:
        // nothing is left to ship
        assert_eq!(replan.waves_appended, 0);
        assert!(!job.has_remaining_waves());
        let report = job.drive(&mut cluster).unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        assert!(report.reroutes > 0);
        assert_eq!(cluster.dataset_len(ds).unwrap(), 3000);
        cluster.remove_lost_node(new_node).unwrap();
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .unwrap();
        assert!(
            cluster.fault_stats().lost_nodes.contains(&new_node),
            "the loss is recorded in the fault stats"
        );
    }

    #[test]
    fn losing_a_destination_mid_scale_in_reships_to_survivors() {
        // Evacuate node 3; some of its buckets land on node 2, which dies
        // for good after every wave shipped. The evacuation must still
        // complete by re-shipping node 2's share to nodes 0 and 1 — node 2's
        // own resident buckets die with it (their only copy), so the dataset
        // ends degraded but every evacuated record survives.
        let (mut cluster, ds) = loaded(4, 4000);
        let evacuee = NodeId(3);
        let victim = NodeId(2);
        let target = cluster.topology_without(evacuee);
        let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 2).unwrap();
        assert!(job
            .plan_ref()
            .moves
            .iter()
            .any(|m| target.node_of(m.to) == Some(victim)));
        job.init(&mut cluster).unwrap();
        while job.has_remaining_waves() {
            job.run_wave(&mut cluster).unwrap();
        }
        cluster.lose_node(victim).unwrap();
        let replan = job.replan_wave(&mut cluster).unwrap();
        assert_eq!(replan.lost_nodes, vec![victim]);
        assert!(replan.rerouted > 0);
        assert!(
            replan.reshipped > 0,
            "shipped moves to the dead node must transfer again"
        );
        assert!(
            !cluster.fault_stats().degraded_buckets(ds).is_empty(),
            "the victim's resident buckets die with it"
        );
        assert!(replan.waves_appended > 0);
        let report = job.drive(&mut cluster).unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        // the evacuee is empty and decommissionable; the victim is removable
        cluster.decommission_node(evacuee).unwrap();
        cluster.remove_lost_node(victim).unwrap();
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .unwrap();
        // every evacuated record survived; only the victim's residents died
        let after = cluster.dataset_len(ds).unwrap();
        assert!(after > 0 && after < 4000, "degraded but serving: {after}");
        for (_, state) in cluster.admin().health().nodes {
            assert_eq!(state, crate::fault::NodeState::Alive);
        }
    }

    #[test]
    fn losing_a_source_mid_movement_serves_degraded() {
        // Node 2 is being evacuated and dies for good before all of its
        // buckets ship: the shipped ones survive at their destinations, the
        // unshipped ones are declared lost, and the dataset keeps serving
        // everything else.
        let (mut cluster, ds) = loaded(3, 3000);
        let before = cluster.dataset_len(ds).unwrap();
        let victim = NodeId(2);
        let target = cluster.topology_without(victim);
        let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 1).unwrap();
        let total_moves = job.plan_ref().num_moves();
        assert!(total_moves > 2);
        job.init(&mut cluster).unwrap();
        job.run_wave(&mut cluster).unwrap();
        cluster.lose_node(victim).unwrap();
        let replan = job.replan_wave(&mut cluster).unwrap();
        assert_eq!(replan.lost_nodes, vec![victim]);
        assert!(
            !cluster.fault_stats().degraded_buckets(ds).is_empty(),
            "unshipped buckets die with their source"
        );
        let report = job.drive(&mut cluster).unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        cluster.remove_lost_node(victim).unwrap();
        // the shipped buckets survived, the unshipped ones are gone
        let after = cluster.dataset_len(ds).unwrap();
        assert!(after > 0 && after < before, "degraded but serving: {after}");
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .unwrap();
        let health = cluster.admin().health();
        assert!(!health.all_healthy());
        assert_eq!(health.stats.degraded_datasets(), vec![ds]);
    }

    #[test]
    fn hashing_scheme_cannot_be_stepped() {
        let mut cluster = Cluster::new(2);
        let ds = cluster
            .create_dataset(DatasetSpec::new("events", Scheme::Hashing))
            .unwrap();
        let target = cluster.topology().clone();
        assert!(matches!(
            RebalanceJob::plan(&mut cluster, ds, &target, 1),
            Err(ClusterError::RebalanceAborted(_))
        ));
    }
}
