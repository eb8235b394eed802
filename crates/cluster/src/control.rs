//! The load-aware auto-rebalancing control plane: the monitor → decide → act
//! loop that turns operator-driven rebalancing into a continuous process.
//!
//! The subsystem has four parts:
//!
//! * **Heat tracking** — opt-in per-bucket heat on the cluster accumulates
//!   per-bucket read/write counters, fed from the session data paths
//!   (`get`/`put`/`delete`/`ingest`) at the cost of one local-directory
//!   probe per armed operation. Counters decay exponentially on control
//!   ticks, so heat reflects *recent* traffic. Snapshots merge the op
//!   counters with storage residency ([`crate::cluster::Admin::heat`]).
//!   With heat tracking disarmed every data path takes its pre-control-plane
//!   code path (`disarmed_heat_records_nothing_and_costs_one_check`).
//! * **Decision loop** — a [`ControlPlane`] driven by an explicit
//!   [`ControlPlane::tick`]. Each tick computes the max-deviation imbalance
//!   of every bucketed dataset from heat-weighted partition loads
//!   (`resident_bytes + ops * op_weight_bytes`), splits buckets whose
//!   decayed op count exceeds the hot-bucket budget, and plans a rebalance
//!   when a dataset stays above the imbalance threshold for
//!   [`HYSTERESIS_TICKS`] *consecutive* ticks — with a cooldown after every
//!   committed job so back-to-back rebalances cannot thrash. Everything is
//!   a pure function of the tick sequence and the workload: no wall clock,
//!   no ambient randomness.
//! * **Throttled execution** — an auto-planned [`RebalanceJob`] is driven
//!   wave by wave across ticks under a [`MigrationBudget`]: a window of
//!   `window_ticks` ticks admits at most `max_buckets_per_window` moves and
//!   `max_bytes_per_window` shipped bytes; waves that do not fit are
//!   deferred until the window rolls. The plane keeps only the open window
//!   and the peak any window reached ([`ControlPlane::peak_window`]). Health
//!   monitoring runs before every wave: a permanently lost participant
//!   triggers [`RebalanceJob::replan_wave`] from the control plane instead
//!   of letting a wave trip over the dead node.
//! * **Decisions in the event log** — every decision (triggered,
//!   suppressed by hysteresis or cooldown, deferred by budget, re-planned,
//!   committed, …) is appended to the cluster's event log as a
//!   [`ControlDecision`] stamped with its tick ([`crate::obs`]). The plane
//!   keeps no counters and no decision list of its own: a count is a count
//!   over [`Cluster::events`], and a tick's decisions are the events it
//!   appended.
//!
//! Idle ticks — no job in flight and no decision made — are not wasted:
//! they drain deferred secondary-index stashes (the background
//! warm-indexes task). Sessions learn about an auto-rebalance the way they
//! learn about any other: the first stale route is rejected and the session
//! pulls a [`dynahash_core::DirectoryDelta`] (see [`crate::session`]).

use std::cell::RefCell;
use std::collections::BTreeMap;

use dynahash_core::{
    max_deviation_imbalance, BucketHeat, BucketId, MigrationBudget, PartitionId, RebalanceOutcome,
};
use dynahash_lsm::entry::{Key, Value};

use crate::cluster::Cluster;
use crate::dataset::DatasetId;
use crate::job::RebalanceJob;
use crate::obs::{ControlDecision, Event};
use crate::Result;

// ------------------------------------------------------------ heat tracking

/// Per-bucket decayed operation counters for every dataset, armed on the
/// cluster with [`Cluster::set_heat_tracking`]. Only the op counters live
/// here; residency (bytes) is read from storage when a snapshot is taken,
/// so the map stays a few words per active bucket.
///
/// Interior mutability lets the *read* path (`&Cluster`) feed counters; the
/// borrow is taken and released inside each method, never held across other
/// cluster calls (see LOCK_ORDER.md, rank 20).
#[derive(Debug, Default)]
pub(crate) struct HeatCell {
    /// `None` while disarmed.
    ops: RefCell<Option<BTreeMap<DatasetId, BTreeMap<BucketId, BucketHeat>>>>,
}

impl HeatCell {
    /// True when heat tracking is armed. The disarmed check is the only
    /// cost the data paths pay when the control plane is not in use.
    pub(crate) fn armed(&self) -> bool {
        self.ops.borrow().is_some()
    }

    /// Arms heat tracking (keeps existing counters when already armed).
    pub(crate) fn arm(&self) {
        self.ops.borrow_mut().get_or_insert_with(BTreeMap::new);
    }

    /// Disarms heat tracking and drops all counters.
    pub(crate) fn disarm(&self) {
        *self.ops.borrow_mut() = None;
    }

    /// The counters of `bucket`, passed to `f` while armed.
    fn with_bucket(&self, dataset: DatasetId, bucket: BucketId, f: impl FnOnce(&mut BucketHeat)) {
        if let Some(ops) = self.ops.borrow_mut().as_mut() {
            f(ops.entry(dataset).or_default().entry(bucket).or_default());
        }
    }

    /// Records one point read against a bucket.
    pub(crate) fn note_read(&self, dataset: DatasetId, bucket: BucketId) {
        self.with_bucket(dataset, bucket, |h| h.reads += 1);
    }

    /// Records one write (insert or delete) against a bucket.
    pub(crate) fn note_write(&self, dataset: DatasetId, bucket: BucketId) {
        self.with_bucket(dataset, bucket, |h| h.writes += 1);
    }

    /// One decay step: every op counter is halved, and buckets whose heat
    /// reached zero are forgotten so the map tracks only active buckets.
    pub(crate) fn decay(&self) {
        if let Some(ops) = self.ops.borrow_mut().as_mut() {
            for buckets in ops.values_mut() {
                buckets.retain(|_, h| {
                    h.decay();
                    h.ops() > 0
                });
            }
            ops.retain(|_, buckets| !buckets.is_empty());
        }
    }

    /// Splits a bucket's heat along with the bucket: each child inherits
    /// half of the parent's counters (the key split is a hash bit, so an
    /// even split is the best stateless estimate).
    pub(crate) fn on_split(
        &self,
        dataset: DatasetId,
        parent: BucketId,
        lo: BucketId,
        hi: BucketId,
    ) {
        let mut ops = self.ops.borrow_mut();
        let Some(buckets) = ops.as_mut().and_then(|ops| ops.get_mut(&dataset)) else {
            return;
        };
        let Some(heat) = buckets.remove(&parent) else {
            return;
        };
        let half = BucketHeat {
            reads: heat.reads / 2,
            writes: heat.writes / 2,
            ..BucketHeat::default()
        };
        buckets.entry(lo).or_default().absorb(&half);
        buckets.entry(hi).or_default().absorb(&half);
    }

    /// A copy of the dataset's op counters (reads/writes only; residency
    /// fields are zero — [`crate::cluster::Admin::heat`] fills them in).
    pub(crate) fn ops_snapshot(&self, dataset: DatasetId) -> BTreeMap<BucketId, BucketHeat> {
        (self.ops.borrow().as_ref())
            .and_then(|ops| ops.get(&dataset).cloned())
            .unwrap_or_default()
    }
}

/// A merged heat snapshot for one dataset: decayed op counters joined with
/// current storage residency, per bucket and aggregated per partition.
/// Produced by [`crate::cluster::Admin::heat`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HeatReport {
    /// Heat per bucket (keyed by the partitions' local bucket ids).
    pub per_bucket: BTreeMap<BucketId, BucketHeat>,
    /// Heat aggregated over each partition's resident buckets.
    pub per_partition: BTreeMap<PartitionId, BucketHeat>,
}

impl HeatReport {
    /// Heat-weighted load per partition:
    /// `resident_bytes + ops * op_weight_bytes`.
    pub fn partition_loads(&self, op_weight_bytes: u64) -> BTreeMap<PartitionId, u64> {
        self.per_partition
            .iter()
            .map(|(p, h)| {
                (
                    *p,
                    h.resident_bytes
                        .saturating_add(h.ops().saturating_mul(op_weight_bytes)),
                )
            })
            .collect()
    }

    /// Heat-weighted load per bucket (the planning input).
    pub fn bucket_loads(&self, op_weight_bytes: u64) -> BTreeMap<BucketId, u64> {
        self.per_bucket
            .iter()
            .map(|(b, h)| {
                (
                    *b,
                    h.resident_bytes
                        .saturating_add(h.ops().saturating_mul(op_weight_bytes)),
                )
            })
            .collect()
    }

    /// Max-deviation imbalance of the heat-weighted partition loads.
    pub fn imbalance(&self, op_weight_bytes: u64) -> f64 {
        max_deviation_imbalance(self.partition_loads(op_weight_bytes).into_values())
    }
}

// ------------------------------------------------------------ decision loop

/// Hot-bucket splits performed per dataset per tick, at most.
const MAX_HOT_SPLITS_PER_TICK: usize = 4;

/// Consecutive imbalanced ticks required before a rebalance triggers.
pub const HYSTERESIS_TICKS: u32 = 3;

/// Ticks after a committed (or no-op) job during which new triggers for the
/// dataset are suppressed.
pub const COOLDOWN_TICKS: u64 = 8;

/// Wave width of auto-planned jobs (clamped to the budget's per-window
/// bucket cap so a single wave can always be admitted).
const MAX_CONCURRENT_MOVES: usize = 4;

/// Tuning knobs of the [`ControlPlane`]. The defaults follow the reference
/// shard rebalancer (SNIPPETS.md Snippet 3): trigger at 15% max-deviation
/// imbalance, sustained over [`HYSTERESIS_TICKS`] consecutive ticks, with a
/// cooldown of [`COOLDOWN_TICKS`] after every committed job and a migration
/// budget per window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlConfig {
    /// Max-deviation imbalance above which a dataset counts as imbalanced.
    pub imbalance_threshold: f64,
    /// The migration throttle (buckets/bytes per window of ticks).
    pub budget: MigrationBudget,
    /// Decayed op count above which a single bucket is split so its heat
    /// can spread across partitions.
    pub hot_bucket_ops: u64,
    /// Load contributed by one decayed op, in byte units (how heavily query
    /// heat weighs against resident bytes).
    pub op_weight_bytes: u64,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            imbalance_threshold: 0.15,
            budget: MigrationBudget::default(),
            hot_bucket_ops: 512,
            op_weight_bytes: 1024,
        }
    }
}

/// The decision loop. Like [`RebalanceJob`] and [`crate::session::Session`]
/// it holds no borrow of the cluster: the driver calls
/// [`ControlPlane::tick`] with the cluster whenever sim-time advances.
#[derive(Debug)]
pub struct ControlPlane {
    config: ControlConfig,
    /// Consecutive imbalanced ticks per dataset.
    streaks: BTreeMap<DatasetId, u32>,
    /// First tick at which a dataset may trigger again.
    cooldown_until: BTreeMap<DatasetId, u64>,
    /// The in-flight auto-planned job, driven across ticks.
    job: Option<RebalanceJob>,
    /// Operator-registered repair feeds: on a health tick with no job in
    /// flight, a degraded dataset with a registered feed is auto-repaired
    /// from it. A feed registered *after* a loss stays valid while the
    /// dataset is degraded — writes to lost buckets are rejected, so their
    /// content cannot drift from the snapshot.
    repair_feeds: BTreeMap<DatasetId, Vec<(Key, Value)>>,
    /// Ticks run so far; the current tick's number.
    ticks: u64,
    /// The open budget window: its first tick, and the moves and bytes it
    /// admitted so far.
    window_start: u64,
    window_buckets: usize,
    window_bytes: u64,
    /// The most buckets and the most bytes any window admitted.
    peak_window: (usize, u64),
}

impl ControlPlane {
    /// A control plane with explicit knobs.
    pub fn new(config: ControlConfig) -> Self {
        ControlPlane {
            config,
            streaks: BTreeMap::new(),
            cooldown_until: BTreeMap::new(),
            job: None,
            repair_feeds: BTreeMap::new(),
            ticks: 0,
            window_start: 1,
            window_buckets: 0,
            window_bytes: 0,
            peak_window: (0, 0),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ControlConfig {
        &self.config
    }

    /// Registers (or replaces) a repair feed for a dataset: the records a
    /// health tick re-ingests the dataset's lost buckets from when it finds
    /// the dataset degraded (see [`RebalanceJob::plan_repair`]). Register the
    /// feed *after* the loss (or keep it current): a lost bucket's content
    /// cannot drift while degraded — writes to it are rejected — so a
    /// post-loss snapshot stays exact until the repair commits.
    pub fn set_repair_feed(&mut self, dataset: DatasetId, feed: Vec<(Key, Value)>) {
        self.repair_feeds.insert(dataset, feed);
    }

    /// Removes a registered repair feed.
    pub fn clear_repair_feed(&mut self, dataset: DatasetId) {
        self.repair_feeds.remove(&dataset);
    }

    /// True while an auto-planned job is in flight.
    pub fn job_in_flight(&self) -> bool {
        self.job.is_some()
    }

    /// The most buckets and the most bytes any migration window admitted so
    /// far (each maximized on its own), for budget-compliance gates.
    pub fn peak_window(&self) -> (usize, u64) {
        self.peak_window
    }

    /// One control tick: decay heat, roll the budget window, drive the
    /// in-flight job (re-planning around lost nodes first, running waves as
    /// the budget admits them, finishing the 2PC once all waves ran) or —
    /// with no job in flight — evaluate every bucketed dataset for hot
    /// buckets and sustained imbalance, and warm deferred indexes when the
    /// tick ends up idle. Every decision is appended to the cluster's event
    /// log.
    pub fn tick(&mut self, cluster: &mut Cluster) -> Result<()> {
        self.ticks += 1;
        if self.ticks - self.window_start >= self.config.budget.window_ticks.max(1) {
            self.window_start = self.ticks;
            self.window_buckets = 0;
            self.window_bytes = 0;
        }
        cluster.heat.decay();

        let start = cluster.events(0).len();
        if self.job.is_some() {
            self.drive_job(cluster)?;
        } else {
            // Health monitoring: a degraded dataset with a registered repair
            // feed is restored before anything else — serving every bucket
            // again outranks rebalancing the healthy ones.
            self.auto_repair(cluster)?;
            self.evaluate(cluster)?;
        }
        let decided = cluster.events(start).iter().any(|e| e.decision().is_some());
        if self.job.is_none() && !decided {
            for ds in cluster.controller.dataset_ids() {
                cluster.admin().warm_indexes(ds)?;
            }
        }
        Ok(())
    }

    /// Restores every degraded dataset that has a registered repair feed by
    /// driving [`crate::cluster::Admin::repair_dataset`]; each committed
    /// repair is logged as [`ControlDecision::Repaired`].
    fn auto_repair(&self, cluster: &mut Cluster) -> Result<()> {
        for (&dataset, feed) in &self.repair_feeds {
            let Some(repair) = cluster.admin().repair_dataset(dataset, feed)? else {
                continue;
            };
            if repair.outcome == RebalanceOutcome::Committed {
                cluster.record(Event::Control(ControlDecision::Repaired {
                    tick: self.ticks,
                    dataset,
                    rebalance: repair.rebalance_id,
                    buckets: repair.buckets_moved,
                    records: repair.entries_moved,
                }));
            }
        }
        Ok(())
    }

    /// Drives the in-flight job one tick's worth: before every wave, re-plan
    /// around any participant lost since the last one (so no wave trips over
    /// it) and stop for this tick once the window budget refuses the next
    /// wave; when every wave ran, finish the three-phase protocol through
    /// [`RebalanceJob::drive`].
    fn drive_job(&mut self, cluster: &mut Cluster) -> Result<()> {
        let Some(mut job) = self.job.take() else {
            return Ok(());
        };
        let (tick, dataset, rebalance) = (self.ticks, job.dataset(), job.rebalance_id());
        let outcome = match self.run_admitted_waves(cluster, &mut job) {
            Ok(false) => {
                self.job = Some(job);
                return Ok(());
            }
            Ok(true) => job.drive(cluster).map(|done| done.outcome),
            Err(e) => {
                job.settle(cluster);
                Err(e)
            }
        };
        if outcome.is_ok() {
            self.cooldown_until.insert(dataset, tick + COOLDOWN_TICKS);
        }
        let decision = if matches!(outcome, Ok(RebalanceOutcome::Committed)) {
            self.streaks.insert(dataset, 0);
            ControlDecision::Committed {
                tick,
                dataset,
                rebalance,
                bytes: job.bytes_shipped(),
            }
        } else {
            ControlDecision::Aborted {
                tick,
                dataset,
                rebalance,
            }
        };
        cluster.record(Event::Control(decision));
        outcome.map(|_| ())
    }

    /// Runs the job's waves while the window budget admits them. Returns
    /// whether every wave has run (false: the budget deferred the next one).
    fn run_admitted_waves(
        &mut self,
        cluster: &mut Cluster,
        job: &mut RebalanceJob,
    ) -> Result<bool> {
        let dataset = job.dataset();
        loop {
            // Health monitoring: a no-op unless a participant was lost.
            let replan = job.replan_wave(cluster)?;
            if !replan.is_noop() {
                cluster.record(Event::Control(ControlDecision::Replanned {
                    tick: self.ticks,
                    dataset,
                    lost_nodes: replan.lost_nodes,
                    rerouted: replan.rerouted,
                }));
            }
            let Some(next) = job.waves().get(job.completed_waves()) else {
                return Ok(true);
            };
            let (wave_buckets, wave_bytes) = (next.len(), next.iter().map(|m| m.bytes).sum());
            if !self.config.budget.admits(
                self.window_buckets,
                self.window_bytes,
                wave_buckets,
                wave_bytes,
            ) {
                cluster.record(Event::Control(ControlDecision::DeferredByBudget {
                    tick: self.ticks,
                    dataset,
                    wave_buckets,
                    wave_bytes,
                }));
                return Ok(false);
            }
            let wave = job.run_wave(cluster)?;
            self.window_buckets += wave.moves;
            self.window_bytes += wave.bytes;
            self.peak_window = (
                self.peak_window.0.max(self.window_buckets),
                self.peak_window.1.max(self.window_bytes),
            );
        }
    }

    /// Splits the dataset's hottest buckets (those above the hot-bucket op
    /// budget), bounded per tick, then absorbs the finer-grained local
    /// directories into the CC's copy so routing and planning see the
    /// children.
    fn split_hot_buckets(&self, cluster: &mut Cluster, dataset: DatasetId) -> Result<()> {
        let snapshot = cluster.heat_ops_snapshot(dataset);
        let mut hot: Vec<(u64, BucketId)> = snapshot
            .iter()
            .filter(|(_, h)| h.ops() >= self.config.hot_bucket_ops.max(1))
            .map(|(b, h)| (h.ops(), *b))
            .collect();
        // Hottest first; bucket id breaks ties deterministically.
        hot.sort_by(|a, b| (b.0, a.1).cmp(&(a.0, b.1)));
        hot.truncate(MAX_HOT_SPLITS_PER_TICK);
        let mut splits = 0;
        for (ops, bucket) in hot {
            // The owner according to the partitions' local directories.
            let owner = cluster
                .local_directories(dataset)?
                .into_iter()
                .find(|(_, buckets)| buckets.contains(&bucket))
                .map(|(p, _)| p);
            let Some(owner) = owner else { continue };
            let split = cluster
                .store_mut(owner, dataset)?
                .primary
                .split_bucket(bucket);
            // A bucket at max depth (or with splits suspended) cannot spread
            // further; the rebalance path still moves it whole.
            let Ok((lo, hi)) = split else { continue };
            cluster.heat.on_split(dataset, bucket, lo, hi);
            splits += 1;
            cluster.record(Event::Control(ControlDecision::HotSplit {
                tick: self.ticks,
                dataset,
                bucket,
                ops,
            }));
        }
        if splits > 0 {
            cluster.absorb_local_splits(dataset)?;
        }
        Ok(())
    }

    /// Monitor/decide with no job in flight: hot-bucket splits first, then
    /// threshold + hysteresis + cooldown per dataset; the first dataset
    /// that qualifies gets the (single) auto-planned job.
    fn evaluate(&mut self, cluster: &mut Cluster) -> Result<()> {
        let tick = self.ticks;
        for dataset in cluster.controller.dataset_ids() {
            if !cluster.scheme_of(dataset)?.is_bucketed() {
                continue;
            }
            // A job in flight routes its writes through the CC's directory,
            // which must stay the plan's old directory until the commit (a
            // job suspends splits only from `init` on).
            let job_in_flight = cluster.active_rebalances.contains_key(&dataset);
            if cluster.heat_tracking_enabled() && !job_in_flight {
                self.split_hot_buckets(cluster, dataset)?;
            }
            let heat = cluster.admin().heat(dataset)?;
            let imbalance = heat.imbalance(self.config.op_weight_bytes);
            if imbalance <= self.config.imbalance_threshold {
                self.streaks.insert(dataset, 0);
                continue;
            }
            if let Some(&until) = self.cooldown_until.get(&dataset) {
                if tick < until {
                    self.streaks.insert(dataset, 0);
                    cluster.record(Event::Control(ControlDecision::SuppressedByCooldown {
                        tick,
                        dataset,
                        imbalance,
                        until,
                    }));
                    continue;
                }
            }
            let streak = self.streaks.entry(dataset).or_insert(0);
            *streak += 1;
            let streak = *streak;
            if streak < HYSTERESIS_TICKS {
                cluster.record(Event::Control(ControlDecision::SuppressedByHysteresis {
                    tick,
                    dataset,
                    imbalance,
                    streak,
                }));
                continue;
            }
            if self.job.is_some() {
                // One auto-planned job at a time; this dataset stays
                // imbalanced and will qualify again once the job finishes.
                continue;
            }
            let loads = heat.bucket_loads(self.config.op_weight_bytes);
            let target = cluster.topology().clone();
            let cap = MAX_CONCURRENT_MOVES
                .min(self.config.budget.max_buckets_per_window)
                .max(1);
            let mut job = RebalanceJob::plan_with_loads(cluster, dataset, &target, cap, &loads)?;
            if job.plan_ref().is_noop() {
                job.abort(cluster)?;
                job.finalize(cluster)?;
                self.cooldown_until.insert(dataset, tick + COOLDOWN_TICKS);
                self.streaks.insert(dataset, 0);
                cluster.record(Event::Control(ControlDecision::NoImprovement {
                    tick,
                    dataset,
                    imbalance,
                }));
                continue;
            }
            job.init(cluster)?;
            self.streaks.insert(dataset, 0);
            cluster.record(Event::Control(ControlDecision::Triggered {
                tick,
                dataset,
                imbalance,
                moves: job.plan_ref().num_moves(),
                bytes: job.plan_ref().total_bytes_moved(),
            }));
            self.job = Some(job);
            // Start moving immediately, within this tick's budget share.
            self.drive_job(cluster)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetSpec;
    use dynahash_core::Scheme;
    use dynahash_lsm::entry::Key;
    use dynahash_lsm::Bytes;

    fn record(i: u64) -> (Key, Bytes) {
        (Key::from_u64(i), Bytes::from(vec![(i % 251) as u8; 48]))
    }

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
        let mut session = cluster.session(ds).unwrap();
        session.ingest(&mut cluster, (0..n).map(record)).unwrap();
        (cluster, ds)
    }

    /// The control decisions in the cluster's event log, oldest first.
    fn decisions(cluster: &Cluster) -> Vec<ControlDecision> {
        (cluster.events(0).iter())
            .filter_map(Event::decision)
            .cloned()
            .collect()
    }

    #[test]
    fn heat_map_counts_decays_and_splits() {
        let map = HeatCell::default();
        let b = BucketId { bits: 1, depth: 2 };
        map.note_read(0, b);
        assert!(map.ops_snapshot(0).is_empty(), "disarmed: nothing counted");
        map.arm();
        for _ in 0..8 {
            map.note_read(0, b);
        }
        map.note_write(0, b);
        let snap = map.ops_snapshot(0);
        assert_eq!(snap.get(&b).map(|h| (h.reads, h.writes)), Some((8, 1)));
        map.decay();
        let snap = map.ops_snapshot(0);
        assert_eq!(snap.get(&b).map(|h| h.ops()), Some(4));
        let (lo, hi) = b.split();
        map.on_split(0, b, lo, hi);
        let snap = map.ops_snapshot(0);
        assert!(!snap.contains_key(&b), "parent heat retired");
        assert_eq!(snap.get(&lo).map(|h| h.ops()), Some(2));
        assert_eq!(snap.get(&hi).map(|h| h.ops()), Some(2));
        // decay to zero forgets the bucket entirely
        for _ in 0..8 {
            map.decay();
        }
        assert!(map.ops_snapshot(0).is_empty());
    }

    #[test]
    fn disarmed_heat_records_nothing_and_costs_one_check() {
        let (mut cluster, ds) = loaded(2, 200);
        assert!(!cluster.heat_tracking_enabled());
        // A twin armed and disarmed before the same reads leaves no trace.
        let (mut twin, twin_ds) = loaded(2, 200);
        twin.set_heat_tracking(true);
        twin.set_heat_tracking(false);
        for (c, d) in [(&cluster, ds), (&twin, twin_ds)] {
            let mut session = c.session(d).unwrap();
            for i in 0..50u64 {
                session.get(c, &record(i).0).unwrap();
            }
            assert!(c.heat_ops_snapshot(d).is_empty());
        }
        let contents = |c: &mut Cluster, d| c.session(d).unwrap().collect_records(c).unwrap();
        assert_eq!(contents(&mut cluster, ds), contents(&mut twin, twin_ds));
        assert_eq!(
            cluster.dataset_primary_bytes(ds).unwrap(),
            twin.dataset_primary_bytes(twin_ds).unwrap()
        );
        let imbalance = |c: &mut Cluster, d| c.admin().heat(d).unwrap().imbalance(1024);
        assert_eq!(imbalance(&mut cluster, ds), imbalance(&mut twin, twin_ds));
        assert!(decisions(&twin).is_empty());

        let mut session = cluster.session(ds).unwrap();
        cluster.set_heat_tracking(true);
        for i in 0..50u64 {
            session.get(&cluster, &record(i).0).unwrap();
        }
        let snap = cluster.heat_ops_snapshot(ds);
        let reads: u64 = snap.values().map(|h| h.reads).sum();
        assert_eq!(reads, 50);
        session
            .put(&mut cluster, Key::from_u64(9999), Bytes::from(vec![1]))
            .unwrap();
        let snap = cluster.heat_ops_snapshot(ds);
        let writes: u64 = snap.values().map(|h| h.writes).sum();
        assert_eq!(writes, 1);
        cluster.set_heat_tracking(false);
        assert!(cluster.heat_ops_snapshot(ds).is_empty());
    }

    #[test]
    fn heat_report_merges_ops_with_residency() {
        let (mut cluster, ds) = loaded(2, 400);
        cluster.set_heat_tracking(true);
        let mut session = cluster.session(ds).unwrap();
        for i in 0..100u64 {
            session.get(&cluster, &record(i % 4).0).unwrap();
        }
        let report = cluster.admin().heat(ds).unwrap();
        assert_eq!(report.per_partition.len(), 4);
        let total_reads: u64 = report.per_bucket.values().map(|h| h.reads).sum();
        assert_eq!(total_reads, 100);
        assert!(report.per_bucket.values().all(|h| h.resident_bytes > 0));
        // four hot keys on 32 uniform buckets: the op-weighted imbalance
        // must dwarf the byte-only imbalance
        assert!(report.imbalance(10_000) > report.imbalance(0));
    }

    #[test]
    fn sustained_imbalance_triggers_after_hysteresis_and_respects_cooldown() {
        let (mut cluster, ds) = loaded(2, 2000);
        cluster.add_node().unwrap();
        cluster.add_node().unwrap();
        cluster.set_heat_tracking(true);
        let config = ControlConfig {
            imbalance_threshold: 0.2,
            hot_bucket_ops: u64::MAX, // isolate the rebalance path
            ..ControlConfig::default()
        };
        let mut plane = ControlPlane::new(config);
        let mut session = cluster.session(ds).unwrap();
        let mut ticks = 0;
        for _ in 0..20 {
            // keep a two-key hotspot hot so the imbalance is sustained
            for i in 0..200u64 {
                session.get(&cluster, &record(i % 2).0).unwrap();
            }
            plane.tick(&mut cluster).unwrap();
            ticks += 1;
        }
        // The hotspot cools off: within 120 ticks the plane is idle and the
        // dataset below the threshold.
        let imbalance = |c: &mut Cluster| {
            c.admin()
                .heat(ds)
                .unwrap()
                .imbalance(config.op_weight_bytes)
        };
        while plane.job_in_flight() || imbalance(&mut cluster) > config.imbalance_threshold {
            assert!(ticks < 120, "not converged within 120 ticks");
            plane.tick(&mut cluster).unwrap();
            ticks += 1;
        }
        let decisions = decisions(&cluster);
        let committed: Vec<u64> = (decisions.iter())
            .filter_map(|d| match d {
                ControlDecision::Committed { tick, dataset, .. } => {
                    assert_eq!(*dataset, ds);
                    Some(*tick)
                }
                _ => None,
            })
            .collect();
        let triggers: Vec<u64> = (decisions.iter())
            .filter_map(|d| match d {
                ControlDecision::Triggered { tick, .. } => Some(*tick),
                _ => None,
            })
            .collect();
        assert!(!triggers.is_empty(), "no trigger: {decisions:?}");
        assert!(
            (decisions.iter()).any(|d| matches!(d, ControlDecision::SuppressedByHysteresis { .. })),
            "hysteresis must suppress the first imbalanced tick"
        );
        assert!(!committed.is_empty());
        for c in &committed {
            for t in &triggers {
                assert!(
                    *t <= *c || *t >= c + COOLDOWN_TICKS,
                    "trigger at t{t} violates the cooldown after the commit at t{c}"
                );
            }
        }
        cluster.check_dataset_consistency(ds).unwrap();
        // auto-rebalancing moved records, never changed one
        for i in 0..2000u64 {
            let (k, v) = record(i);
            assert_eq!(session.get(&cluster, &k).unwrap(), Some(v), "key {i}");
        }
    }

    #[test]
    fn budget_defers_waves_across_ticks_and_windows_stay_capped() {
        let (mut cluster, ds) = loaded(2, 4000);
        cluster.add_node().unwrap();
        cluster.set_heat_tracking(true);
        let budget = MigrationBudget {
            max_buckets_per_window: 2,
            max_bytes_per_window: 1 << 30,
            window_ticks: 2,
        };
        let mut plane = ControlPlane::new(ControlConfig {
            imbalance_threshold: 0.2,
            budget,
            hot_bucket_ops: u64::MAX,
            ..ControlConfig::default()
        });
        let mut session = cluster.session(ds).unwrap();
        for _ in 0..40 {
            for i in 0..200u64 {
                session.get(&cluster, &record(i % 8).0).unwrap();
            }
            plane.tick(&mut cluster).unwrap();
        }
        let decisions = decisions(&cluster);
        assert!((decisions.iter()).any(|d| matches!(d, ControlDecision::Triggered { .. })));
        assert!(
            (decisions.iter()).any(|d| matches!(d, ControlDecision::DeferredByBudget { .. })),
            "a 2-buckets-per-window budget must defer"
        );
        let (peak_buckets, _) = plane.peak_window();
        assert!(
            peak_buckets <= budget.max_buckets_per_window,
            "window admitted {peak_buckets} buckets over the budget {}",
            budget.max_buckets_per_window
        );
        cluster.check_dataset_consistency(ds).unwrap();
    }

    #[test]
    fn hot_bucket_split_spreads_single_bucket_heat() {
        let mut cluster = Cluster::new(2);
        let ds = cluster
            .create_dataset(DatasetSpec::new("hot", Scheme::dynahash(1 << 20, 4)))
            .unwrap();
        let mut session = cluster.session(ds).unwrap();
        session.ingest(&mut cluster, (0..2000).map(record)).unwrap();
        cluster.set_heat_tracking(true);
        let buckets_before = cluster.local_directories(ds).unwrap();
        let count_before: usize = buckets_before.iter().map(|(_, b)| b.len()).sum();
        let mut plane = ControlPlane::new(ControlConfig {
            hot_bucket_ops: 100,
            imbalance_threshold: f64::INFINITY, // isolate the split path
            ..ControlConfig::default()
        });
        for _ in 0..4 {
            for i in 0..400u64 {
                session.get(&cluster, &record(i % 3).0).unwrap();
            }
            plane.tick(&mut cluster).unwrap();
        }
        let decisions = decisions(&cluster);
        assert!(
            (decisions.iter()).any(|d| matches!(d, ControlDecision::HotSplit { .. })),
            "hot bucket never split: {decisions:?}"
        );
        let buckets_after: usize = cluster
            .local_directories(ds)
            .unwrap()
            .iter()
            .map(|(_, b)| b.len())
            .sum();
        assert!(buckets_after > count_before);
        cluster.check_dataset_consistency(ds).unwrap();
        // the CC directory absorbed the children (sessions keep routing)
        cluster.admin().check_directory_invariants(ds).unwrap();
        for i in 0..100u64 {
            let (k, v) = record(i);
            assert_eq!(session.get(&cluster, &k).unwrap(), Some(v));
        }
    }

    /// A job routes its writes through the CC's directory until the commit,
    /// so the hot-split path leaves a dataset with a job in flight alone —
    /// also before `init`, which is where the job suspends splits itself.
    #[test]
    fn a_dataset_with_a_job_in_flight_is_not_hot_split() {
        let mut cluster = Cluster::new(2);
        let ds = cluster
            .create_dataset(DatasetSpec::new("hot", Scheme::dynahash(1 << 20, 4)))
            .unwrap();
        let mut session = cluster.session(ds).unwrap();
        session.ingest(&mut cluster, (0..2000).map(record)).unwrap();
        cluster.set_heat_tracking(true);
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        let mut job = crate::RebalanceJob::plan(&mut cluster, ds, &target, 4).unwrap();
        let version = cluster.controller.routing_version(ds).unwrap();
        let mut plane = ControlPlane::new(ControlConfig {
            hot_bucket_ops: 100,
            imbalance_threshold: f64::INFINITY,
            ..ControlConfig::default()
        });
        for _ in 0..4 {
            for i in 0..400u64 {
                session.get(&cluster, &record(i % 3).0).unwrap();
            }
            plane.tick(&mut cluster).unwrap();
        }
        let decisions = decisions(&cluster);
        assert!(
            !(decisions.iter()).any(|d| matches!(d, ControlDecision::HotSplit { .. })),
            "a planned dataset was split: {decisions:?}"
        );
        assert_eq!(cluster.controller.routing_version(ds).unwrap(), version);
        job.init(&mut cluster).unwrap();
        let report = job.drive(&mut cluster).unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        cluster.check_dataset_consistency(ds).unwrap();
    }

    #[test]
    fn idle_ticks_warm_deferred_indexes() {
        let mut cluster = Cluster::new(2);
        let spec = DatasetSpec::new("events", Scheme::StaticHash { num_buckets: 16 })
            .with_secondary_index(crate::dataset::SecondaryIndexDef::new(
                "idx",
                |p: &[u8]| p.first().map(|&b| Key::from_u64(b as u64)),
            ));
        let ds = cluster.create_dataset(spec).unwrap();
        let mut session = cluster.session(ds).unwrap();
        session.ingest(&mut cluster, (0..1200).map(record)).unwrap();
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        // the deferred secondary rebuild leaves stashes behind for the drain
        cluster
            .rebalance(ds, &target, crate::rebalance::RebalanceOptions::none())
            .unwrap();
        // A threshold the post-rebalance residual imbalance cannot cross, so
        // every tick is idle and the warm task is the only thing happening.
        let mut plane = ControlPlane::new(ControlConfig {
            imbalance_threshold: 100.0,
            ..ControlConfig::default()
        });
        let deferred = |cluster: &Cluster| {
            (cluster.topology().partitions().into_iter())
                .any(|p| cluster.store(p, ds).unwrap().has_deferred_secondary())
        };
        assert!(deferred(&cluster), "the deferred rebuild left stashes");
        let since = cluster.events(0).len();
        for _ in 0..3 {
            plane.tick(&mut cluster).unwrap();
        }
        assert!(
            cluster.events(since).iter().all(|e| e.decision().is_none()),
            "every tick was idle"
        );
        assert!(
            !deferred(&cluster),
            "idle ticks must drain the deferred stashes"
        );
        assert_eq!(cluster.admin().warm_indexes(ds).unwrap(), 0);
    }
}
