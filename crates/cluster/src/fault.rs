//! The deterministic fault plane: seeded, replayable fault schedules
//! injected at the node/partition boundary.
//!
//! DynaHash's Section V-D enumerates the rebalance failure points; this
//! module turns them from terminal errors into *expected inputs*, and it is
//! the one vocabulary for them. A fault is a pair: a [`Fault`] — crash a
//! node, crash and restart it, lose it for good, restart the Cluster
//! Controller — and the [`StepPoint`] of the job driver it fires at. The six
//! cases of Section V-D are six such rows:
//!
//! | Section V-D | [`StepPoint`] | [`Fault`] | outcome |
//! |---|---|---|---|
//! | 1: NC fails before voting "prepared" | `BeforePrepare` | `CrashNode(n)` | abort |
//! | 2: NC fails after voting "prepared" | `AfterPrepare` | `CrashNode(n)` | commit |
//! | 3: CC fails before forcing COMMIT | `AfterPrepare` | `RestartController` | abort |
//! | 4: NC fails before acking "committed" | `AfterCommitLog` | `CrashNode(n)` | commit |
//! | 5: CC fails between COMMIT and DONE | `BeforeFinalize` | `RestartController` | commit |
//! | 6: CC fails after DONE | `AfterFinalize` | `RestartController` | commit |
//!
//! A [`FaultSchedule`] holds such rows next to what it derives, as a pure
//! function of a seed, for every bucket transfer: which attempts fail
//! transiently, and how often. Because every
//! decision is derived from the seed or scheduled up front — never taken from
//! wall-clock time or ambient randomness — a failing run replays exactly
//! from its seed, the same guarantee the soak fleet already gives for
//! workload generation.
//!
//! The consumers are:
//!
//! * [`RebalanceJob::run_wave`](crate::job::RebalanceJob::run_wave) — each
//!   bucket transfer consults [`FaultSchedule::transient_failure`] per
//!   attempt and retries up to [`MAX_TRANSFER_RETRIES`] times, charging the
//!   capped exponential [`backoff`] to the wave's [`NodeTimeline`](crate::sim::NodeTimeline)
//!   so retries cost simulated makespan;
//! * [`Cluster::fire_faults`] — the one function that applies a [`Fault`].
//!   `Cluster::rebalance` calls it at every boundary its driver passes, and
//!   the soak's churn loop after every round of waves, each handing over the
//!   in-flight job(s) a loss must re-plan and a controller restart may abort;
//! * [`Admin::health`](crate::cluster::Admin::health) — surfaces the
//!   [`FaultStats`] folded from the event log ([`Cluster::fault_stats`])
//!   plus per-node state and degraded datasets.
//!
//! Anything a scenario wants at a boundary that is not a fault — a query, a
//! feed batch, an assertion — is the callback of
//! [`RebalanceJob::drive_with`](crate::job::RebalanceJob::drive_with).
//!
//! The cluster always holds a schedule; the empty one, which it starts with
//! and [`FaultSchedule::none`] reinstalls, is the fault-free path, and every
//! consumer takes the exact code path it took before this module existed —
//! byte-identical, which `job.rs`'s `transient_faults_are_retried_and_absorbed`
//! asserts. A schedule holding only step faults leaves every transfer's
//! charges byte-identical too.

use std::collections::BTreeMap;

use dynahash_core::{BucketId, NodeId, PartitionId};
use dynahash_lsm::rng::SplitMix64;

use crate::cluster::Cluster;
use crate::dataset::DatasetId;
use crate::job::{RebalanceJob, StepPoint};
use crate::obs::{Event, JobProgress};
use crate::sim::SimDuration;
use crate::Result;

// ---------------------------------------------------------------- retries

/// Retries one bucket transfer gets after its first attempt (so
/// `MAX_TRANSFER_RETRIES + 1` attempts in total) before the wave fails.
pub const MAX_TRANSFER_RETRIES: u32 = 4;
const BASE_BACKOFF_NS: u64 = 1_000_000;
const MAX_BACKOFF_NS: u64 = 8_000_000;

/// The simulated wait charged to both endpoint nodes after failed attempt
/// `attempt` (zero-based) of a transfer: 1 ms doubled per attempt, capped at
/// 8 ms, so absorbed faults still cost makespan.
pub fn backoff(attempt: u32) -> SimDuration {
    // A 20-bit base shifted by at most 32 bits cannot overflow a u64.
    SimDuration((BASE_BACKOFF_NS << attempt.min(32)).min(MAX_BACKOFF_NS))
}

// ----------------------------------------------------------------- faults

/// What a scheduled fault does to the cluster when its [`StepPoint`] comes
/// (see the module docs for the Section V-D cases as rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Crash the node. It stays down — its uncommitted pending copies gone —
    /// until something recovers it; a job's `finalize` does.
    CrashNode(NodeId),
    /// Crash the node and bring every crashed node back at once (pending
    /// copies dropped): a restart between two steps.
    RestartNode(NodeId),
    /// Permanently lose the node: it never comes back, and every in-flight
    /// job re-plans around it
    /// ([`RebalanceJob::replan_wave`](crate::job::RebalanceJob::replan_wave))
    /// before anything else runs.
    LoseNode(NodeId),
    /// Crash and recover the Cluster Controller. What the recovered CC does
    /// is decided by its durable log alone
    /// ([`Cluster::restart_controller`]): a job with BEGIN but no COMMIT is
    /// aborted; COMMIT without DONE means re-driving the (idempotent) commit
    /// tasks, which `finalize` does anyway; DONE needs nothing.
    RestartController,
}

// -------------------------------------------------------------- schedule

/// A seeded, replayable schedule of faults.
///
/// Transient-failure decisions are a *pure function* of
/// `(seed, bucket, from, to, attempt)` — the schedule keeps no mutable
/// state for them — so two runs with the same schedule see the same faults
/// regardless of interleaving. Step faults are one-shot: they leave the
/// schedule when [`Cluster::fire_faults`] applies them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    seed: u64,
    /// Per-mille probability that one transfer attempt fails transiently.
    transient_per_mille: u16,
    /// Hard cap on transient failures injected into one transfer.
    max_transient_per_transfer: u32,
    /// Faults fired (once) when a driver passes the step point, in the
    /// order they were scheduled.
    step_faults: Vec<(StepPoint, Fault)>,
}

impl FaultSchedule {
    /// An empty schedule: injects nothing. Installing it disarms the fault
    /// plane.
    pub fn none() -> Self {
        FaultSchedule::default()
    }

    /// A schedule whose transient decisions derive from `seed`.
    pub fn seeded(seed: u64) -> Self {
        FaultSchedule {
            seed,
            ..FaultSchedule::default()
        }
    }

    /// Enables transient ship failures: each transfer attempt fails with
    /// probability `per_mille`/1000, at most `max_per_transfer` times per
    /// transfer. Keep `max_per_transfer <= MAX_TRANSFER_RETRIES` so
    /// every transient fault is absorbed by retry; a transfer that fails
    /// more often exhausts its retries and fails the wave.
    pub fn with_transient(mut self, per_mille: u16, max_per_transfer: u32) -> Self {
        self.transient_per_mille = per_mille.min(1000);
        self.max_transient_per_transfer = max_per_transfer;
        self
    }

    /// Schedules `fault` to fire once, when a driver passes `point`. Several
    /// faults at one point fire in the order they were scheduled.
    pub fn with_fault(mut self, point: StepPoint, fault: Fault) -> Self {
        self.step_faults.push((point, fault));
        self
    }

    /// True when the schedule injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.transient_per_mille == 0 && self.step_faults.is_empty()
    }

    /// Pure transient-failure decision for attempt `attempt` (zero-based)
    /// of shipping `bucket` from `from` to `to`. Attempts at or beyond the
    /// per-transfer cap never fail, so a capped schedule can always be
    /// absorbed by a retry budget of at least the cap.
    pub fn transient_failure(
        &self,
        bucket: BucketId,
        from: PartitionId,
        to: PartitionId,
        attempt: u32,
    ) -> bool {
        if self.transient_per_mille == 0 || attempt >= self.max_transient_per_transfer {
            return false;
        }
        let mix = self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ ((bucket.bits as u64) << 32)
            ^ ((bucket.depth as u64) << 24)
            ^ ((from.0 as u64) << 12)
            ^ ((to.0 as u64) << 4)
            ^ attempt as u64;
        let mut rng = SplitMix64::seed_from_u64(mix);
        rng.gen_range(0..1000) < self.transient_per_mille as u64
    }

    /// Removes and returns the faults scheduled at `point`, in scheduling
    /// order (one-shot: a second take for the same point returns nothing).
    fn take_faults(&mut self, point: StepPoint) -> Vec<Fault> {
        let due = self.step_faults.extract_if(.., |(at, _)| *at == point);
        due.map(|(_, fault)| fault).collect()
    }
}

impl Cluster {
    /// Applies every fault the installed schedule holds for `point`, in the
    /// order they were scheduled, and returns how many fired. `jobs` are the
    /// jobs in flight: a lost node is re-planned
    /// around by each of them — which a job accepts only during data
    /// movement — and a restarted controller aborts those its log shows
    /// begun but undecided. This is the only place a [`Fault`] is
    /// interpreted; `Cluster::rebalance` and the soak's churn loop both come
    /// here.
    pub fn fire_faults(&mut self, point: StepPoint, jobs: &mut [RebalanceJob]) -> Result<usize> {
        let due = self.faults.plane.take_faults(point);
        for fault in &due {
            match *fault {
                Fault::CrashNode(node) => self.crash_node(node)?,
                Fault::RestartNode(node) => {
                    self.crash_node(node)?;
                    self.recover_all_nodes();
                }
                Fault::LoseNode(node) => {
                    self.lose_node(node)?;
                    for job in jobs.iter_mut() {
                        job.replan_wave(self)?;
                    }
                }
                Fault::RestartController => {
                    let undecided = self.restart_controller().aborted_rebalances;
                    for job in jobs.iter_mut() {
                        if undecided.contains(&job.rebalance_id()) {
                            job.abort(self)?;
                        }
                    }
                }
            }
        }
        Ok(due.len())
    }
}

// ----------------------------------------------------------------- stats

/// The cluster's fault-plane state: the installed schedule and the losses
/// the write path must know about. Everything counted is folded from the
/// event log instead ([`Cluster::fault_stats`]).
#[derive(Default)]
pub(crate) struct FaultState {
    /// The installed schedule; an empty one (the default) means the
    /// fault-free path, byte-identical to pre-fault-plane behaviour.
    pub(crate) plane: FaultSchedule,
    /// Buckets whose only copy died with a lost node, per dataset.
    pub(crate) lost_buckets: BTreeMap<DatasetId, Vec<BucketId>>,
}

impl FaultState {
    /// Records `bucket` as lost (losing it twice records it once).
    pub(crate) fn mark_lost(&mut self, dataset: DatasetId, bucket: BucketId) {
        let lost = self.lost_buckets.entry(dataset).or_default();
        if !lost.contains(&bucket) {
            lost.push(bucket);
        }
    }

    /// True while `bucket` is lost and awaits repair.
    pub(crate) fn is_lost(&self, dataset: DatasetId, bucket: &BucketId) -> bool {
        self.lost_buckets
            .get(&dataset)
            .is_some_and(|lost| lost.contains(bucket))
    }

    /// A committed repair installed the restored `bucket`: it leaves the
    /// degraded set.
    pub(crate) fn mark_repaired(&mut self, dataset: DatasetId, bucket: BucketId) {
        if let Some(lost) = self.lost_buckets.get_mut(&dataset) {
            lost.retain(|b| *b != bucket);
            if lost.is_empty() {
                self.lost_buckets.remove(&dataset);
            }
        }
    }
}

/// The fault plane's counters and lost nodes, folded from the event log,
/// beside the lost buckets; surfaced by
/// [`Admin::health`](crate::cluster::Admin::health) and the soak report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient ship failures injected.
    pub transient_faults: u64,
    /// Transfer attempts re-tried after a transient failure (one short of
    /// `transient_faults` for every transfer that exhausted its retries).
    pub retries: u64,
    /// Total simulated backoff charged to retries.
    pub backoff: SimDuration,
    /// Bucket moves rerouted to a surviving node by `replan_wave`.
    pub reroutes: u64,
    /// Buckets re-shipped from a live source after their first destination
    /// was lost (the WAL's `ShippedMove` log names the components).
    pub reshipped: u64,
    /// Lost buckets restored by a committed repair job, cumulative.
    pub repaired_buckets: u64,
    /// Nodes permanently lost (never recovered).
    pub lost_nodes: Vec<NodeId>,
    /// Buckets whose only copy died with a lost node, per dataset. Such a
    /// dataset keeps serving every other bucket (degraded mode); a committed
    /// [`repair`](crate::repair) job removes its buckets from this map.
    pub lost_buckets: BTreeMap<DatasetId, Vec<BucketId>>,
}

impl FaultStats {
    /// Datasets currently serving in degraded mode (at least one bucket
    /// lost with a dead node).
    pub fn degraded_datasets(&self) -> Vec<DatasetId> {
        self.lost_buckets.keys().copied().collect()
    }

    /// The lost bucket ids of one dataset, sorted (empty when healthy), so
    /// repair progress is observable bucket by bucket.
    pub fn degraded_buckets(&self, dataset: DatasetId) -> Vec<BucketId> {
        let mut buckets = self.lost_buckets.get(&dataset).cloned().unwrap_or_default();
        buckets.sort();
        buckets
    }
}

impl Cluster {
    /// The fault-plane counters and the lost nodes so far, folded from the
    /// event log, with the lost buckets.
    pub fn fault_stats(&self) -> FaultStats {
        let mut stats = FaultStats {
            lost_buckets: self.faults.lost_buckets.clone(),
            ..FaultStats::default()
        };
        for event in self.events(0) {
            match *event {
                Event::TransientFault { backoff, .. } => {
                    stats.transient_faults += 1;
                    if let Some(wait) = backoff {
                        stats.retries += 1;
                        stats.backoff += wait;
                    }
                }
                Event::Replanned {
                    rerouted,
                    reshipped,
                    ..
                } => {
                    stats.reroutes += rerouted;
                    stats.reshipped += reshipped;
                }
                Event::Finalized { repaired, .. } => stats.repaired_buckets += repaired,
                Event::NodeLost { node } => stats.lost_nodes.push(node),
                _ => {}
            }
        }
        stats
    }
}

// ---------------------------------------------------------------- health

/// Liveness of one node, as reported by [`Admin::health`].
///
/// [`Admin::health`]: crate::cluster::Admin::health
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// Serving normally.
    Alive,
    /// Crashed; recoverable, with every written record intact.
    Crashed,
    /// Permanently lost; never returns.
    Lost,
}

/// The cluster health surface: per-node state, the fault-plane counters and
/// the jobs in flight, so operators (and the chaos gates) can see degraded
/// serving.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClusterHealth {
    /// Every node currently in the topology, with its state (nodes already
    /// removed with `remove_lost_node` survive in `stats.lost_nodes`).
    pub nodes: Vec<(NodeId, NodeState)>,
    /// The fault-plane counters.
    pub stats: FaultStats,
    /// Every job planned and not yet finalized, with its waves and bytes
    /// done and an ETA in simulated time.
    pub jobs: Vec<JobProgress>,
}

impl ClusterHealth {
    /// True when every node is alive and no dataset is degraded.
    pub fn all_healthy(&self) -> bool {
        self.nodes.iter().all(|(_, s)| *s == NodeState::Alive) && self.stats.lost_buckets.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_decisions_are_pure_and_capped() {
        let b = BucketId { bits: 5, depth: 3 };
        let s = FaultSchedule::seeded(42).with_transient(1000, 2);
        // per-mille 1000 ⇒ every attempt under the cap fails …
        assert!(s.transient_failure(b, PartitionId(0), PartitionId(1), 0));
        assert!(s.transient_failure(b, PartitionId(0), PartitionId(1), 1));
        // … and the cap guarantees attempt 2 succeeds.
        assert!(!s.transient_failure(b, PartitionId(0), PartitionId(1), 2));
        // pure: same inputs, same answer
        let s2 = FaultSchedule::seeded(42).with_transient(1000, 2);
        assert_eq!(
            s.transient_failure(b, PartitionId(0), PartitionId(1), 0),
            s2.transient_failure(b, PartitionId(0), PartitionId(1), 0)
        );
        // a different seed flips some decisions eventually
        let s3 = FaultSchedule::seeded(7).with_transient(500, 4);
        let flips = (0u32..4)
            .filter(|&a| s3.transient_failure(b, PartitionId(0), PartitionId(1), a))
            .count();
        assert!(flips < 4, "per-mille 500 cannot fail every attempt");
    }

    #[test]
    fn backoff_grows_and_caps() {
        assert_eq!(backoff(0), SimDuration::from_nanos(1_000_000));
        assert_eq!(backoff(1), SimDuration::from_nanos(2_000_000));
        assert_eq!(backoff(2), SimDuration::from_nanos(4_000_000));
        assert_eq!(backoff(3), SimDuration::from_nanos(8_000_000));
        assert_eq!(backoff(10).as_nanos(), MAX_BACKOFF_NS, "capped");
        assert_eq!(backoff(63), backoff(10), "no shift overflow");
    }

    #[test]
    fn step_faults_are_one_shot_and_keep_their_order() {
        let at = StepPoint::AfterWave(2);
        let mut s = FaultSchedule::seeded(1)
            .with_fault(at, Fault::LoseNode(NodeId(3)))
            .with_fault(StepPoint::AfterPrepare, Fault::RestartController)
            .with_fault(at, Fault::CrashNode(NodeId(1)));
        assert!(!s.is_empty());
        assert_eq!(s.take_faults(StepPoint::AfterWave(0)), vec![]);
        assert_eq!(
            s.take_faults(at),
            vec![Fault::LoseNode(NodeId(3)), Fault::CrashNode(NodeId(1))]
        );
        assert_eq!(s.take_faults(at), vec![], "one-shot");
        assert_eq!(
            s.take_faults(StepPoint::AfterPrepare),
            vec![Fault::RestartController]
        );
        assert!(s.is_empty());
    }

    #[test]
    fn empty_schedule_injects_nothing() {
        let s = FaultSchedule::none();
        assert!(s.is_empty());
        let b = BucketId { bits: 0, depth: 0 };
        assert!(!s.transient_failure(b, PartitionId(0), PartitionId(1), 0));
    }
}
