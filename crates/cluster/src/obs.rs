//! The event log: one ordered record of what the control, job and fault
//! planes did.
//!
//! Section V's protocol runs off one durable, ordered log of BEGIN / COMMIT /
//! DONE records. The planes around it report the same way: every control
//! decision, every job step that something reads, every transient fault or
//! speculated straggler and every lost node is appended as an [`Event`] to
//! one append-only
//! log on the cluster. An event's sequence number is its position,
//! [`Cluster::events`] is the one way to read it, and nothing but an append
//! changes it. There are no other copies; every figure is a fold over the
//! log:
//!
//! * the control plane's counters are counts of its [`ControlDecision`]s,
//!   and a tick's decisions are the events the tick appended;
//! * [`FaultStats`](crate::fault::FaultStats)'s counters are folded by
//!   [`Cluster::fault_stats`] (only the lost buckets are stored state,
//!   because the write path reads them);
//! * a [`RebalanceReport`](crate::rebalance::RebalanceReport)'s retries and
//!   reroutes count the job's own events;
//! * the jobs in flight of [`Admin::health`](crate::cluster::Admin::health)
//!   are the jobs planned and not yet finalized, with their progress
//!   ([`JobProgress`]).
//!
//! Nothing on the get / put / ingest path appends an event, so the data path
//! pays nothing for the log. Because the cluster is deterministic, the log is
//! also a golden trace: one seed prints the same log, byte for byte, every
//! run.
//!
//! [`Cluster::events`]: crate::cluster::Cluster::events
//! [`Cluster::fault_stats`]: crate::cluster::Cluster::fault_stats

use std::collections::BTreeMap;

use dynahash_core::{BucketId, NodeId, RebalanceOutcome};
use dynahash_lsm::wal::RebalanceId;

use crate::dataset::DatasetId;
use crate::sim::SimDuration;

/// One entry of the cluster's event log.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A decision of the [`ControlPlane`](crate::control::ControlPlane).
    Control(ControlDecision),
    /// A job was planned: BEGIN is forced and its waves are scheduled.
    JobPlanned {
        /// The dataset the job moves.
        dataset: DatasetId,
        /// The job's rebalance-operation id.
        rebalance: RebalanceId,
        /// Scheduled waves.
        waves: usize,
    },
    /// One wave of a job ran.
    WaveRun {
        /// The job's rebalance-operation id.
        rebalance: RebalanceId,
        /// The wave index (0-based).
        wave: usize,
        /// Bucket moves the wave executed.
        moves: usize,
        /// Primary-index bytes the wave shipped.
        bytes: u64,
        /// The wave's simulated makespan.
        makespan: SimDuration,
    },
    /// A job re-planned around permanently lost participants.
    Replanned {
        /// The job's rebalance-operation id.
        rebalance: RebalanceId,
        /// Moves redirected (or canceled back to their source).
        rerouted: u64,
        /// Rerouted moves that ship again from their live source.
        reshipped: u64,
        /// Waves appended after the waves already run.
        waves_appended: usize,
    },
    /// A job reached its terminal state (DONE is forced).
    Finalized {
        /// The job's rebalance-operation id.
        rebalance: RebalanceId,
        /// Committed or aborted.
        outcome: RebalanceOutcome,
        /// Lost buckets the job restored (a repair's committed scope).
        repaired: u64,
    },
    /// One attempt of a bucket transfer failed transiently.
    TransientFault {
        /// The job's rebalance-operation id.
        rebalance: RebalanceId,
        /// The bucket whose transfer failed.
        bucket: BucketId,
        /// The backoff charged before the retry; `None` when the retry
        /// budget was exhausted and the wave failed instead.
        backoff: Option<SimDuration>,
    },
    /// A straggling transfer was shipped again speculatively.
    Speculated {
        /// The job's rebalance-operation id.
        rebalance: RebalanceId,
        /// True when the backup finished strictly before the original.
        won: bool,
    },
    /// A node was lost for good
    /// ([`Cluster::lose_node`](crate::cluster::Cluster::lose_node)).
    NodeLost {
        /// The lost node.
        node: NodeId,
    },
}

impl Event {
    /// The control decision this event records, if it is one.
    pub fn decision(&self) -> Option<&ControlDecision> {
        match self {
            Event::Control(decision) => Some(decision),
            _ => None,
        }
    }
}

/// One decision of the control plane, stamped with the tick it was made at.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlDecision {
    /// The dataset crossed the threshold and a rebalance was planned.
    Triggered {
        /// Tick of the decision.
        tick: u64,
        /// The imbalanced dataset.
        dataset: DatasetId,
        /// Measured imbalance at trigger time.
        imbalance: f64,
        /// Bucket moves in the auto-planned job.
        moves: usize,
        /// Bytes the plan intends to ship.
        bytes: u64,
    },
    /// Imbalanced, but not yet for `hysteresis_ticks` consecutive ticks.
    SuppressedByHysteresis {
        /// Tick of the decision.
        tick: u64,
        /// The imbalanced dataset.
        dataset: DatasetId,
        /// Measured imbalance.
        imbalance: f64,
        /// Consecutive imbalanced ticks so far (including this one).
        streak: u32,
    },
    /// Imbalanced, but a recent job put the dataset in cooldown.
    SuppressedByCooldown {
        /// Tick of the decision.
        tick: u64,
        /// The imbalanced dataset.
        dataset: DatasetId,
        /// Measured imbalance.
        imbalance: f64,
        /// First tick at which triggers are allowed again.
        until: u64,
    },
    /// The next wave did not fit the window's remaining migration budget.
    DeferredByBudget {
        /// Tick of the decision.
        tick: u64,
        /// Dataset of the in-flight job.
        dataset: DatasetId,
        /// Moves in the deferred wave.
        wave_buckets: usize,
        /// Bytes the deferred wave would ship.
        wave_bytes: u64,
    },
    /// Imbalanced and triggered, but the balancer found no improving move.
    NoImprovement {
        /// Tick of the decision.
        tick: u64,
        /// The imbalanced dataset.
        dataset: DatasetId,
        /// Measured imbalance.
        imbalance: f64,
    },
    /// A bucket's decayed ops exceeded the heat budget and it was split.
    HotSplit {
        /// Tick of the decision.
        tick: u64,
        /// Dataset owning the bucket.
        dataset: DatasetId,
        /// The split bucket.
        bucket: BucketId,
        /// Its decayed op count at split time.
        ops: u64,
    },
    /// Health monitoring found a lost participant and re-planned around it.
    Replanned {
        /// Tick of the decision.
        tick: u64,
        /// Dataset of the in-flight job.
        dataset: DatasetId,
        /// The lost nodes re-planned around.
        lost_nodes: Vec<NodeId>,
        /// Moves rerouted to survivors.
        rerouted: u64,
    },
    /// The in-flight auto-planned job committed.
    Committed {
        /// Tick of the decision.
        tick: u64,
        /// The rebalanced dataset.
        dataset: DatasetId,
        /// The committed rebalance id.
        rebalance: RebalanceId,
        /// Bytes shipped in total.
        bytes: u64,
    },
    /// The in-flight auto-planned job aborted.
    Aborted {
        /// Tick of the decision.
        tick: u64,
        /// The dataset whose job aborted.
        dataset: DatasetId,
        /// The aborted rebalance id.
        rebalance: RebalanceId,
    },
    /// Health monitoring found a degraded dataset with a registered repair
    /// feed and restored its lost buckets.
    Repaired {
        /// Tick of the decision.
        tick: u64,
        /// The repaired dataset.
        dataset: DatasetId,
        /// The rebalance-operation id the repair ran under.
        rebalance: RebalanceId,
        /// Buckets restored.
        buckets: usize,
        /// Records restored from the feed.
        records: u64,
    },
}

/// Progress of one job in flight — a job with an [`Event::JobPlanned`] and
/// no [`Event::Finalized`] yet — as [`Admin::health`] reports it (Snippet
/// 3's `REBALANCE_STATUS` row).
///
/// [`Admin::health`]: crate::cluster::Admin::health
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobProgress {
    /// The dataset being moved.
    pub dataset: DatasetId,
    /// The job's rebalance-operation id.
    pub rebalance: RebalanceId,
    /// Waves run so far.
    pub waves_done: usize,
    /// Waves scheduled, the ones a re-plan appended included.
    pub waves_total: usize,
    /// Bytes shipped so far.
    pub bytes_shipped: u64,
    /// Simulated time to finish data movement at the mean makespan of the
    /// waves run so far (zero before the first wave and after the last).
    pub eta: SimDuration,
}

/// The jobs in flight among `events`, by rebalance id.
pub(crate) fn jobs_in_flight(events: &[Event]) -> Vec<JobProgress> {
    // Each job's progress with the sum of its waves' makespans.
    let mut jobs: BTreeMap<RebalanceId, (JobProgress, u64)> = BTreeMap::new();
    for event in events {
        match *event {
            Event::JobPlanned {
                dataset,
                rebalance,
                waves,
            } => {
                let job = JobProgress {
                    dataset,
                    rebalance,
                    waves_total: waves,
                    ..JobProgress::default()
                };
                jobs.insert(rebalance, (job, 0));
            }
            Event::WaveRun {
                rebalance,
                bytes,
                makespan,
                ..
            } => {
                if let Some((job, spent)) = jobs.get_mut(&rebalance) {
                    job.waves_done += 1;
                    job.bytes_shipped += bytes;
                    *spent += makespan.as_nanos();
                }
            }
            // A re-plan drops the waves not yet run and appends fresh ones.
            Event::Replanned {
                rebalance,
                waves_appended,
                ..
            } => {
                if let Some((job, _)) = jobs.get_mut(&rebalance) {
                    job.waves_total = job.waves_done + waves_appended;
                }
            }
            Event::Finalized { rebalance, .. } => {
                jobs.remove(&rebalance);
            }
            _ => {}
        }
    }
    jobs.into_values()
        .map(|(mut job, spent)| {
            if job.waves_done > 0 {
                let left = job.waves_total.saturating_sub(job.waves_done) as u64;
                job.eta = SimDuration::from_nanos(spent / job.waves_done as u64 * left);
            }
            job
        })
        .collect()
}
