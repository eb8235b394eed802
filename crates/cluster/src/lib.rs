//! A simulated shared-nothing parallel cluster for DynaHash.
//!
//! This crate is the distributed-systems substrate of the reproduction: a
//! single-process, deterministic simulation of an AsterixDB-style cluster
//! consisting of one Cluster Controller and multiple Node Controllers, each
//! hosting several storage partitions backed by the `dynahash-lsm` storage
//! engine. Each piece of routing state lives once: the
//! [`cluster::Cluster`] keeps every partition in one table indexed by
//! partition id (the topology says which node hosts it), a Node Controller is only its
//! [`fault::NodeState`], and a partition's local directory is its primary
//! index's bucket map ([`dynahash_lsm::BucketedLsmTree`]).
//!
//! The main entry point is [`cluster::Cluster`]. The crate provides:
//!
//! * dataset creation with a [`dynahash_core::Scheme`] and local secondary
//!   indexes ([`dataset`]);
//! * the client-facing [`session::Session`] layer — the only sanctioned way
//!   to read and write data: sessions cache a versioned directory snapshot
//!   (the crate's one routing copy) and handle stale-directory redirects
//!   transparently ([`session`]);
//! * data feeds for ingestion with cost accounting ([`feed`],
//!   [`session::Session::ingest`]);
//! * query execution primitives with a per-node cost model ([`query`]);
//! * the staged-transaction engine — the resumable
//!   [`job::RebalanceJob`] state machine implementing the paper's
//!   three-phase, two-phase-commit protocol wave by wave, and
//!   [`job::RebalanceJob::drive`], the one routine every caller finishes a
//!   job through ([`job`]) — plus the one-shot rebalance entry point over
//!   it and the global rebalancing baseline ([`rebalance`]);
//! * the crash/recover primitives ([`recovery`]) and the deterministic fault
//!   plane over them — seeded, replayable [`fault::FaultSchedule`]s of
//!   transient ship failures and [`fault::Fault`]s scheduled at
//!   a job's step boundaries: the six failure cases of Section V-D, node
//!   restarts, and permanent losses that
//!   [`job::RebalanceJob::replan_wave`] survives by rerouting the dead
//!   node's moves to survivors ([`fault`]);
//! * the repair planner, which restores a degraded dataset's lost buckets by
//!   running the same engine with the buckets staged from an
//!   operator-supplied feed ([`repair`]);
//! * the event log — one ordered record of control decisions, job steps and
//!   fault facts, read through [`cluster::Cluster::events`]; counters, job
//!   progress and fault statistics are folds over it ([`obs`]);
//! * the hardware cost model and simulated-time accounting ([`sim`]).

// The panic audit: production code propagates a typed error; a site that
// cannot fail says why in an `#[expect(<lint>, reason = "…")]`, counted
// against LINT_BUDGET.toml by dhlint.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod cluster;
pub mod control;
pub mod controller;
pub mod dataset;
pub mod fault;
pub mod feed;
pub mod job;
pub mod obs;
pub mod partition;
pub mod query;
pub mod rebalance;
pub mod recovery;
pub mod repair;
pub mod session;
pub mod sim;

pub use cluster::{Admin, Cluster, ClusterConfig};
pub use control::{ControlConfig, ControlPlane, HeatReport, COOLDOWN_TICKS, HYSTERESIS_TICKS};
pub use controller::ClusterController;
pub use dataset::{DatasetId, DatasetMeta, DatasetSpec, SecondaryIndexDef};
pub use fault::{ClusterHealth, Fault, FaultSchedule, FaultStats, NodeState};
pub use feed::{split_into_batches, IngestReport};
pub use job::{JobState, RebalanceJob, ReplanReport, StepPoint, WaveReport};
pub use obs::{ControlDecision, Event, JobProgress};
pub use partition::{Partition, PartitionDataset};
pub use query::{in_key_order, KeyTable, QueryExecutor, QueryReport};
pub use rebalance::{PhaseTimes, RebalanceOptions, RebalanceReport};
pub use recovery::RecoveryReport;
pub use session::{RouteError, Session, SessionMetrics};
pub use sim::{NodeTimeline, SimDuration};

use dynahash_core::{BucketId, CoreError, NodeId, PartitionId};
use dynahash_lsm::StorageError;

use crate::dataset::DatasetId as DsId;

/// Errors produced by the cluster simulation.
#[derive(Debug)]
pub enum ClusterError {
    /// The dataset does not exist.
    UnknownDataset(DsId),
    /// The partition does not exist in the current topology.
    UnknownPartition(PartitionId),
    /// The node does not exist.
    UnknownNode(NodeId),
    /// The node is down.
    NodeDown(NodeId),
    /// The node is permanently lost: it will never recover, and a rebalance
    /// job touching it must re-plan around it instead of waiting.
    NodeLost(NodeId),
    /// Writes to the dataset are briefly blocked while a rebalance runs its
    /// prepare/commit window (Section V-C).
    DatasetWriteBlocked(DsId),
    /// The key routes to a bucket whose only copy died with a lost node: the
    /// dataset serves degraded until a [`repair`] job restores the bucket.
    /// A typed result — not silently-empty data — so clients and invariant
    /// checkers can tell "lost" from "absent".
    BucketDegraded {
        /// The degraded dataset.
        dataset: DsId,
        /// The lost bucket the key routes to.
        bucket: BucketId,
    },
    /// The node still holds data and cannot be decommissioned.
    NodeNotEmpty(NodeId, usize),
    /// A rebalance or repair job of the dataset is in flight: the dataset
    /// takes no second job, and no node leaves the cluster (the job may be
    /// moving data onto it) until the job is finalized.
    RebalanceInFlight(DsId),
    /// No partition could be determined for a key of this dataset.
    RoutingFailed(DsId),
    /// The requested secondary index does not exist.
    UnknownIndex(String),
    /// The rebalance operation aborted.
    RebalanceAborted(String),
    /// A rebalance job step was invoked from the wrong state.
    InvalidJobStep {
        /// The step that was attempted.
        action: &'static str,
        /// The state the job was in.
        state: &'static str,
    },
    /// A session-routing protocol error (a stale-directory rejection that
    /// escaped the session's bounded refresh-and-retry loop).
    Route(session::RouteError),
    /// A consistency check failed.
    Inconsistent(String),
    /// An underlying storage error.
    Storage(StorageError),
    /// An underlying core-algorithm error.
    Core(CoreError),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::UnknownDataset(d) => write!(f, "unknown dataset {d}"),
            ClusterError::UnknownPartition(p) => write!(f, "unknown partition {p}"),
            ClusterError::UnknownNode(n) => write!(f, "unknown node {n}"),
            ClusterError::NodeDown(n) => write!(f, "node {n} is down"),
            ClusterError::NodeLost(n) => write!(f, "node {n} is permanently lost"),
            ClusterError::DatasetWriteBlocked(d) => write!(
                f,
                "dataset {d} writes are briefly blocked by a rebalance prepare phase"
            ),
            ClusterError::BucketDegraded { dataset, bucket } => write!(
                f,
                "bucket {bucket:?} of dataset {dataset} is degraded (lost with a dead node; awaiting repair)"
            ),
            ClusterError::NodeNotEmpty(n, records) => {
                write!(f, "node {n} still holds {records} records")
            }
            ClusterError::RebalanceInFlight(d) => write!(
                f,
                "dataset {d} has a rebalance or repair in flight; finalize it first"
            ),
            ClusterError::RoutingFailed(d) => write!(f, "routing failed for dataset {d}"),
            ClusterError::UnknownIndex(name) => write!(f, "unknown secondary index {name}"),
            ClusterError::RebalanceAborted(msg) => write!(f, "rebalance aborted: {msg}"),
            ClusterError::InvalidJobStep { action, state } => {
                write!(f, "invalid rebalance job step {action} from state {state}")
            }
            ClusterError::Route(e) => write!(f, "routing protocol error: {e}"),
            ClusterError::Inconsistent(msg) => write!(f, "inconsistency detected: {msg}"),
            ClusterError::Storage(e) => write!(f, "storage error: {e}"),
            ClusterError::Core(e) => write!(f, "core error: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<StorageError> for ClusterError {
    fn from(e: StorageError) -> Self {
        ClusterError::Storage(e)
    }
}

/// Result alias for cluster operations.
pub type Result<T> = std::result::Result<T, ClusterError>;
