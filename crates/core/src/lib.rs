//! Core DynaHash algorithms.
//!
//! This crate contains the paper's primary contribution as reusable,
//! storage-agnostic components:
//!
//! * cluster topology identifiers ([`topology`]);
//! * the **global directory** kept at the Cluster Controller that maps the
//!   `D` low-order hash bits to buckets and partitions ([`directory`]);
//! * the greedy directory-balancing algorithm of Section V-A, Algorithm 2
//!   ([`balance`]);
//! * the three rebalancing **schemes** evaluated in the paper — global
//!   `Hashing`, `StaticHash`, and `DynaHash` ([`scheme`]);
//! * rebalance **planning** (which buckets move where, and what it costs)
//!   ([`plan`]);
//! * the online rebalance **protocol**'s policies and outcomes, and the
//!   control plane's load vocabulary ([`protocol`]); the protocol's state
//!   machine itself is `dynahash-cluster`'s `RebalanceJob`.
//!
//! The actual execution against storage partitions lives in
//! `dynahash-cluster`; everything here is deterministic, pure logic that can
//! be unit- and property-tested in isolation.

pub mod balance;
pub mod directory;
pub mod plan;
pub mod protocol;
pub mod scheme;
pub mod topology;

pub use balance::{balance_assignment, BalanceInput, BucketLoad};
pub use directory::{DirectoryDelta, GlobalDirectory};
pub use dynahash_lsm::{hash_key, BucketId};
pub use plan::{BucketMove, RebalancePlan};
pub use protocol::{max_deviation_imbalance, BucketHeat, MigrationBudget, RebalanceOutcome};
pub use scheme::Scheme;
pub use topology::{ClusterTopology, NodeId, PartitionId};

/// Errors produced by the core algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// The directory has no partition that owns the given bucket.
    UnassignedBucket(BucketId),
    /// The requested partition does not exist in the topology.
    UnknownPartition(PartitionId),
    /// The directory would become inconsistent (overlapping buckets).
    InconsistentDirectory(String),
    /// The target topology is empty.
    EmptyTopology,
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::UnassignedBucket(b) => write!(f, "bucket {b} is not assigned"),
            CoreError::UnknownPartition(p) => write!(f, "unknown partition {p:?}"),
            CoreError::InconsistentDirectory(msg) => write!(f, "inconsistent directory: {msg}"),
            CoreError::EmptyTopology => write!(f, "target topology has no partitions"),
        }
    }
}

impl std::error::Error for CoreError {}

/// Result alias for core operations.
pub type Result<T> = std::result::Result<T, CoreError>;
