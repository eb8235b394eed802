//! LSM-tree storage substrate for DynaHash.
//!
//! This crate implements the storage layer that the DynaHash rebalancing
//! design (Luo & Carey, ICDE 2022) builds on:
//!
//! * a classic **LSM-tree** ([`tree::LsmTree`]) with an in-memory component,
//!   immutable disk components, Bloom filters, and a size-tiered merge
//!   policy, mirroring AsterixDB's storage engine;
//! * **extendible-hashing buckets** ([`bucket::BucketId`]) and the
//!   **slot array** both directories route through ([`slots::SlotArray`]);
//! * the **bucketed LSM-tree** ([`bucketed::BucketedLsmTree`]) used for
//!   primary indexes (Option 3 of Section IV of the paper), whose bucket map
//!   is the partition's **local directory**, including the efficient
//!   bucket-split of Algorithm 1 based on *reference components*;
//! * **secondary LSM indexes** ([`secondary::SecondaryIndex`]) that store all
//!   buckets together (Option 1) and support lazy cleanup of moved buckets;
//! * the Cluster Controller's **metadata log** ([`wal::TransactionLog`]),
//!   whose forced rebalance records decide recovery (Section V).
//!
//! Everything is an in-process, deterministic simulation of the disk: "disk
//! components" live in memory but their sizes are tracked byte-accurately so
//! that the cost model of the `dynahash-cluster` crate can charge realistic
//! I/O costs.

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

pub mod bloom;
pub mod bucket;
pub mod bucketed;
pub mod bytes;
pub mod component;
pub mod entry;
pub mod iterator;
pub mod memtable;
pub mod merge_policy;
pub mod metrics;
pub mod rng;
pub mod secondary;
pub mod slots;
pub mod tree;
pub mod wal;

pub use crate::bytes::Bytes;
pub use bloom::BloomFilter;
pub use bucket::{hash_key, BucketId};
pub use bucketed::{BucketedConfig, BucketedLsmTree, ScanOrder};
pub use component::{Component, ComponentId, ComponentSource};
pub use entry::{Entry, Key, Op, Value, KEY_INLINE_CAP, OP_TAG_BYTES};
pub use iterator::{kmerge_disjoint, MergeIter};
pub use memtable::MemTable;
pub use merge_policy::SizeTieredPolicy;
pub use metrics::StorageMetrics;
pub use rng::{scramble, SplitMix64, Zipfian};
pub use secondary::{SecondaryEntry, SecondaryIndex};
pub use slots::SlotArray;
pub use tree::{LsmConfig, LsmTree};
pub use wal::{LogRecord, LogRecordBody, ShippedMove, TransactionLog};

/// Errors produced by the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The requested bucket is not owned by this partition.
    UnknownBucket(BucketId),
    /// A bucket with the same identifier already exists.
    BucketExists(BucketId),
    /// The bucket cannot be split further (maximum depth reached).
    MaxDepthReached(BucketId),
    /// A received (loaded) bucket with this identifier already exists.
    PendingBucketExists(BucketId),
    /// There is no pending received bucket with this identifier.
    UnknownPendingBucket(BucketId),
    /// The operation requires a non-empty component set.
    EmptyComponentSet,
    /// Splits are currently disabled (e.g. during a rebalance).
    SplitsDisabled,
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::UnknownBucket(b) => write!(f, "unknown bucket {b}"),
            StorageError::BucketExists(b) => write!(f, "bucket {b} already exists"),
            StorageError::MaxDepthReached(b) => {
                write!(f, "bucket {b} cannot be split: maximum depth reached")
            }
            StorageError::PendingBucketExists(b) => {
                write!(f, "pending received bucket {b} already exists")
            }
            StorageError::UnknownPendingBucket(b) => {
                write!(f, "no pending received bucket {b}")
            }
            StorageError::EmptyComponentSet => write!(f, "operation requires components"),
            StorageError::SplitsDisabled => write!(f, "bucket splits are currently disabled"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Convenient result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;
