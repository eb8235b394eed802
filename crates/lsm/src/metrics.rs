//! Storage-level metrics.
//!
//! Every flush, merge, read and rebalance scan updates a shared
//! [`StorageMetrics`] instance. The cluster simulation converts these byte
//! and record counters into simulated time using its hardware cost model, so
//! keeping them accurate is what makes the reproduced figures meaningful.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Byte/record counters shared by all indexes of a partition.
#[derive(Debug, Default)]
pub struct StorageMetrics {
    /// Bytes written by memory-component flushes.
    pub bytes_flushed: AtomicU64,
    /// Bytes written by merges (write amplification).
    pub bytes_merged: AtomicU64,
    /// Bytes read by merges.
    pub bytes_merge_read: AtomicU64,
    /// Bytes read by queries (point lookups and scans).
    pub bytes_query_read: AtomicU64,
    /// Bytes read by rebalance bucket scans.
    pub bytes_rebalance_read: AtomicU64,
    /// Bytes bulk-loaded from rebalance transfers.
    pub bytes_rebalance_loaded: AtomicU64,
    /// Bytes shipped as whole sealed components during a rebalance.
    pub bytes_rebalance_shipped: AtomicU64,
    /// Sealed components shipped whole during a rebalance.
    pub components_shipped: AtomicU64,
    /// Records ingested through the write path.
    pub records_written: AtomicU64,
    /// Number of flush operations.
    pub flush_count: AtomicU64,
    /// Number of merge operations.
    pub merge_count: AtomicU64,
    /// Number of bucket splits performed.
    pub split_count: AtomicU64,
}

impl StorageMetrics {
    /// Creates a fresh, shareable metrics instance.
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Adds `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Reads a counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// Returns a plain-value snapshot of all counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            bytes_flushed: Self::get(&self.bytes_flushed),
            bytes_merged: Self::get(&self.bytes_merged),
            bytes_merge_read: Self::get(&self.bytes_merge_read),
            bytes_query_read: Self::get(&self.bytes_query_read),
            bytes_rebalance_read: Self::get(&self.bytes_rebalance_read),
            bytes_rebalance_loaded: Self::get(&self.bytes_rebalance_loaded),
            bytes_rebalance_shipped: Self::get(&self.bytes_rebalance_shipped),
            components_shipped: Self::get(&self.components_shipped),
            records_written: Self::get(&self.records_written),
            flush_count: Self::get(&self.flush_count),
            merge_count: Self::get(&self.merge_count),
            split_count: Self::get(&self.split_count),
        }
    }
}

/// A point-in-time copy of [`StorageMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Bytes written by flushes.
    pub bytes_flushed: u64,
    /// Bytes written by merges.
    pub bytes_merged: u64,
    /// Bytes read by merges.
    pub bytes_merge_read: u64,
    /// Bytes read by queries.
    pub bytes_query_read: u64,
    /// Bytes read by rebalance scans.
    pub bytes_rebalance_read: u64,
    /// Bytes loaded from rebalance transfers.
    pub bytes_rebalance_loaded: u64,
    /// Bytes shipped as whole sealed components.
    pub bytes_rebalance_shipped: u64,
    /// Sealed components shipped whole.
    pub components_shipped: u64,
    /// Records ingested.
    pub records_written: u64,
    /// Flush operations.
    pub flush_count: u64,
    /// Merge operations.
    pub merge_count: u64,
    /// Bucket splits.
    pub split_count: u64,
}

impl MetricsSnapshot {
    /// Difference between two snapshots (self - earlier), saturating at zero.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            bytes_flushed: self.bytes_flushed.saturating_sub(earlier.bytes_flushed),
            bytes_merged: self.bytes_merged.saturating_sub(earlier.bytes_merged),
            bytes_merge_read: self
                .bytes_merge_read
                .saturating_sub(earlier.bytes_merge_read),
            bytes_query_read: self
                .bytes_query_read
                .saturating_sub(earlier.bytes_query_read),
            bytes_rebalance_read: self
                .bytes_rebalance_read
                .saturating_sub(earlier.bytes_rebalance_read),
            bytes_rebalance_loaded: self
                .bytes_rebalance_loaded
                .saturating_sub(earlier.bytes_rebalance_loaded),
            bytes_rebalance_shipped: self
                .bytes_rebalance_shipped
                .saturating_sub(earlier.bytes_rebalance_shipped),
            components_shipped: self
                .components_shipped
                .saturating_sub(earlier.components_shipped),
            records_written: self.records_written.saturating_sub(earlier.records_written),
            flush_count: self.flush_count.saturating_sub(earlier.flush_count),
            merge_count: self.merge_count.saturating_sub(earlier.merge_count),
            split_count: self.split_count.saturating_sub(earlier.split_count),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = StorageMetrics::new_shared();
        StorageMetrics::add(&m.bytes_flushed, 100);
        StorageMetrics::add(&m.bytes_flushed, 50);
        StorageMetrics::add(&m.records_written, 3);
        let s = m.snapshot();
        assert_eq!(s.bytes_flushed, 150);
        assert_eq!(s.records_written, 3);
    }

    #[test]
    fn delta_since_subtracts() {
        let m = StorageMetrics::new_shared();
        StorageMetrics::add(&m.bytes_flushed, 100);
        let before = m.snapshot();
        StorageMetrics::add(&m.bytes_flushed, 40);
        StorageMetrics::add(&m.bytes_merged, 7);
        let after = m.snapshot();
        let d = after.delta_since(&before);
        assert_eq!(d.bytes_flushed, 40);
        assert_eq!(d.bytes_merged, 7);
    }
}
