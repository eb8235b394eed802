//! Data feeds: long-running ingestion jobs.
//!
//! AsterixDB ingests external data through *data feeds* — long-running jobs
//! that take an immutable copy of the routing state and continuously insert
//! records (Section II-C). The simulation exposes batch ingestion through
//! [`crate::session::Session::ingest`]: the session's cached directory is
//! that copy, and the batch it validates is written through the CC's
//! directory by the crate-private `Cluster::ingest`. This module adds the
//! report type and the splitter that spreads a job's concurrent writes over
//! its waves.

use dynahash_core::NodeId;

use crate::sim::SimDuration;

/// The result of one ingestion batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReport {
    /// Records ingested.
    pub records: u64,
    /// Simulated elapsed time (bounded by the slowest node).
    pub elapsed: SimDuration,
    /// Per-node busy time.
    pub per_node: Vec<(NodeId, SimDuration)>,
}

impl IngestReport {
    /// Ingestion throughput in records per simulated second.
    pub fn records_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.records as f64 / secs
        }
    }

    /// Merges two sequential batches into one report.
    pub fn merge(&self, other: &IngestReport) -> IngestReport {
        let mut per_node = self.per_node.clone();
        for (n, d) in &other.per_node {
            if let Some(slot) = per_node.iter_mut().find(|(m, _)| m == n) {
                slot.1 += *d;
            } else {
                per_node.push((*n, *d));
            }
        }
        per_node.sort_by_key(|(n, _)| *n);
        IngestReport {
            records: self.records + other.records,
            elapsed: self.elapsed + other.elapsed,
            per_node,
        }
    }
}

/// Splits a batch of feed records into exactly `n` sub-batches of near-equal
/// size, preserving arrival order. The one-shot rebalance driver uses this to
/// spread a scenario's concurrent writes across the job's waves, so every
/// wave boundary sees fresh mid-flight ingestion. Some sub-batches may be
/// empty when there are fewer records than batches.
pub fn split_into_batches<T>(records: Vec<T>, n: usize) -> Vec<Vec<T>> {
    let n = n.max(1);
    let total = records.len();
    let base = total / n;
    let extra = total % n;
    let mut out = Vec::with_capacity(n);
    let mut iter = records.into_iter();
    for i in 0..n {
        let take = base + usize::from(i < extra);
        out.push(iter.by_ref().take(take).collect());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_is_records_over_elapsed() {
        let r = IngestReport {
            records: 10_000,
            elapsed: SimDuration(10_000_000_000),
            per_node: vec![],
        };
        assert!((r.records_per_sec() - 1000.0).abs() < 1e-9);
        let zero = IngestReport {
            records: 5,
            elapsed: SimDuration::ZERO,
            per_node: vec![],
        };
        assert_eq!(zero.records_per_sec(), 0.0);
    }

    #[test]
    fn merge_adds_records_and_per_node_times() {
        let a = IngestReport {
            records: 10,
            elapsed: SimDuration(1),
            per_node: vec![(NodeId(0), SimDuration(1))],
        };
        let b = IngestReport {
            records: 20,
            elapsed: SimDuration(2),
            per_node: vec![(NodeId(0), SimDuration(1)), (NodeId(1), SimDuration(2))],
        };
        let m = a.merge(&b);
        assert_eq!(m.records, 30);
        assert_eq!(m.elapsed, SimDuration(3));
        assert_eq!(m.per_node[0], (NodeId(0), SimDuration(2)));
        assert_eq!(m.per_node[1], (NodeId(1), SimDuration(2)));
    }

    #[test]
    fn split_into_batches_preserves_order_and_count() {
        let batches = split_into_batches((0..10).collect::<Vec<_>>(), 3);
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0], vec![0, 1, 2, 3]);
        assert_eq!(batches[1], vec![4, 5, 6]);
        assert_eq!(batches[2], vec![7, 8, 9]);
        // fewer records than batches: the tail batches are empty
        let sparse = split_into_batches(vec![1, 2], 5);
        assert_eq!(sparse.iter().map(Vec::len).sum::<usize>(), 2);
        assert_eq!(sparse.len(), 5);
        // zero batches is clamped to one
        assert_eq!(split_into_batches(vec![7], 0), vec![vec![7]]);
    }
}
