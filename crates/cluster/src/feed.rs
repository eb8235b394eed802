//! Data feeds: long-running ingestion jobs.
//!
//! AsterixDB ingests external data through *data feeds* — long-running jobs
//! that take an immutable copy of the routing state and continuously insert
//! records (Section II-C). The simulation exposes batch ingestion through
//! [`crate::cluster::Cluster::ingest`]; this module adds the report type and
//! the controlled-rate feed used by the concurrent-writes experiment
//! (Figure 7c), where new records arrive at a fixed rate while a rebalance is
//! running.

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

/// A controlled-rate data feed: emits records at a fixed rate (in records per
/// simulated second), as used by the "Impact of Concurrent Writes"
/// experiment. The write rate in the paper's Figure 7c is expressed in
/// krecords/s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlledRateFeed {
    /// Ingestion rate in records per simulated second.
    pub records_per_sec: f64,
}

impl ControlledRateFeed {
    /// A feed emitting `krecords_per_sec` thousand records per second.
    pub fn krecords_per_sec(k: f64) -> Self {
        ControlledRateFeed {
            records_per_sec: k * 1000.0,
        }
    }

    /// How many records arrive during `elapsed`.
    pub fn records_for(&self, elapsed: SimDuration) -> u64 {
        (self.records_per_sec * elapsed.as_secs_f64()) as u64
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
            elapsed: SimDuration::from_secs(10),
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
            elapsed: SimDuration::from_secs(1),
            per_node: vec![(NodeId(0), SimDuration::from_secs(1))],
        };
        let b = IngestReport {
            records: 20,
            elapsed: SimDuration::from_secs(2),
            per_node: vec![
                (NodeId(0), SimDuration::from_secs(1)),
                (NodeId(1), SimDuration::from_secs(2)),
            ],
        };
        let m = a.merge(&b);
        assert_eq!(m.records, 30);
        assert_eq!(m.elapsed, SimDuration::from_secs(3));
        assert_eq!(m.per_node[0], (NodeId(0), SimDuration::from_secs(2)));
        assert_eq!(m.per_node[1], (NodeId(1), SimDuration::from_secs(2)));
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

    #[test]
    fn controlled_rate_feed_scales_with_time() {
        let feed = ControlledRateFeed::krecords_per_sec(10.0);
        assert_eq!(feed.records_for(SimDuration::from_secs(2)), 20_000);
        let idle = ControlledRateFeed::krecords_per_sec(0.0);
        assert_eq!(idle.records_for(SimDuration::from_secs(2)), 0);
    }
}
