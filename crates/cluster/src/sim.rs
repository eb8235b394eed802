//! The simulated hardware cost model.
//!
//! The paper's experiments ran on AWS i3.xlarge nodes with local SSDs and an
//! interconnection network; this reproduction replaces the hardware with a
//! deterministic cost model. Every storage and network operation is charged
//! simulated nanoseconds on the node that performs it, and the elapsed time
//! of a cluster-wide operation is the **maximum** over the participating
//! nodes — the "bottlenecked by the slowest node" behaviour that drives the
//! paper's results — plus any coordinator-side serial work.
//!
//! The prices are the constants of this module — one price list, no
//! settable model — and the functions below (`disk_read`, `network`,
//! `query_cpu`, …) are the only place they are multiplied out. Only
//! *relative* comparisons are meaningful (who wins and by how much), not
//! absolute values: reads cost half of writes, the network costs more than
//! either, and parsing a record costs more than querying it.

use std::collections::BTreeMap;
use std::ops::{Add, AddAssign};

use dynahash_core::NodeId;

/// A simulated duration in nanoseconds. The field is public so that prices
/// can be `const`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// Zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// As fractional seconds.
    pub fn as_secs_f64(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// As fractional minutes (the unit used by the paper's rebalance plots).
    pub fn as_minutes_f64(&self) -> f64 {
        self.as_secs_f64() / 60.0
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

// The price list. Constants are scaled so that *byte-proportional* work
// dominates fixed per-message overheads even at the reduced data sizes the
// simulation runs at; this keeps the relative shapes of the paper's figures
// intact (the paper's clusters store ~1000x more data, where per-bucket RPC
// latencies are negligible).

/// CPU time to parse and route one ingested record (ns). Ingestion in
/// AsterixDB is CPU-heavy because of record parsing (Section VI-B).
const CPU_NS_PER_INGESTED_RECORD: u64 = 20_000;
/// CPU time per record touched by query operators (filter/aggregate), ns.
const CPU_NS_PER_QUERY_RECORD: u64 = 1_000;
/// Extra CPU per record for merge-sorting bucketed scan results when
/// primary-key order is required (priority-queue overhead), ns.
const CPU_NS_PER_MERGE_SORTED_RECORD: u64 = 400;
/// CPU per record for building the secondary-index entries of a bucket a
/// rebalance moved, ns. Charged where the deferred rebuild runs: the first
/// index query after the move, or a commit whose cleanup must materialize a
/// stash.
const CPU_NS_PER_INDEX_REBUILD_RECORD: u64 = 4_000;
/// Fixed per-component overhead of shipping a sealed component whole
/// (open/close, manifest update at the destination). Sealed components move
/// as whole files (Section IV), so a shipped bucket pays no per-record CPU.
const COMPONENT_SHIP_OVERHEAD: SimDuration = SimDuration(2_000);
/// Sequential disk read cost, ns per byte.
const DISK_READ_NS_PER_BYTE: u64 = 10;
/// Sequential disk write cost, ns per byte.
const DISK_WRITE_NS_PER_BYTE: u64 = 20;
/// Network transfer cost, ns per byte.
const NETWORK_NS_PER_BYTE: u64 = 25;
/// Fixed per-message network latency.
pub(crate) const NETWORK_LATENCY: SimDuration = SimDuration(20_000);
/// Fixed coordinator overhead per distributed job (compile + dispatch).
pub(crate) const JOB_OVERHEAD: SimDuration = SimDuration(2_000_000);
/// CPU cost per byte merged (LSM merges are CPU- and IO-bound), ns.
const MERGE_CPU_NS_PER_BYTE: u64 = 5;
/// Bytes an index scan counts as read per secondary-index entry it visits.
pub(crate) const INDEX_ENTRY_BYTES: u64 = 24;
/// [`query_cpu`] weight of a scan's filter/aggregate pass.
pub(crate) const SCAN_WEIGHT: f64 = 1.0;
/// [`query_cpu`] weight of an index scan, per entry visited.
pub(crate) const INDEX_PROBE_WEIGHT: f64 = 0.5;
/// [`query_cpu`] weight of a primary-key fetch, per candidate key.
pub(crate) const FETCH_WEIGHT: f64 = 0.3;

/// Cost of reading `bytes` sequentially from disk.
pub(crate) fn disk_read(bytes: u64) -> SimDuration {
    SimDuration(bytes * DISK_READ_NS_PER_BYTE)
}

/// Cost of writing `bytes` sequentially to disk.
pub(crate) fn disk_write(bytes: u64) -> SimDuration {
    SimDuration(bytes * DISK_WRITE_NS_PER_BYTE)
}

/// Cost of shipping `bytes` over the network (one message).
pub(crate) fn network(bytes: u64) -> SimDuration {
    SimDuration(bytes * NETWORK_NS_PER_BYTE + NETWORK_LATENCY.0)
}

/// CPU cost of ingesting `records` records.
pub(crate) fn ingest_cpu(records: u64) -> SimDuration {
    SimDuration(records * CPU_NS_PER_INGESTED_RECORD)
}

/// CPU cost of query operators over `records` records with a relative
/// `weight` (1.0 = a plain filter/aggregate pass).
pub(crate) fn query_cpu(records: u64, weight: f64) -> SimDuration {
    SimDuration((records as f64 * CPU_NS_PER_QUERY_RECORD as f64 * weight) as u64)
}

/// CPU cost of merge-sorting `records` records from multiple bucket scans.
pub(crate) fn merge_sort_cpu(records: u64) -> SimDuration {
    SimDuration(records * CPU_NS_PER_MERGE_SORTED_RECORD)
}

/// CPU cost of rebuilding secondary-index entries for `records` records.
pub(crate) fn index_rebuild_cpu(records: u64) -> SimDuration {
    SimDuration(records * CPU_NS_PER_INDEX_REBUILD_RECORD)
}

/// Fixed cost of shipping `components` sealed components whole.
pub(crate) fn component_ship_overhead(components: u64) -> SimDuration {
    SimDuration(components * COMPONENT_SHIP_OVERHEAD.0)
}

/// Cost of merge work that read and wrote the given byte counts.
pub(crate) fn merge_cost(bytes_read: u64, bytes_written: u64) -> SimDuration {
    disk_read(bytes_read)
        + disk_write(bytes_written)
        + SimDuration((bytes_read + bytes_written) * MERGE_CPU_NS_PER_BYTE)
}

/// A per-node timeline: accumulates simulated work per node and reports the
/// cluster-wide elapsed time (the slowest node).
#[derive(Debug, Clone, Default)]
pub struct NodeTimeline {
    per_node: BTreeMap<NodeId, SimDuration>,
    coordinator: SimDuration,
}

impl NodeTimeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds work to a node.
    pub fn charge(&mut self, node: NodeId, cost: SimDuration) {
        *self.per_node.entry(node).or_default() += cost;
    }

    /// Adds serial coordinator-side work (not parallelised across nodes).
    pub fn charge_coordinator(&mut self, cost: SimDuration) {
        self.coordinator += cost;
    }

    /// The coordinator-side time.
    pub fn coordinator_time(&self) -> SimDuration {
        self.coordinator
    }

    /// The busiest node's time.
    pub fn max_node_time(&self) -> SimDuration {
        self.per_node.values().copied().max().unwrap_or_default()
    }

    /// The cluster-wide elapsed time: slowest node plus coordinator work.
    pub fn elapsed(&self) -> SimDuration {
        self.max_node_time() + self.coordinator
    }

    /// Per-node breakdown (sorted by node id).
    pub fn breakdown(&self) -> Vec<(NodeId, SimDuration)> {
        self.per_node.iter().map(|(n, d)| (*n, *d)).collect()
    }

    /// Merges another timeline into this one (phases executed back to back).
    pub fn extend(&mut self, other: &NodeTimeline) {
        for (n, d) in &other.per_node {
            self.charge(*n, *d);
        }
        self.coordinator += other.coordinator;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimDuration {
        SimDuration(s * 1_000_000_000)
    }

    #[test]
    fn duration_conversions() {
        let d = secs(90);
        assert_eq!(d.0, 90_000_000_000);
        assert!((d.as_minutes_f64() - 1.5).abs() < 1e-9);
        assert_eq!(SimDuration(5) + SimDuration(7), SimDuration(12));
        assert_eq!(SimDuration(10).max(SimDuration(3)), SimDuration(10));
        assert_eq!(
            SimDuration(3).saturating_sub(SimDuration(10)),
            SimDuration(0)
        );
    }

    #[test]
    fn prices_scale_linearly() {
        assert_eq!(disk_read(1000).0, 1000 * DISK_READ_NS_PER_BYTE);
        assert!(network(0) >= NETWORK_LATENCY);
        assert_eq!(ingest_cpu(10).0, 10 * CPU_NS_PER_INGESTED_RECORD);
        let light = query_cpu(1000, 1.0);
        let heavy = query_cpu(1000, 3.0);
        assert_eq!(heavy.0, 3 * light.0);
    }

    #[test]
    fn timeline_elapsed_is_slowest_node_plus_coordinator() {
        let mut t = NodeTimeline::new();
        t.charge(NodeId(0), secs(10));
        t.charge(NodeId(1), secs(30));
        t.charge(NodeId(1), secs(5));
        t.charge_coordinator(secs(1));
        assert_eq!(t.per_node[&NodeId(1)], secs(35));
        assert_eq!(t.max_node_time(), secs(35));
        assert_eq!(t.elapsed(), secs(36));
        assert_eq!(t.breakdown().len(), 2);
    }

    #[test]
    fn timelines_compose() {
        let mut a = NodeTimeline::new();
        a.charge(NodeId(0), secs(10));
        let mut b = NodeTimeline::new();
        b.charge(NodeId(0), secs(2));
        b.charge(NodeId(1), secs(20));
        b.charge_coordinator(secs(3));
        a.extend(&b);
        assert_eq!(a.per_node[&NodeId(0)], secs(12));
        assert_eq!(a.elapsed(), secs(23));
    }
}
