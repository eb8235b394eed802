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
//! Only *relative* comparisons are meaningful (who wins and by how much),
//! not absolute values. The default constants are loosely calibrated to an
//! SSD-era machine: ~2 GB/s sequential read, ~1 GB/s write, ~1 GB/s network,
//! a few microseconds of CPU per record parsed.

use std::collections::BTreeMap;
use std::ops::{Add, AddAssign};

use dynahash_core::NodeId;

/// A simulated duration, stored in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct SimDuration(pub u64);

impl SimDuration {
    /// Zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// From whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// As nanoseconds.
    pub fn as_nanos(&self) -> u64 {
        self.0
    }

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

/// The hardware cost constants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// CPU time to parse and route one ingested record (ns). Ingestion in
    /// AsterixDB is CPU-heavy because of record parsing (Section VI-B).
    pub cpu_ns_per_ingested_record: u64,
    /// CPU time per record touched by query operators (filter/aggregate), ns.
    pub cpu_ns_per_query_record: u64,
    /// Extra CPU per record for merge-sorting bucketed scan results when
    /// primary-key order is required (priority-queue overhead), ns.
    pub cpu_ns_per_merge_sorted_record: u64,
    /// CPU per record for building the secondary-index entries of a bucket
    /// a rebalance moved, ns. Charged where the deferred rebuild runs: the
    /// first index query after the move, or a commit whose cleanup must
    /// materialize a stash.
    pub cpu_ns_per_index_rebuild_record: u64,
    /// Fixed per-component overhead of shipping a sealed component whole
    /// (open/close, manifest update at the destination), ns. Sealed
    /// components move as whole files (Section IV), so a shipped bucket pays
    /// no per-record CPU.
    pub component_ship_overhead_ns: u64,
    /// Sequential disk read cost, ns per byte (~2 GB/s → 0.5 ns/byte).
    pub disk_read_ns_per_byte: u64,
    /// Sequential disk write cost, ns per byte (~1 GB/s → 1 ns/byte).
    pub disk_write_ns_per_byte: u64,
    /// Network transfer cost, ns per byte (~1 GB/s → 1 ns/byte).
    pub network_ns_per_byte: u64,
    /// Fixed per-message network latency, ns.
    pub network_latency_ns: u64,
    /// Fixed coordinator overhead per distributed job (compile + dispatch), ns.
    pub job_overhead_ns: u64,
    /// CPU cost per byte merged (LSM merges are CPU- and IO-bound), ns.
    pub merge_cpu_ns_per_byte: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Constants are scaled so that *byte-proportional* work dominates
        // fixed per-message overheads even at the reduced data sizes the
        // simulation runs at; this keeps the relative shapes of the paper's
        // figures intact (the paper's clusters store ~1000x more data, where
        // per-bucket RPC latencies are negligible).
        CostModel {
            cpu_ns_per_ingested_record: 20_000,
            cpu_ns_per_query_record: 1_000,
            cpu_ns_per_merge_sorted_record: 400,
            cpu_ns_per_index_rebuild_record: 4_000,
            component_ship_overhead_ns: 2_000,
            disk_read_ns_per_byte: 10,
            disk_write_ns_per_byte: 20,
            network_ns_per_byte: 25,
            network_latency_ns: 20_000,
            job_overhead_ns: 2_000_000,
            merge_cpu_ns_per_byte: 5,
        }
    }
}

impl CostModel {
    /// Cost of reading `bytes` sequentially from disk.
    pub fn disk_read(&self, bytes: u64) -> SimDuration {
        SimDuration(bytes * self.disk_read_ns_per_byte)
    }

    /// Cost of writing `bytes` sequentially to disk.
    pub fn disk_write(&self, bytes: u64) -> SimDuration {
        SimDuration(bytes * self.disk_write_ns_per_byte)
    }

    /// Cost of shipping `bytes` over the network (one message).
    pub fn network(&self, bytes: u64) -> SimDuration {
        SimDuration(bytes * self.network_ns_per_byte + self.network_latency_ns)
    }

    /// CPU cost of ingesting `records` records.
    pub fn ingest_cpu(&self, records: u64) -> SimDuration {
        SimDuration(records * self.cpu_ns_per_ingested_record)
    }

    /// CPU cost of query operators over `records` records with a relative
    /// `weight` (1.0 = a plain filter/aggregate pass).
    pub fn query_cpu(&self, records: u64, weight: f64) -> SimDuration {
        SimDuration((records as f64 * self.cpu_ns_per_query_record as f64 * weight) as u64)
    }

    /// CPU cost of merge-sorting `records` records from multiple bucket scans.
    pub fn merge_sort_cpu(&self, records: u64) -> SimDuration {
        SimDuration(records * self.cpu_ns_per_merge_sorted_record)
    }

    /// CPU cost of rebuilding secondary-index entries for `records` records.
    pub fn index_rebuild_cpu(&self, records: u64) -> SimDuration {
        SimDuration(records * self.cpu_ns_per_index_rebuild_record)
    }

    /// Fixed cost of shipping `components` sealed components whole.
    pub fn component_ship_overhead(&self, components: u64) -> SimDuration {
        SimDuration(components * self.component_ship_overhead_ns)
    }

    /// Cost of merge work that read and wrote the given byte counts.
    pub fn merge_cost(&self, bytes_read: u64, bytes_written: u64) -> SimDuration {
        self.disk_read(bytes_read)
            + self.disk_write(bytes_written)
            + SimDuration((bytes_read + bytes_written) * self.merge_cpu_ns_per_byte)
    }
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

    #[test]
    fn duration_conversions() {
        let d = SimDuration::from_secs(90);
        assert_eq!(d.as_nanos(), 90_000_000_000);
        assert!((d.as_minutes_f64() - 1.5).abs() < 1e-9);
        assert_eq!(
            SimDuration::from_nanos(5) + SimDuration::from_nanos(7),
            SimDuration(12)
        );
        assert_eq!(SimDuration(10).max(SimDuration(3)), SimDuration(10));
        assert_eq!(
            SimDuration(3).saturating_sub(SimDuration(10)),
            SimDuration(0)
        );
    }

    #[test]
    fn cost_model_scales_linearly() {
        let m = CostModel::default();
        assert_eq!(m.disk_read(1000).as_nanos(), 1000 * m.disk_read_ns_per_byte);
        assert!(m.network(0).as_nanos() >= m.network_latency_ns);
        assert_eq!(
            m.ingest_cpu(10).as_nanos(),
            10 * m.cpu_ns_per_ingested_record
        );
        let light = m.query_cpu(1000, 1.0);
        let heavy = m.query_cpu(1000, 3.0);
        assert_eq!(heavy.as_nanos(), 3 * light.as_nanos());
    }

    #[test]
    fn timeline_elapsed_is_slowest_node_plus_coordinator() {
        let mut t = NodeTimeline::new();
        t.charge(NodeId(0), SimDuration::from_secs(10));
        t.charge(NodeId(1), SimDuration::from_secs(30));
        t.charge(NodeId(1), SimDuration::from_secs(5));
        t.charge_coordinator(SimDuration::from_secs(1));
        assert_eq!(t.per_node[&NodeId(1)], SimDuration::from_secs(35));
        assert_eq!(t.max_node_time(), SimDuration::from_secs(35));
        assert_eq!(t.elapsed(), SimDuration::from_secs(36));
        assert_eq!(t.breakdown().len(), 2);
    }

    #[test]
    fn timelines_compose() {
        let mut a = NodeTimeline::new();
        a.charge(NodeId(0), SimDuration::from_secs(10));
        let mut b = NodeTimeline::new();
        b.charge(NodeId(0), SimDuration::from_secs(2));
        b.charge(NodeId(1), SimDuration::from_secs(20));
        b.charge_coordinator(SimDuration::from_secs(3));
        a.extend(&b);
        assert_eq!(a.per_node[&NodeId(0)], SimDuration::from_secs(12));
        assert_eq!(a.elapsed(), SimDuration::from_secs(23));
    }
}
