//! The vocabulary of the online rebalance protocol (Section V).
//!
//! A rebalance operation has three phases — initialization, data movement,
//! and finalization — and the finalization uses a two-phase commit so that
//! all Node Controllers reach a unanimous decision even though log
//! replication may still be active when data movement "finishes". The one
//! coordinator that steps through those phases, collects the votes and does
//! the work (forcing log records, shipping buckets) is `RebalanceJob` in
//! `dynahash-cluster`; this module holds the policies and outcomes it is
//! parameterised by, and the control plane's load vocabulary.

/// How the data-movement phase transfers a bucket between partitions
/// (Section IV of the paper argues for component-level movement: sealed LSM
/// components are immutable, so a bucket can move as whole files).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MovePolicy {
    /// Scan the bucket into records at the source and re-materialise them at
    /// the destination (merge, re-sort, rebuild Bloom filters, rebuild every
    /// index). The static-hash-era baseline; kept as the oracle
    /// `tests/move_policy.rs` compares component shipping against.
    Records,
    /// Ship the bucket's sealed components whole: Bloom filters and sorted
    /// runs travel with the component files, and the destination rebuilds
    /// only its secondary indexes. The default, and the source of the
    /// paper's rebalance-efficiency claim.
    #[default]
    Components,
}

/// When the destination of a component-level bucket move rebuilds its
/// secondary-index entries for the received records.
///
/// Secondary indexes never travel with a moved bucket (they store all
/// buckets together, Section IV); the destination derives their entries from
/// the shipped primary data. Doing that on the commit path puts an
/// O(records) CPU charge into every wave's makespan even though the workload
/// may never query those indexes — the same pay-lazily argument the dynamic
/// hybrid hash join work (Jahangiri et al., arXiv:2112.02480) makes for
/// partition builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SecondaryRebuild {
    /// Rebuild secondary entries while installing the shipped components;
    /// kept as the oracle `tests/directory_slots.rs` compares the deferred
    /// rebuild against.
    Eager,
    /// Record the received bucket as deferred and build
    /// its secondary entries on the first `index_scan` touching the dataset
    /// (or an explicit `warm_indexes` admin call). The default: the rebuild
    /// cost moves off the wave-commit path.
    #[default]
    Deferred,
}

/// When and whether a wave speculatively re-executes a straggling transfer.
///
/// A slow-node fault stretches a transfer without failing it, so the retry
/// machinery never reacts and the whole wave makespan absorbs the stall. The
/// classic answer (MapReduce-style speculative execution) is to ship the
/// laggard's move *again* once it has run long past its peers and take the
/// first finisher. The slow factor models a transient environmental stall
/// (background compaction, a GC pause, a hot disk) pinned to the first
/// attempt; the backup, launched later from the live source, runs at nominal
/// speed and wins exactly when the stall is long enough to pay for the late
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpeculationPolicy {
    /// Whether stragglers are speculatively re-executed at all.
    pub enabled: bool,
}

impl Default for SpeculationPolicy {
    fn default() -> Self {
        SpeculationPolicy { enabled: true }
    }
}

impl SpeculationPolicy {
    /// A transfer qualifies as a straggler when its leg exceeds this multiple
    /// of the wave's median leg, and its backup launches at that point.
    /// Single-move waves never qualify (the only leg *is* the median).
    pub const STRAGGLER_MULTIPLE: u64 = 2;

    /// Speculation switched off: stragglers run to completion unchallenged.
    pub fn disabled() -> Self {
        SpeculationPolicy { enabled: false }
    }

    /// True when a transfer leg of `leg_ns` against a wave median of
    /// `median_ns` qualifies as a straggler worth re-executing.
    pub fn is_straggler(&self, leg_ns: u64, median_ns: u64) -> bool {
        self.enabled && median_ns > 0 && leg_ns > median_ns.saturating_mul(Self::STRAGGLER_MULTIPLE)
    }
}

/// The final outcome of a rebalance operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceOutcome {
    /// The rebalance committed: the new directory is installed.
    Committed,
    /// The rebalance aborted: the dataset is left unchanged.
    Aborted,
}

// -------------------------------------------------- control-plane protocol

/// Decayed load counters for one bucket (or, aggregated, one partition), as
/// tracked by the cluster's heat map and reported to the control plane.
///
/// `reads`/`writes` are exponentially decayed operation counters fed from
/// the session data paths; `records` and `resident_bytes` are refreshed
/// from storage reporting when a heat snapshot is taken, so a snapshot
/// always reflects current residency even though the op counters decay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BucketHeat {
    /// Decayed point-read operations that touched the bucket.
    pub reads: u64,
    /// Decayed write operations (inserts and deletes) that hit the bucket.
    pub writes: u64,
    /// Logical bytes resident in the bucket at snapshot time.
    pub resident_bytes: u64,
}

impl BucketHeat {
    /// Total decayed operations, read and write.
    pub fn ops(&self) -> u64 {
        self.reads + self.writes
    }

    /// Applies one decay step: both op counters are halved, so heat from k
    /// ticks ago contributes `2^-k` of its original weight.
    pub fn decay(&mut self) {
        self.reads >>= 1;
        self.writes >>= 1;
    }

    /// Folds another counter set into this one (partition aggregation).
    pub fn absorb(&mut self, other: &BucketHeat) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.resident_bytes += other.resident_bytes;
    }
}

/// Maximum-deviation imbalance over a set of per-partition loads:
/// `max_p |load(p) - avg| / avg`, the detection metric of the reference
/// shard rebalancer (SNIPPETS.md Snippet 3). Zero for an empty set or an
/// all-zero load vector — an empty cluster is perfectly balanced.
pub fn max_deviation_imbalance(loads: impl IntoIterator<Item = u64>) -> f64 {
    let loads: Vec<u64> = loads.into_iter().collect();
    if loads.is_empty() {
        return 0.0;
    }
    let total: u64 = loads.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let avg = total as f64 / loads.len() as f64;
    loads
        .iter()
        .map(|&l| (l as f64 - avg).abs() / avg)
        .fold(0.0, f64::max)
}

/// A throttle on automatic data movement: at most `max_buckets_per_window`
/// bucket moves and `max_bytes_per_window` shipped bytes may start inside
/// one window of `window_ticks` control-plane ticks (the
/// `max_migrations_per_hour` knob of the reference rebalancer, expressed in
/// sim-time ticks). Moves that do not fit are deferred to a later window,
/// spreading a large rebalance over time instead of letting it saturate the
/// cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationBudget {
    /// Bucket moves admitted per window.
    pub max_buckets_per_window: usize,
    /// Shipped bytes admitted per window.
    pub max_bytes_per_window: u64,
    /// Window length in control-plane ticks.
    pub window_ticks: u64,
}

impl Default for MigrationBudget {
    fn default() -> Self {
        MigrationBudget {
            max_buckets_per_window: 8,
            max_bytes_per_window: 4 * 1024 * 1024,
            window_ticks: 4,
        }
    }
}

impl MigrationBudget {
    /// True when a wave of `buckets` moves shipping `bytes` still fits the
    /// window that has already admitted `used_buckets` / `used_bytes`.
    pub fn admits(&self, used_buckets: usize, used_bytes: u64, buckets: usize, bytes: u64) -> bool {
        used_buckets + buckets <= self.max_buckets_per_window
            && used_bytes.saturating_add(bytes) <= self.max_bytes_per_window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speculation_policy_straggler_threshold() {
        let p = SpeculationPolicy::default();
        assert!(p.enabled);
        // at or below the multiple: not a straggler (strictly greater wins)
        assert!(!p.is_straggler(200, 100));
        assert!(p.is_straggler(201, 100));
        // a single-move wave (leg == median) never qualifies
        assert!(!p.is_straggler(100, 100));
        // a zero median (empty wave) never qualifies
        assert!(!p.is_straggler(100, 0));
        assert!(!SpeculationPolicy::disabled().is_straggler(1_000_000, 1));
    }

    #[test]
    fn bucket_heat_decays_and_aggregates() {
        let mut h = BucketHeat {
            reads: 8,
            writes: 5,
            resident_bytes: 100,
        };
        h.decay();
        assert_eq!((h.reads, h.writes), (4, 2));
        assert_eq!(h.resident_bytes, 100, "decay is op-only");
        let mut total = BucketHeat::default();
        total.absorb(&h);
        total.absorb(&h);
        assert_eq!(total.ops(), 12);
        assert_eq!(total.resident_bytes, 200);
    }

    #[test]
    fn max_deviation_matches_the_reference_shape() {
        assert_eq!(max_deviation_imbalance([]), 0.0);
        assert_eq!(max_deviation_imbalance([0, 0, 0]), 0.0);
        assert_eq!(max_deviation_imbalance([5, 5, 5, 5]), 0.0);
        // loads 10, 20, 30: avg 20, max deviation 10/20 = 0.5
        let imb = max_deviation_imbalance([10, 20, 30]);
        assert!((imb - 0.5).abs() < 1e-12, "{imb}");
        // a single hot partition dominates the metric
        assert!(max_deviation_imbalance([100, 1, 1, 1]) > 2.0);
    }

    #[test]
    fn migration_budget_caps_buckets_and_bytes() {
        let b = MigrationBudget {
            max_buckets_per_window: 4,
            max_bytes_per_window: 1000,
            window_ticks: 2,
        };
        assert!(b.admits(0, 0, 4, 1000));
        assert!(!b.admits(0, 0, 5, 10), "bucket cap");
        assert!(!b.admits(0, 500, 1, 501), "byte cap");
        assert!(b.admits(3, 999, 1, 1));
        assert!(!b.admits(4, 0, 1, 0), "window already full");
        assert!(
            !b.admits(0, u64::MAX - 1, 1, 1),
            "an over-budget window saturates instead of overflowing"
        );
    }
}
