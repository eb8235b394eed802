//! The vocabulary of the online rebalance protocol (Section V).
//!
//! A rebalance operation has three phases — initialization, data movement,
//! and finalization — and the finalization uses a two-phase commit so that
//! all Node Controllers reach a unanimous decision even though log
//! replication may still be active when data movement "finishes". The one
//! coordinator that steps through those phases, collects the votes and does
//! the work (forcing log records, shipping buckets) is `RebalanceJob` in
//! `dynahash-cluster`; this module holds the outcome it decides, and the
//! control plane's load vocabulary and migration budget.
//!
//! How a bucket moves is not a policy: a wave ships the bucket's sealed LSM
//! components whole (Section IV — components are immutable, so a bucket
//! moves as whole files), and the destination defers the secondary-index
//! entries of what it received to the first index query, the pay-lazily
//! argument Jahangiri et al. (arXiv:2112.02480) make for partition builds.

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
