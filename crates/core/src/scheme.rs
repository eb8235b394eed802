//! The rebalancing schemes evaluated in the paper (Section VI-A).
//!
//! * **Hashing** — AsterixDB's original global rebalancing with hash
//!   partitioning: record `K` lives on partition `hash(K) mod N`. Scaling the
//!   cluster recomputes the modulus, so nearly all records move.
//! * **StaticHash** — static bucketing: the dataset is split into a fixed
//!   number of buckets (256 in the paper) assigned to partitions through the
//!   directory; rebalancing moves whole buckets and never splits them.
//! * **DynaHash** — dynamic bucketing with extendible hashing: buckets split
//!   when they exceed a maximum size (10 GB in the paper), and rebalancing
//!   moves whole buckets.

use dynahash_lsm::bucket::BucketId;

use crate::topology::PartitionId;

/// A data-partitioning / rebalancing scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scheme {
    /// Global rebalancing with hash partitioning (`hash(K) mod N`).
    Hashing,
    /// Static bucketing with `num_buckets` buckets (must be a power of two).
    StaticHash {
        /// Total number of buckets for the dataset (256 in the paper).
        num_buckets: u32,
    },
    /// Dynamic bucketing with extendible hashing.
    DynaHash {
        /// Maximum bucket size in bytes before a bucket splits
        /// (10 GB in the paper; scaled down in the simulation).
        max_bucket_size_bytes: u64,
        /// Initial number of buckets when the dataset is created
        /// (must be a power of two; the paper starts with one bucket per
        /// partition and lets ingestion split them).
        initial_buckets: u32,
    },
}

impl Scheme {
    /// The paper's StaticHash configuration: 256 buckets.
    pub fn static_hash_256() -> Self {
        Scheme::StaticHash { num_buckets: 256 }
    }

    /// A DynaHash configuration with the given maximum bucket size and one
    /// initial bucket per partition.
    pub fn dynahash(max_bucket_size_bytes: u64, partitions: u32) -> Self {
        Scheme::DynaHash {
            max_bucket_size_bytes,
            initial_buckets: partitions.next_power_of_two(),
        }
    }

    /// Short name used in experiment output (matches the paper's legends).
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::Hashing => "Hashing",
            Scheme::StaticHash { .. } => "StaticHash",
            Scheme::DynaHash { .. } => "DynaHash",
        }
    }

    /// True if the scheme stores data in extendible-hashing buckets (and thus
    /// uses a bucketed LSM-tree and a global directory).
    pub fn is_bucketed(&self) -> bool {
        !matches!(self, Scheme::Hashing)
    }

    /// The initial bucket depth for bucketed schemes: `log2(num_buckets)`.
    /// Returns `None` for the Hashing scheme, which has no buckets.
    pub fn initial_depth(&self) -> Option<u8> {
        match self {
            Scheme::Hashing => None,
            Scheme::StaticHash { num_buckets } => Some(log2_ceil(*num_buckets)),
            Scheme::DynaHash {
                initial_buckets, ..
            } => Some(log2_ceil(*initial_buckets)),
        }
    }

    /// The dynamic split threshold, if any.
    pub fn max_bucket_size_bytes(&self) -> Option<u64> {
        match self {
            Scheme::DynaHash {
                max_bucket_size_bytes,
                ..
            } => Some(*max_bucket_size_bytes),
            _ => None,
        }
    }

    /// Routes a key, given its
    /// [`hash_key`](dynahash_lsm::bucket::hash_key), under the **Hashing**
    /// scheme: `hash(K) mod N` over the given partition list (in order).
    /// Bucketed schemes route through the global directory instead.
    pub fn modulo_partition(hash: u64, partitions: &[PartitionId]) -> PartitionId {
        partitions[(hash % partitions.len() as u64) as usize]
    }

    /// The initial buckets for a bucketed scheme given the partition count.
    pub fn initial_buckets(&self) -> Vec<BucketId> {
        match self.initial_depth() {
            None => Vec::new(),
            Some(d) => (0..(1u32 << d))
                .map(|bits| BucketId::new(bits, d))
                .collect(),
        }
    }
}

fn log2_ceil(v: u32) -> u8 {
    let mut d = 0u8;
    while (1u32 << d) < v.max(1) {
        d += 1;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynahash_lsm::entry::Key;
    use dynahash_lsm::hash_key;

    #[test]
    fn names_match_paper_legends() {
        assert_eq!(Scheme::Hashing.name(), "Hashing");
        assert_eq!(Scheme::static_hash_256().name(), "StaticHash");
        assert_eq!(Scheme::dynahash(1 << 30, 8).name(), "DynaHash");
    }

    #[test]
    fn initial_depths() {
        assert_eq!(Scheme::Hashing.initial_depth(), None);
        assert_eq!(Scheme::static_hash_256().initial_depth(), Some(8));
        assert_eq!(
            Scheme::StaticHash { num_buckets: 1 }.initial_depth(),
            Some(0)
        );
        assert_eq!(Scheme::dynahash(1024, 8).initial_depth(), Some(3));
        assert_eq!(Scheme::dynahash(1024, 6).initial_depth(), Some(3)); // rounded up to 8
    }

    #[test]
    fn initial_buckets_cover_hash_space() {
        let buckets = Scheme::static_hash_256().initial_buckets();
        assert_eq!(buckets.len(), 256);
        let total: u64 = buckets.iter().map(|b| b.normalized_size(8)).sum();
        assert_eq!(total, 256);
        assert!(Scheme::Hashing.initial_buckets().is_empty());
    }

    #[test]
    fn modulo_partition_is_deterministic_and_spreads() {
        let parts: Vec<PartitionId> = (0..8).map(PartitionId).collect();
        let mut counts = vec![0usize; 8];
        for i in 0..8000u64 {
            let hash = hash_key(&Key::from_u64(i));
            let p = Scheme::modulo_partition(hash, &parts);
            assert_eq!(p, Scheme::modulo_partition(hash, &parts));
            counts[p.0 as usize] += 1;
        }
        // roughly uniform: each partition gets 1000 +/- 30%
        for c in counts {
            assert!(
                (700..1300).contains(&c),
                "unbalanced modulo partitioning: {c}"
            );
        }
    }

    #[test]
    fn max_bucket_size_only_for_dynahash() {
        assert_eq!(Scheme::Hashing.max_bucket_size_bytes(), None);
        assert_eq!(Scheme::static_hash_256().max_bucket_size_bytes(), None);
        assert_eq!(Scheme::dynahash(42, 4).max_bucket_size_bytes(), Some(42));
    }
}
