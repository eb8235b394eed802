//! Dataset metadata.
//!
//! A dataset (a TPC-H table, say) is hash-partitioned across the cluster's
//! storage partitions according to a [`Scheme`]. Each dataset has a primary
//! index and any number of local secondary indexes whose keys are extracted
//! from the record payload (no primary-key index: see [`crate::partition`]).

use std::fmt;
use std::sync::Arc;

use dynahash_core::{GlobalDirectory, PartitionId, Scheme};
use dynahash_lsm::entry::Key;
use dynahash_lsm::hash_key;

/// Identifier of a dataset, unique within the cluster.
pub type DatasetId = u32;

/// Extracts a secondary key from a record payload. Returns `None` when the
/// record has no value for the indexed field.
pub type SecondaryExtractor = Arc<dyn Fn(&[u8]) -> Option<Key> + Send + Sync>;

/// Definition of a local secondary index.
#[derive(Clone)]
pub struct SecondaryIndexDef {
    /// Index name, e.g. `idx_lineitem_shipdate`.
    pub name: String,
    /// Extracts the secondary key from the record payload.
    pub extractor: SecondaryExtractor,
}

impl SecondaryIndexDef {
    /// Creates a definition.
    pub fn new(
        name: impl Into<String>,
        extractor: impl Fn(&[u8]) -> Option<Key> + Send + Sync + 'static,
    ) -> Self {
        SecondaryIndexDef {
            name: name.into(),
            extractor: Arc::new(extractor),
        }
    }
}

impl fmt::Debug for SecondaryIndexDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SecondaryIndexDef")
            .field("name", &self.name)
            .finish()
    }
}

/// Everything needed to create a dataset.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset name (e.g. `lineitem`).
    pub name: String,
    /// Partitioning / rebalancing scheme.
    pub scheme: Scheme,
    /// Local secondary indexes.
    pub secondary_indexes: Vec<SecondaryIndexDef>,
    /// Memory-component budget per bucket, bytes.
    pub memtable_budget_bytes: usize,
}

impl DatasetSpec {
    /// Creates a spec with no secondary indexes and a small default memtable.
    pub fn new(name: impl Into<String>, scheme: Scheme) -> Self {
        DatasetSpec {
            name: name.into(),
            scheme,
            secondary_indexes: Vec::new(),
            memtable_budget_bytes: 256 * 1024,
        }
    }

    /// Adds a secondary index definition.
    pub fn with_secondary_index(mut self, def: SecondaryIndexDef) -> Self {
        self.secondary_indexes.push(def);
        self
    }

    /// Overrides the memory-component budget.
    pub fn with_memtable_budget(mut self, bytes: usize) -> Self {
        self.memtable_budget_bytes = bytes;
        self
    }
}

/// The Cluster Controller's metadata for one dataset.
#[derive(Debug, Clone)]
pub struct DatasetMeta {
    /// Dataset identifier.
    pub id: DatasetId,
    /// The creation spec.
    pub spec: DatasetSpec,
    /// The global directory (bucketed schemes only).
    pub directory: Option<GlobalDirectory>,
    /// The ordered partition list used by `hash(K) mod N` routing (Hashing
    /// scheme) and by per-partition job dispatch.
    pub partitions: Vec<PartitionId>,
    /// Bumped whenever `partitions` changes (a rebalance commit installs a
    /// new partition list, a Hashing rebuild swaps it wholesale, or a
    /// decommission drops entries). Together with the directory version this
    /// makes [`DatasetMeta::routing_version`] change whenever *any* cached
    /// routing state could have gone stale.
    pub partitions_version: u64,
}

impl DatasetMeta {
    /// The partition a key routes to under this dataset's scheme.
    pub fn route_key(&self, key: &Key) -> Option<PartitionId> {
        self.route_hash(hash_key(key))
    }

    /// [`DatasetMeta::route_key`] for a caller that has hashed its key
    /// already: `hash` must be the key's `hash_key`.
    pub fn route_hash(&self, hash: u64) -> Option<PartitionId> {
        match &self.directory {
            Some(dir) => dir.lookup_hash(hash).map(|(_, p)| p),
            None => (!self.partitions.is_empty())
                .then(|| Scheme::modulo_partition(hash, &self.partitions)),
        }
    }

    /// True if the dataset uses extendible-hashing buckets.
    pub fn is_bucketed(&self) -> bool {
        self.directory.is_some()
    }

    /// The version of this dataset's routing state, as carried by cached
    /// client snapshots and echoed in stale-directory rejections. Monotonic:
    /// it changes whenever the directory or the partition list changes.
    pub fn routing_version(&self) -> u64 {
        let dir = self.directory.as_ref().map(|d| d.version()).unwrap_or(0);
        dir + self.partitions_version
    }

    /// Records that the partition list changed, invalidating cached routes.
    pub fn bump_partitions_version(&mut self) {
        self.partitions_version += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynahash_core::ClusterTopology;

    fn meta_bucketed() -> DatasetMeta {
        let topo = ClusterTopology::uniform(2, 2);
        let dir = GlobalDirectory::initial(4, &topo.partitions()).unwrap();
        DatasetMeta {
            id: 1,
            spec: DatasetSpec::new("orders", Scheme::static_hash_256()),
            directory: Some(dir),
            partitions: topo.partitions(),
            partitions_version: 1,
        }
    }

    #[test]
    fn bucketed_routing_uses_directory() {
        let m = meta_bucketed();
        assert!(m.is_bucketed());
        for i in 0..100u64 {
            let k = Key::from_u64(i);
            let p = m.route_key(&k).unwrap();
            let (_, expect) = m.directory.as_ref().unwrap().lookup_key(&k).unwrap();
            assert_eq!(p, expect);
        }
    }

    #[test]
    fn hashing_routing_uses_modulo() {
        let topo = ClusterTopology::uniform(2, 2);
        let m = DatasetMeta {
            id: 2,
            spec: DatasetSpec::new("orders", Scheme::Hashing),
            directory: None,
            partitions: topo.partitions(),
            partitions_version: 1,
        };
        assert!(!m.is_bucketed());
        for i in 0..100u64 {
            let k = Key::from_u64(i);
            assert_eq!(
                m.route_key(&k).unwrap(),
                Scheme::modulo_partition(hash_key(&k), &m.partitions)
            );
        }
    }

    #[test]
    fn spec_builder_accumulates_indexes() {
        let spec = DatasetSpec::new("lineitem", Scheme::dynahash(1 << 20, 8))
            .with_secondary_index(SecondaryIndexDef::new("idx_a", |_| None))
            .with_secondary_index(SecondaryIndexDef::new("idx_b", |_| Some(Key::from_u64(1))))
            .with_memtable_budget(1024);
        assert_eq!(spec.secondary_indexes.len(), 2);
        assert_eq!(spec.memtable_budget_bytes, 1024);
        assert_eq!(spec.secondary_indexes[1].name, "idx_b");
    }
}
