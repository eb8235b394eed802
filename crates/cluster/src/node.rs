//! Node Controllers.
//!
//! A Node Controller (NC) hosts several storage partitions and executes the
//! data processing tasks the Cluster Controller dispatches to it. It keeps no
//! log of its own: what a rebalance needs to survive a failure is in the
//! Cluster Controller's metadata log (Section V), and concurrent writes to a
//! moving bucket are applied to the destination's pending copy directly.
//! Nodes can be killed and recovered by the fault-injection tests.

use std::collections::BTreeMap;

use dynahash_core::{NodeId, PartitionId};

use crate::fault::NodeState;
use crate::partition::Partition;
use crate::ClusterError;

/// A Node Controller and its partitions.
pub struct NodeController {
    /// The node id.
    pub id: NodeId,
    partitions: BTreeMap<PartitionId, Partition>,
    alive: bool,
    lost: bool,
}

impl std::fmt::Debug for NodeController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeController")
            .field("id", &self.id)
            .field("partitions", &self.partitions.len())
            .field("alive", &self.alive)
            .field("lost", &self.lost)
            .finish()
    }
}

impl NodeController {
    /// Creates a node hosting the given partitions.
    pub fn new(id: NodeId, partitions: Vec<PartitionId>) -> Self {
        NodeController {
            id,
            partitions: partitions
                .into_iter()
                .map(|p| (p, Partition::new(p)))
                .collect(),
            alive: true,
            lost: false,
        }
    }

    /// Access to a partition.
    pub fn partition(&self, id: PartitionId) -> Result<&Partition, ClusterError> {
        self.partitions
            .get(&id)
            .ok_or(ClusterError::UnknownPartition(id))
    }

    /// Mutable access to a partition.
    pub fn partition_mut(&mut self, id: PartitionId) -> Result<&mut Partition, ClusterError> {
        self.partitions
            .get_mut(&id)
            .ok_or(ClusterError::UnknownPartition(id))
    }

    /// Iterates the node's partitions.
    pub fn partitions(&self) -> impl Iterator<Item = &Partition> {
        self.partitions.values()
    }

    /// True if the node is up.
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// True if the node is permanently lost (never recoverable).
    pub fn is_lost(&self) -> bool {
        self.lost
    }

    /// The node's liveness state for the health surface.
    pub fn state(&self) -> NodeState {
        if self.lost {
            NodeState::Lost
        } else if self.alive {
            NodeState::Alive
        } else {
            NodeState::Crashed
        }
    }

    /// Simulates a crash: the node stops responding. Every written record
    /// survives, in disk and memory components alike: the simulation models
    /// no loss of written data, so there is nothing to replay.
    /// Pending rebalance state does **not** survive: the metadata
    /// registering an in-flight transfer is only forced by the rebalance
    /// commit, so restart recovery discards the orphan received components
    /// and the rebalance executor re-ships them from the moves recorded in
    /// the CC's metadata log.
    pub fn crash(&mut self) {
        self.alive = false;
        for p in self.partitions.values_mut() {
            p.drop_all_pending();
        }
    }

    /// Permanently loses the node: same immediate effect as a crash, but
    /// the node never recovers. Its durable data is gone with it — any
    /// bucket whose only copy lived here must be rerouted (if already
    /// shipped elsewhere) or declared lost (degraded mode).
    pub fn mark_lost(&mut self) {
        self.crash();
        self.lost = true;
    }

    /// Recovers a crashed node. The caller (the CC) is responsible for
    /// telling the node how to finish any in-flight rebalance, as described
    /// by failure Cases 1-5. A permanently lost node stays down.
    pub fn recover(&mut self) {
        if !self.lost {
            self.alive = true;
        }
    }

    /// Total storage bytes over all partitions.
    pub fn total_storage_bytes(&self) -> usize {
        self.partitions
            .values()
            .map(|p| p.total_storage_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetSpec;
    use dynahash_core::Scheme;
    use dynahash_lsm::{BucketId, Bytes, Entry, Key};

    #[test]
    fn node_hosts_its_partitions() {
        let n = NodeController::new(NodeId(2), vec![PartitionId(8), PartitionId(9)]);
        assert!(n.partitions.keys().eq(&[PartitionId(8), PartitionId(9)]));
        assert!(n.partition(PartitionId(8)).is_ok());
        assert!(n.partition(PartitionId(7)).is_err());
        assert!(n.is_alive());
    }

    #[test]
    fn a_crash_drops_pending_buckets_and_recovery_restores_service() {
        let received = BucketId::new(3, 2);
        let resident: Vec<BucketId> = (0..3).map(|b| BucketId::new(b, 2)).collect();
        let keys = (0..400u64).map(Key::from_u64);
        let (incoming, own): (Vec<Key>, Vec<Key>) = keys.partition(|k| received.contains_key(k));
        let mut n = NodeController::new(NodeId(0), vec![PartitionId(0)]);
        let part = n.partition_mut(PartitionId(0)).unwrap();
        part.create_dataset(
            1,
            &DatasetSpec::new("orders", Scheme::static_hash_256()),
            resident,
        );
        let ds = part.dataset_mut(1).unwrap();
        for k in &own {
            ds.ingest(k.clone(), Bytes::from("v")).unwrap();
        }
        ds.create_pending_bucket(received).unwrap();
        let shipped = incoming
            .iter()
            .map(|k| Entry::put(k.clone(), "v"))
            .collect();
        ds.load_pending(received, shipped).unwrap();

        n.crash();
        assert!(!n.is_alive());
        let ds = n.partition(PartitionId(0)).unwrap().dataset(1).unwrap();
        assert!(
            !ds.primary.has_pending_bucket(&received),
            "the uncommitted transfer is gone"
        );
        // Written records survive, the unflushed ones in memory included.
        assert!(own.iter().all(|k| ds.get(k).is_some()));
        n.recover();
        assert!(n.is_alive());
        let ds = n
            .partition_mut(PartitionId(0))
            .unwrap()
            .dataset_mut(1)
            .unwrap();
        ds.create_pending_bucket(received).unwrap();
    }
}
