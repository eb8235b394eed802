//! Cluster topology: nodes and storage partitions.
//!
//! An AsterixDB cluster has one Cluster Controller and multiple Node
//! Controllers; each NC hosts several storage partitions to exploit
//! multi-core parallelism (the paper uses 4 partitions per node). The
//! topology maps partitions to nodes so that the balancing algorithm can
//! break ties by node load, as Algorithm 2 requires.

use std::fmt;

/// Identifier of a Node Controller.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifier of a storage partition (unique across the cluster).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PartitionId(pub u32);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nc{}", self.0)
    }
}
impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nc{}", self.0)
    }
}
impl fmt::Debug for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}
impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The set of nodes and partitions a dataset is (or will be) spread over.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClusterTopology {
    /// The node hosting each partition, indexed by partition id: `None`
    /// where no partition of that id is in the topology. The last slot is
    /// never `None`, so equal topologies hold equal tables.
    hosts: Vec<Option<NodeId>>,
}

impl ClusterTopology {
    /// Builds a topology of `num_nodes` nodes with `partitions_per_node`
    /// partitions each, numbered densely: node `i` hosts partitions
    /// `i*ppn .. (i+1)*ppn`.
    pub fn uniform(num_nodes: u32, partitions_per_node: u32) -> Self {
        let hosts = (0..num_nodes * partitions_per_node)
            .map(|p| Some(NodeId(p / partitions_per_node)))
            .collect();
        ClusterTopology { hosts }
    }

    /// The node hosting a partition.
    pub fn node_of(&self, partition: PartitionId) -> Option<NodeId> {
        self.hosts.get(partition.0 as usize).copied().flatten()
    }

    /// Every (partition, node) pair in ascending partition id order.
    fn iter(&self) -> impl Iterator<Item = (PartitionId, NodeId)> + '_ {
        (self.hosts.iter().enumerate()).filter_map(|(p, n)| Some((PartitionId(p as u32), (*n)?)))
    }

    /// All partitions in ascending id order.
    pub fn partitions(&self) -> Vec<PartitionId> {
        self.iter().map(|(p, _)| p).collect()
    }

    /// All partitions hosted by a node.
    pub fn partitions_of_node(&self, node: NodeId) -> Vec<PartitionId> {
        (self.iter().filter(|(_, n)| *n == node))
            .map(|(p, _)| p)
            .collect()
    }

    /// All distinct nodes in ascending id order.
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.hosts.iter().flatten().copied().collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.hosts.iter().flatten().count()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes().len()
    }

    /// True if the topology has no partitions.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Returns a new topology with the given node (and its partitions) removed.
    pub fn without_node(&self, node: NodeId) -> ClusterTopology {
        let mut hosts: Vec<Option<NodeId>> = (self.hosts.iter())
            .map(|n| n.filter(|n| *n != node))
            .collect();
        while hosts.last() == Some(&None) {
            hosts.pop();
        }
        ClusterTopology { hosts }
    }

    /// Returns a new topology with an extra node of `partitions_per_node`
    /// partitions appended (partition ids continue after the current maximum).
    pub fn with_added_node(&self, partitions_per_node: u32) -> ClusterTopology {
        let next_node = self.nodes().last().map(|n| n.0 + 1).unwrap_or(0);
        let mut hosts = self.hosts.clone();
        hosts.resize(
            hosts.len() + partitions_per_node as usize,
            Some(NodeId(next_node)),
        );
        ClusterTopology { hosts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_topology_layout() {
        let t = ClusterTopology::uniform(4, 4);
        assert_eq!(t.num_nodes(), 4);
        assert_eq!(t.num_partitions(), 16);
        assert_eq!(t.node_of(PartitionId(0)), Some(NodeId(0)));
        assert_eq!(t.node_of(PartitionId(15)), Some(NodeId(3)));
        assert_eq!(t.node_of(PartitionId(16)), None);
        assert_eq!(t.partitions_of_node(NodeId(1)).len(), 4);
    }

    #[test]
    fn add_and_remove_nodes() {
        let t = ClusterTopology::uniform(2, 4);
        let bigger = t.with_added_node(4);
        assert_eq!(bigger.num_nodes(), 3);
        assert_eq!(bigger.num_partitions(), 12);
        let smaller = bigger.without_node(NodeId(2));
        assert_eq!(smaller, t);
        let removed = bigger.partitions_of_node(NodeId(2));
        assert_eq!(removed.len(), 4);
        assert!(removed.iter().all(|p| smaller.node_of(*p).is_none()));
    }

    #[test]
    fn empty_topology() {
        let t = ClusterTopology::default();
        assert!(t.is_empty());
        assert_eq!(t.num_nodes(), 0);
        let grown = t.with_added_node(2);
        assert_eq!(grown.num_partitions(), 2);
        assert_eq!(grown.node_of(PartitionId(0)), Some(NodeId(0)));
    }
}
