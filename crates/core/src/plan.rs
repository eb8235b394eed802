//! Rebalance planning: deciding which buckets move where.
//!
//! During the initialization phase the Cluster Controller refreshes the
//! global directory from the partitions' local directories, runs Algorithm 2
//! against the target topology, and derives the set of bucket moves. The
//! plan also carries the byte cost of each move, which the experiments use
//! to report the rebalance data-movement cost.

use std::collections::{BTreeMap, VecDeque};

use dynahash_lsm::wal::RebalanceId;
use dynahash_lsm::BucketId;

use crate::balance::{balance_assignment, BalanceInput, BucketLoad};
use crate::directory::GlobalDirectory;
use crate::topology::{ClusterTopology, NodeId, PartitionId};
use crate::{CoreError, Result};

/// One bucket move from a source partition to a destination partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketMove {
    /// The bucket being moved.
    pub bucket: BucketId,
    /// The partition currently holding the bucket.
    pub from: PartitionId,
    /// The partition that will hold the bucket after the rebalance.
    pub to: PartitionId,
    /// The bucket's size in bytes (what must be scanned and shipped).
    pub bytes: u64,
}

/// The complete plan of a rebalance operation.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalancePlan {
    /// The rebalance operation id (metadata transaction id).
    pub rebalance_id: RebalanceId,
    /// The directory before the rebalance (refreshed from local directories).
    pub old_directory: GlobalDirectory,
    /// The directory after the rebalance commits.
    pub new_directory: GlobalDirectory,
    /// The bucket moves to perform.
    pub moves: Vec<BucketMove>,
    /// The target topology.
    pub target: ClusterTopology,
}

impl RebalancePlan {
    /// Computes a plan.
    ///
    /// * `old_directory` — the refreshed global directory (bucket → current
    ///   partition);
    /// * `bucket_bytes` — the actual size of each bucket in bytes (reported
    ///   by the NCs); buckets missing from the map fall back to their
    ///   normalized size so the balancing still works;
    /// * `target` — the topology after scaling in/out.
    pub fn compute(
        rebalance_id: RebalanceId,
        old_directory: &GlobalDirectory,
        bucket_bytes: &BTreeMap<BucketId, u64>,
        target: &ClusterTopology,
    ) -> Result<RebalancePlan> {
        let global_depth = old_directory.global_depth();
        let buckets: Vec<BucketLoad> = old_directory
            .iter()
            .map(|(bucket, partition)| {
                // Clamp to at least 1 so that empty buckets (common for small
                // datasets under StaticHash's 256 buckets) still participate
                // in the greedy refinement instead of stalling it.
                let size = bucket_bytes
                    .get(&bucket)
                    .copied()
                    .unwrap_or_else(|| bucket.normalized_size(global_depth))
                    .max(1);
                let current = if target.node_of(partition).is_some() {
                    Some(partition)
                } else {
                    None
                };
                BucketLoad {
                    bucket,
                    size,
                    current,
                }
            })
            .collect();

        let assignment = balance_assignment(&BalanceInput {
            buckets,
            target: target.clone(),
        })?;

        let mut moves = Vec::new();
        for (bucket, to) in &assignment {
            let from = old_directory
                .partition_of_bucket(bucket)
                .ok_or(CoreError::UnassignedBucket(*bucket))?;
            if from != *to {
                moves.push(BucketMove {
                    bucket: *bucket,
                    from,
                    to: *to,
                    bytes: bucket_bytes.get(bucket).copied().unwrap_or(0),
                });
            }
        }
        moves.sort_by_key(|m| m.bucket);

        let new_directory = GlobalDirectory::from_assignment(assignment)?;
        Ok(RebalancePlan {
            rebalance_id,
            old_directory: old_directory.clone(),
            new_directory,
            moves,
            target: target.clone(),
        })
    }

    /// Total bytes that must be scanned and shipped.
    pub fn total_bytes_moved(&self) -> u64 {
        self.moves.iter().map(|m| m.bytes).sum()
    }

    /// Number of buckets that move.
    pub fn num_moves(&self) -> usize {
        self.moves.len()
    }

    /// True if nothing needs to move.
    pub fn is_noop(&self) -> bool {
        self.moves.is_empty()
    }

    /// The partitions that participate in the rebalance (as source or
    /// destination of at least one move).
    pub fn participating_partitions(&self) -> Vec<PartitionId> {
        let mut v: Vec<PartitionId> = self.moves.iter().flat_map(|m| [m.from, m.to]).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Groups the moves into execution *waves* of at most
    /// `max_concurrent_moves` moves each, for the step-driven rebalance
    /// executor. Each wave runs its moves in parallel and is charged the
    /// slowest participating node (its makespan), so the scheduler
    /// interleaves moves round-robin across (destination node, source node)
    /// pairs: consecutive moves land on distinct node pairs whenever
    /// possible, maximising the hardware a wave keeps busy.
    ///
    /// `source_node_of` maps a source partition to its node in the *current*
    /// (pre-rebalance) topology; destinations are resolved against the plan's
    /// target topology. A `max_concurrent_moves` of 1 reproduces the fully
    /// serial schedule. Every move appears in exactly one wave.
    pub fn schedule_waves<F>(
        &self,
        max_concurrent_moves: usize,
        source_node_of: F,
    ) -> Vec<Vec<BucketMove>>
    where
        F: Fn(PartitionId) -> Option<NodeId>,
    {
        Self::schedule_moves(
            &self.moves,
            &self.target,
            max_concurrent_moves,
            source_node_of,
        )
    }

    /// [`RebalancePlan::schedule_waves`] over an arbitrary subset of moves:
    /// the rebalance executor's `replan_wave` reschedules the still-pending
    /// moves (reroutes and re-ships included) after amending the plan around
    /// a permanently lost node. Destinations resolve against `target`.
    pub fn schedule_moves<F>(
        moves: &[BucketMove],
        target: &ClusterTopology,
        max_concurrent_moves: usize,
        source_node_of: F,
    ) -> Vec<Vec<BucketMove>>
    where
        F: Fn(PartitionId) -> Option<NodeId>,
    {
        let cap = max_concurrent_moves.max(1);
        type PairKey = (Option<NodeId>, Option<NodeId>);
        let mut groups: BTreeMap<PairKey, VecDeque<BucketMove>> = BTreeMap::new();
        for m in moves {
            let key = (target.node_of(m.to), source_node_of(m.from));
            groups.entry(key).or_default().push_back(*m);
        }
        let mut interleaved = Vec::with_capacity(moves.len());
        while !groups.is_empty() {
            let keys: Vec<PairKey> = groups.keys().copied().collect();
            for key in keys {
                if let Some(queue) = groups.get_mut(&key) {
                    if let Some(m) = queue.pop_front() {
                        interleaved.push(m);
                    }
                    if queue.is_empty() {
                        groups.remove(&key);
                    }
                }
            }
        }
        interleaved
            .chunks(cap)
            .map(<[BucketMove]>::to_vec)
            .collect()
    }

    /// The fraction of the dataset (by bytes) that moves, given the total
    /// dataset size. This is the paper's headline metric: global rebalancing
    /// moves ≈ 100 % of the data, bucketing schemes move far less.
    pub fn moved_fraction(&self, total_dataset_bytes: u64) -> f64 {
        if total_dataset_bytes == 0 {
            0.0
        } else {
            self.total_bytes_moved() as f64 / total_dataset_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeId;

    fn sizes_uniform(dir: &GlobalDirectory, per_bucket: u64) -> BTreeMap<BucketId, u64> {
        dir.iter().map(|(b, _)| (b, per_bucket)).collect()
    }

    #[test]
    fn removing_a_node_moves_only_its_buckets() {
        let topo = ClusterTopology::uniform(4, 2);
        let dir = GlobalDirectory::initial(5, &topo.partitions()).unwrap(); // 32 buckets
        let sizes = sizes_uniform(&dir, 1000);
        let target = topo.without_node(NodeId(3));
        let plan = RebalancePlan::compute(1, &dir, &sizes, &target).unwrap();
        // node 3 had 2 partitions * 4 buckets = 8 buckets
        assert_eq!(plan.num_moves(), 8);
        assert_eq!(plan.total_bytes_moved(), 8 * 1000);
        assert!(plan.moved_fraction(32 * 1000) < 0.3);
        // everything lands on surviving nodes
        for m in &plan.moves {
            assert!(target.node_of(m.to).is_some());
            assert_eq!(topo.node_of(m.from), Some(NodeId(3)));
        }
        assert!(plan.new_directory.covers_full_space());
    }

    #[test]
    fn adding_a_node_moves_a_small_fraction() {
        let topo = ClusterTopology::uniform(4, 2);
        let dir = GlobalDirectory::initial(5, &topo.partitions()).unwrap();
        let sizes = sizes_uniform(&dir, 1000);
        let target = topo.with_added_node(2);
        let plan = RebalancePlan::compute(2, &dir, &sizes, &target).unwrap();
        assert!(!plan.is_noop());
        let frac = plan.moved_fraction(32 * 1000);
        assert!(
            frac < 0.5,
            "local rebalancing must not move most data: {frac}"
        );
        // the new node's partitions receive all moves
        for m in &plan.moves {
            assert_eq!(target.node_of(m.to), Some(NodeId(4)));
        }
    }

    #[test]
    fn unchanged_topology_is_a_noop() {
        let topo = ClusterTopology::uniform(2, 2);
        let dir = GlobalDirectory::initial(4, &topo.partitions()).unwrap();
        let sizes = sizes_uniform(&dir, 10);
        let plan = RebalancePlan::compute(3, &dir, &sizes, &topo).unwrap();
        assert!(plan.is_noop());
        assert_eq!(plan.new_directory, dir);
        assert_eq!(plan.total_bytes_moved(), 0);
        assert!(plan.participating_partitions().is_empty());
    }

    #[test]
    fn serial_schedule_is_one_move_per_wave() {
        let topo = ClusterTopology::uniform(4, 2);
        let dir = GlobalDirectory::initial(5, &topo.partitions()).unwrap();
        let sizes = sizes_uniform(&dir, 1000);
        let target = topo.without_node(NodeId(3));
        let plan = RebalancePlan::compute(7, &dir, &sizes, &target).unwrap();
        let waves = plan.schedule_waves(1, |p| topo.node_of(p));
        assert_eq!(waves.len(), plan.num_moves());
        assert!(waves.iter().all(|w| w.len() == 1));
    }

    #[test]
    fn waves_cover_every_move_exactly_once_and_spread_nodes() {
        let topo = ClusterTopology::uniform(4, 2);
        let dir = GlobalDirectory::initial(5, &topo.partitions()).unwrap();
        let sizes = sizes_uniform(&dir, 1000);
        let target = topo.without_node(NodeId(3));
        let plan = RebalancePlan::compute(8, &dir, &sizes, &target).unwrap();
        let waves = plan.schedule_waves(4, |p| topo.node_of(p));
        // 8 moves in waves of <= 4
        assert!(waves.iter().all(|w| !w.is_empty() && w.len() <= 4));
        let mut flattened: Vec<BucketId> = waves
            .iter()
            .flat_map(|w| w.iter().map(|m| m.bucket))
            .collect();
        flattened.sort();
        let mut expected: Vec<BucketId> = plan.moves.iter().map(|m| m.bucket).collect();
        expected.sort();
        assert_eq!(flattened, expected);
        // a full wave spreads its moves over more than one destination node
        let first = &waves[0];
        let dst_nodes: std::collections::BTreeSet<_> =
            first.iter().filter_map(|m| target.node_of(m.to)).collect();
        assert!(
            dst_nodes.len() > 1,
            "wave should span multiple destination nodes: {dst_nodes:?}"
        );
    }

    #[test]
    fn zero_concurrency_is_clamped_to_serial() {
        let topo = ClusterTopology::uniform(3, 2);
        let dir = GlobalDirectory::initial(4, &topo.partitions()).unwrap();
        let sizes = sizes_uniform(&dir, 5);
        let target = topo.without_node(NodeId(2));
        let plan = RebalancePlan::compute(9, &dir, &sizes, &target).unwrap();
        let waves = plan.schedule_waves(0, |p| topo.node_of(p));
        assert_eq!(waves.len(), plan.num_moves());
    }
}
