//! The Cluster Controller (CC).
//!
//! The CC is the coordinator of the cluster: it owns the dataset metadata
//! (including each bucketed dataset's global directory), produces metadata
//! log records (`BEGIN` / `COMMIT` / `DONE` of rebalance operations), and
//! drives rebalance operations. Queries and data feeds take an immutable copy
//! of the global directory from the CC when they start.

use std::collections::BTreeMap;

use dynahash_core::{CoreError, GlobalDirectory, PartitionId, RebalanceOutcome, Scheme};
use dynahash_lsm::wal::{LogRecordBody, RebalanceId, TransactionLog};

use crate::dataset::{DatasetId, DatasetMeta, DatasetSpec};
use crate::ClusterError;

/// The Cluster Controller's state.
pub struct ClusterController {
    datasets: BTreeMap<DatasetId, DatasetMeta>,
    next_dataset_id: DatasetId,
    next_rebalance_id: RebalanceId,
    /// The CC's metadata transaction log.
    pub metadata_log: TransactionLog,
}

impl std::fmt::Debug for ClusterController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterController")
            .field("datasets", &self.datasets.len())
            .finish()
    }
}

impl Default for ClusterController {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterController {
    /// Creates an empty controller.
    pub fn new() -> Self {
        ClusterController {
            datasets: BTreeMap::new(),
            next_dataset_id: 1,
            next_rebalance_id: 1,
            metadata_log: TransactionLog::new(),
        }
    }

    /// Registers a dataset spread over the given partitions, building the
    /// initial global directory for bucketed schemes.
    pub fn register_dataset(
        &mut self,
        spec: DatasetSpec,
        partitions: Vec<PartitionId>,
    ) -> Result<DatasetId, ClusterError> {
        let id = self.next_dataset_id;
        self.next_dataset_id += 1;
        let directory = match spec.scheme.initial_depth() {
            Some(depth) => {
                Some(GlobalDirectory::initial(depth, &partitions).map_err(ClusterError::Core)?)
            }
            None => None,
        };
        self.datasets.insert(
            id,
            DatasetMeta {
                id,
                spec,
                directory,
                partitions,
                partitions_version: 1,
            },
        );
        Ok(id)
    }

    /// The current routing version of a dataset: what a partition echoes in
    /// a stale-directory rejection, and what client sessions compare their
    /// cached snapshot against.
    pub fn routing_version(&self, id: DatasetId) -> Result<u64, ClusterError> {
        Ok(self.dataset(id)?.routing_version())
    }

    /// Dataset metadata.
    pub fn dataset(&self, id: DatasetId) -> Result<&DatasetMeta, ClusterError> {
        self.datasets
            .get(&id)
            .ok_or(ClusterError::UnknownDataset(id))
    }

    /// Mutable dataset metadata (used by rebalance commit to swap the
    /// directory and partition list).
    pub fn dataset_mut(&mut self, id: DatasetId) -> Result<&mut DatasetMeta, ClusterError> {
        self.datasets
            .get_mut(&id)
            .ok_or(ClusterError::UnknownDataset(id))
    }

    /// All registered dataset ids.
    pub fn dataset_ids(&self) -> Vec<DatasetId> {
        self.datasets.keys().copied().collect()
    }

    /// An immutable copy of a dataset's routing state, as taken by queries
    /// and data feeds at job start (Section III).
    pub fn routing_snapshot(&self, id: DatasetId) -> Result<DatasetMeta, ClusterError> {
        self.dataset(id).cloned()
    }

    /// Starts a rebalance operation of `dataset`: allocates its id and forces
    /// BEGIN, which the CC does before anything else (Section V-D).
    pub fn log_begin(&mut self, dataset: DatasetId) -> RebalanceId {
        let rebalance = self.next_rebalance_id;
        self.next_rebalance_id += 1;
        self.metadata_log
            .append_forced(LogRecordBody::RebalanceBegin { rebalance, dataset });
        rebalance
    }

    /// Forces the record that decides the operation: whichever of COMMIT and
    /// ABORT is durable *is* its outcome, whatever crashes afterwards.
    pub fn log_outcome(&mut self, rebalance: RebalanceId, outcome: RebalanceOutcome) {
        self.metadata_log.append_forced(match outcome {
            RebalanceOutcome::Committed => LogRecordBody::RebalanceCommit { rebalance },
            RebalanceOutcome::Aborted => LogRecordBody::RebalanceAbort { rebalance },
        });
    }

    /// Forces DONE: every task of the operation ran and it can be forgotten.
    pub fn log_done(&mut self, rebalance: RebalanceId) {
        self.metadata_log
            .append_forced(LogRecordBody::RebalanceDone { rebalance });
    }

    /// Simulates a CC crash and restart: non-durable metadata log records
    /// are lost. Pending rebalance operations are resolved by the rebalance
    /// recovery logic using [`TransactionLog::rebalance_status`].
    pub fn crash(&mut self) {
        self.metadata_log.crash();
    }

    /// Convenience check used before scheme-specific operations.
    pub fn scheme_of(&self, id: DatasetId) -> Result<Scheme, ClusterError> {
        Ok(self.dataset(id)?.spec.scheme)
    }
}

impl From<CoreError> for ClusterError {
    fn from(e: CoreError) -> Self {
        ClusterError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_bucketed_dataset_builds_directory() {
        let mut cc = ClusterController::new();
        let parts: Vec<PartitionId> = (0..8).map(PartitionId).collect();
        let id = cc
            .register_dataset(
                DatasetSpec::new("orders", Scheme::static_hash_256()),
                parts.clone(),
            )
            .unwrap();
        let meta = cc.dataset(id).unwrap();
        assert!(meta.is_bucketed());
        let dir = meta.directory.as_ref().unwrap();
        assert_eq!(dir.num_buckets(), 256);
        assert!(dir.covers_full_space());
        assert_eq!(meta.partitions, parts);
    }

    #[test]
    fn register_hashing_dataset_has_no_directory() {
        let mut cc = ClusterController::new();
        let id = cc
            .register_dataset(
                DatasetSpec::new("orders", Scheme::Hashing),
                vec![PartitionId(0), PartitionId(1)],
            )
            .unwrap();
        assert!(!cc.dataset(id).unwrap().is_bucketed());
        assert!(cc.dataset(99).is_err());
    }

    #[test]
    fn rebalance_ids_are_unique_and_increasing() {
        let mut cc = ClusterController::new();
        let a = cc.log_begin(1);
        let b = cc.log_begin(1);
        assert!(b > a);
    }

    #[test]
    fn routing_snapshot_is_a_copy() {
        let mut cc = ClusterController::new();
        let id = cc
            .register_dataset(
                DatasetSpec::new("o", Scheme::dynahash(1 << 20, 4)),
                (0..4).map(PartitionId).collect(),
            )
            .unwrap();
        let snap = cc.routing_snapshot(id).unwrap();
        // mutate the CC's copy; the snapshot must be unaffected
        cc.dataset_mut(id).unwrap().partitions.clear();
        assert_eq!(snap.partitions.len(), 4);
    }
}
