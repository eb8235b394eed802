//! Fault tolerance and recovery (Section V-D).
//!
//! The cluster-level crash/recover entry points — crash, recover or
//! permanently lose a Node Controller, restart the Cluster Controller and
//! classify what its durable log shows — and the report of the latter. These
//! are the primitives a [`Fault`](crate::fault::Fault) is made of:
//! [`Cluster::fire_faults`] applies them at a step boundary of a job in
//! flight, and scenario code driving a job step by step may call them
//! directly. The paper's six failure cases are rows of
//! `tests/failure_matrix.rs`.

use std::collections::BTreeSet;

use dynahash_core::NodeId;
use dynahash_lsm::wal::{LogRecordBody, RebalanceId, RebalanceLogStatus};

use crate::cluster::Cluster;
use crate::obs::Event;
use crate::{ClusterError, Result};

/// What the recovered Cluster Controller found in its metadata log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Operations with BEGIN but neither COMMIT nor ABORT: to be aborted.
    pub aborted_rebalances: Vec<RebalanceId>,
    /// Operations with COMMIT but no DONE: their commit tasks are re-driven.
    pub redriven_rebalances: Vec<RebalanceId>,
}

impl Cluster {
    /// Crashes a node: it stops serving and drops its uncommitted pending
    /// buckets.
    pub fn crash_node(&mut self, node: NodeId) -> Result<()> {
        self.node_mut(node)?.crash();
        Ok(())
    }

    /// Recovers a node. Upon recovery the NC registers with the CC; any
    /// pending rebalance instructions are handled by the rebalance executor.
    /// A permanently lost node is not recoverable.
    pub fn recover_node(&mut self, node: NodeId) -> Result<()> {
        let nc = self.node_mut(node)?;
        if nc.is_lost() {
            return Err(ClusterError::NodeLost(node));
        }
        nc.recover();
        Ok(())
    }

    /// Permanently loses a node: it crashes and never comes back. In-flight
    /// rebalance jobs must [`replan_wave`](crate::job::RebalanceJob::replan_wave)
    /// around it; once no dataset's directory references its partitions it
    /// can be removed with [`Cluster::remove_lost_node`].
    pub fn lose_node(&mut self, node: NodeId) -> Result<()> {
        self.node_mut(node)?.mark_lost();
        self.record(Event::NodeLost { node });
        // Buckets whose only copy lived on this node are degraded from this
        // moment: every bucket the CC directory routes to its partitions,
        // minus buckets whose shipped pending copy survives on an alive
        // destination of an in-flight rebalance (the replan re-drives those
        // to commit). A mid-job replan records the same set; the dedup push
        // makes the double-record a no-op.
        let partitions = self.topology().partitions_of_node(node);
        let mut newly_lost: Vec<(crate::dataset::DatasetId, dynahash_core::BucketId)> = Vec::new();
        for dataset in self.controller.dataset_ids() {
            let Ok(meta) = self.controller.dataset(dataset) else {
                continue;
            };
            let Some(dir) = meta.directory.as_ref() else {
                continue;
            };
            for (bucket, partition) in dir.iter() {
                if !partitions.contains(&partition) {
                    continue;
                }
                let survives = self.active_rebalances.get(&dataset).is_some_and(|active| {
                    active.shipped.get(&bucket).is_some_and(|dst| {
                        active
                            .target
                            .node_of(*dst)
                            .is_some_and(|n| n != node && self.node_is_alive(n))
                    })
                });
                if !survives {
                    newly_lost.push((dataset, bucket));
                }
            }
        }
        for (dataset, bucket) in newly_lost {
            self.faults.mark_lost(dataset, bucket);
        }
        Ok(())
    }

    /// True if the node is currently up.
    pub fn node_is_alive(&self, node: NodeId) -> bool {
        self.node(node).map(|n| n.is_alive()).unwrap_or(false)
    }

    /// True if the node is permanently lost.
    pub fn node_is_lost(&self, node: NodeId) -> bool {
        self.node(node).map(|n| n.is_lost()).unwrap_or(false)
    }

    /// Recovers every crashed node (permanently lost nodes stay down) and
    /// returns the nodes it brought back. Used by the rebalance finalization
    /// step (recovered NCs re-run their idempotent commit or cleanup tasks)
    /// and available to scenarios driving a job step-by-step.
    pub fn recover_all_nodes(&mut self) -> Vec<NodeId> {
        let mut recovered = Vec::new();
        for n in self.topology().nodes() {
            if let Ok(nc) = self.node_mut(n) {
                if !nc.is_alive() && !nc.is_lost() {
                    nc.recover();
                    recovered.push(n);
                }
            }
        }
        recovered
    }

    /// Crashes and immediately recovers the Cluster Controller, then scans
    /// the metadata log to classify every rebalance operation, mirroring the
    /// recovery rules of Section V-D. Node Controllers are not touched: a
    /// crashed one stays down. Acting on the classification is the caller's
    /// job ([`Cluster::fire_faults`] aborts the undecided jobs it was handed).
    pub fn restart_controller(&mut self) -> RecoveryReport {
        self.controller.crash();
        self.controller.recover();
        let mut aborted = Vec::new();
        let mut redriven = Vec::new();
        // Every operation the CC ever started left a BEGIN record, and the
        // crash kept exactly the durable ones.
        let log = &self.controller.metadata_log;
        let begun: BTreeSet<RebalanceId> = log
            .records()
            .iter()
            .filter_map(|r| match r.body {
                LogRecordBody::RebalanceBegin { rebalance, .. } => Some(rebalance),
                _ => None,
            })
            .collect();
        for id in begun {
            match log.rebalance_status(id) {
                RebalanceLogStatus::InFlight => aborted.push(id),
                RebalanceLogStatus::CommittedNotDone => redriven.push(id),
                _ => {}
            }
        }
        RecoveryReport {
            aborted_rebalances: aborted,
            redriven_rebalances: redriven,
        }
    }
}

impl From<ClusterError> for std::io::Error {
    fn from(e: ClusterError) -> Self {
        std::io::Error::other(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetSpec;
    use crate::rebalance::RebalanceOptions;
    use dynahash_core::Scheme;
    use dynahash_lsm::entry::Key;
    use dynahash_lsm::Bytes;

    fn loaded(nodes: u32) -> (Cluster, crate::DatasetId) {
        let mut cluster = Cluster::with_config(
            nodes,
            crate::ClusterConfig {
                partitions_per_node: 2,
                cost_model: crate::CostModel::default(),
            },
        );
        let ds = cluster
            .create_dataset(DatasetSpec::new(
                "orders",
                Scheme::StaticHash { num_buckets: 16 },
            ))
            .unwrap();
        let records: Vec<(Key, Bytes)> = (0..1200u64)
            .map(|i| (Key::from_u64(i), Bytes::from(vec![(i % 250) as u8; 48])))
            .collect();
        cluster.ingest(ds, records).unwrap();
        (cluster, ds)
    }

    #[test]
    fn controller_recovery_classifies_operations_beyond_the_first_64() {
        let (mut cluster, ds) = loaded(2);
        let target = cluster.topology().clone();
        for _ in 0..70 {
            cluster
                .rebalance(ds, &target, RebalanceOptions::none())
                .unwrap();
        }
        let in_flight = crate::RebalanceJob::plan(&mut cluster, ds, &target, 1).unwrap();
        assert!(in_flight.rebalance_id() > 64);
        let report = cluster.restart_controller();
        assert_eq!(report.aborted_rebalances, vec![in_flight.rebalance_id()]);
        assert!(report.redriven_rebalances.is_empty());
    }

    /// A crash loses no written record: what was written before it — the
    /// records still buffered in memory components included — reads back
    /// once the node recovers, with no log to replay.
    #[test]
    fn crash_and_recover_node_roundtrip() {
        let (mut cluster, ds) = loaded(2);
        let mut session = cluster.session(ds).unwrap();
        for i in 5_000..5_050u64 {
            let value = Bytes::from(vec![(i % 250) as u8; 48]);
            session.put(&mut cluster, Key::from_u64(i), value).unwrap();
        }
        let node = cluster.node(NodeId(1)).unwrap();
        let buffered: usize = node
            .partitions()
            .map(|p| {
                let primary = &p.dataset(ds).unwrap().primary;
                primary
                    .bucket_ids()
                    .iter()
                    .map(|b| primary.bucket_tree(b).unwrap().memtable().len())
                    .sum::<usize>()
            })
            .sum();
        assert!(buffered > 0, "the crash must catch unflushed records");
        cluster.crash_node(NodeId(1)).unwrap();
        assert!(!cluster.node_is_alive(NodeId(1)));
        let report = cluster.restart_controller();
        assert!(report.aborted_rebalances.is_empty());
        assert!(
            !cluster.node_is_alive(NodeId(1)),
            "a CC restart restarts no NC"
        );
        assert_eq!(cluster.recover_all_nodes(), vec![NodeId(1)]);
        assert!(cluster.node_is_alive(NodeId(1)));
        let (contents, _) = session.collect_records(&cluster).unwrap();
        assert_eq!(contents.len(), 1250);
        for i in (0..1200u64).chain(5_000..5_050) {
            let expected = Bytes::from(vec![(i % 250) as u8; 48]);
            assert_eq!(contents.get(&Key::from_u64(i)), Some(&expected), "key {i}");
        }
    }

    #[test]
    fn ingest_into_downed_node_fails() {
        let (mut cluster, ds) = loaded(2);
        cluster.crash_node(NodeId(0)).unwrap();
        let err = cluster.ingest(ds, vec![(Key::from_u64(50_000), Bytes::from("x"))]);
        // the record may route to node 0 (down) or node 1 (up); if it routes
        // to the downed node the feed fails with NodeDown
        if let Err(e) = err {
            assert!(matches!(e, ClusterError::NodeDown(_)));
        }
        cluster.recover_node(NodeId(0)).unwrap();
    }
}
