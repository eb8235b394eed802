//! Fault tolerance and recovery (Section V-D).
//!
//! The cluster-level crash/recover entry points — crash, recover or
//! permanently lose a Node Controller, restart the Cluster Controller and
//! classify what its durable log shows — and the report of the latter. A
//! Node Controller keeps no log of its own and is nothing but its
//! [`NodeState`]: what a rebalance needs to survive a failure is in the
//! Cluster Controller's metadata log (Section V), and concurrent writes to a
//! moving bucket are applied to the destination's pending copy directly. These
//! are the primitives a [`Fault`](crate::fault::Fault) is made of:
//! [`Cluster::fire_faults`] applies them at a step boundary of a job in
//! flight, and scenario code driving a job step by step may call them
//! directly. The paper's six failure cases are rows of
//! `tests/failure_matrix.rs`.

use std::collections::BTreeSet;

use dynahash_core::{NodeId, PartitionId};
use dynahash_lsm::wal::{LogRecordBody, RebalanceId, RebalanceLogStatus};

use crate::cluster::Cluster;
use crate::fault::NodeState;
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
    /// Crashes a node: it stops serving (a lost node stays lost). Every
    /// written record survives, in disk and memory components alike: the
    /// simulation models no loss of written data, so there is nothing to
    /// replay. Pending rebalance state does **not** survive: the metadata
    /// registering an in-flight transfer is only forced by the rebalance
    /// commit, so restart recovery discards the orphan received components
    /// and the rebalance executor re-ships them from the moves recorded in
    /// the CC's metadata log. Logged as an [`Event::NodeCrashed`].
    pub fn crash_node(&mut self, node: NodeId) -> Result<()> {
        self.crash(node)?;
        self.record(Event::NodeCrashed { node });
        Ok(())
    }

    fn crash(&mut self, node: NodeId) -> Result<()> {
        let state = self.node_state_mut(node)?;
        if *state == NodeState::Alive {
            *state = NodeState::Crashed;
        }
        for p in self.topology().partitions_of_node(node) {
            self.partition_mut(p)?.drop_all_pending();
        }
        Ok(())
    }

    /// Recovers a node. Upon recovery the NC registers with the CC; the
    /// caller (the CC) tells it how to finish any in-flight rebalance, as
    /// described by failure Cases 1-5. A permanently lost node is not
    /// recoverable. Logged as an [`Event::NodeRecovered`].
    pub fn recover_node(&mut self, node: NodeId) -> Result<()> {
        let state = self.node_state_mut(node)?;
        if *state == NodeState::Lost {
            return Err(ClusterError::NodeLost(node));
        }
        *state = NodeState::Alive;
        self.record(Event::NodeRecovered { node });
        Ok(())
    }

    /// Permanently loses a node: it crashes and never comes back, and its
    /// durable data is gone with it. This is where a loss is booked: a loss
    /// kills a bucket when it removes the bucket's last copy — the bucket
    /// had a copy here (the CC routes it here, or an in-flight job shipped
    /// it here), its owner's node is lost, and no shipped copy sits on a
    /// node that is alive. Such a bucket serves degraded from this moment,
    /// a source lost earlier whose shipped copy dies now included. In-flight
    /// rebalance jobs must
    /// [`replan_wave`](crate::job::RebalanceJob::replan_wave) around it; once
    /// no dataset's directory references its partitions it can be removed
    /// with [`Cluster::remove_lost_node`].
    pub fn lose_node(&mut self, node: NodeId) -> Result<()> {
        self.crash(node)?;
        *self.node_state_mut(node)? = NodeState::Lost;
        self.record(Event::NodeLost { node });
        let here = self.topology().partitions_of_node(node);
        let host_is = |p: PartitionId, state: NodeState| {
            (self.topology().node_of(p)).is_some_and(|n| self.node_state(n).ok() == Some(state))
        };
        let mut newly_lost = Vec::new();
        for dataset in self.controller.dataset_ids() {
            let Ok(meta) = self.controller.dataset(dataset) else {
                continue;
            };
            let Some(dir) = meta.directory.as_ref() else {
                continue;
            };
            let shipped = self.active_rebalances.get(&dataset).map(|a| &a.shipped);
            for (bucket, owner) in dir.iter() {
                let copy = shipped.and_then(|s| s.get(&bucket)).copied();
                let had_copy = here.contains(&owner) || copy.is_some_and(|p| here.contains(&p));
                let survives = copy.is_some_and(|p| host_is(p, NodeState::Alive));
                if had_copy && host_is(owner, NodeState::Lost) && !survives {
                    newly_lost.push((dataset, bucket));
                }
            }
        }
        for (dataset, bucket) in newly_lost {
            self.faults.mark_lost(dataset, bucket);
        }
        Ok(())
    }

    /// A node's liveness state, to change.
    fn node_state_mut(&mut self, node: NodeId) -> Result<&mut NodeState> {
        (self.nodes.get_mut(node.0 as usize))
            .and_then(Option::as_mut)
            .ok_or(ClusterError::UnknownNode(node))
    }

    /// True if the node is currently up.
    pub fn node_is_alive(&self, node: NodeId) -> bool {
        self.node_state(node).ok() == Some(NodeState::Alive)
    }

    /// Refuses work on `node` unless it is up: a crashed node with
    /// [`ClusterError::NodeDown`], a permanently lost one with
    /// [`ClusterError::NodeLost`].
    pub(crate) fn require_up(&self, node: NodeId) -> Result<()> {
        match self.node_state(node)? {
            NodeState::Alive => Ok(()),
            NodeState::Crashed => Err(ClusterError::NodeDown(node)),
            NodeState::Lost => Err(ClusterError::NodeLost(node)),
        }
    }

    /// Refuses work on `partition` unless its node is up
    /// ([`Cluster::require_up`]).
    pub(crate) fn require_up_at(&self, partition: PartitionId) -> Result<()> {
        self.require_up(self.node_of_partition(partition)?)
    }

    /// True if the node is permanently lost.
    pub fn node_is_lost(&self, node: NodeId) -> bool {
        self.node_state(node).ok() == Some(NodeState::Lost)
    }

    /// Recovers every crashed node (permanently lost nodes stay down) and
    /// returns the nodes it brought back, each logged as an
    /// [`Event::NodeRecovered`]. Used by the rebalance finalization step
    /// (recovered NCs re-run their idempotent commit or cleanup tasks) and
    /// available to scenarios driving a job step-by-step.
    pub fn recover_all_nodes(&mut self) -> Vec<NodeId> {
        let mut recovered = Vec::new();
        for (n, state) in self.nodes.iter_mut().enumerate() {
            if *state == Some(NodeState::Crashed) {
                *state = Some(NodeState::Alive);
                recovered.push(NodeId(n as u32));
            }
        }
        for &node in &recovered {
            self.record(Event::NodeRecovered { node });
        }
        recovered
    }

    /// Crashes and immediately recovers the Cluster Controller, then scans
    /// the metadata log to classify every rebalance operation, mirroring the
    /// recovery rules of Section V-D. Node Controllers are not touched: a
    /// crashed one stays down. Acting on the classification is the caller's
    /// job ([`Cluster::fire_faults`] aborts the undecided jobs it was handed).
    /// Logged as an [`Event::ControllerRestarted`].
    pub fn restart_controller(&mut self) -> RecoveryReport {
        self.controller.crash();
        self.record(Event::ControllerRestarted);
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
    use dynahash_core::{PartitionId, Scheme};
    use dynahash_lsm::entry::Key;
    use dynahash_lsm::{BucketId, Bytes, Component, ComponentSource, Entry};

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

    /// A loss books a bucket when it takes the bucket's last copy: losing a
    /// moving bucket's source leaves its shipped copy serving, and losing
    /// that copy's node next books the bucket at once, before any replan.
    #[test]
    fn losing_a_source_then_its_shipped_destination_books_the_bucket() {
        let (mut cluster, ds) = loaded(3);
        let source = NodeId(2);
        let target = cluster.topology_without(source);
        let mut job = crate::RebalanceJob::plan(&mut cluster, ds, &target, 1).unwrap();
        job.init(&mut cluster).unwrap();
        job.run_wave(&mut cluster).unwrap();
        let m = job.waves()[0][0];
        assert_eq!(cluster.topology().node_of(m.from), Some(source));
        let degraded = |cluster: &Cluster| cluster.fault_stats().degraded_buckets(ds);

        cluster.lose_node(source).unwrap();
        let unshipped = degraded(&cluster);
        assert!(
            !unshipped.is_empty(),
            "unshipped buckets die with the source"
        );
        assert!(!unshipped.contains(&m.bucket), "the shipped copy survives");
        let destination = cluster.topology().node_of(m.to).unwrap();
        cluster.lose_node(destination).unwrap();
        assert!(
            degraded(&cluster).contains(&m.bucket),
            "the last copy died with the destination"
        );
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
        let buffered: usize = (cluster.topology().partitions_of_node(NodeId(1)).iter())
            .map(|p| {
                let primary = &cluster.store(*p, ds).unwrap().primary;
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

    /// Every crash, recovery and controller restart appends exactly one
    /// event, in call order; the data path appends none.
    #[test]
    fn crashes_and_restarts_are_logged_and_the_data_path_is_not() {
        let (mut cluster, ds) = loaded(2);
        let mut session = cluster.session(ds).unwrap();
        let start = cluster.events(0).len();
        session.get(&cluster, &Key::from_u64(7)).unwrap();
        let value = Bytes::from(vec![1u8; 48]);
        session.put(&mut cluster, Key::from_u64(7), value).unwrap();
        let batch = vec![(Key::from_u64(9_000), Bytes::from(vec![2u8; 48]))];
        session.ingest(&mut cluster, batch).unwrap();
        assert!(cluster.events(start).is_empty(), "the data path logged");

        cluster.crash_node(NodeId(1)).unwrap();
        cluster.recover_node(NodeId(1)).unwrap();
        cluster.crash_node(NodeId(0)).unwrap();
        assert_eq!(cluster.recover_all_nodes(), vec![NodeId(0)]);
        cluster.restart_controller();
        assert_eq!(
            cluster.events(start),
            [
                Event::NodeCrashed { node: NodeId(1) },
                Event::NodeRecovered { node: NodeId(1) },
                Event::NodeCrashed { node: NodeId(0) },
                Event::NodeRecovered { node: NodeId(0) },
                Event::ControllerRestarted,
            ]
        );
    }

    /// A node hosts the partitions its topology gives it and starts alive;
    /// an unknown node can be neither crashed nor recovered.
    #[test]
    fn a_node_hosts_its_partitions_and_starts_alive() {
        let cluster = Cluster::new(3);
        let hosted = cluster.topology().partitions_of_node(NodeId(2));
        assert_eq!(hosted, (8..12).map(PartitionId).collect::<Vec<_>>());
        assert!(hosted.iter().all(|p| cluster.partition(*p).is_ok()));
        assert!(cluster.partition(PartitionId(12)).is_err());
        assert!(cluster.node_is_alive(NodeId(2)));
        let mut cluster = cluster;
        assert!(matches!(
            cluster.crash_node(NodeId(3)),
            Err(ClusterError::UnknownNode(_))
        ));
        assert!(matches!(
            cluster.recover_node(NodeId(3)),
            Err(ClusterError::UnknownNode(_))
        ));
    }

    /// A crash drops the node's uncommitted pending buckets and keeps every
    /// written record, the unflushed ones in memory included; after
    /// `recover_node` the node serves and receives again.
    #[test]
    fn a_crash_drops_pending_buckets_and_recovery_restores_service() {
        let (mut cluster, ds) = loaded(2);
        let home = PartitionId(0);
        let store = cluster.store_mut(home, ds).unwrap();
        let own: Vec<Key> = (store.primary.scan(dynahash_lsm::ScanOrder::Unordered))
            .into_iter()
            .map(|e| e.key)
            .collect();
        let buffered = (store.primary.bucket_ids().iter())
            .map(|b| store.primary.bucket_tree(b).unwrap().memtable().len())
            .sum::<usize>();
        assert!(
            !own.is_empty() && buffered == own.len(),
            "nothing flushed yet"
        );
        let received = (0..16u32)
            .map(|bits| BucketId::new(bits, 4))
            .find(|b| !store.primary.owns(b))
            .unwrap();
        store.ensure_pending_bucket(received).unwrap();
        let shipped = (0..400u64)
            .map(Key::from_u64)
            .filter(|k| received.contains_key(k))
            .map(|k| Entry::put(k, "v"))
            .collect();
        let shipped = Component::from_unsorted(shipped, ComponentSource::Loaded);
        (store.primary.install_shipped(received, vec![shipped])).unwrap();

        cluster.crash_node(NodeId(0)).unwrap();
        assert!(!cluster.node_is_alive(NodeId(0)));
        let store = cluster.store(home, ds).unwrap();
        assert!(
            !store.primary.has_pending_bucket(&received),
            "the uncommitted transfer is gone"
        );
        // Written records survive, the unflushed ones in memory included.
        assert!(own.iter().all(|k| store.get(k).is_some()));
        cluster.recover_node(NodeId(0)).unwrap();
        assert!(cluster.node_is_alive(NodeId(0)));
        let store = cluster.store_mut(home, ds).unwrap();
        store.ensure_pending_bucket(received).unwrap();
        assert!(store.primary.pending_bucket_ids() == [received]);
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
