//! Degraded-dataset repair: the second planner over the staged-transaction
//! engine, restoring buckets lost with a dead node.
//!
//! A permanently lost node takes the only copy of its resident buckets with
//! it. The rebalance replan path keeps the *cluster* converging — routing is
//! reassigned to survivors and the job commits — but the reassigned buckets
//! come up **empty**, and the dataset serves degraded: reads and writes
//! touching a lost bucket get the typed [`ClusterError::BucketDegraded`]
//! instead of silently-empty data, and
//! [`crate::fault::FaultStats::degraded_datasets`] names the damage.
//!
//! A repair closes the loop, and it is not a second protocol: it is a
//! [`RebalanceJob`] whose buckets are staged from an **operator-supplied
//! feed** (a backup, an upstream source, or a scenario's model snapshot)
//! instead of a live source partition. [`RebalanceJob::plan_repair`] only
//! *plans*:
//!
//! * the scope is the dataset's currently-degraded buckets;
//! * a bucket whose owner is itself dead is reassigned to the least-loaded
//!   surviving partition, the others stay where the earlier re-plan put
//!   their empty replacement;
//! * the feed is routed **once**, and each in-scope bucket's records (the
//!   last one of a key wins) become one component, built here and never
//!   again.
//!
//! From there the engine in [`crate::job`] does what it does for every job:
//! one wave stages each component as the pending (invisible) copy of its
//! bucket, exactly as a shipped bucket is staged; the prepare phase flushes
//! the replicated writes and blocks writes, the 2PC decides, the commit
//! installs each restored bucket over its empty replacement — taking it out
//! of the degraded set — and installs the (possibly reassigned) directory,
//! which sessions pull as a delta on their next stale route. The restored
//! bucket's index entries are built from it on the first index query, as
//! for any received bucket. A node lost *mid-repair* is re-planned around
//! like in any job: its pending copies are
//! staged again on survivors, and its own resident buckets — newly degraded
//! — are installed empty for the *next* repair to restore.
//!
//! The one-shot driver is [`crate::cluster::Admin::repair_dataset`]; the
//! control plane auto-triggers it on a health tick when an operator has
//! registered a repair feed (see [`crate::control::ControlPlane`]).

use std::collections::BTreeMap;

use dynahash_core::{BucketId, BucketMove, GlobalDirectory, NodeId, PartitionId, RebalancePlan};
use dynahash_lsm::entry::{Key, Value};
use dynahash_lsm::{Component, ComponentSource, Entry};

use crate::cluster::Cluster;
use crate::dataset::DatasetId;
use crate::job::RebalanceJob;
use crate::{ClusterError, Result};

impl RebalanceJob {
    /// Plans a repair of the dataset's currently-degraded buckets from
    /// `feed`: fixes the scope, reassigns buckets owned by dead nodes to the
    /// least-loaded surviving partition, builds one component per in-scope
    /// bucket from the feed's records, and only then forces BEGIN — a
    /// refused repair leaves nothing in the metadata log. All buckets stage
    /// in one wave. The scope may be empty (the resulting job commits
    /// trivially); callers that want
    /// a cheap no-op should check
    /// [`crate::fault::FaultStats::degraded_buckets`] first, as
    /// [`crate::cluster::Admin::repair_dataset`] does.
    pub fn plan_repair(
        cluster: &mut Cluster,
        dataset: DatasetId,
        feed: &[(Key, Value)],
    ) -> Result<Self> {
        Self::admit(cluster, dataset)?;
        let old_directory = cluster
            .controller
            .dataset(dataset)?
            .directory
            .clone()
            .ok_or_else(|| {
                ClusterError::RebalanceAborted("bucketed dataset has no directory".to_string())
            })?;

        // Route every feed record once; only in-scope buckets keep theirs.
        let mut routed: BTreeMap<BucketId, Vec<Entry>> = cluster
            .fault_stats()
            .degraded_buckets(dataset)
            .into_iter()
            .map(|b| (b, Vec::new()))
            .collect();
        let mut bytes: BTreeMap<BucketId, u64> = BTreeMap::new();
        for (key, value) in feed {
            let Some((bucket, _)) = old_directory.lookup_key(key) else {
                continue;
            };
            if let Some(entries) = routed.get_mut(&bucket) {
                entries.push(Entry::put(key.clone(), value.clone()));
                *bytes.entry(bucket).or_default() += (key.len() + value.len()) as u64;
            }
        }

        // Each bucket's records become one component, built once: every
        // (re-)stage of the bucket installs a handle to it.
        let staged: BTreeMap<BucketId, Component> = routed
            .into_iter()
            .map(|(b, entries)| {
                (
                    b,
                    Component::from_unsorted(entries, ComponentSource::Loaded),
                )
            })
            .collect();
        let mut new_directory = old_directory.clone();
        let mut moves = Vec::with_capacity(staged.len());
        for &bucket in staged.keys() {
            let to = assign_owner(cluster, &mut new_directory, bucket)?;
            moves.push(BucketMove {
                bucket,
                // The previous owner, for the record only: nothing ships from it.
                from: old_directory.partition_of_bucket(&bucket).unwrap_or(to),
                to,
                bytes: bytes.get(&bucket).copied().unwrap_or(0),
            });
        }

        // The repair commits onto every node that can still serve; the alive
        // ones vote (owners ack their installs, the rest ack the — possibly
        // reassigned — directory).
        let mut target = cluster.topology().clone();
        for n in target.nodes() {
            if cluster.node_is_lost(n) {
                target = target.without_node(n);
            }
        }
        let participants: Vec<NodeId> = target
            .nodes()
            .into_iter()
            .filter(|n| cluster.node_is_alive(*n))
            .collect();
        let waves = if moves.is_empty() {
            Vec::new()
        } else {
            vec![moves.clone()]
        };
        let total_bytes = cluster.dataset_primary_bytes(dataset)?;
        // Nothing below can refuse the repair: only now is BEGIN forced.
        let plan = RebalancePlan {
            rebalance_id: cluster.controller.log_begin(dataset),
            old_directory,
            new_directory,
            moves,
            target,
        };
        Ok(Self::planned(
            cluster,
            dataset,
            plan,
            waves,
            participants,
            total_bytes,
            staged,
        ))
    }
}

/// The partition that will serve `bucket` after the repair: its current
/// owner when that node is alive, otherwise the least-loaded (fewest
/// directory slots, then lowest id) partition on an alive node, with the
/// routing reassigned accordingly.
fn assign_owner(
    cluster: &Cluster,
    routing: &mut GlobalDirectory,
    bucket: BucketId,
) -> Result<PartitionId> {
    let alive = |p: PartitionId| {
        cluster
            .topology()
            .node_of(p)
            .is_some_and(|n| cluster.node_is_alive(n))
    };
    if let Some(owner) = routing.partition_of_bucket(&bucket).filter(|p| alive(*p)) {
        return Ok(owner);
    }
    let to = cluster
        .topology()
        .partitions()
        .into_iter()
        .filter(|p| alive(*p))
        .min_by_key(|p| (routing.partition_load(*p), *p))
        .ok_or_else(|| {
            ClusterError::RebalanceAborted("no surviving partition to repair onto".to_string())
        })?;
    routing.reassign(bucket, to);
    Ok(to)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetSpec;
    use dynahash_core::{RebalanceOutcome, Scheme};
    use dynahash_lsm::Bytes;

    fn key(i: u64) -> Key {
        Key::from(i)
    }

    fn value(i: u64) -> Value {
        Bytes::from(format!("v{i:06}").into_bytes())
    }

    fn seeded_cluster() -> (Cluster, DatasetId, Vec<(Key, Value)>) {
        let mut cluster = Cluster::new(4);
        let ds = cluster
            .create_dataset(DatasetSpec::new(
                "repairable",
                Scheme::dynahash(1 << 30, 16),
            ))
            .unwrap();
        let records: Vec<(Key, Value)> = (0..400).map(|i| (key(i), value(i))).collect();
        cluster.admin().ingest(ds, records.clone()).unwrap();
        (cluster, ds, records)
    }

    #[test]
    fn direct_loss_degrades_then_repair_restores() {
        let (mut cluster, ds, records) = seeded_cluster();
        let victim = cluster.topology().nodes()[1];
        cluster.lose_node(victim).unwrap();
        let degraded = cluster.fault_stats().degraded_buckets(ds);
        assert!(!degraded.is_empty(), "losing a data node degrades buckets");

        // Reads and writes on a lost bucket get the typed error.
        let mut session = cluster.session(ds).unwrap();
        let lost_key = records
            .iter()
            .map(|(k, _)| k.clone())
            .find(|k| cluster.lost_bucket_of(ds, k).is_some())
            .expect("some key routes to a lost bucket");
        assert!(matches!(
            session.get(&cluster, &lost_key),
            Err(ClusterError::BucketDegraded { .. })
        ));
        assert!(matches!(
            session.put(&mut cluster, lost_key.clone(), value(9999)),
            Err(ClusterError::BucketDegraded { .. })
        ));

        // The feed names every record twice; the repair stages each key once,
        // so its count is exact and prices the ingest of the lost records.
        let lost = (records.iter())
            .filter(|(k, _)| cluster.lost_bucket_of(ds, k).is_some())
            .count();
        let feed: Vec<(Key, Value)> = records.iter().chain(&records).cloned().collect();
        let report = cluster
            .admin()
            .repair_dataset(ds, &feed)
            .unwrap()
            .expect("a degraded dataset is repaired");
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        assert_eq!(report.buckets_moved, degraded.len());
        assert_eq!(report.entries_moved, lost as u64);
        assert!(cluster.fault_stats().degraded_datasets().is_empty());
        assert_eq!(
            cluster.fault_stats().repaired_buckets,
            degraded.len() as u64
        );

        // Every record — lost-bucket ones included — reads back, and once
        // the dead node is removed the cluster is globally consistent.
        let mut session = cluster.session(ds).unwrap();
        for (k, v) in &records {
            assert_eq!(session.get(&cluster, k).unwrap().as_ref(), Some(v));
        }
        cluster.remove_lost_node(victim).unwrap();
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .unwrap();
    }

    #[test]
    fn repair_reassigns_buckets_owned_by_the_dead_node() {
        let (mut cluster, ds, records) = seeded_cluster();
        let victim = cluster.topology().nodes()[0];
        let victim_partitions = cluster.topology().partitions_of_node(victim);
        cluster.lose_node(victim).unwrap();
        let degraded = cluster.fault_stats().degraded_buckets(ds);
        let report = cluster.admin().repair_dataset(ds, &records).unwrap();
        assert_eq!(report.unwrap().outcome, RebalanceOutcome::Committed);
        // No repaired bucket may still route to the dead node's partitions.
        let meta = cluster.controller.dataset(ds).unwrap();
        let dir = meta.directory.as_ref().unwrap();
        for b in &degraded {
            let owner = dir.partition_of_bucket(b).unwrap();
            assert!(!victim_partitions.contains(&owner));
        }
        let mut session = cluster.session(ds).unwrap();
        for (k, v) in &records {
            assert_eq!(session.get(&cluster, k).unwrap().as_ref(), Some(v));
        }
    }

    #[test]
    fn a_refused_repair_leaves_no_begin_in_the_metadata_log() {
        let mut cluster = Cluster::new(2);
        let ds = cluster
            .create_dataset(DatasetSpec::new(
                "refused",
                Scheme::StaticHash { num_buckets: 8 },
            ))
            .unwrap();
        let records: Vec<(Key, Value)> = (0..200).map(|i| (key(i), value(i))).collect();
        cluster.admin().ingest(ds, records.clone()).unwrap();
        let nodes = cluster.topology().nodes();
        cluster.lose_node(nodes[1]).unwrap();
        cluster.crash_node(nodes[0]).unwrap();

        // No node can take the lost buckets: the repair is refused ...
        assert!(matches!(
            cluster.admin().repair_dataset(ds, &records),
            Err(ClusterError::RebalanceAborted(_))
        ));
        // ... before it began, so recovery finds no operation to abort.
        assert!(cluster.restart_controller().aborted_rebalances.is_empty());

        cluster.recover_all_nodes();
        let report = cluster.admin().repair_dataset(ds, &records).unwrap();
        assert_eq!(report.unwrap().outcome, RebalanceOutcome::Committed);
        assert!(cluster.restart_controller().aborted_rebalances.is_empty());
    }

    #[test]
    fn repair_noop_when_nothing_lost() {
        let (mut cluster, ds, records) = seeded_cluster();
        let report = cluster.admin().repair_dataset(ds, &records).unwrap();
        assert!(report.is_none());
    }
}
