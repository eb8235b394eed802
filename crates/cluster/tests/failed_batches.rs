//! A write group is refused whole: every refusal is decided before anything
//! is stored, so an `Err` from a feed batch or a point write means no tree,
//! pending copy or heat counter changed. A batch with one record routed to
//! a down node stores none of its records, whichever partitions the others
//! route to; so does a batch with one record a job replicates to a down
//! destination, and a point write refused that way leaves every tree, the
//! storage metrics and the armed heat map as they were. A down node
//! refuses with `NodeDown`, a permanently lost one with `NodeLost`. A
//! record whose partition no longer holds a local bucket covering its key
//! (a routing bug) refuses the batch whole as well.

use dynahash_cluster::{
    Cluster, ClusterError, DatasetId, DatasetSpec, RebalanceJob, SecondaryIndexDef,
};
use dynahash_core::{BucketHeat, NodeId, Scheme};
use dynahash_lsm::entry::{Entry, Key};
use dynahash_lsm::metrics::MetricsSnapshot;
use dynahash_lsm::{BucketId, Bytes, LsmTree, StorageError};
use std::collections::BTreeMap;

fn record(k: u64) -> (Key, Bytes) {
    (Key::from_u64(k), Bytes::from(vec![k as u8; 24]))
}

/// Whether each record is stored where the CC routes it, and with its value.
fn stored(cluster: &mut Cluster, ds: DatasetId, records: &[(Key, Bytes)]) -> Vec<bool> {
    let admin = cluster.admin();
    (records.iter())
        .map(|(key, value)| {
            let partition = admin.route_key(ds, key).unwrap();
            let local = admin.partition(partition).unwrap().dataset(ds).unwrap();
            local.get(key).as_ref() == Some(value)
        })
        .collect()
}

/// What one tree holds: its components' visible entries, then its memory
/// component's entries.
fn tree_state(tree: &LsmTree) -> (Vec<Vec<Entry>>, Vec<Entry>) {
    let components = (tree.components().iter())
        .map(|c| c.iter().cloned().collect())
        .collect();
    let buffered = (tree.memtable().iter())
        .map(|(key, op)| Entry::from_parts(key, op))
        .collect();
    (components, buffered)
}

/// Everything a write could change on one partition: its storage metrics
/// (every tree's writes, pending copies' included), every primary bucket's
/// and secondary index's tree, and its pending buckets and their bytes.
type PartitionState = (
    MetricsSnapshot,
    Vec<(Vec<Vec<Entry>>, Vec<Entry>)>,
    Vec<BucketId>,
    usize,
);

/// [`PartitionState`] of every partition, and the dataset's heat counters.
fn state(
    cluster: &mut Cluster,
    ds: DatasetId,
) -> (Vec<PartitionState>, BTreeMap<BucketId, BucketHeat>) {
    let heat = cluster.heat_ops_snapshot(ds);
    let partitions = cluster.topology().partitions();
    let admin = cluster.admin();
    let partitions = (partitions.into_iter())
        .map(|p| {
            let part = admin.partition(p).unwrap();
            let local = part.dataset(ds).unwrap();
            let primary = &local.primary;
            let mut trees: Vec<_> = (primary.bucket_ids().iter())
                .map(|b| tree_state(primary.bucket_tree(b).unwrap()))
                .collect();
            trees.extend(local.secondaries.iter().map(|s| tree_state(s.tree())));
            (
                part.metrics().snapshot(),
                trees,
                primary.pending_bucket_ids(),
                primary.pending_storage_bytes(),
            )
        })
        .collect();
    (partitions, heat)
}

/// The secondary key of a payload: its first byte.
fn first_byte(payload: &[u8]) -> Option<Key> {
    Some(Key::from_slice(payload.get(..1)?))
}

/// A loaded 2-node StaticHash dataset with a secondary index, a node added,
/// and a job towards it whose first wave has shipped: the job, the added
/// node and the buckets the wave shipped to it.
fn mid_job() -> (Cluster, DatasetId, RebalanceJob, NodeId, Vec<BucketId>) {
    let mut cluster = Cluster::new(2);
    let spec = DatasetSpec::new("kv", Scheme::StaticHash { num_buckets: 16 })
        .with_secondary_index(SecondaryIndexDef::new("first", first_byte));
    let ds = cluster.create_dataset(spec).unwrap();
    cluster.admin().ingest(ds, (0..2000).map(record)).unwrap();
    let added = cluster.add_node().unwrap();
    let target = cluster.topology().clone();
    let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 2).unwrap();
    job.init(&mut cluster).unwrap();
    let shipped: Vec<BucketId> = (job.waves()[0].iter())
        .filter(|m| target.node_of(m.to) == Some(added))
        .map(|m| m.bucket)
        .collect();
    assert!(
        !shipped.is_empty(),
        "the first wave must ship to the new node"
    );
    job.run_wave(&mut cluster).unwrap();
    (cluster, ds, job, added, shipped)
}

/// The first of `records` whose bucket is one of `shipped`.
fn first_shipped(
    cluster: &Cluster,
    ds: DatasetId,
    records: &[(Key, Bytes)],
    shipped: &[BucketId],
) -> usize {
    let meta = cluster.controller.dataset(ds).unwrap();
    let directory = meta.directory.as_ref().unwrap();
    (records.iter())
        .position(|(key, _)| shipped.contains(&directory.lookup_key(key).unwrap().0))
        .unwrap()
}

#[test]
fn a_batch_with_a_record_routed_to_a_down_node_stores_none_of_its_records() {
    for scheme in [Scheme::StaticHash { num_buckets: 16 }, Scheme::Hashing] {
        let mut cluster = Cluster::new(3);
        let ds = cluster
            .create_dataset(DatasetSpec::new("kv", scheme))
            .unwrap();
        let down = NodeId(1);
        cluster.crash_node(down).unwrap();
        let records: Vec<(Key, Bytes)> = (0..400).map(record).collect();
        let owners: Vec<NodeId> = (records.iter())
            .map(|(key, _)| {
                let partition = cluster.admin().route_key(ds, key).unwrap();
                cluster.node_of_partition(partition).unwrap()
            })
            .collect();
        let first = owners.iter().position(|n| *n == down).unwrap();
        assert!(
            first > 0 && owners.iter().any(|n| *n != down),
            "{scheme:?}: the batch needs records for the live nodes too"
        );
        match cluster.admin().ingest(ds, records.clone()) {
            Err(ClusterError::NodeDown(node)) => assert_eq!(node, down, "{scheme:?}"),
            other => panic!("{scheme:?}: expected NodeDown, got {other:?}"),
        }
        assert_eq!(
            stored(&mut cluster, ds, &records),
            vec![false; records.len()],
            "{scheme:?}"
        );
        assert_eq!(cluster.dataset_len(ds).unwrap(), 0, "{scheme:?}");
    }
}

#[test]
fn a_batch_with_a_record_its_down_replica_destination_refuses_stores_none_of_its_records() {
    let (mut cluster, ds, _job, added, shipped) = mid_job();
    cluster.crash_node(added).unwrap();
    let records: Vec<(Key, Bytes)> = (10_000..10_400).map(record).collect();
    let first = first_shipped(&cluster, ds, &records, &shipped);
    assert!(
        first > 0,
        "the scenario needs records before the refused one"
    );
    let before = state(&mut cluster, ds);
    match cluster.admin().ingest(ds, records.clone()) {
        Err(ClusterError::NodeDown(node)) => assert_eq!(node, added),
        other => panic!("expected NodeDown, got {other:?}"),
    }
    assert_eq!(
        stored(&mut cluster, ds, &records),
        vec![false; records.len()]
    );
    assert!(
        state(&mut cluster, ds) == before,
        "the refused batch stored"
    );
}

#[test]
fn a_put_its_crashed_replica_destination_refuses_changes_nothing() {
    let (mut cluster, ds, _job, added, shipped) = mid_job();
    cluster.set_heat_tracking(true);
    let mut session = cluster.session(ds).unwrap();
    // Warm the heat map, so an extra write would show in it.
    for (key, value) in (20_000..20_100).map(record) {
        session.put(&mut cluster, key, value).unwrap();
    }
    assert!(!cluster.heat_ops_snapshot(ds).is_empty());
    cluster.crash_node(added).unwrap();
    let records: Vec<(Key, Bytes)> = (10_000..10_400).map(record).collect();
    let (key, value) = records[first_shipped(&cluster, ds, &records, &shipped)].clone();

    let before = state(&mut cluster, ds);
    match session.put(&mut cluster, key.clone(), value) {
        Err(ClusterError::NodeDown(node)) => assert_eq!(node, added),
        other => panic!("expected NodeDown, got {other:?}"),
    }
    let after = state(&mut cluster, ds);
    for (p, (old, new)) in before.0.iter().zip(&after.0).enumerate() {
        assert!(
            old.1 == new.1,
            "partition {p}: the refused put changed a tree"
        );
        assert!(
            (&old.2, old.3) == (&new.2, new.3),
            "partition {p}: the refused put changed a pending copy"
        );
        assert!(old.0 == new.0, "partition {p}: the refused put wrote");
    }
    assert!(after.1 == before.1, "the refused put changed the heat map");
    assert_eq!(session.get(&cluster, &key).unwrap(), None);
}

#[test]
fn a_write_a_lost_node_refuses_is_refused_with_node_lost() {
    // Its owner is lost: a Hashing dataset marks no bucket lost, so the
    // write reaches the owner's liveness check.
    let mut cluster = Cluster::new(3);
    let ds = cluster
        .create_dataset(DatasetSpec::new("kv", Scheme::Hashing))
        .unwrap();
    cluster.admin().ingest(ds, (0..300).map(record)).unwrap();
    let lost = NodeId(1);
    cluster.lose_node(lost).unwrap();
    let records: Vec<(Key, Bytes)> = (1000..1100).map(record).collect();
    let on_lost = |cluster: &mut Cluster, key: &Key| {
        let partition = cluster.admin().route_key(ds, key).unwrap();
        cluster.node_of_partition(partition).unwrap() == lost
    };
    let (key, value) = (records.iter())
        .find(|(key, _)| on_lost(&mut cluster, key))
        .unwrap()
        .clone();
    let mut session = cluster.session(ds).unwrap();
    match session.put(&mut cluster, key, value) {
        Err(ClusterError::NodeLost(node)) => assert_eq!(node, lost),
        other => panic!("expected NodeLost, got {other:?}"),
    }
    match session.ingest(&mut cluster, records.clone()) {
        Err(ClusterError::NodeLost(node)) => assert_eq!(node, lost),
        other => panic!("expected NodeLost, got {other:?}"),
    }
    assert_eq!(
        stored(&mut cluster, ds, &records),
        vec![false; records.len()]
    );
    let (key, value) = (records.iter())
        .find(|(key, _)| !on_lost(&mut cluster, key))
        .unwrap()
        .clone();
    session.put(&mut cluster, key, value).unwrap();

    // Its replica destination is lost: the bucket still lives at its
    // source, so it is not degraded, but the job cannot replicate to it.
    let (mut cluster, ds, _job, added, shipped) = mid_job();
    cluster.lose_node(added).unwrap();
    let records: Vec<(Key, Bytes)> = (10_000..10_400).map(record).collect();
    let (key, value) = records[first_shipped(&cluster, ds, &records, &shipped)].clone();
    let mut session = cluster.session(ds).unwrap();
    match session.put(&mut cluster, key, value) {
        Err(ClusterError::NodeLost(node)) => assert_eq!(node, added),
        other => panic!("expected NodeLost, got {other:?}"),
    }
}

/// A routing bug refuses a batch whole too: a record routed to a partition
/// whose local directory no longer covers its key. The routing pass finds
/// every record's local bucket before anything is stored, so the shares of
/// the partitions before the broken one are not stored either.
#[test]
fn a_batch_with_a_record_no_local_bucket_covers_stores_none_of_its_records() {
    let mut cluster = Cluster::new(2);
    let ds = cluster
        .create_dataset(DatasetSpec::new(
            "kv",
            Scheme::StaticHash { num_buckets: 16 },
        ))
        .unwrap();
    let records: Vec<(Key, Bytes)> = (0..400).map(record).collect();
    let partitions = cluster.topology().partitions();
    let (first, last) = (partitions[0], *partitions.last().unwrap());
    let routes: Vec<_> = {
        let meta = cluster.controller.dataset(ds).unwrap();
        let directory = meta.directory.as_ref().unwrap();
        (records.iter())
            .map(|(key, _)| directory.lookup_key(key).unwrap())
            .collect()
    };
    assert!(
        routes.iter().any(|(_, p)| *p == first),
        "the batch needs records for a partition before the broken one"
    );
    let (dropped, _) = *routes.iter().find(|(_, p)| *p == last).unwrap();
    let mut admin = cluster.admin();
    let local = admin.partition_mut(last).unwrap().dataset_mut(ds).unwrap();
    local.primary.drop_bucket(dropped).unwrap();

    let before = state(&mut cluster, ds);
    match cluster.admin().ingest(ds, records.clone()) {
        Err(ClusterError::Storage(StorageError::UnknownBucket(_))) => {}
        other => panic!("expected UnknownBucket, got {other:?}"),
    }
    assert_eq!(
        stored(&mut cluster, ds, &records),
        vec![false; records.len()]
    );
    assert!(
        state(&mut cluster, ds) == before,
        "the refused batch stored"
    );
}
