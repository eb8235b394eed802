//! A feed batch that fails part of the way stores exactly the records
//! before its first failure. With one node down, the first record routed
//! to that node fails the batch with `NodeDown`: every record before it is
//! stored (on the live nodes), and no record from it on is — whichever
//! partition it routes to. A dead replica destination refuses only the
//! replication of its record, which the owner has taken, as a record
//! written on its own is applied before it is replicated.

use dynahash_cluster::{Cluster, ClusterError, DatasetSpec, RebalanceJob};
use dynahash_core::{NodeId, Scheme};
use dynahash_lsm::entry::Key;
use dynahash_lsm::{BucketId, Bytes};

fn record(k: u64) -> (Key, Bytes) {
    (Key::from_u64(k), Bytes::from(vec![k as u8; 24]))
}

/// Whether each record is stored where the CC routes it, and with its value.
fn stored(
    cluster: &mut Cluster,
    ds: dynahash_cluster::DatasetId,
    records: &[(Key, Bytes)],
) -> Vec<bool> {
    let admin = cluster.admin();
    (records.iter())
        .map(|(key, value)| {
            let partition = admin.route_key(ds, key).unwrap();
            let local = admin.partition(partition).unwrap().dataset(ds).unwrap();
            local.get(key).as_ref() == Some(value)
        })
        .collect()
}

#[test]
fn a_batch_stores_exactly_the_records_before_the_first_one_routed_to_a_down_node() {
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
        assert!(first > 0, "{scheme:?}: the scenario needs stored records");
        match cluster.admin().ingest(ds, records.clone()) {
            Err(ClusterError::NodeDown(node)) => assert_eq!(node, down, "{scheme:?}"),
            other => panic!("{scheme:?}: expected NodeDown, got {other:?}"),
        }
        let expected: Vec<bool> = (0..records.len()).map(|at| at < first).collect();
        assert_eq!(stored(&mut cluster, ds, &records), expected, "{scheme:?}");
    }
}

#[test]
fn a_batch_stores_the_record_its_dead_replica_destination_refuses_at_its_owner() {
    let mut cluster = Cluster::new(2);
    let scheme = Scheme::StaticHash { num_buckets: 16 };
    let ds = cluster
        .create_dataset(DatasetSpec::new("kv", scheme))
        .unwrap();
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
    cluster.crash_node(added).unwrap();

    let records: Vec<(Key, Bytes)> = (10_000..10_400).map(record).collect();
    let meta = cluster.controller.dataset(ds).unwrap();
    let directory = meta.directory.as_ref().unwrap();
    let first = (records.iter())
        .position(|(key, _)| shipped.contains(&directory.lookup_key(key).unwrap().0))
        .unwrap();
    assert!(
        first > 0,
        "the scenario needs records before the refused one"
    );
    match cluster.admin().ingest(ds, records.clone()) {
        Err(ClusterError::NodeDown(node)) => assert_eq!(node, added),
        other => panic!("expected NodeDown, got {other:?}"),
    }
    let expected: Vec<bool> = (0..records.len()).map(|at| at <= first).collect();
    assert_eq!(stored(&mut cluster, ds, &records), expected);
}
