//! Lazy cleanup is lazy: the commit of a rebalance writes the moved buckets
//! into the metadata of the source partitions' index components and reads no
//! entry. Checked by construction, not by timing — when `commit` returns, no
//! index component of any source has applied its mark; the first `index_scan`
//! applies them all, and answers exactly what `fetch` and the model say.

use std::collections::{BTreeMap, BTreeSet};

use dynahash_cluster::{
    Cluster, ClusterConfig, DatasetId, DatasetSpec, RebalanceJob, SecondaryIndexDef,
};
use dynahash_core::{PartitionId, RebalanceOutcome, Scheme};
use dynahash_lsm::entry::Key;
use dynahash_lsm::Bytes;

const INDEX: &str = "idx_group";
const GROUPS: u64 = 16;

fn group_of(payload: &[u8]) -> Option<Key> {
    let bytes: [u8; 8] = payload.get(..8)?.try_into().ok()?;
    Some(Key::from_u64(u64::from_be_bytes(bytes)))
}

fn payload(key: u64) -> Bytes {
    let mut v = (key % GROUPS).to_be_bytes().to_vec();
    v.extend_from_slice(&[7u8; 32]);
    Bytes::from(v)
}

/// Per source partition, whether each sealed component of its secondary
/// index carries a filter, and whether that filter's view is built.
fn index_components(
    cluster: &mut Cluster,
    ds: DatasetId,
    sources: &BTreeSet<PartitionId>,
) -> Vec<(PartitionId, Vec<(bool, bool)>)> {
    let admin = cluster.admin();
    sources
        .iter()
        .map(|p| {
            let part = admin.partition(*p).unwrap().dataset(ds).unwrap();
            let comps = part.secondaries[0].components();
            let state = comps
                .iter()
                .map(|c| (c.needs_compaction(), c.view_is_built()))
                .collect();
            (*p, state)
        })
        .collect()
}

#[test]
fn commit_applies_no_mark_and_the_first_index_scan_applies_them_all() {
    let mut cluster = Cluster::with_config(
        4,
        ClusterConfig {
            partitions_per_node: 2,
        },
    );
    let spec = DatasetSpec::new("events", Scheme::StaticHash { num_buckets: 128 })
        .with_secondary_index(SecondaryIndexDef::new(INDEX, group_of));
    let ds = cluster.create_dataset(spec).unwrap();
    let mut session = cluster.session(ds).unwrap();
    let mut model: BTreeMap<u64, Bytes> = BTreeMap::new();
    // Two sealed runs per index, then a buffered tail the mark must cover too.
    for batch in 0..3u64 {
        let keys = batch * 1000..(batch + 1) * 1000;
        session
            .ingest(
                &mut cluster,
                keys.clone().map(|k| (Key::from_u64(k), payload(k))),
            )
            .unwrap();
        model.extend(keys.map(|k| (k, payload(k))));
        if batch < 2 {
            for p in cluster.topology().partitions() {
                let mut admin = cluster.admin();
                let part = admin.partition_mut(p).unwrap();
                part.dataset_mut(ds).unwrap().flush_all();
            }
        }
    }

    cluster.add_node().unwrap();
    let target = cluster.topology().clone();
    let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 4).unwrap();
    let sources: BTreeSet<PartitionId> = job.plan_ref().moves.iter().map(|m| m.from).collect();
    assert!(sources.len() >= 2, "the step must move buckets off sources");
    job.init(&mut cluster).unwrap();
    while job.has_remaining_waves() {
        job.run_wave(&mut cluster).unwrap();
    }
    job.prepare(&mut cluster).unwrap();
    assert_eq!(
        job.decide(&mut cluster).unwrap(),
        RebalanceOutcome::Committed
    );
    job.commit(&mut cluster).unwrap();

    for (p, comps) in index_components(&mut cluster, ds, &sources) {
        assert!(
            comps.len() >= 2,
            "{p}: {} sealed index components",
            comps.len()
        );
        for (marked, built) in comps {
            assert!(marked, "{p}: the commit marks every index component");
            assert!(!built, "{p}: the commit read an index component");
        }
    }
    job.finalize(&mut cluster).unwrap();
    for (p, comps) in index_components(&mut cluster, ds, &sources) {
        assert!(
            comps.iter().all(|(_, built)| !built),
            "{p}: finalize read an index component"
        );
    }

    // index_scan ≡ fetch ≡ model, through marks nobody has applied yet.
    let mut q = cluster.query();
    let mut hits = BTreeSet::new();
    for (partition, entries) in q.index_scan(ds, INDEX, None, None).unwrap() {
        let keys: Vec<Key> = entries.iter().map(|se| se.primary.clone()).collect();
        let fetched = q.fetch(ds, partition, &keys).unwrap();
        assert_eq!(fetched.len(), keys.len(), "{partition}: unfetchable hits");
        for (se, record) in entries.iter().zip(&fetched) {
            let key = se.primary.as_u64();
            assert_eq!(se.secondary.as_u64(), key % GROUPS);
            assert_eq!(record.op.value(), model.get(&key), "key {key}");
            assert!(hits.insert(key), "duplicate index hit for key {key}");
        }
    }
    assert_eq!(hits, model.keys().copied().collect::<BTreeSet<_>>());
    for (p, comps) in index_components(&mut cluster, ds, &sources) {
        assert!(
            comps.iter().all(|(_, built)| *built),
            "{p}: the first index_scan applies every mark"
        );
    }
}
