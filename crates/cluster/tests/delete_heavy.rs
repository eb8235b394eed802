//! Delete at volume: a DynaHash dataset that loses 90 % of its records keeps
//! every bucket it grew — buckets only split — and that is what lets the
//! next scale-out still balance. Deterministic quantities only: what is
//! served, how many buckets there are, what fraction moves.
//!
//! The measurement behind the decision not to merge buckets is in ROADMAP
//! item 4: on a compacted store the extra buckets cost an ordered scan about
//! 2 ms, and a dataset shrunk back to 16 buckets cannot reach a fifth node.

use std::collections::BTreeMap;

use dynahash_cluster::{Cluster, DatasetId, DatasetSpec, RebalanceOptions, Session};
use dynahash_core::{RebalanceOutcome, Scheme};
use dynahash_lsm::entry::Key;
use dynahash_lsm::{Bytes, ScanOrder};

const RECORDS: u64 = 40_000;

fn payload(key: u64) -> Bytes {
    Bytes::from(vec![(key % 251) as u8; 100])
}

fn survives(key: u64) -> bool {
    key % 10 == 3
}

fn buckets(cluster: &Cluster, ds: DatasetId) -> usize {
    let locals = cluster.local_directories(ds).unwrap();
    locals.iter().map(|(_, buckets)| buckets.len()).sum()
}

/// Every survivor is served and no deleted key is, by point read, by both
/// scan orders and by `collect_records`.
fn assert_serves_exactly_the_survivors(cluster: &Cluster, session: &mut Session) {
    let model: BTreeMap<Key, Bytes> = (0..RECORDS)
        .filter(|k| survives(*k))
        .map(|k| (Key::from_u64(k), payload(k)))
        .collect();
    for k in 0..RECORDS {
        let key = Key::from_u64(k);
        assert_eq!(
            session.get(cluster, &key).unwrap(),
            model.get(&key).cloned()
        );
    }
    for order in [ScanOrder::Ordered, ScanOrder::Unordered] {
        let mut seen = BTreeMap::new();
        for (p, entries) in session.scan(cluster, order).unwrap() {
            if order == ScanOrder::Ordered {
                assert!(entries.windows(2).all(|w| w[0].key < w[1].key), "{p:?}");
            }
            for e in entries {
                let value = e.op.value().expect("a scan returns live records").clone();
                assert!(seen.insert(e.key, value).is_none(), "a key served twice");
            }
        }
        assert_eq!(seen, model, "{order:?}");
    }
    let (records, raw) = session.collect_records(cluster).unwrap();
    assert_eq!(raw, model.len());
    assert_eq!(records, model);
}

#[test]
fn a_dataset_that_lost_nine_records_in_ten_still_scales_out_and_back() {
    let mut cluster = Cluster::new(4);
    let ds = cluster
        .create_dataset(DatasetSpec::new("events", Scheme::dynahash(64 * 1024, 16)))
        .unwrap();
    let mut session = cluster.session(ds).unwrap();
    session
        .ingest(
            &mut cluster,
            (0..RECORDS).map(|k| (Key::from_u64(k), payload(k))),
        )
        .unwrap();
    let grown = buckets(&cluster, ds);
    assert!(grown > 32, "the load split the 16 initial buckets: {grown}");

    for k in (0..RECORDS).filter(|k| !survives(*k)) {
        assert!(session.delete(&mut cluster, &Key::from_u64(k)).unwrap());
    }
    for p in cluster.topology().partitions() {
        let mut admin = cluster.admin();
        let part = admin.partition_mut(p).unwrap().dataset_mut(ds).unwrap();
        part.flush_all();
        part.run_merges();
    }
    assert_eq!(cluster.dataset_len(ds).unwrap(), RECORDS as usize / 10);
    assert_serves_exactly_the_survivors(&cluster, &mut session);
    let after_deletes = buckets(&cluster, ds);
    assert!(after_deletes >= grown, "{after_deletes} < {grown}");

    // 4 → 5: the new node's fair share is 1/5, and Algorithm 2 stops moving
    // as soon as a move no longer narrows the gap, so each of its partitions
    // ends at most one bucket above that share.
    let per_node = cluster.topology().partitions().len() / 4;
    let new_node = cluster.add_node().unwrap();
    let sizes: Vec<u64> = cluster
        .topology()
        .partitions()
        .into_iter()
        .flat_map(|p| {
            let admin = cluster.admin();
            let primary = &admin.partition(p).unwrap().dataset(ds).unwrap().primary;
            primary
                .bucket_sizes()
                .into_iter()
                .map(|(_, bytes)| bytes as u64)
        })
        .collect();
    let slack = (per_node as u64 * sizes.iter().max().unwrap()) as f64;
    let bound = 0.2 + slack / sizes.iter().sum::<u64>() as f64;
    let target = cluster.topology().clone();
    let out = cluster
        .rebalance(ds, &target, RebalanceOptions::none())
        .unwrap();
    assert_eq!(out.outcome, RebalanceOutcome::Committed);
    assert!(
        out.moved_fraction > 0.1 && out.moved_fraction <= bound,
        "moved {} of the bytes, bound {bound}",
        out.moved_fraction
    );
    cluster
        .check_rebalance_integrity(ds, out.rebalance_id)
        .unwrap();
    let on_new_node: usize = cluster
        .dataset_distribution(ds)
        .unwrap()
        .iter()
        .filter(|(p, _)| cluster.topology().node_of(**p) == Some(new_node))
        .map(|(_, records)| records)
        .sum();
    assert!(on_new_node > 0, "the new node stayed empty");
    assert_eq!(buckets(&cluster, ds), after_deletes);
    // the session is stale by a whole rebalance and pulls its way forward
    assert_serves_exactly_the_survivors(&cluster, &mut session);

    // 5 → 4 back
    let target = cluster.topology_without(new_node);
    let back = cluster
        .rebalance(ds, &target, RebalanceOptions::none())
        .unwrap();
    assert_eq!(back.outcome, RebalanceOutcome::Committed);
    cluster
        .check_rebalance_integrity(ds, back.rebalance_id)
        .unwrap();
    cluster.decommission_node(new_node).unwrap();
    assert_eq!(cluster.dataset_len(ds).unwrap(), RECORDS as usize / 10);
    assert_eq!(buckets(&cluster, ds), after_deletes);
    assert_serves_exactly_the_survivors(&cluster, &mut session);
}
