//! A bucket moves one way: its sealed components are shipped whole. What a
//! move leaves behind is judged by oracles the tests keep, not by a second
//! way of moving: contents against a `BTreeMap` model (the base records plus
//! the writes fed while the buckets move), placement by
//! `check_rebalance_integrity`, and the secondary index against one built
//! from scratch out of each partition's primary records. A seeded property
//! harness (the failing seed is printed on panic) checks that across
//! schemes, directions and mid-flight feeds, and dedicated scenarios
//! exercise crash recovery — a destination losing its uncommitted pending
//! state between the ship and the install is re-shipped from the moves
//! recorded in the metadata log.

mod common;

use common::{
    assert_matches_oracles, check_seeded_cases, tagged_cluster, tagged_payload, tagged_record,
    tagged_spec, MoveCase, CASES,
};
use dynahash::cluster::{RebalanceJob, RebalanceOptions};
use dynahash::core::{NodeId, PartitionId, RebalanceOutcome, Scheme};

/// Component shipping leaves exactly the model's records, each where its key
/// routes, and an index equal to one built from the primary records. (The
/// name is historical: the record-level move it was once compared against is
/// gone, and the oracles took its place.)
#[test]
fn prop_records_and_components_policies_are_byte_identical() {
    check_seeded_cases(
        "component move against the oracles",
        0x6060_2200,
        CASES,
        |_, rng| MoveCase::generate(rng),
        |_, case| {
            let (mut cluster, ds, model) = case.run();
            assert_matches_oracles(&mut cluster, ds, &model, "after the rebalance");
        },
    );
}

/// Shipped components arrive at the destination as the same sealed data the
/// source held: the installed bucket trees contain handles marked shipped,
/// sharing the source's component ids (recorded in the ship log records).
#[test]
fn destinations_serve_the_shipped_components_directly() {
    let (mut cluster, ds, _) =
        tagged_cluster(2, tagged_spec(Scheme::StaticHash { num_buckets: 16 }), 1500);
    cluster.add_node().unwrap();
    let target = cluster.topology().clone();
    let report = cluster
        .rebalance(ds, &target, RebalanceOptions::none())
        .unwrap();
    assert_eq!(report.outcome, RebalanceOutcome::Committed);

    let shipped: Vec<dynahash::lsm::wal::ShippedMove> = cluster
        .controller
        .metadata_log
        .shipped_moves(1)
        .into_iter()
        .cloned()
        .collect();
    assert!(!shipped.is_empty(), "waves must force ship records");
    let mut found_shipped_component = false;
    for m in &shipped {
        let bucket = dynahash::lsm::BucketId::new(m.bucket_bits, m.bucket_depth);
        let admin = cluster.admin();
        let part = admin.partition(PartitionId(m.to)).unwrap();
        let tree = part
            .dataset(ds)
            .unwrap()
            .primary
            .bucket_tree(&bucket)
            .expect("destination owns the shipped bucket after commit");
        for c in tree.components() {
            if c.is_shipped() {
                found_shipped_component = true;
                assert!(
                    m.component_ids.contains(&c.id()),
                    "installed component {} not in the wave's ship record",
                    c.id()
                );
            }
        }
    }
    assert!(
        found_shipped_component,
        "at least one destination must serve a component shipped whole"
    );
}

/// Readers keep what they hold alive and nothing else does: no session
/// cache, no log record and no stray copy holds a component or a payload
/// (sessions cache routing state, the logs copy what they record). Once a
/// committed rebalance has dropped a source's buckets and the deferred
/// index stashes are warmed away, a run taken before the move is owned by
/// its reader and by the bucket trees that legitimately serve it — the
/// destinations the component was shipped to — while a value read before
/// the move stays intact.
#[test]
fn a_dropped_source_bucket_is_owned_only_by_its_readers() {
    let (mut cluster, ds, _) =
        tagged_cluster(3, tagged_spec(Scheme::StaticHash { num_buckets: 16 }), 1500);
    let mut session = cluster.session(ds).unwrap();
    let leaving = cluster.topology().partitions_of_node(NodeId(2));
    let mut readers = Vec::new();
    let mut held = Vec::new();
    for p in &leaving {
        let mut admin = cluster.admin();
        admin
            .partition_mut(*p)
            .unwrap()
            .dataset_mut(ds)
            .unwrap()
            .flush_all();
        let primary = &admin.partition(*p).unwrap().dataset(ds).unwrap().primary;
        for b in primary.bucket_ids() {
            let tree = primary.bucket_tree(&b).unwrap();
            readers.extend(tree.components().iter().cloned());
            held.extend(tree.scan_all().into_iter().take(1));
        }
    }
    assert!(!readers.is_empty() && readers.iter().all(|c| c.ref_count() == 2));
    for e in &held {
        assert_eq!(
            session.get(&cluster, &e.key).unwrap().as_ref(),
            e.op.value()
        );
    }

    let target = cluster.topology_without(NodeId(2));
    let report = cluster
        .rebalance(ds, &target, RebalanceOptions::none())
        .unwrap();
    assert_eq!(report.outcome, RebalanceOutcome::Committed);
    // the deferred index rebuild's stashes are the one other owner allowed
    // until the first index query; warming drops them
    cluster.admin().warm_indexes(ds).unwrap();
    let partitions = cluster.topology().partitions();
    let admin = cluster.admin();
    // the number of bucket trees in the cluster that list a component `id`
    let serving = |id: u64| {
        let mut trees = 0;
        for p in &partitions {
            let primary = &admin.partition(*p).unwrap().dataset(ds).unwrap().primary;
            for b in primary.bucket_ids() {
                let components = primary.bucket_tree(&b).unwrap().components();
                trees += usize::from(components.iter().any(|c| c.id() == id));
            }
        }
        trees
    };
    for c in &readers {
        assert_eq!(
            c.ref_count(),
            1 + serving(c.id()),
            "a session, a log or a stray copy still pins run {}",
            c.id()
        );
    }
    // the stale session redirects to the new owners and reads the same bytes
    // as the entries held from before the move
    for e in &held {
        assert_eq!(
            session.get(&cluster, &e.key).unwrap().as_ref(),
            e.op.value()
        );
        assert_eq!(e.op.value().unwrap(), &tagged_payload(e.key.as_u64()));
    }
}

/// A destination crash *between the ship and the install* wipes the
/// uncommitted pending state. The commit re-ships the lost buckets by
/// replaying the ship records from the metadata log, and the rebalance
/// still commits with full integrity.
#[test]
fn destination_crash_between_ship_and_install_is_reshipped() {
    let (mut cluster, ds, mut model) =
        tagged_cluster(3, tagged_spec(Scheme::StaticHash { num_buckets: 32 }), 2400);
    let new_node = cluster.add_node().unwrap();
    let target = cluster.topology().clone();

    let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 2).unwrap();
    job.init(&mut cluster).unwrap();
    let mut next_key = 700_000u64;
    let mut crashed = false;
    while job.has_remaining_waves() {
        let wave = job.run_wave(&mut cluster).unwrap();
        if !crashed && wave.components > 0 {
            // Crash the destination right after its first wave landed: the
            // pending buckets (and their shipped components) are lost.
            crashed = true;
            cluster.crash_node(new_node).unwrap();
            cluster.recover_node(new_node).unwrap();
        }
        // Feed mid-flight: writes to already-shipped buckets replicate into
        // (re-created) pending state at the destination.
        let batch: Vec<_> = (next_key..next_key + 50).map(tagged_record).collect();
        model.extend(batch.iter().cloned());
        job.apply_feed_batch(&mut cluster, batch).unwrap();
        next_key += 50;
    }
    assert!(crashed, "scenario requires a post-ship crash");

    job.prepare(&mut cluster).unwrap();
    assert_eq!(
        job.decide(&mut cluster).unwrap(),
        RebalanceOutcome::Committed
    );
    job.commit(&mut cluster).unwrap();
    let report = job.finalize(&mut cluster).unwrap();
    assert_eq!(report.outcome, RebalanceOutcome::Committed);
    cluster
        .check_rebalance_integrity(ds, report.rebalance_id)
        .unwrap();

    // nothing was lost: the base records and every feed record are readable
    assert_eq!(model.len() as u64, 2400 + (next_key - 700_000));
    assert_matches_oracles(&mut cluster, ds, &model, "after the re-ship");
}

/// A destination crash after the prepare vote: the commit recovers the
/// destination and still converges. (The name is historical: the scenario
/// once ran under a record-level move policy, and now runs under the one
/// way a bucket moves.)
#[test]
fn destination_crash_between_ship_and_install_recovers_for_records_policy() {
    let (mut cluster, ds, model) =
        tagged_cluster(2, tagged_spec(Scheme::StaticHash { num_buckets: 16 }), 1600);
    let new_node = cluster.add_node().unwrap();
    let target = cluster.topology().clone();

    let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 4).unwrap();
    job.init(&mut cluster).unwrap();
    while job.has_remaining_waves() {
        job.run_wave(&mut cluster).unwrap();
    }
    job.prepare(&mut cluster).unwrap();
    cluster.crash_node(new_node).unwrap();
    assert_eq!(
        job.decide(&mut cluster).unwrap(),
        RebalanceOutcome::Committed
    );
    job.commit(&mut cluster).unwrap();
    let report = job.finalize(&mut cluster).unwrap();
    assert_eq!(report.outcome, RebalanceOutcome::Committed);
    assert_eq!(cluster.dataset_len(ds).unwrap(), 1600);
    cluster
        .check_rebalance_integrity(ds, report.rebalance_id)
        .unwrap();
    assert_matches_oracles(&mut cluster, ds, &model, "after the recovery");
}

/// A repair stages each lost bucket as one component built from its feed,
/// and the index learns a restored bucket from it as from any received
/// bucket: after the repair, the index of a tagged dataset answers exactly
/// like one built from the primary records.
#[test]
fn a_repair_of_an_indexed_dataset_leaves_the_index_its_records_build() {
    let (mut cluster, ds, model) =
        tagged_cluster(4, tagged_spec(Scheme::dynahash(1 << 30, 16)), 1200);
    let victim = cluster.topology().nodes()[1];
    cluster.lose_node(victim).unwrap();
    let degraded = cluster.fault_stats().degraded_buckets(ds);
    assert!(!degraded.is_empty(), "losing a data node degrades buckets");

    let feed: Vec<_> = model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
    let report = (cluster.admin().repair_dataset(ds, &feed).unwrap()).expect("a repair runs");
    assert_eq!(report.outcome, RebalanceOutcome::Committed);
    assert_eq!(report.buckets_moved, degraded.len());
    assert!(cluster.fault_stats().degraded_datasets().is_empty());
    cluster.remove_lost_node(victim).unwrap();
    assert_matches_oracles(&mut cluster, ds, &model, "after the repair");
}
