//! The slot-array directory and the deferred secondary rebuild.
//!
//! Two seeded property harnesses (same style as `rebalance_invariants.rs`:
//! the failing seed is printed on panic):
//!
//! * the slot-array `GlobalDirectory` lookups must agree with the old
//!   O(#buckets) linear scan — kept here as a `#[cfg(test)]` oracle — over
//!   arbitrary valid split/merge/reassign sequences, including delta
//!   catch-up of a stale snapshot;
//! * a rebalance whose destinations defer their secondary-index rebuild
//!   must answer `index_scan` exactly like an index built from scratch out
//!   of the primary records (`common::index_from_primary`), across
//!   mid-flight feeds, deletes and a destination crash between the ship
//!   and the install.

mod common;

use common::{
    assert_matches_oracles, check_seeded_cases, tagged_cluster, tagged_record, tagged_spec,
    MoveCase,
};
use dynahash::cluster::{Cluster, ClusterError, DatasetSpec, RebalanceJob, RebalanceOptions};
use dynahash::core::{BucketId, GlobalDirectory, NodeId, PartitionId, RebalanceOutcome, Scheme};
use dynahash::lsm::entry::Key;
use dynahash::lsm::rng::SplitMix64;

// ===================================================== slot-array directory

/// The pre-PR 5 lookup: a linear scan over the assignment. The slot array
/// must never disagree with it on a valid (disjoint, covering) directory.
fn scan_lookup(dir: &GlobalDirectory, hash: u64) -> Option<(BucketId, PartitionId)> {
    dir.iter().find(|(b, _)| b.contains_hash(hash))
}

/// The pre-PR 5 `partition_of_bucket`: exact match, then an ancestor scan.
fn scan_partition_of_bucket(dir: &GlobalDirectory, bucket: &BucketId) -> Option<PartitionId> {
    dir.iter()
        .find(|(b, _)| b == bucket)
        .or_else(|| dir.iter().find(|(b, _)| b.covers(bucket)))
        .map(|(_, p)| p)
}

fn check_against_oracle(dir: &GlobalDirectory, rng: &mut SplitMix64, seed: u64) {
    for _ in 0..32 {
        let h = rng.next_u64();
        assert_eq!(
            dir.lookup_hash(h),
            scan_lookup(dir, h),
            "seed {seed}: slot lookup diverged from the scan oracle on {h:#x}"
        );
    }
    // partition_of_bucket: probe existing buckets, their children (the
    // locally-split case), their parents, and random unrelated buckets.
    let buckets: Vec<BucketId> = dir.iter().map(|(b, _)| b).collect();
    for b in &buckets {
        assert_eq!(
            dir.partition_of_bucket(b),
            scan_partition_of_bucket(dir, b),
            "seed {seed}: exact bucket {b}"
        );
        if b.depth < 30 {
            let (lo, hi) = b.split();
            for child in [lo, hi] {
                assert_eq!(
                    dir.partition_of_bucket(&child),
                    scan_partition_of_bucket(dir, &child),
                    "seed {seed}: split child {child} of {b}"
                );
            }
        }
        if let Some(parent) = b.parent() {
            assert_eq!(
                dir.partition_of_bucket(&parent),
                scan_partition_of_bucket(dir, &parent),
                "seed {seed}: parent {parent} of {b}"
            );
        }
    }
    let probe = BucketId::new(rng.next_u64() as u32, (rng.gen_range(0..12)) as u8);
    assert_eq!(
        dir.partition_of_bucket(&probe),
        scan_partition_of_bucket(dir, &probe),
        "seed {seed}: random bucket {probe}"
    );
    // cached depth and slot count vs recomputation
    let depth = dir.iter().map(|(b, _)| b.depth).max().unwrap_or(0);
    assert_eq!(dir.global_depth(), depth, "seed {seed}: depth cache");
    assert_eq!(dir.num_slots(), 1u64 << depth, "seed {seed}: slot count");
    assert!(dir.covers_full_space(), "seed {seed}: coverage lost");
}

/// One random mutation keeping the directory valid (disjoint + covering):
/// reassign an existing bucket, split one (remove parent, assign children),
/// or merge a sibling pair back into its parent.
fn mutate(dir: &mut GlobalDirectory, rng: &mut SplitMix64, nparts: u32) {
    let buckets: Vec<BucketId> = dir.iter().map(|(b, _)| b).collect();
    let pick = buckets[rng.gen_range(0..buckets.len() as u64) as usize];
    match rng.gen_range(0..3) {
        0 => {
            dir.reassign(pick, PartitionId(rng.gen_range(0..nparts as u64) as u32));
        }
        1 if pick.depth < 10 => {
            let to = dir.partition_of_bucket(&pick).unwrap();
            let (lo, hi) = pick.split();
            dir.remove(&pick);
            dir.reassign(lo, to);
            dir.reassign(hi, PartitionId(rng.gen_range(0..nparts as u64) as u32));
        }
        _ => {
            let Some(parent) = pick.parent() else { return };
            let (lo, hi) = parent.split();
            let (Some(plo), Some(phi)) = (
                dir.iter().find(|(b, _)| *b == lo).map(|(_, p)| p),
                dir.iter().find(|(b, _)| *b == hi).map(|(_, p)| p),
            ) else {
                return;
            };
            let _ = phi;
            dir.remove(&lo);
            dir.remove(&hi);
            dir.reassign(parent, plo);
        }
    }
}

#[test]
fn prop_slot_lookups_match_the_linear_scan_oracle() {
    for case in 0..12u64 {
        let seed = 0x5107_0000 + case;
        let mut rng = SplitMix64::seed_from_u64(seed);
        let depth = rng.gen_range(0..5) as u8;
        let nparts = rng.gen_range(1..8) as u32;
        let parts: Vec<PartitionId> = (0..nparts).map(PartitionId).collect();
        let mut dir = GlobalDirectory::initial(depth, &parts).unwrap();
        let snapshot = dir.clone();
        let ops = rng.gen_range(10..50);
        for _ in 0..ops {
            mutate(&mut dir, &mut rng, nparts);
            check_against_oracle(&dir, &mut rng, seed);
        }
        // Delta catch-up: a snapshot taken before all mutations converges to
        // the same assignment AND the same slot array behaviour.
        let delta = dir
            .delta_since(snapshot.version())
            .expect("change log long enough for this harness");
        let mut cached = snapshot;
        cached.apply_delta(&delta).unwrap();
        assert_eq!(cached, dir, "seed {seed}: delta catch-up diverged");
        check_against_oracle(&cached, &mut rng, seed);
    }
}

/// Regression for the `partition_of_bucket` ancestor fallback: a bucket that
/// split *locally* (so the CC still holds the unsplit parent) must resolve
/// to the parent's partition through the slot array — at any extra depth —
/// while a bucket in an unassigned hash range resolves to nothing.
#[test]
fn locally_split_buckets_resolve_through_their_cc_owned_ancestor() {
    let parts: Vec<PartitionId> = (0..3).map(PartitionId).collect();
    let mut dir = GlobalDirectory::initial(2, &parts).unwrap();
    let parent = BucketId::new(0b01, 2);
    let owner = dir.partition_of_bucket(&parent).unwrap();
    // grandchildren and deeper descendants of a CC-owned bucket
    for extra in 1..=6u8 {
        let child = BucketId::new(0b01, 2 + extra);
        assert_eq!(
            dir.partition_of_bucket(&child),
            Some(owner),
            "descendant at depth {} must resolve to the parent's partition",
            2 + extra
        );
    }
    // a descendant of a *different* bucket resolves to that bucket's owner
    let other = BucketId::new(0b10, 2);
    let other_owner = dir.partition_of_bucket(&other).unwrap();
    assert_eq!(
        dir.partition_of_bucket(&BucketId::new(0b1110, 4)),
        Some(other_owner)
    );
    // remove a bucket: its descendants no longer resolve, siblings still do
    dir.remove(&parent);
    assert_eq!(dir.partition_of_bucket(&BucketId::new(0b01, 3)), None);
    assert_eq!(dir.partition_of_bucket(&BucketId::new(0b101, 3)), None);
    assert_eq!(dir.partition_of_bucket(&other), Some(other_owner));
    // an ancestor of existing buckets is NOT resolved (children do not
    // cover their parent) — same answer the old scan gave
    assert_eq!(dir.partition_of_bucket(&BucketId::new(0, 1)), None);
}

// ================================================= deferred secondary rebuild

/// Partitions of `ds` still holding a deferred secondary stash.
fn deferred_partitions(cluster: &mut Cluster, ds: u32) -> usize {
    let partitions = cluster.topology().partitions();
    let admin = cluster.admin();
    let deferred = |p: &PartitionId| {
        let part = admin.partition(*p).unwrap();
        part.dataset(ds).unwrap().has_deferred_secondary()
    };
    partitions.iter().filter(|p| deferred(p)).count()
}

/// A rebalance whose destinations defer their secondary-index rebuild
/// answers `index_scan` exactly like an index built from scratch out of the
/// primary records, across schemes, directions and mid-flight feeds. (The
/// name is historical: the eager rebuild it was once compared against is
/// gone, and the built index took its place.)
#[test]
fn prop_deferred_and_eager_secondary_rebuilds_are_byte_identical() {
    check_seeded_cases(
        "deferred rebuild against the built index",
        0x5107_1000,
        8,
        |_, rng| MoveCase::generate(rng),
        |_, case| {
            let (mut cluster, ds, model) = case.run();
            assert!(
                deferred_partitions(&mut cluster, ds) > 0,
                "no destination deferred its rebuild"
            );
            assert_matches_oracles(&mut cluster, ds, &model, "after the rebalance");
        },
    );
}

/// The deferral is real: after a committed rebalance no index scan has run,
/// so some destination still holds a deferred stash; an explicit
/// `warm_indexes` materializes them all. The waves pay nothing for the
/// index: moving the same records costs the same with or without one.
#[test]
fn deferred_install_defers_and_warm_indexes_materializes() {
    let run = |spec: DatasetSpec| {
        let (mut cluster, ds, model) = tagged_cluster(3, spec, 2500);
        let target = cluster.topology_without(NodeId(2));
        let report = cluster
            .rebalance(
                ds,
                &target,
                RebalanceOptions::none().with_max_concurrent_moves(4),
            )
            .unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        (cluster, ds, model, report)
    };
    let scheme = Scheme::StaticHash { num_buckets: 32 };
    let (_, _, _, plain) = run(DatasetSpec::new("events", scheme));
    let (mut cluster, ds, model, report) = run(tagged_spec(scheme));
    assert_eq!(
        report.phases.data_movement, plain.phases.data_movement,
        "a deferred rebuild must leave the index out of the wave makespan"
    );

    // the rebuild really was deferred...
    assert!(
        deferred_partitions(&mut cluster, ds) > 0,
        "no partition holds deferred secondary state"
    );

    // ...until the admin warms it, after which a second warm is a no-op
    let warmed = cluster.admin().warm_indexes(ds).unwrap();
    assert!(warmed > 0, "warm_indexes must materialize deferred entries");
    assert_eq!(cluster.admin().warm_indexes(ds).unwrap(), 0);
    assert_eq!(deferred_partitions(&mut cluster, ds), 0);

    // and the answers are those of an index built from the records
    assert_matches_oracles(&mut cluster, ds, &model, "after warming");
}

/// `Err(UnknownIndex)` naming `index`.
fn is_unknown_index<T>(result: Result<T, ClusterError>, index: &str) -> bool {
    matches!(result, Err(ClusterError::UnknownIndex(name)) if name == index)
}

/// Every query path opens an index the one way: an unknown name is
/// `UnknownIndex` through `index_scan`, `index_fetch_fold` and
/// `Session::index_scan` alike, and it is refused before any warm, so the
/// freshly installed buckets keep their deferred stashes.
#[test]
fn an_unknown_index_is_refused_before_the_deferred_rebuild() {
    let (mut cluster, ds, _) =
        tagged_cluster(3, tagged_spec(Scheme::StaticHash { num_buckets: 32 }), 1200);
    let target = cluster.topology_without(NodeId(2));
    let report = cluster
        .rebalance(ds, &target, RebalanceOptions::none())
        .unwrap();
    assert_eq!(report.outcome, RebalanceOutcome::Committed);
    let deferred = deferred_partitions(&mut cluster, ds);
    assert!(deferred > 0, "no destination deferred its rebuild");

    let typo = "idx_typo";
    let scanned = cluster.query().index_scan(ds, typo, None, None);
    assert!(is_unknown_index(scanned, typo), "query().index_scan");
    let folded = (cluster.query()).index_fetch_fold(ds, typo, None, None, |_, _| {});
    assert!(is_unknown_index(folded, typo), "query().index_fetch_fold");
    let mut session = cluster.session(ds).unwrap();
    let scanned = session.index_scan(&mut cluster, typo, None, None);
    assert!(is_unknown_index(scanned, typo), "Session::index_scan");
    assert_eq!(
        deferred_partitions(&mut cluster, ds),
        deferred,
        "an unknown index name consumed a deferred stash"
    );
}

/// Crash/recovery: a destination crash between the ship and the install
/// wipes the pending buckets *and* their deferred stashes; the commit
/// re-ships from the metadata log. Client deletes of just-shipped records
/// replicate into the pending copies before the deferred base is loaded, so
/// the rebuild must order that base below them. The index still answers
/// exactly like one built from the primary records.
#[test]
fn deferred_rebuild_survives_a_destination_crash_between_ship_and_install() {
    let (mut cluster, ds, mut model) =
        tagged_cluster(3, tagged_spec(Scheme::StaticHash { num_buckets: 32 }), 2400);
    let mut session = cluster.session(ds).unwrap();
    let new_node = cluster.add_node().unwrap();
    let target = cluster.topology().clone();
    let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 2).unwrap();
    job.init(&mut cluster).unwrap();
    let mut next_key = 700_000u64;
    let mut crashed = false;
    let mut deleted = 0;
    while job.has_remaining_waves() {
        let wave = job.run_wave(&mut cluster).unwrap();
        if !crashed && wave.components > 0 {
            crashed = true;
            cluster.crash_node(new_node).unwrap();
            cluster.recover_node(new_node).unwrap();
        }
        let batch: Vec<_> = (next_key..next_key + 40).map(tagged_record).collect();
        model.extend(batch.iter().cloned());
        job.apply_feed_batch(&mut cluster, batch).unwrap();
        next_key += 40;
        let shipped = &job.waves()[wave.wave];
        let in_wave = |k: &&Key| shipped.iter().any(|m| m.bucket.contains_key(k));
        let victims: Vec<Key> = model.keys().filter(in_wave).step_by(7).cloned().collect();
        for key in victims {
            assert!(session.delete(&mut cluster, &key).unwrap());
            model.remove(&key);
            deleted += 1;
        }
    }
    assert!(crashed, "scenario requires a post-ship crash");
    assert!(deleted > 0, "scenario requires deletes of shipped records");
    job.prepare(&mut cluster).unwrap();
    assert_eq!(
        job.decide(&mut cluster).unwrap(),
        RebalanceOutcome::Committed
    );
    job.commit(&mut cluster).unwrap();
    let report = job.finalize(&mut cluster).unwrap();
    cluster
        .check_rebalance_integrity(ds, report.rebalance_id)
        .unwrap();
    assert_matches_oracles(&mut cluster, ds, &model, "after the re-ship");
}
