//! A feed batch is one write group: routed once, applied one partition at a
//! time, the primary bucket by bucket. The oracle is the same records
//! written one at a time through `Session::put`: both must leave identical
//! trees on every partition — every primary bucket's and secondary index's
//! components (entries, raw length, bytes), every memory component, and
//! the partition's storage metrics. The batches carry updates of keys they
//! wrote earlier, secondary keys from empty to longer than a key holds
//! inline, splits in their middle (DynaHash), and, in one case, land while
//! a job has shipped some of the dataset's buckets and not committed. Both
//! paths share the replication and routing steps, so the batched cluster is
//! also read back against a model of every record's last value.

use std::collections::BTreeMap;

use dynahash_cluster::{Cluster, DatasetId, DatasetSpec, RebalanceJob, SecondaryIndexDef};
use dynahash_core::{PartitionId, RebalanceOutcome, Scheme};
use dynahash_lsm::entry::{Entry, Key};
use dynahash_lsm::metrics::MetricsSnapshot;
use dynahash_lsm::{Bytes, LsmTree, SplitMix64};

/// What one tree holds: each component's visible entries, raw length and
/// bytes, newest first; then the memory component's entries in key order
/// and its byte size.
type TreeState = (Vec<(Vec<Entry>, usize, usize)>, Vec<Entry>, usize);

fn tree_state(tree: &LsmTree) -> TreeState {
    let components = (tree.components().iter())
        .map(|c| (c.iter().cloned().collect(), c.raw_len(), c.size_bytes()))
        .collect();
    let memtable = tree.memtable();
    let buffered = (memtable.iter())
        .map(|(key, op)| Entry::from_parts(key, op))
        .collect();
    (components, buffered, memtable.size_bytes())
}

/// Every tree of `ds` on every partition, with the partition's metrics.
fn cluster_state(
    cluster: &mut Cluster,
    ds: DatasetId,
) -> Vec<(u32, MetricsSnapshot, Vec<TreeState>)> {
    let partitions = cluster.topology().partitions();
    let admin = cluster.admin();
    partitions
        .into_iter()
        .map(|p| {
            let part = admin.partition(p).unwrap();
            let local = part.dataset(ds).unwrap();
            let primary = &local.primary;
            let mut trees: Vec<TreeState> = (primary.bucket_ids().iter())
                .map(|b| tree_state(primary.bucket_tree(b).unwrap()))
                .collect();
            trees.extend(local.secondaries.iter().map(|s| tree_state(s.tree())));
            assert!(primary.pending_bucket_ids().is_empty(), "{p:?}");
            (p.0, part.metrics().snapshot(), trees)
        })
        .collect()
}

/// The secondary key a payload carries: its first byte says how many of
/// the following bytes (0 to 29) it takes.
fn secondary_of(payload: &[u8]) -> Option<Key> {
    let len = usize::from(*payload.first()?) % 30;
    Some(Key::from_slice(payload.get(1..1 + len)?))
}

/// A dataset of `scheme` with a secondary index on a 3-node cluster,
/// loaded with 3000 records in one batch.
fn loaded(scheme: Scheme) -> (Cluster, DatasetId) {
    let mut cluster = Cluster::new(3);
    let spec = DatasetSpec::new("kv", scheme)
        .with_memtable_budget(8 * 1024)
        .with_secondary_index(SecondaryIndexDef::new("idx", secondary_of));
    let ds = cluster.create_dataset(spec).unwrap();
    cluster.admin().ingest(ds, load()).unwrap();
    (cluster, ds)
}

fn load() -> Vec<(Key, Bytes)> {
    let mut rng = SplitMix64::seed_from_u64(0x5eed);
    (0..3000).map(|k| record(&mut rng, k)).collect()
}

/// Every record the model holds reads back with its last value, and the
/// dataset holds no other.
fn assert_reads_back(cluster: &mut Cluster, ds: DatasetId, model: &BTreeMap<Key, Bytes>) {
    let mut session = cluster.session(ds).unwrap();
    for (key, value) in model {
        let got = session.get(cluster, key).unwrap();
        assert_eq!(got.as_ref(), Some(value), "{key:?}");
    }
    assert_eq!(cluster.dataset_len(ds).unwrap(), model.len());
}

fn record(rng: &mut SplitMix64, key: u64) -> (Key, Bytes) {
    let mut payload = vec![rng.gen_range(0..256) as u8];
    payload.extend((0..rng.gen_range(30..90)).map(|_| rng.gen_range(0..4) as u8));
    (Key::from_u64(key), Bytes::from(payload))
}

/// A batch of `n` records: mostly new keys, an eighth of them updates of
/// keys the load wrote and an eighth updates of keys the batch itself wrote
/// before.
fn batch(seed: u64, n: u64) -> Vec<(Key, Bytes)> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let base = 10_000 * seed;
    (0..n)
        .map(|i| {
            let key = match rng.gen_range(0..8) {
                0 => rng.gen_range(0..3000),
                1 if i > 0 => base + rng.gen_range(0..i),
                _ => base + i,
            };
            record(&mut rng, key)
        })
        .collect()
}

/// Writes `records` as one batch on one copy and one at a time through a
/// session on the other, and compares the two.
fn assert_batch_matches_puts(scheme: Scheme, seeds: std::ops::Range<u64>) {
    assert_batch_matches_puts_after(scheme, seeds, |_, _| {});
}

/// [`assert_batch_matches_puts`] on two copies that `prepare` changed alike
/// after the load.
fn assert_batch_matches_puts_after(
    scheme: Scheme,
    seeds: std::ops::Range<u64>,
    prepare: impl Fn(&mut Cluster, DatasetId),
) {
    let (mut batched, ds) = loaded(scheme);
    let (mut single, _) = loaded(scheme);
    prepare(&mut batched, ds);
    prepare(&mut single, ds);
    assert_eq!(
        cluster_state(&mut batched, ds),
        cluster_state(&mut single, ds)
    );
    let mut session = single.session(ds).unwrap();
    let mut model: BTreeMap<Key, Bytes> = load().into_iter().collect();
    for seed in seeds {
        let records = batch(seed, 1500);
        model.extend(records.iter().cloned());
        batched.admin().ingest(ds, records.clone()).unwrap();
        for (key, value) in records {
            session.put(&mut single, key, value).unwrap();
        }
        let (b, s) = (
            cluster_state(&mut batched, ds),
            cluster_state(&mut single, ds),
        );
        assert_eq!(b.len(), s.len(), "{scheme:?}, batch {seed}");
        for (b, s) in b.iter().zip(&s) {
            assert_eq!(b, s, "{scheme:?}, batch {seed}, partition {}", b.0);
        }
    }
    assert_reads_back(&mut batched, ds, &model);
}

#[test]
fn a_batch_leaves_the_trees_one_put_at_a_time_leaves_under_every_scheme() {
    assert_batch_matches_puts(Scheme::Hashing, 1..4);
    assert_batch_matches_puts(Scheme::StaticHash { num_buckets: 16 }, 1..4);
}

#[test]
fn a_batch_that_splits_buckets_midway_matches_one_put_at_a_time() {
    let scheme = Scheme::dynahash(6 * 1024, 12);
    let (mut cluster, ds) = loaded(scheme);
    let splits = |cluster: &mut Cluster| -> u64 {
        let partitions = cluster.topology().partitions();
        let admin = cluster.admin();
        (partitions.iter())
            .map(|p| {
                admin
                    .partition(*p)
                    .unwrap()
                    .metrics()
                    .snapshot()
                    .split_count
            })
            .sum()
    };
    let before = splits(&mut cluster);
    cluster.admin().ingest(ds, batch(1, 1500)).unwrap();
    assert!(
        splits(&mut cluster) > before,
        "the batch must split buckets"
    );
    assert_batch_matches_puts(scheme, 1..5);
}

/// The depth of the CC's directory of `ds`.
fn global_depth(cluster: &Cluster, ds: DatasetId) -> u8 {
    let meta = cluster.controller.dataset(ds).unwrap();
    meta.directory.as_ref().unwrap().global_depth()
}

/// A batch lands on a partition whose local directory is deeper than the
/// CC's: one of its buckets split locally, one child split again, and the
/// CC has not absorbed either split. The CC routes the children's keys to
/// the partition by their ancestor; the partition's local directory names
/// the child each write goes to.
#[test]
fn a_batch_onto_local_splits_the_cc_has_not_absorbed_matches_one_put_at_a_time() {
    let scheme = Scheme::StaticHash { num_buckets: 16 };
    assert_batch_matches_puts_after(scheme, 1..4, |cluster, ds| {
        let mut admin = cluster.admin();
        let local = admin.partition_mut(PartitionId(1)).unwrap();
        let primary = &mut local.dataset_mut(ds).unwrap().primary;
        let (lo, _) = primary.split_bucket(primary.bucket_ids()[0]).unwrap();
        primary.split_bucket(lo).unwrap();
        let depth = primary.local_depth();
        assert!(depth > global_depth(cluster, ds), "local depth {depth}");
    });
}

/// A batch into a dataset of depth 13: 8192 buckets over 12 partitions, so
/// the sort's keys span more than one of its digits and most buckets take
/// one write of a batch or none.
#[test]
fn a_batch_into_a_deep_directory_matches_one_put_at_a_time() {
    let scheme = Scheme::StaticHash {
        num_buckets: 1 << 13,
    };
    assert_batch_matches_puts_after(scheme, 1..3, |cluster, ds| {
        assert_eq!(global_depth(cluster, ds), 13);
    });
}

/// A batch lands after the job's first wave shipped its buckets: writes to
/// them are replicated to the destinations' pending copies, on both paths
/// alike, and after the commit every tree matches.
#[test]
fn a_batch_during_a_job_matches_one_put_at_a_time() {
    let scheme = Scheme::StaticHash { num_buckets: 16 };
    let (mut batched, ds) = loaded(scheme);
    let (mut single, _) = loaded(scheme);
    let mut session = single.session(ds).unwrap();
    let mut jobs = Vec::new();
    for cluster in [&mut batched, &mut single] {
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        let mut job = RebalanceJob::plan(cluster, ds, &target, 2).unwrap();
        job.init(cluster).unwrap();
        job.run_wave(cluster).unwrap();
        assert!(job.has_remaining_waves(), "the batch must land mid-job");
        jobs.push(job);
    }
    let records = batch(7, 1500);
    let mut model: BTreeMap<Key, Bytes> = load().into_iter().collect();
    model.extend(records.iter().cloned());
    jobs[0]
        .apply_feed_batch(&mut batched, records.clone())
        .unwrap();
    for (key, value) in records {
        session.put(&mut single, key, value).unwrap();
    }
    for (cluster, job) in [&mut batched, &mut single].into_iter().zip(&mut jobs) {
        while job.has_remaining_waves() {
            job.run_wave(cluster).unwrap();
        }
        job.prepare(cluster).unwrap();
        assert_eq!(job.decide(cluster).unwrap(), RebalanceOutcome::Committed);
        job.commit(cluster).unwrap();
        job.finalize(cluster).unwrap();
    }
    assert_eq!(
        cluster_state(&mut batched, ds),
        cluster_state(&mut single, ds)
    );
    assert_reads_back(&mut batched, ds, &model);
}
