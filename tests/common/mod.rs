//! Shared scaffolding for the seeded property-test harnesses.
//!
//! Every property-style integration test follows the same recipe: derive a
//! case from `seed_base + case`, generate parameters from a seeded RNG, run
//! the case under `catch_unwind`, and — on failure — re-panic with the seed
//! and the generated parameters so the case can be replayed exactly. That
//! loop, the cluster builders and the record generator used to be duplicated
//! in `rebalance_invariants.rs`, `step_rebalance.rs` and
//! `session_routing.rs`; they live here once now.
//!
//! To replay a failing case: take the printed seed, find the harness named
//! in the message, and run its test with the same binary — the generation is
//! fully deterministic, so the same seed reproduces the same parameters and
//! the same step trace.
//!
//! The bucket-move tests (`move_policy.rs`, `directory_slots.rs`) also share
//! a dataset with one secondary index and the oracles they judge a move by:
//! a `BTreeMap` model of the contents, and [`index_from_primary`], the index
//! built from scratch out of each partition's primary records.

// Each integration-test binary compiles this module independently and uses
// only a subset of it.
#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};

use dynahash::cluster::{
    split_into_batches, Cluster, ClusterConfig, CostModel, DatasetSpec, RebalanceJob,
    SecondaryIndexDef, StepPoint,
};
use dynahash::core::{NodeId, PartitionId, RebalanceOutcome, Scheme};
use dynahash::lsm::entry::{Key, Value};
use dynahash::lsm::rng::SplitMix64;
use dynahash::lsm::{BucketId, Bytes, SecondaryEntry};

/// Number of randomized cases per property.
pub const CASES: u64 = 12;

/// The standard test record: an 8-byte key and a small deterministic
/// payload derived from it.
pub fn record(i: u64) -> (Key, Bytes) {
    (Key::from_u64(i), Bytes::from(vec![(i % 233) as u8; 40]))
}

/// A cluster with the property-test shape: `nodes` nodes, 2 partitions per
/// node, the default cost model.
pub fn test_cluster(nodes: u32) -> Cluster {
    Cluster::with_config(
        nodes,
        ClusterConfig {
            partitions_per_node: 2,
            cost_model: CostModel::default(),
        },
    )
}

/// A test cluster with one dataset pre-loaded with `n` records (ingested
/// through a session, the sanctioned path).
pub fn cluster_with_dataset(nodes: u32, scheme: Scheme, n: u64) -> (Cluster, u32) {
    let mut cluster = test_cluster(nodes);
    let ds = cluster
        .create_dataset(DatasetSpec::new("events", scheme))
        .unwrap();
    cluster
        .session(ds)
        .unwrap()
        .ingest(&mut cluster, (0..n).map(record))
        .unwrap();
    (cluster, ds)
}

/// Scans the dataset and asserts it contains exactly `expected` keys, with
/// no key visible twice (the online-query guarantee: pending buckets stay
/// invisible, source buckets stay visible until the commit).
pub fn assert_committed_set(cluster: &mut Cluster, ds: u32, expected: &BTreeSet<u64>, when: &str) {
    let mut q = cluster.query();
    let (map, raw) = q.collect_records(ds).unwrap();
    assert_eq!(
        raw,
        map.len(),
        "{when}: a record is visible on two partitions"
    );
    let seen: BTreeSet<u64> = map.keys().map(Key::as_u64).collect();
    assert_eq!(
        &seen, expected,
        "{when}: scan disagrees with the committed record set"
    );
}

/// Extracts the human-readable message from a caught panic payload.
pub fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string panic>")
}

/// The seeded-case loop every property harness shares.
///
/// For each case, `generate` derives the case parameters from a fresh RNG
/// seeded with `seed_base + case`, and `run` executes the case. A panic
/// inside `run` is caught and re-raised with `label`, the seed and the
/// `Debug`-printed parameters, so any failure is replayable from its log
/// line alone.
pub fn check_seeded_cases<P: std::fmt::Debug>(
    label: &str,
    seed_base: u64,
    cases: u64,
    mut generate: impl FnMut(u64, &mut SplitMix64) -> P,
    mut run: impl FnMut(u64, &P),
) {
    for case in 0..cases {
        let seed = seed_base + case;
        let mut rng = SplitMix64::seed_from_u64(seed);
        let params = generate(seed, &mut rng);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run(seed, &params);
        }));
        if let Err(panic) = result {
            panic!(
                "{label} failed\n  seed: {seed}\n  params: {params:?}\n  cause: {}",
                panic_message(panic.as_ref())
            );
        }
    }
}

// ============================================== the indexed bucket-move set

/// The secondary index of [`tagged_spec`].
pub const TAG_INDEX: &str = "idx_tag";

/// The payload of tagged record `i`: its tag (`i % 37`, the indexed field)
/// as 8 big-endian bytes, then 48 filler bytes.
pub fn tagged_payload(i: u64) -> Bytes {
    let mut v = (i % 37).to_be_bytes().to_vec();
    v.extend_from_slice(&[(i % 251) as u8; 48]);
    Bytes::from(v)
}

/// Tagged record `i`.
pub fn tagged_record(i: u64) -> (Key, Value) {
    (Key::from_u64(i), tagged_payload(i))
}

/// An overwrite of tagged record `i` whose payload carries a different tag
/// (`37 + i % 37`).
pub fn retagged_record(i: u64) -> (Key, Value) {
    let mut v = (37 + i % 37).to_be_bytes().to_vec();
    v.extend_from_slice(&tagged_payload(i)[8..]);
    (Key::from_u64(i), Bytes::from(v))
}

/// A dataset indexing the tag of every record under [`TAG_INDEX`].
pub fn tagged_spec(scheme: Scheme) -> DatasetSpec {
    DatasetSpec::new("events", scheme).with_secondary_index(SecondaryIndexDef::new(
        TAG_INDEX,
        |p: &[u8]| {
            let tag: [u8; 8] = p.get(..8)?.try_into().ok()?;
            Some(Key::from_u64(u64::from_be_bytes(tag)))
        },
    ))
}

/// A test cluster holding one dataset of `spec` loaded with tagged records
/// `0..n` through a session, and the model of what it holds.
pub fn tagged_cluster(
    nodes: u32,
    spec: DatasetSpec,
    n: u64,
) -> (Cluster, u32, BTreeMap<Key, Value>) {
    let mut cluster = test_cluster(nodes);
    let ds = cluster.create_dataset(spec).unwrap();
    cluster
        .session(ds)
        .unwrap()
        .ingest(&mut cluster, (0..n).map(tagged_record))
        .unwrap();
    (cluster, ds, (0..n).map(tagged_record).collect())
}

/// The answer `index_scan(ds, index, None, None)` owes: the index's
/// extractor applied to every live record of each partition's primary
/// index, one sorted entry list per partition. Nothing of the cluster's own
/// secondary indexes is read, so a rebuild that lost, kept or resurrected an
/// entry cannot agree with it by accident.
pub fn index_from_primary(
    cluster: &mut Cluster,
    ds: u32,
    index: &str,
) -> Vec<(PartitionId, Vec<SecondaryEntry>)> {
    let meta = cluster.controller.dataset(ds).unwrap();
    let def = meta.spec.secondary_indexes.iter().find(|d| d.name == index);
    let extract = def
        .expect("the dataset defines the index")
        .extractor
        .clone();
    let mut built = cluster
        .query()
        .scan_map(ds, false, |key, op| {
            Some(SecondaryEntry {
                secondary: extract(op.value()?)?,
                primary: key.clone(),
            })
        })
        .unwrap();
    for (_, entries) in &mut built {
        entries.sort();
    }
    built
}

/// Asserts a tagged dataset against the oracles: its records are exactly
/// `model`, none visible twice, and [`TAG_INDEX`] answers exactly what
/// [`index_from_primary`] builds.
pub fn assert_matches_oracles(
    cluster: &mut Cluster,
    ds: u32,
    model: &BTreeMap<Key, Value>,
    when: &str,
) {
    let (contents, raw) = cluster.query().collect_records(ds).unwrap();
    assert_eq!(raw, contents.len(), "{when}: a record is visible twice");
    if contents != *model {
        let lost = model.keys().find(|k| !contents.contains_key(k));
        let wrong = contents.iter().find(|(k, v)| model.get(k) != Some(v));
        panic!(
            "{when}: contents differ from the model; first lost {lost:?}, first wrong {wrong:?}"
        );
    }
    let answered = cluster
        .query()
        .index_scan(ds, TAG_INDEX, None, None)
        .unwrap();
    let built = index_from_primary(cluster, ds, TAG_INDEX);
    let partitions = |v: &[(PartitionId, Vec<SecondaryEntry>)]| -> Vec<PartitionId> {
        v.iter().map(|(p, _)| *p).collect()
    };
    assert_eq!(partitions(&answered), partitions(&built), "{when}");
    for ((p, got), (_, want)) in answered.iter().zip(&built) {
        if got != want {
            let stale: Vec<_> = got.iter().filter(|e| !want.contains(e)).take(4).collect();
            let missing: Vec<_> = want.iter().filter(|e| !got.contains(e)).take(4).collect();
            panic!(
                "{when}: {p}'s index differs from one built out of its primary records \
                 ({} hits, {} built); stale {stale:?}, missing {missing:?}",
                got.len(),
                want.len()
            );
        }
    }
}

/// One seeded bucket-move case over a tagged dataset on 3 nodes.
#[derive(Debug)]
pub struct MoveCase {
    pub scheme: Scheme,
    /// Add a node (true) or move everything off node 2 (false).
    pub grow: bool,
    pub n_records: u64,
    /// Records fed while the buckets move.
    pub n_writes: u64,
    pub max_moves: usize,
    /// Once every bucket has shipped, overwrite a quarter of the moving
    /// records with a payload under a different tag. Only moving records:
    /// an update of a record that stays leaves a stale index entry on its
    /// partition (`PartitionDataset::ingest` never deletes an old entry).
    pub overwrite_shipped: bool,
}

impl MoveCase {
    pub fn generate(rng: &mut SplitMix64) -> MoveCase {
        let scheme = match rng.gen_range(0..3) {
            0 => Scheme::StaticHash { num_buckets: 16 },
            1 => Scheme::StaticHash { num_buckets: 32 },
            _ => Scheme::dynahash(16 * 1024, 8),
        };
        MoveCase {
            scheme,
            grow: rng.gen_range(0..2) == 0,
            n_records: rng.gen_range(400..1000),
            n_writes: rng.gen_range(0..250),
            max_moves: rng.gen_range(1..5) as usize,
            overwrite_shipped: rng.gen_range(0..2) == 0,
        }
    }

    /// Loads, scales out or in, rebalances with a mid-flight feed spread
    /// over the waves as `Cluster::rebalance` spreads it, then the shipped
    /// overwrites before the prepare, and checks placement
    /// (`check_rebalance_integrity`: every record on the partition its key
    /// routes to). Returns the cluster, the dataset and the model of its
    /// records, for the caller to hold against the oracles.
    pub fn run(&self) -> (Cluster, u32, BTreeMap<Key, Value>) {
        let (mut cluster, ds, mut model) =
            tagged_cluster(3, tagged_spec(self.scheme), self.n_records);
        let target = if self.grow {
            cluster.add_node().unwrap();
            cluster.topology().clone()
        } else {
            cluster.topology_without(NodeId(2))
        };
        let writes: Vec<(Key, Value)> = (500_000..500_000 + self.n_writes)
            .map(tagged_record)
            .collect();
        model.extend(writes.iter().cloned());
        let mut job = RebalanceJob::plan(&mut cluster, ds, &target, self.max_moves).unwrap();
        let moving: Vec<BucketId> = job.plan_ref().moves.iter().map(|m| m.bucket).collect();
        let overwrites: Vec<(Key, Value)> = (0..self.n_records)
            .filter(|i| self.overwrite_shipped && i % 4 == 0)
            .filter(|i| moving.iter().any(|b| b.contains_key(&Key::from_u64(*i))))
            .map(retagged_record)
            .collect();
        model.extend(overwrites.iter().cloned());
        let n_overwrites = overwrites.len() as u64;
        let mut batches = split_into_batches(writes, job.num_waves().max(1)).into_iter();
        let mut overwrites = Some(overwrites);
        let report = job
            .drive_with(&mut cluster, |cluster, job, point| {
                match point {
                    StepPoint::AfterWave(_) => {
                        if let Some(batch) = batches.next().filter(|b| !b.is_empty()) {
                            job.apply_feed_batch(cluster, batch)?;
                        }
                    }
                    StepPoint::BeforePrepare => {
                        // every moving bucket has shipped by now
                        let rest = batches.by_ref().chain(overwrites.take());
                        for batch in rest.filter(|b| !b.is_empty()) {
                            job.apply_feed_batch(cluster, batch)?;
                        }
                    }
                    _ => {}
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        assert_eq!(
            report.concurrent_writes_applied,
            self.n_writes + n_overwrites
        );
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .unwrap();
        (cluster, ds, model)
    }
}
