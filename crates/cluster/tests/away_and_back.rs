//! Buckets that leave a partition, come back, and leave again.
//!
//! Lazy cleanup lives in per-component metadata, so it must be stamped on
//! the components a partition holds *at the time a bucket leaves* — every
//! time it leaves. These scenarios move buckets away, back, and away again,
//! with inserts, updates and deletes before, between and during the jobs,
//! and after every step compare both index families against a model:
//!
//! * every key reads back its model version, through the session and off
//!   the tree of the partition it routes to;
//! * every `index_scan` hit is found by `fetch` on the partition that
//!   returned it, and the union of the hits equals the model.
//!
//! Updates keep the indexed field: retracting the entry of an overwritten
//! record's *old* secondary key is outside what a rebalance can get wrong.

use std::collections::{BTreeMap, BTreeSet};

use dynahash_cluster::{
    Cluster, ClusterConfig, DatasetId, DatasetSpec, Partition, RebalanceJob, SecondaryIndexDef,
    Session,
};
use dynahash_core::{NodeId, PartitionId, RebalanceOutcome, Scheme};
use dynahash_lsm::bucket::hash_key;
use dynahash_lsm::entry::Key;
use dynahash_lsm::rng::SplitMix64;
use dynahash_lsm::{BucketId, Bytes, ScanOrder};

const INDEX: &str = "idx_group";
const GROUPS: u64 = 16;

fn group_of(payload: &[u8]) -> Option<Key> {
    let bytes: [u8; 8] = payload.get(..8)?.try_into().ok()?;
    Some(Key::from_u64(u64::from_be_bytes(bytes)))
}

/// A record of `key`: its group (the indexed field, fixed per key), a
/// version, and filler.
fn payload(key: u64, version: u64) -> Bytes {
    let mut v = (key % GROUPS).to_be_bytes().to_vec();
    v.extend_from_slice(&version.to_be_bytes());
    v.extend_from_slice(&[7u8; 32]);
    Bytes::from(v)
}

fn spec_of(scheme: Scheme) -> DatasetSpec {
    DatasetSpec::new("events", scheme).with_secondary_index(SecondaryIndexDef::new(INDEX, group_of))
}

fn spec() -> DatasetSpec {
    spec_of(Scheme::StaticHash { num_buckets: 128 })
}

/// The cluster plus the model of what it must hold: key -> version.
struct World {
    cluster: Cluster,
    ds: DatasetId,
    session: Session,
    model: BTreeMap<u64, u64>,
    rng: SplitMix64,
    next_key: u64,
}

impl World {
    fn new(nodes: u32, records: u64) -> World {
        World::with_spec(nodes, records, spec())
    }

    fn with_spec(nodes: u32, records: u64, spec: DatasetSpec) -> World {
        let mut cluster = Cluster::with_config(
            nodes,
            ClusterConfig {
                partitions_per_node: 2,
            },
        );
        let ds = cluster.create_dataset(spec).unwrap();
        let mut session = cluster.session(ds).unwrap();
        session
            .ingest(
                &mut cluster,
                (0..records).map(|k| (Key::from_u64(k), payload(k, 0))),
            )
            .unwrap();
        World {
            cluster,
            ds,
            session,
            model: (0..records).map(|k| (k, 0)).collect(),
            rng: SplitMix64::seed_from_u64(0xab5e_2026),
            next_key: records,
        }
    }

    /// `n` client writes: a third inserts, a third updates, a third deletes.
    fn churn(&mut self, n: usize) {
        for _ in 0..n {
            let existing = self.rng.gen_range(0..self.next_key);
            match self.rng.gen_range(0..3) {
                0 => {
                    let key = self.next_key;
                    self.next_key += 1;
                    self.put(key, 0);
                }
                1 => {
                    let version = self.model.get(&existing).map_or(0, |v| v + 1);
                    self.put(existing, version);
                }
                _ => {
                    let was_live = self
                        .session
                        .delete(&mut self.cluster, &Key::from_u64(existing))
                        .unwrap();
                    assert_eq!(was_live, self.model.remove(&existing).is_some());
                }
            }
        }
    }

    fn put(&mut self, key: u64, version: u64) {
        self.session
            .put(&mut self.cluster, Key::from_u64(key), payload(key, version))
            .unwrap();
        self.model.insert(key, version);
    }

    /// Moves the dataset onto the current topology minus `without`, step by
    /// step, with client writes after every wave.
    fn rebalance(&mut self, without: Option<NodeId>) {
        let target = match without {
            Some(node) => self.cluster.topology_without(node),
            None => self.cluster.topology().clone(),
        };
        let mut job = RebalanceJob::plan(&mut self.cluster, self.ds, &target, 4).unwrap();
        assert!(job.plan_ref().num_moves() > 0, "the step must move buckets");
        job.init(&mut self.cluster).unwrap();
        while job.has_remaining_waves() {
            job.run_wave(&mut self.cluster).unwrap();
            self.churn(40);
        }
        job.prepare(&mut self.cluster).unwrap();
        assert_eq!(
            job.decide(&mut self.cluster).unwrap(),
            RebalanceOutcome::Committed
        );
        job.commit(&mut self.cluster).unwrap();
        let report = job.finalize(&mut self.cluster).unwrap();
        self.cluster
            .check_rebalance_integrity(self.ds, report.rebalance_id)
            .unwrap();
        if let Some(node) = without {
            self.cluster.decommission_node(node).unwrap();
        }
    }

    fn check(&mut self, when: &str) {
        let ds = self.ds;
        // Primary: the model, exactly — through the session and read straight
        // off the tree of the partition the key routes to; every key ever
        // written (the deleted ones are absent) and 1 000 nobody wrote.
        for key in 0..self.next_key + 1_000 {
            let expected = self.model.get(&key).map(|version| payload(key, *version));
            let k = Key::from_u64(key);
            let got = self.session.get(&self.cluster, &k).unwrap();
            assert_eq!(got, expected, "{when}: key {key} through the session");
            let admin = self.cluster.admin();
            let home = admin.partition(admin.route_key(ds, &k).unwrap()).unwrap();
            let tree = &home.dataset(ds).unwrap().primary;
            assert_eq!(tree.get(&k), expected, "{when}: key {key} in the tree");
        }
        assert_eq!(
            self.cluster.dataset_len(ds).unwrap(),
            self.model.len(),
            "{when}"
        );
        // Secondary: every hit fetchable where it was found; hits == model.
        let mut q = self.cluster.query();
        let mut hits: Vec<(u64, u64)> = Vec::new();
        for (partition, entries) in q.index_scan(ds, INDEX, None, None).unwrap() {
            let keys: Vec<Key> = entries.iter().map(|se| se.primary.clone()).collect();
            let fetched = q.fetch(ds, partition, &keys).unwrap();
            assert_eq!(
                fetched.len(),
                keys.len(),
                "{when}: {partition} returned index hits it cannot fetch"
            );
            hits.extend(
                entries
                    .iter()
                    .map(|se| (se.secondary.as_u64(), se.primary.as_u64())),
            );
        }
        let expected: BTreeSet<(u64, u64)> = self.model.keys().map(|k| (k % GROUPS, *k)).collect();
        assert_eq!(hits.len(), expected.len(), "{when}: duplicate index hits");
        assert_eq!(
            hits.into_iter().collect::<BTreeSet<_>>(),
            expected,
            "{when}: index hits disagree with the model"
        );
    }
}

fn live_keys(entries: Vec<dynahash_lsm::Entry>) -> BTreeSet<u64> {
    entries.iter().map(|e| e.key.as_u64()).collect()
}

#[test]
fn scaling_out_and_in_twice_keeps_every_index_equal_to_the_model() {
    let mut w = World::new(4, 2400);
    w.check("loaded");
    for round in 0..2 {
        let node = w.cluster.add_node().unwrap();
        w.rebalance(None);
        w.check(&format!("round {round}: scaled out"));
        w.churn(300);
        w.check(&format!("round {round}: churned on 5 nodes"));
        w.rebalance(Some(node));
        w.check(&format!("round {round}: scaled in"));
        w.churn(300);
        w.check(&format!("round {round}: churned on 4 nodes"));
    }
}

/// The same cycle over a store whose buckets split under the ingest (and
/// keep splitting under the point writes): every read is of a reference
/// component or of a run merged out of some, at whatever depth the bucket
/// has reached.
#[test]
fn point_reads_equal_the_model_after_splits_a_cycle_and_point_writes() {
    let mut w = World::with_spec(4, 2400, spec_of(Scheme::dynahash(6 * 1024, 8)));
    w.check("loaded");
    let node = w.cluster.add_node().unwrap();
    w.rebalance(None);
    w.churn(300);
    w.check("scaled out and churned");
    w.rebalance(Some(node));
    w.churn(300);
    w.check("scaled in and churned");
    let partitions = w.cluster.topology().partitions();
    let admin = w.cluster.admin();
    let splits = |p| admin.partition(p).unwrap().metrics().snapshot().split_count;
    let split: u64 = partitions.into_iter().map(splits).sum();
    assert!(split > 0, "the store was to split its buckets");
}

/// The same history at bucket level, between two partitions: `b` goes
/// home -> away -> home -> away, each hop a component ship with replicated
/// writes landing while the bucket is pending. The returning bucket's base
/// entries are loaded unmarked by the deferred rebuild (on first query, or —
/// never queried — dropped with the stash); either way none of them may
/// outlive the next departure.
#[test]
fn a_bucket_that_returns_and_leaves_again_takes_its_index_entries_along() {
    for query_between_hops in [false, true] {
        let ctx = format!("query between hops: {query_between_hops}");
        let b = BucketId::new(1, 1);
        let mut home = Partition::new(PartitionId(0));
        let mut away = Partition::new(PartitionId(1));
        home.create_dataset(1, &spec(), vec![BucketId::new(0, 1), b]);
        away.create_dataset(1, &spec(), vec![]);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for k in 0..600u64 {
            home.dataset_mut(1)
                .unwrap()
                .ingest(Key::from_u64(k), payload(k, 0))
                .unwrap();
            model.insert(k, 0);
        }
        let mut next_key = 600u64;
        for hop in 0..3 {
            let (src, dst) = if hop % 2 == 0 {
                (&mut home, &mut away)
            } else {
                (&mut away, &mut home)
            };
            // Ship, then a concurrent insert, update and delete of `b`'s
            // records reach both the source and the pending copy.
            let comps = src.dataset_mut(1).unwrap().primary.ship_bucket(b).unwrap();
            let to = dst.dataset_mut(1).unwrap();
            to.ensure_pending_bucket(b).unwrap();
            to.primary.install_shipped(b, comps).unwrap();
            let from = src.dataset_mut(1).unwrap();
            let in_b = |k: &u64| b.contains_key(&Key::from_u64(*k));
            let fresh = (next_key..).find(in_b).unwrap();
            next_key = fresh + 1;
            let updated = *model.keys().find(|k| in_b(k)).unwrap();
            let deleted = *model.keys().rev().find(|k| in_b(k)).unwrap();
            for (k, version) in [(fresh, 0), (updated, model[&updated] + 1)] {
                let entry = dynahash_lsm::Entry::put(Key::from_u64(k), payload(k, version));
                from.ingest(entry.key.clone(), payload(k, version)).unwrap();
                let hash = hash_key(&entry.key);
                to.primary.apply_replicated(b, entry, hash).unwrap();
                model.insert(k, version);
            }
            from.delete(&Key::from_u64(deleted)).unwrap();
            let gone = Key::from_u64(deleted);
            let hash = hash_key(&gone);
            (to.primary)
                .apply_replicated(b, dynahash_lsm::Entry::delete(gone), hash)
                .unwrap();
            model.remove(&deleted);
            // Commit: install at the destination, clean up the source.
            to.primary.flush_pending();
            to.install_pending(b).unwrap();
            from.cleanup_moved_buckets(&[b]).unwrap();

            let dst_name = if hop % 2 == 0 { "away" } else { "home" };
            for (name, part) in [("home", &mut home), ("away", &mut away)] {
                let ds = part.dataset_mut(1).unwrap();
                let owned = live_keys(ds.primary.scan(ScanOrder::Unordered));
                // Reading a deferred destination's index is the query
                // that warms it; without one, only the last hop looks.
                if name == dst_name && !query_between_hops && hop < 2 {
                    continue;
                }
                ds.warm_secondary_indexes();
                let hits: Vec<u64> = ds
                    .secondary_mut(INDEX)
                    .unwrap()
                    .all_valid_entries()
                    .iter()
                    .map(|se| se.primary.as_u64())
                    .collect();
                assert_eq!(
                    hits.len(),
                    owned.len(),
                    "{ctx}, hop {hop}: {name} index holds stale or duplicate hits"
                );
                assert_eq!(
                    hits.into_iter().collect::<BTreeSet<_>>(),
                    owned,
                    "{ctx}, hop {hop}: {name}"
                );
            }
            let everywhere: BTreeSet<u64> = [&home, &away]
                .iter()
                .flat_map(|p| live_keys(p.dataset(1).unwrap().primary.scan(ScanOrder::Unordered)))
                .collect();
            assert_eq!(
                everywhere,
                model.keys().copied().collect::<BTreeSet<_>>(),
                "{ctx}, hop {hop}"
            );
        }
    }
}
