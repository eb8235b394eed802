//! The push-based operators read and charge what the materialising ones do.
//!
//! `scan_fold` must visit exactly the records `scan_table` returns, in the
//! same order, for the same simulated cost; `index_fetch_fold` must fold
//! exactly the records `index_scan` followed by a `fetch` per partition
//! returns, for the same cost and the same advance of every index's
//! `obsolete_entries_skipped`. An index scan changes what it reads (it warms
//! deferred rebuilds and counts validation work), so the two plans run on
//! *twin* clusters driven through one seeded history: churn with deletes and
//! flushes (tombstones in memory and in sealed runs), dynamic splits
//! (reference components), index candidates whose record is gone, and two
//! step-driven 4→5→4 cycles — the away-back-away history of
//! `away_and_back.rs` — compared after every wave (pending buckets invisible,
//! moved buckets never counted twice) and after every commit (lazily
//! invalidated buckets, deferred rebuilds to warm).

use std::collections::BTreeMap;

use dynahash_cluster::{
    Cluster, ClusterConfig, CostModel, DatasetId, DatasetSpec, QueryReport, RebalanceJob,
    SecondaryIndexDef, Session,
};
use dynahash_core::{NodeId, PartitionId, RebalanceOutcome, Scheme};
use dynahash_lsm::entry::Key;
use dynahash_lsm::rng::SplitMix64;
use dynahash_lsm::{Bytes, Entry};

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
    v.extend_from_slice(&[7u8; 40]);
    Bytes::from(v)
}

/// One of the twins: a cluster and the model of what it must hold.
struct World {
    cluster: Cluster,
    ds: DatasetId,
    session: Session,
    model: BTreeMap<u64, u64>,
    rng: SplitMix64,
    next_key: u64,
}

type Rows = Vec<(PartitionId, Vec<Entry>)>;

impl World {
    fn new(seed: u64) -> World {
        let mut cluster = Cluster::with_config(
            4,
            ClusterConfig {
                partitions_per_node: 2,
                cost_model: CostModel::default(),
            },
        );
        // Buckets small enough to split under the load, a memory component
        // small enough to seal several runs per bucket.
        let spec = DatasetSpec::new("events", Scheme::dynahash(12 * 1024, 8))
            .with_secondary_index(SecondaryIndexDef::new(INDEX, group_of))
            .with_memtable_budget(4 * 1024);
        let ds = cluster.create_dataset(spec).unwrap();
        let mut session = cluster.session(ds).unwrap();
        let records = 2_000u64;
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
            rng: SplitMix64::seed_from_u64(seed),
            next_key: records,
        }
    }

    /// `n` client writes — inserts, updates, deletes in equal shares — and
    /// one index entry nobody retracts: a candidate whose record is gone.
    fn churn(&mut self, n: usize) {
        for _ in 0..n {
            let existing = self.rng.gen_range(0..self.next_key);
            let key = Key::from_u64(existing);
            match self.rng.gen_range(0..3) {
                0 => {
                    self.next_key += 1;
                    self.put(self.next_key - 1, 0);
                }
                1 => self.put(existing, self.model.get(&existing).map_or(0, |v| v + 1)),
                _ => {
                    let was_live = self.session.delete(&mut self.cluster, &key).unwrap();
                    assert_eq!(was_live, self.model.remove(&existing).is_some());
                }
            }
        }
        let partitions = self.cluster.topology().partitions();
        let p = partitions[self.rng.gen_index(partitions.len())];
        let phantom = Key::from_pair(u64::MAX, self.rng.next_u64());
        let group = Key::from_u64(self.rng.gen_range(0..GROUPS));
        let mut admin = self.cluster.admin();
        let part = admin
            .partition_mut(p)
            .unwrap()
            .dataset_mut(self.ds)
            .unwrap();
        part.secondaries[0].insert(group, phantom);
        if self.rng.gen_ratio(1, 2) {
            part.flush_all();
        }
    }

    fn put(&mut self, key: u64, version: u64) {
        self.session
            .put(&mut self.cluster, Key::from_u64(key), payload(key, version))
            .unwrap();
        self.model.insert(key, version);
    }

    /// Plans the move onto the current topology minus `without`.
    fn plan(&mut self, without: Option<NodeId>) -> RebalanceJob {
        let target = match without {
            Some(node) => self.cluster.topology_without(node),
            None => self.cluster.topology().clone(),
        };
        let mut job = RebalanceJob::plan(&mut self.cluster, self.ds, &target, 3).unwrap();
        assert!(job.plan_ref().num_moves() > 0, "the step must move buckets");
        job.init(&mut self.cluster).unwrap();
        job
    }

    fn commit(&mut self, mut job: RebalanceJob, without: Option<NodeId>) {
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

    /// The model's records whose group lies in `[lo, hi)`, as the operators
    /// hand them out, in key order.
    fn expected(&self, lo: u64, hi: u64) -> Vec<Entry> {
        (self.model.iter())
            .filter(|(k, _)| (lo..hi).contains(&(*k % GROUPS)))
            .map(|(k, v)| Entry::put(Key::from_u64(*k), payload(*k, *v)))
            .collect()
    }

    /// What every partition's index has skipped so far.
    fn skipped(&mut self) -> Vec<u64> {
        let partitions = self.cluster.topology().partitions();
        let admin = self.cluster.admin();
        (partitions.iter())
            .map(|p| {
                let part = admin.partition(*p).unwrap().dataset(self.ds).unwrap();
                part.secondaries[0].obsolete_entries_skipped()
            })
            .collect()
    }

    /// True if some bucket of the dataset reads through a reference component.
    fn has_reference_components(&mut self) -> bool {
        let partitions = self.cluster.topology().partitions();
        let admin = self.cluster.admin();
        partitions.iter().any(|p| {
            let primary = &admin
                .partition(*p)
                .unwrap()
                .dataset(self.ds)
                .unwrap()
                .primary;
            (primary.bucket_ids().iter())
                .filter_map(|b| primary.bucket_tree(b))
                .any(|tree| tree.components().iter().any(|c| c.is_reference()))
        })
    }
}

/// The fold that keeps what it is handed, in the order it is handed it.
fn keep(rows: &mut Vec<Entry>) -> impl FnMut(&Key, &[u8]) + '_ {
    |key, payload| rows.push(Entry::put(key.clone(), Bytes::from(payload)))
}

/// The partitions' rows one after the other: the order a fold sees them in.
fn in_partition_order(rows: Rows) -> Vec<Entry> {
    rows.into_iter().flat_map(|(_, r)| r).collect()
}

/// Rows in key order, for the comparison with the model.
fn by_key(mut rows: Vec<Entry>) -> Vec<Entry> {
    rows.sort_by(|a, b| a.key.cmp(&b.key));
    rows
}

/// `scan_fold` against `scan_table`, in both orders, and both against the
/// model: every live record exactly once. The key-ordered scan is sorted per
/// partition and costs more than the hash-ordered one (the q18 merge).
fn scans_agree(w: &mut World, when: &str) {
    let mut elapsed = Vec::new();
    for ordered in [false, true] {
        let mut q = w.cluster.query();
        let table = q.scan_table(w.ds, ordered).unwrap();
        let table_report = q.finish();
        let sorted = |rows: &Vec<Entry>| rows.windows(2).all(|w| w[0].key < w[1].key);
        assert!(
            !ordered || table.iter().all(|(_, rows)| sorted(rows)),
            "{when}"
        );
        let mut q = w.cluster.query();
        let mut folded = Vec::new();
        q.scan_fold(w.ds, ordered, keep(&mut folded)).unwrap();
        assert_eq!(q.finish(), table_report, "{when}: ordered {ordered}");
        assert_eq!(
            folded,
            in_partition_order(table),
            "{when}: ordered {ordered}"
        );
        assert_eq!(by_key(folded), w.expected(0, GROUPS), "{when}");
        elapsed.push(table_report.elapsed);
    }
    assert!(
        elapsed[1] > elapsed[0],
        "{when}: the ordered scan costs more"
    );
}

/// The index-then-fetch plan over groups `[lo, hi)`, materialised on `a` and
/// fused on `b`. Returns how many candidates the fetch validated away.
fn index_plans_agree(a: &mut World, b: &mut World, lo: u64, hi: u64, when: &str) -> usize {
    let (lo_key, hi_key) = (Key::from_u64(lo), Key::from_u64(hi));
    let bounds = (Some(&lo_key), Some(&hi_key));
    let (skipped_a, skipped_b) = (a.skipped(), b.skipped());
    assert_eq!(skipped_a, skipped_b, "{when}: the twins diverged");

    let mut q = a.cluster.query();
    let mut fetched = Vec::new();
    let mut candidates = 0;
    for (p, hits) in q.index_scan(a.ds, INDEX, bounds.0, bounds.1).unwrap() {
        let keys: Vec<Key> = hits.into_iter().map(|se| se.primary).collect();
        candidates += keys.len();
        fetched.extend(q.fetch(a.ds, p, &keys).unwrap());
    }
    assert!(q.index_scan(a.ds, "no_such_index", None, None).is_err());
    let report: QueryReport = q.finish();

    let mut q = b.cluster.query();
    let mut folded = Vec::new();
    q.index_fetch_fold(b.ds, INDEX, bounds.0, bounds.1, keep(&mut folded))
        .unwrap();
    assert!(q
        .index_fetch_fold(b.ds, "no_such_index", None, None, |_, _| ())
        .is_err());
    assert_eq!(folded, fetched, "{when}: groups {lo}..{hi}");
    assert_eq!(q.finish(), report, "{when}: groups {lo}..{hi}");
    assert_eq!(a.skipped(), b.skipped(), "{when}: groups {lo}..{hi}");
    let found = folded.len();
    assert_eq!(by_key(folded), b.expected(lo, hi), "{when}: {lo}..{hi}");
    candidates - found
}

/// Drives the twins through the history, calling `check` at every
/// checkpoint: loaded and churned, after every wave of each of two 4→5→4
/// cycles, after each commit, and after the churn that follows it.
fn history(seed: u64, mut check: impl FnMut(&mut World, &mut World, &str)) {
    let (mut a, mut b) = (World::new(seed), World::new(seed));
    let mut step = |a: &mut World, b: &mut World, churn: usize, when: String| {
        a.churn(churn);
        b.churn(churn);
        check(a, b, &format!("seed {seed:#x}, {when}"));
    };
    step(&mut a, &mut b, 400, "loaded and churned".into());
    for round in 0..2 {
        for scale_in in [false, true] {
            let without = scale_in.then(|| *a.cluster.topology().nodes().last().unwrap());
            if !scale_in {
                assert_eq!(a.cluster.add_node().unwrap(), b.cluster.add_node().unwrap());
            }
            let (mut job_a, mut job_b) = (a.plan(without), b.plan(without));
            let mut wave = 0;
            while job_a.has_remaining_waves() {
                job_a.run_wave(&mut a.cluster).unwrap();
                job_b.run_wave(&mut b.cluster).unwrap();
                wave += 1;
                let when = format!("round {round}, in {scale_in}, wave {wave}");
                step(&mut a, &mut b, 30, when);
            }
            assert!(!job_b.has_remaining_waves());
            a.commit(job_a, without);
            b.commit(job_b, without);
            let when = format!("round {round}, in {scale_in}");
            step(&mut a, &mut b, 0, format!("{when}, committed"));
            step(&mut a, &mut b, 200, format!("{when}, churned"));
        }
    }
}

#[test]
fn scan_fold_visits_what_scan_table_returns_for_the_same_charge() {
    for seed in 0x0b5e_7700..0x0b5e_7703u64 {
        let mut saw_references = false;
        history(seed, |a, _, when| {
            scans_agree(a, when);
            saw_references |= a.has_reference_components();
        });
        assert!(saw_references, "seed {seed:#x}: no bucket ever split");
    }
}

#[test]
fn index_fetch_fold_is_index_scan_then_fetch() {
    for seed in 0x0b5e_7700..0x0b5e_7703u64 {
        let mut bounds = SplitMix64::seed_from_u64(seed);
        let (mut validated_away, mut skipped) = (0, 0);
        history(seed, |a, b, when| {
            let lo = bounds.gen_range(0..GROUPS);
            let hi = bounds.gen_range(lo..GROUPS + 1);
            validated_away += index_plans_agree(a, b, lo, hi, when);
            validated_away += index_plans_agree(a, b, 0, GROUPS, when);
            skipped = a.skipped().iter().sum::<u64>();
        });
        assert!(
            validated_away > 0,
            "seed {seed:#x}: every candidate had a record"
        );
        assert!(
            skipped > 0,
            "seed {seed:#x}: no query skipped an obsolete entry"
        );
    }
}

/// A put reads no old record, so an update that changes the indexed field
/// leaves the old index entry behind: the index lists k1 under 10 and 11,
/// and k2 under 20 though its field is now 500. The fold validates each
/// candidate against the record it names (the indexed field must still
/// equal the entry's key), so it folds each live record in range once.
#[test]
fn an_index_fold_skips_the_entries_an_update_left_behind() {
    let mut cluster = Cluster::new(2);
    let spec = DatasetSpec::new("fields", Scheme::StaticHash { num_buckets: 16 })
        .with_secondary_index(SecondaryIndexDef::new(INDEX, group_of));
    let ds = cluster.create_dataset(spec).unwrap();
    let mut session = cluster.session(ds).unwrap();
    let field = |v: u64| Bytes::from(v.to_be_bytes().to_vec());
    let (k1, k2) = (Key::from_u64(1), Key::from_u64(2));
    for (key, v) in [(&k1, 10), (&k1, 11), (&k2, 20), (&k2, 500)] {
        session.put(&mut cluster, key.clone(), field(v)).unwrap();
    }
    let (lo, hi) = (Key::from_u64(0), Key::from_u64(100));
    let mut folded = Vec::new();
    (cluster.query())
        .index_fetch_fold(ds, INDEX, Some(&lo), Some(&hi), keep(&mut folded))
        .unwrap();
    assert_eq!(folded, vec![Entry::put(k1, field(11))]);
}
