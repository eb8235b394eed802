//! The Records and Components move policies must be observationally
//! identical: whatever the scheme, rebalance direction, or mid-flight feed,
//! both leave the same bytes on the same partitions, answer the same
//! queries, and pass the full rebalance-integrity contract. A seeded
//! property harness (same style as `rebalance_invariants.rs`: the failing
//! seed is printed on panic) checks that equivalence, and dedicated
//! scenarios exercise the component path's crash recovery — a destination
//! losing its uncommitted pending state between the ship and the install is
//! re-shipped from the moves recorded in the metadata log.

use std::collections::BTreeMap;

use dynahash::cluster::{
    Cluster, ClusterConfig, CostModel, DatasetSpec, RebalanceJob, RebalanceOptions,
    SecondaryIndexDef,
};
use dynahash::core::{MovePolicy, NodeId, PartitionId, RebalanceOutcome, Scheme};
use dynahash::lsm::entry::{Key, Value};
use dynahash::lsm::rng::SplitMix64;
use dynahash::lsm::{Bytes, SecondaryEntry};

fn payload(i: u64) -> Bytes {
    let mut v = (i % 37).to_be_bytes().to_vec();
    v.extend_from_slice(&[(i % 251) as u8; 48]);
    Bytes::from(v)
}

fn record(i: u64) -> (Key, Value) {
    (Key::from_u64(i), payload(i))
}

fn spec(scheme: Scheme) -> DatasetSpec {
    DatasetSpec::new("events", scheme).with_secondary_index(SecondaryIndexDef::new(
        "idx_tag",
        |p: &[u8]| {
            if p.len() >= 8 {
                let mut b = [0u8; 8];
                b.copy_from_slice(&p[..8]);
                Some(Key::from_u64(u64::from_be_bytes(b)))
            } else {
                None
            }
        },
    ))
}

fn cluster_with(nodes: u32, scheme: Scheme, n: u64) -> (Cluster, u32) {
    let mut cluster = Cluster::with_config(
        nodes,
        ClusterConfig {
            partitions_per_node: 2,
            cost_model: CostModel::default(),
        },
    );
    let ds = cluster.create_dataset(spec(scheme)).unwrap();
    cluster
        .session(ds)
        .unwrap()
        .ingest(&mut cluster, (0..n).map(record))
        .unwrap();
    (cluster, ds)
}

/// Everything a scenario observes after the rebalance: the full record set,
/// its placement, and the secondary-index answers.
#[derive(Debug, PartialEq, Eq)]
struct Observation {
    contents: BTreeMap<Key, Value>,
    distribution: BTreeMap<PartitionId, usize>,
    index_hits: Vec<(PartitionId, Vec<SecondaryEntry>)>,
}

fn observe(cluster: &mut Cluster, ds: u32) -> Observation {
    let (contents, raw) = cluster.query().collect_records(ds).unwrap();
    assert_eq!(raw, contents.len(), "a record is visible on two partitions");
    let distribution = cluster.dataset_distribution(ds).unwrap();
    let index_hits = cluster
        .query()
        .index_scan(ds, "idx_tag", None, None)
        .unwrap();
    Observation {
        contents,
        distribution,
        index_hits,
    }
}

/// One scenario: load, scale out or in, rebalance under `policy` with a
/// mid-flight feed, and return what the cluster then looks like.
fn run_scenario(
    policy: MovePolicy,
    scheme: Scheme,
    grow: bool,
    n_records: u64,
    n_writes: u64,
    max_moves: usize,
) -> Observation {
    let (mut cluster, ds) = cluster_with(3, scheme, n_records);
    let target = if grow {
        cluster.add_node().unwrap();
        cluster.topology().clone()
    } else {
        cluster.topology_without(NodeId(2))
    };
    let writes: Vec<(Key, Value)> = (500_000..500_000 + n_writes).map(record).collect();
    let report = cluster
        .rebalance(
            ds,
            &target,
            RebalanceOptions::none()
                .with_max_concurrent_moves(max_moves)
                .with_move_policy(policy)
                .with_concurrent_writes(writes),
        )
        .unwrap();
    assert_eq!(report.outcome, RebalanceOutcome::Committed);
    assert_eq!(report.concurrent_writes_applied, n_writes);
    cluster
        .check_rebalance_integrity(ds, report.rebalance_id)
        .unwrap();
    observe(&mut cluster, ds)
}

/// Number of randomized cases for the equivalence property.
const CASES: u64 = 12;

#[test]
fn prop_records_and_components_policies_are_byte_identical() {
    for case in 0..CASES {
        let seed = 0x6060_2200 + case;
        let mut rng = SplitMix64::seed_from_u64(seed);
        let scheme = match rng.gen_range(0..3) {
            0 => Scheme::StaticHash { num_buckets: 16 },
            1 => Scheme::StaticHash { num_buckets: 32 },
            _ => Scheme::dynahash(16 * 1024, 8),
        };
        let grow = rng.gen_range(0..2) == 0;
        let n_records = rng.gen_range(400..1000);
        let n_writes = rng.gen_range(0..250);
        let max_moves = rng.gen_range(1..5) as usize;
        let result = std::panic::catch_unwind(|| {
            let records = run_scenario(
                MovePolicy::Records,
                scheme,
                grow,
                n_records,
                n_writes,
                max_moves,
            );
            let components = run_scenario(
                MovePolicy::Components,
                scheme,
                grow,
                n_records,
                n_writes,
                max_moves,
            );
            assert_eq!(
                records.contents, components.contents,
                "post-rebalance contents differ between policies"
            );
            assert_eq!(
                records.distribution, components.distribution,
                "record placement differs between policies"
            );
            assert_eq!(
                records.index_hits, components.index_hits,
                "secondary-index answers differ between policies"
            );
        });
        if let Err(panic) = result {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!(
                "policy equivalence failed\n  seed: {seed}\n  scheme: {scheme:?} grow: {grow} \
                 records: {n_records} writes: {n_writes} max_moves: {max_moves}\n  cause: {msg}"
            );
        }
    }
}

/// Shipped components arrive at the destination as the same sealed data the
/// source held: the installed bucket trees contain handles marked shipped,
/// sharing the source's component ids (recorded in the ship log records).
#[test]
fn destinations_serve_the_shipped_components_directly() {
    let (mut cluster, ds) = cluster_with(2, Scheme::StaticHash { num_buckets: 16 }, 1500);
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
/// cache and no log record holds a component or a payload (sessions cache
/// routing state, the logs copy what they record). Once a committed
/// rebalance has dropped a source's buckets — under the Records policy, where
/// the destination loads its own copy — the handles taken before it are the
/// last owners of those runs, while a value read before it stays intact.
#[test]
fn a_dropped_source_bucket_is_owned_only_by_its_readers() {
    let (mut cluster, ds) = cluster_with(3, Scheme::StaticHash { num_buckets: 16 }, 1500);
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
        .rebalance(
            ds,
            &target,
            RebalanceOptions::none().with_move_policy(MovePolicy::Records),
        )
        .unwrap();
    assert_eq!(report.outcome, RebalanceOutcome::Committed);
    assert!(
        readers.iter().all(|c| c.ref_count() == 1),
        "a session, a log or a destination still pins a dropped bucket's run"
    );
    // the stale session redirects to the new owners and reads the same bytes
    // as the entries held from before the move
    for e in &held {
        assert_eq!(
            session.get(&cluster, &e.key).unwrap().as_ref(),
            e.op.value()
        );
        assert_eq!(e.op.value().unwrap(), &payload(e.key.as_u64()));
    }
}

/// A destination crash *between the ship and the install* wipes the
/// uncommitted pending state. The commit re-ships the lost buckets by
/// replaying the ship records from the metadata log, and the rebalance
/// still commits with full integrity.
#[test]
fn destination_crash_between_ship_and_install_is_reshipped() {
    let (mut cluster, ds) = cluster_with(3, Scheme::StaticHash { num_buckets: 32 }, 2400);
    let new_node = cluster.add_node().unwrap();
    let target = cluster.topology().clone();

    let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 2).unwrap();
    assert_eq!(job.move_policy(), MovePolicy::Components);
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
        let batch: Vec<_> = (next_key..next_key + 50).map(record).collect();
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
    let (contents, raw) = cluster.query().collect_records(ds).unwrap();
    assert_eq!(raw, contents.len());
    assert_eq!(contents.len() as u64, 2400 + (next_key - 700_000));
    for k in (0..2400u64).chain(700_000..next_key) {
        assert!(contents.contains_key(&Key::from_u64(k)), "key {k} lost");
    }
}

/// The same crash point under the Records policy: re-shipping falls back to
/// the record-level transfer and recovery still converges.
#[test]
fn destination_crash_between_ship_and_install_recovers_for_records_policy() {
    let (mut cluster, ds) = cluster_with(2, Scheme::StaticHash { num_buckets: 16 }, 1600);
    let new_node = cluster.add_node().unwrap();
    let target = cluster.topology().clone();

    let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 4).unwrap();
    job.set_move_policy(MovePolicy::Records);
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
}
