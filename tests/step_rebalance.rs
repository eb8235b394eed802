//! Scenarios for the step-driven rebalance executor.
//!
//! These tests drive [`RebalanceJob`] step-by-step — the cluster is fully
//! usable between any two steps — and check the paper's online guarantees:
//! scans between waves see exactly the committed record set, feed batches
//! ingested mid-flight survive the bucket moves, nodes can crash and recover
//! between waves, and a controller restart mid-job aborts cleanly. A seeded
//! property test (same harness style as `rebalance_invariants.rs`: the
//! failing seed and step trace are printed on panic) interleaves random
//! grow/shrink jobs with feed ingestion and asserts the directory and
//! record-set invariants after every single job step.

mod common;

use std::collections::BTreeSet;

use common::{
    assert_committed_set, check_seeded_cases, cluster_with_dataset, record, test_cluster, CASES,
};
use dynahash::cluster::{
    Cluster, DatasetSpec, Fault, FaultSchedule, RebalanceJob, RebalanceOptions, SecondaryIndexDef,
    StepPoint,
};
use dynahash::core::{NodeId, RebalanceOutcome, Scheme};
use dynahash::lsm::entry::Key;
use dynahash::lsm::rng::SplitMix64;
use dynahash::lsm::{Entry, ScanOrder, SecondaryEntry};

/// The acceptance scenario: a rebalance driven step-by-step with a scan
/// query and a feed batch applied between every pair of waves and a node
/// crash/recovery mid-movement — and the job still commits with every
/// integrity invariant intact.
#[test]
fn step_driven_job_survives_queries_feeds_and_crashes_between_waves() {
    let (mut cluster, ds) = cluster_with_dataset(3, Scheme::StaticHash { num_buckets: 32 }, 3000);
    let mut expected: BTreeSet<u64> = (0..3000).collect();
    cluster.add_node().unwrap();
    let target = cluster.topology().clone();

    let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 2).unwrap();
    assert!(job.num_waves() >= 2, "scenario needs multiple waves");
    job.init(&mut cluster).unwrap();

    let mut next_feed_key = 100_000u64;
    let mut crashed_once = false;
    while job.has_remaining_waves() {
        let wave = job.run_wave(&mut cluster).unwrap();

        // 1. a scan between waves sees exactly the committed records
        assert_committed_set(
            &mut cluster,
            ds,
            &expected,
            &format!("after wave {}", wave.wave),
        );

        // 2. a feed batch lands mid-flight (replicated where needed)
        let batch: Vec<_> = (next_feed_key..next_feed_key + 40).map(record).collect();
        job.apply_feed_batch(&mut cluster, batch).unwrap();
        expected.extend(next_feed_key..next_feed_key + 40);
        next_feed_key += 40;
        assert_committed_set(
            &mut cluster,
            ds,
            &expected,
            &format!("after feed batch at wave {}", wave.wave),
        );

        // 3. crash a node between two waves, query the survivors' view,
        //    recover, and keep rebalancing
        if !crashed_once {
            crashed_once = true;
            cluster.crash_node(NodeId(0)).unwrap();
            assert!(!cluster.node_is_alive(NodeId(0)));
            cluster.recover_node(NodeId(0)).unwrap();
        }
    }

    job.prepare(&mut cluster).unwrap();
    assert_eq!(
        job.decide(&mut cluster).unwrap(),
        RebalanceOutcome::Committed
    );
    job.commit(&mut cluster).unwrap();
    let report = job.finalize(&mut cluster).unwrap();

    assert_eq!(report.outcome, RebalanceOutcome::Committed);
    assert_eq!(report.concurrent_writes_applied, job.writes_applied());
    assert_eq!(cluster.dataset_len(ds).unwrap(), expected.len());
    assert_committed_set(&mut cluster, ds, &expected, "after finalize");
    cluster
        .check_rebalance_integrity(ds, report.rebalance_id)
        .unwrap();
    // every feed record is readable through the *new* routing, via a fresh
    // session (which therefore never sees a redirect)
    let mut session = cluster.session(ds).unwrap();
    for k in (100_000..next_feed_key).step_by(7) {
        let key = Key::from_u64(k);
        assert!(
            session.get(&cluster, &key).unwrap().is_some(),
            "feed key {k} unreachable after the rebalance"
        );
    }
    assert_eq!(session.metrics().redirects, 0);
}

/// The online-query guarantee in isolation: with fully serial waves (the
/// most step boundaries possible), a scan between every pair of waves
/// returns exactly the committed record set.
#[test]
fn scan_between_every_pair_of_waves_sees_the_committed_set() {
    let (mut cluster, ds) = cluster_with_dataset(2, Scheme::StaticHash { num_buckets: 16 }, 2000);
    let expected: BTreeSet<u64> = (0..2000).collect();
    cluster.add_node().unwrap();
    let target = cluster.topology().clone();

    let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 1).unwrap();
    job.init(&mut cluster).unwrap();
    assert_committed_set(&mut cluster, ds, &expected, "after init");
    while job.has_remaining_waves() {
        let wave = job.run_wave(&mut cluster).unwrap();
        assert_committed_set(
            &mut cluster,
            ds,
            &expected,
            &format!("between waves {} and {}", wave.wave, wave.wave + 1),
        );
    }
    job.prepare(&mut cluster).unwrap();
    job.decide(&mut cluster).unwrap();
    job.commit(&mut cluster).unwrap();
    let report = job.finalize(&mut cluster).unwrap();
    assert_committed_set(&mut cluster, ds, &expected, "after finalize");
    cluster
        .check_rebalance_integrity(ds, report.rebalance_id)
        .unwrap();
}

/// A controller restart between waves follows the paper's recovery rule —
/// BEGIN without COMMIT aborts — and the abort leaves the dataset exactly as
/// it was.
#[test]
fn controller_restart_between_waves_aborts_cleanly() {
    let (mut cluster, ds) = cluster_with_dataset(2, Scheme::StaticHash { num_buckets: 16 }, 1200);
    let expected: BTreeSet<u64> = (0..1200).collect();
    cluster.add_node().unwrap();
    let target = cluster.topology().clone();

    let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 1).unwrap();
    job.init(&mut cluster).unwrap();
    job.run_wave(&mut cluster).unwrap();

    // the CC dies and comes back: the metadata log shows the operation
    // in-flight, so recovery aborts it
    let recovery = cluster.restart_controller();
    assert!(recovery.aborted_rebalances.contains(&job.rebalance_id()));
    job.abort(&mut cluster).unwrap();
    let report = job.finalize(&mut cluster).unwrap();

    assert_eq!(report.outcome, RebalanceOutcome::Aborted);
    assert_committed_set(&mut cluster, ds, &expected, "after aborted job");
    cluster
        .check_rebalance_integrity(ds, report.rebalance_id)
        .unwrap();
    // the dataset rebalances fine afterwards
    let report = cluster
        .rebalance(ds, &target, RebalanceOptions::none())
        .unwrap();
    assert_eq!(report.outcome, RebalanceOutcome::Committed);
    cluster
        .check_rebalance_integrity(ds, report.rebalance_id)
        .unwrap();
}

/// The *normal* public ingestion path stays online during data movement:
/// `Session::ingest` between waves replicates writes to already-shipped
/// buckets, so nothing is lost when the commit drops the source buckets.
/// Once the prepare phase flushes the pending components, writes are
/// briefly blocked (Section V-C) instead of being silently dropped.
#[test]
fn normal_ingest_between_waves_loses_nothing() {
    let (mut cluster, ds) = cluster_with_dataset(2, Scheme::StaticHash { num_buckets: 16 }, 1200);
    let mut expected: BTreeSet<u64> = (0..1200).collect();
    cluster.add_node().unwrap();
    let target = cluster.topology().clone();

    // the session predates the job: it stays usable across every step
    let mut session = cluster.session(ds).unwrap();
    let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 1).unwrap();
    job.init(&mut cluster).unwrap();

    let mut next_key = 200_000u64;
    while job.has_remaining_waves() {
        job.run_wave(&mut cluster).unwrap();
        // plain Session::ingest — NOT job.apply_feed_batch
        session
            .ingest(&mut cluster, (next_key..next_key + 60).map(record))
            .unwrap();
        expected.extend(next_key..next_key + 60);
        next_key += 60;
        assert_committed_set(&mut cluster, ds, &expected, "after plain ingest");
    }
    assert_eq!(
        session.metrics().redirects,
        0,
        "sources serve their buckets until the commit: no redirects mid-flight"
    );

    job.prepare(&mut cluster).unwrap();
    // writes are briefly blocked between prepare and the decision
    let (k, v) = record(999_999);
    let blocked = session.put(&mut cluster, k, v);
    assert!(
        matches!(
            blocked,
            Err(dynahash::cluster::ClusterError::DatasetWriteBlocked(d)) if d == ds
        ),
        "writes must be blocked during the prepare window, got {blocked:?}"
    );

    job.decide(&mut cluster).unwrap();
    job.commit(&mut cluster).unwrap();
    let report = job.finalize(&mut cluster).unwrap();
    assert_eq!(report.outcome, RebalanceOutcome::Committed);
    assert_eq!(cluster.dataset_len(ds).unwrap(), expected.len());
    assert_committed_set(&mut cluster, ds, &expected, "after finalize");
    cluster
        .check_rebalance_integrity(ds, report.rebalance_id)
        .unwrap();
    // writes work again after the commit: the stale session redirects to
    // the new owner, refreshes, and retries transparently
    let (k, v) = record(999_999);
    session.put(&mut cluster, k, v).unwrap();
    assert_eq!(cluster.dataset_len(ds).unwrap(), expected.len() + 1);
    cluster.check_dataset_consistency(ds).unwrap();
}

/// A 3-node cluster whose dataset carries a secondary index on the first
/// payload byte, with a fourth node added and ready to receive buckets.
fn indexed_cluster_before_scale_out() -> (Cluster, u32) {
    let mut cluster = test_cluster(3);
    let spec = DatasetSpec::new("events", Scheme::StaticHash { num_buckets: 32 })
        .with_secondary_index(SecondaryIndexDef::new("idx_first", |payload| {
            payload.first().map(|b| Key::from_u64(u64::from(*b)))
        }));
    let ds = cluster.create_dataset(spec).unwrap();
    cluster
        .session(ds)
        .unwrap()
        .ingest(&mut cluster, (0..3000).map(record))
        .unwrap();
    cluster.add_node().unwrap();
    (cluster, ds)
}

/// The write-blocked window is independent of record counts — checked as a
/// count, not a timing: between the call of `prepare` and the return of a
/// fault-free `finalize`, no partition writes a record into any index
/// (`records_written`) or reads one back through a scan
/// (`bytes_query_read`). Received primary and secondary entries are staged
/// during the waves and installed by component handle; moved buckets are
/// marked in component metadata.
#[test]
fn the_write_blocked_window_reads_and_writes_no_record() {
    let (mut cluster, ds) = indexed_cluster_before_scale_out();
    let target = cluster.topology().clone();
    let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 4).unwrap();
    job.init(&mut cluster).unwrap();
    let mut next = 50_000u64;
    while job.has_remaining_waves() {
        job.run_wave(&mut cluster).unwrap();
        // replicated writes feed the pending structures, outside the window
        let batch: Vec<_> = (next..next + 60).chain(0..20).map(record).collect();
        job.apply_feed_batch(&mut cluster, batch).unwrap();
        next += 60;
    }
    let record_work = |cluster: &mut Cluster| -> (u64, u64) {
        let partitions = cluster.topology().partitions();
        let admin = cluster.admin();
        partitions.iter().fold((0, 0), |(written, read), p| {
            let m = admin.partition(*p).unwrap().metrics().snapshot();
            (written + m.records_written, read + m.bytes_query_read)
        })
    };
    let before = record_work(&mut cluster);
    job.prepare(&mut cluster).unwrap();
    assert_eq!(
        job.decide(&mut cluster).unwrap(),
        RebalanceOutcome::Committed
    );
    job.commit(&mut cluster).unwrap();
    let report = job.finalize(&mut cluster).unwrap();
    assert_eq!(
        record_work(&mut cluster),
        before,
        "(records_written, bytes_query_read) grew inside the write-blocked window"
    );
    assert!(report.entries_moved > 0 && job.writes_applied() > 0);
    cluster
        .check_rebalance_integrity(ds, report.rebalance_id)
        .unwrap();
}

/// Everything a partition stores for the dataset: the live entries of the
/// primary and (warmed) secondary indexes.
type StoredIndexes = (Vec<Entry>, Vec<SecondaryEntry>);

fn stored_indexes(cluster: &mut Cluster, ds: u32) -> Vec<StoredIndexes> {
    let partitions = cluster.topology().partitions();
    let mut admin = cluster.admin();
    partitions
        .iter()
        .map(|p| {
            let part = admin.partition_mut(*p).unwrap().dataset_mut(ds).unwrap();
            part.warm_secondary_indexes();
            (
                part.primary.scan(ScanOrder::Ordered),
                part.secondary_mut("idx_first").unwrap().all_valid_entries(),
            )
        })
        .collect()
}

/// A destination that dies after COMMIT is forced, or after its commit
/// tasks ran, misses nothing: finalize recovers it and re-drives exactly
/// its tasks (re-shipping what the crash wiped), and both index families
/// end up equal to the fault-free run's.
#[test]
fn a_destination_crash_around_commit_ends_equal_to_the_fault_free_run() {
    let run = |crash_at: Option<StepPoint>| {
        let (mut cluster, ds) = indexed_cluster_before_scale_out();
        let target = cluster.topology().clone();
        let writes: Vec<_> = (50_000..50_300).chain(0..100).map(record).collect();
        let options = RebalanceOptions::none().with_concurrent_writes(writes);
        if let Some(point) = crash_at {
            let crash = Fault::CrashNode(NodeId(3));
            cluster.set_fault_plane(FaultSchedule::none().with_fault(point, crash));
        }
        let report = cluster.rebalance(ds, &target, options).unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        assert!(cluster.node_is_alive(NodeId(3)));
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .unwrap();
        stored_indexes(&mut cluster, ds)
    };
    let fault_free = run(None);
    assert!(
        fault_free[6].0.len() + fault_free[7].0.len() > 0,
        "the added node's partitions (6 and 7) must have received records"
    );
    for point in [StepPoint::AfterCommitLog, StepPoint::BeforeFinalize] {
        assert_eq!(
            run(Some(point)),
            fault_free,
            "destination crashed {point:?}"
        );
    }
}

// ---------------------------------------------------------------- property

#[derive(Debug, Clone)]
enum Step {
    Grow { max_moves: usize },
    Shrink { max_moves: usize },
    Feed(u16),
}

fn random_step(rng: &mut SplitMix64) -> Step {
    match rng.gen_range(0..4) {
        0 | 1 => Step::Feed(rng.gen_range(40..250) as u16),
        2 => Step::Grow {
            max_moves: rng.gen_range(1..5) as usize,
        },
        _ => Step::Shrink {
            max_moves: rng.gen_range(1..5) as usize,
        },
    }
}

fn check_stepped_rebalances_never_lose_records(scheme: Scheme, seed_base: u64) {
    check_seeded_cases(
        &format!("stepped-rebalance property for scheme {scheme:?}"),
        seed_base,
        CASES,
        |_seed, rng| {
            let n = rng.gen_range(2..6) as usize;
            (0..n).map(|_| random_step(rng)).collect::<Vec<Step>>()
        },
        |seed, steps| run_steps(scheme, seed, steps),
    );
}

/// Invariants that must hold after *every* job step: the CC's directory
/// covers the full hash space, every record routes to the partition storing
/// it, and a scan sees exactly the expected record set.
fn assert_step_invariants(cluster: &mut Cluster, ds: u32, expected: &BTreeSet<u64>, when: &str) {
    let meta = cluster.controller.dataset(ds).unwrap();
    let dir = meta
        .directory
        .as_ref()
        .expect("bucketed datasets keep a directory");
    assert!(
        dir.covers_full_space(),
        "{when}: directory leaves hash-space holes"
    );
    cluster
        .check_dataset_consistency(ds)
        .unwrap_or_else(|e| panic!("{when}: {e}"));
    assert_committed_set(cluster, ds, expected, when);
}

fn run_steps(scheme: Scheme, seed: u64, steps: &[Step]) {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5eed_f00d);
    let mut cluster = test_cluster(2);
    let ds = cluster
        .create_dataset(DatasetSpec::new("events", scheme))
        .unwrap();
    let mut next_key = 0u64;
    let mut expected: BTreeSet<u64> = BTreeSet::new();
    let ingest =
        |cluster: &mut Cluster, expected: &mut BTreeSet<u64>, next_key: &mut u64, n: u64| {
            cluster
                .session(ds)
                .unwrap()
                .ingest(cluster, (*next_key..*next_key + n).map(record))
                .unwrap();
            expected.extend(*next_key..*next_key + n);
            *next_key += n;
        };
    ingest(&mut cluster, &mut expected, &mut next_key, 300);

    for (i, step) in steps.iter().enumerate() {
        match step {
            Step::Feed(n) => {
                ingest(&mut cluster, &mut expected, &mut next_key, *n as u64);
            }
            Step::Grow { max_moves } | Step::Shrink { max_moves } => {
                let grow = matches!(step, Step::Grow { .. });
                let (target, victim) = if grow {
                    if cluster.topology().num_nodes() >= 5 {
                        continue;
                    }
                    cluster.add_node().unwrap();
                    (cluster.topology().clone(), None)
                } else {
                    if cluster.topology().num_nodes() <= 1 {
                        continue;
                    }
                    let victim = *cluster.topology().nodes().last().unwrap();
                    (cluster.topology_without(victim), Some(victim))
                };

                let mut job = RebalanceJob::plan(&mut cluster, ds, &target, *max_moves).unwrap();
                assert_step_invariants(&mut cluster, ds, &expected, &format!("step {i}: planned"));
                job.init(&mut cluster).unwrap();
                assert_step_invariants(&mut cluster, ds, &expected, &format!("step {i}: init"));
                while job.has_remaining_waves() {
                    let wave = job.run_wave(&mut cluster).unwrap();
                    assert_step_invariants(
                        &mut cluster,
                        ds,
                        &expected,
                        &format!("step {i}: wave {}", wave.wave),
                    );
                    // interleave a feed batch through the job
                    let n = rng.gen_range(0..120);
                    if n > 0 {
                        let batch: Vec<_> = (next_key..next_key + n).map(record).collect();
                        job.apply_feed_batch(&mut cluster, batch).unwrap();
                        expected.extend(next_key..next_key + n);
                        next_key += n;
                        assert_step_invariants(
                            &mut cluster,
                            ds,
                            &expected,
                            &format!("step {i}: feed after wave {}", wave.wave),
                        );
                    }
                }
                job.prepare(&mut cluster).unwrap();
                assert_step_invariants(&mut cluster, ds, &expected, &format!("step {i}: prepared"));
                assert_eq!(
                    job.decide(&mut cluster).unwrap(),
                    RebalanceOutcome::Committed
                );
                job.commit(&mut cluster).unwrap();
                assert_step_invariants(&mut cluster, ds, &expected, &format!("step {i}: commit"));
                let report = job.finalize(&mut cluster).unwrap();
                cluster
                    .check_rebalance_integrity(ds, report.rebalance_id)
                    .unwrap_or_else(|e| panic!("step {i}: integrity after finalize: {e}"));
                assert_step_invariants(&mut cluster, ds, &expected, &format!("step {i}: final"));
                if let Some(victim) = victim {
                    cluster.decommission_node(victim).unwrap();
                }
            }
        }
        assert_eq!(
            cluster.dataset_len(ds).unwrap(),
            expected.len(),
            "step {i}: records lost or duplicated"
        );
    }
}

#[test]
fn prop_stepped_dynahash_jobs_never_lose_records() {
    check_stepped_rebalances_never_lose_records(Scheme::dynahash(16 * 1024, 4), 0x57e9_0000);
}

#[test]
fn prop_stepped_statichash_jobs_never_lose_records() {
    check_stepped_rebalances_never_lose_records(
        Scheme::StaticHash { num_buckets: 32 },
        0x57e9_1000,
    );
}
