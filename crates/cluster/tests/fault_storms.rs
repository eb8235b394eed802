//! Repeated-crash storms over the staged-transaction engine.
//!
//! The failure matrix walks the paper's six failure cases one at a time;
//! this harness is the blunt version: at *every* step boundary of the
//! driver it crashes a seeded-randomly chosen node **twice in a row**
//! (crash, recover, crash, recover) — for a job staged from live sources (a
//! scale-out rebalance) and for one staged from a feed (a repair) alike —
//! and separately injects a permanent node loss after every wave boundary,
//! asserting that
//!
//! * the job always reaches a terminal outcome (commit or abort — never a
//!   wedged state),
//! * commit/abort and `replan_wave` are idempotent under repetition, and
//! * `check_rebalance_integrity` finds zero violations afterwards.
//!
//! Everything is seeded: a failure replays exactly from the printed seed.

use dynahash_cluster::{
    Cluster, ClusterConfig, ClusterError, CostModel, DatasetId, DatasetSpec, Fault, FaultSchedule,
    RebalanceJob, RebalanceOptions, StepPoint,
};
use dynahash_core::{NodeId, RebalanceOutcome, Scheme};
use dynahash_lsm::entry::Key;
use dynahash_lsm::rng::SplitMix64;
use dynahash_lsm::Bytes;

const SEED: u64 = 0xfa57_2026;

fn record(i: u64) -> (Key, Bytes) {
    (Key::from_u64(i), Bytes::from(vec![(i % 249) as u8; 40]))
}

fn loaded(nodes: u32, n: u64) -> (Cluster, DatasetId) {
    let mut cluster = Cluster::with_config(
        nodes,
        ClusterConfig {
            partitions_per_node: 2,
            cost_model: CostModel::default(),
        },
    );
    let ds = cluster
        .create_dataset(DatasetSpec::new(
            "storm",
            Scheme::StaticHash { num_buckets: 32 },
        ))
        .unwrap();
    let records: Vec<(Key, Bytes)> = (0..n).map(record).collect();
    let mut session = cluster.session(ds).unwrap();
    session.ingest(&mut cluster, records).unwrap();
    (cluster, ds)
}

/// Every boundary the driver passes; `None` stands for after every wave.
const POINTS: &[Option<StepPoint>] = &[
    Some(StepPoint::AfterPlan),
    Some(StepPoint::AfterInit),
    None,
    Some(StepPoint::BeforePrepare),
    Some(StepPoint::AfterPrepare),
    Some(StepPoint::AfterCommitLog),
    Some(StepPoint::BeforeFinalize),
    Some(StepPoint::AfterFinalize),
];

/// Where a storm's job stages its pending buckets from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// A 3 -> 4 scale-out: buckets ship from their live source partitions.
    Live,
    /// A repair of the buckets lost with node 0: buckets load from a feed.
    Feed,
}

/// A 4-node cluster ready for a job of the given kind, plus the node the
/// scenario lost for good (retire it before integrity checks).
fn staged(source: Source) -> (Cluster, DatasetId, Option<NodeId>) {
    match source {
        Source::Live => {
            let (mut cluster, ds) = loaded(3, 1500);
            cluster.add_node().unwrap();
            (cluster, ds, None)
        }
        Source::Feed => {
            let (mut cluster, ds) = loaded(4, 1500);
            cluster.lose_node(NodeId(0)).unwrap();
            (cluster, ds, Some(NodeId(0)))
        }
    }
}

/// Plans the job [`staged`] prepared the cluster for.
fn plan(source: Source, cluster: &mut Cluster, ds: DatasetId) -> RebalanceJob {
    let job = match source {
        Source::Live => {
            let target = cluster.topology().clone();
            RebalanceJob::plan(cluster, ds, &target, 2)
        }
        Source::Feed => {
            let feed: Vec<(Key, Bytes)> = (0..1500).map(record).collect();
            RebalanceJob::plan_repair(cluster, ds, &feed)
        }
    }
    .unwrap();
    assert!(
        job.plan_ref().num_moves() > 0,
        "{source:?}: nothing to stage"
    );
    job
}

#[test]
fn double_crash_storm_at_every_step_point_commits_with_integrity() {
    let mut rng = SplitMix64::seed_from_u64(SEED);
    for source in [Source::Live, Source::Feed] {
        for &point in POINTS {
            for trial in 0..2u32 {
                let victim = NodeId(rng.gen_range(0..4) as u32);
                // Once the votes are in, a participant may also stay down
                // through the commit (Cases 2 and 4): finalize recovers it
                // and re-drives its tasks.
                let stays_down = trial == 1
                    && matches!(
                        point,
                        Some(StepPoint::AfterPrepare | StepPoint::AfterCommitLog)
                    );
                let ctx = format!("{source:?}, point {point:?}, trial {trial}, victim {victim}");
                // The same node dies twice in a row; the driver must absorb
                // both (commit tasks and cleanups are idempotent; a wiped
                // pending copy is staged again — re-shipped per the metadata
                // log, or re-loaded from the feed).
                let (mut cluster, ds, lost) = staged(source);
                let report = plan(source, &mut cluster, ds)
                    .drive_with(&mut cluster, |cluster, _job, at| {
                        let after_a_wave = matches!(at, StepPoint::AfterWave(_));
                        if point.map_or(after_a_wave, |point| at == point) {
                            let _ = cluster.crash_node(victim);
                            cluster.recover_all_nodes();
                            let _ = cluster.crash_node(victim);
                            if !stays_down {
                                cluster.recover_all_nodes();
                            }
                        }
                        Ok(())
                    })
                    .unwrap_or_else(|e| panic!("storm must not wedge the job ({ctx}): {e}"));
                assert_eq!(report.outcome, RebalanceOutcome::Committed, "{ctx}");
                assert_all_records_served(&cluster, ds, 1500);
                if let Some(lost) = lost {
                    assert!(cluster.fault_stats().degraded_buckets(ds).is_empty());
                    cluster.remove_lost_node(lost).unwrap();
                }
                cluster
                    .check_rebalance_integrity(ds, report.rebalance_id)
                    .unwrap_or_else(|e| panic!("integrity violation ({ctx}): {e}"));
            }
        }
    }
}

#[test]
fn losing_the_new_node_after_every_wave_boundary_commits_without_abort() {
    // Serial waves so every wave boundary exists for every trial; the loss
    // hits the newly added node (a pure destination), so re-planning cancels
    // its moves and the job commits with zero data loss.
    for wave in 0..3usize {
        let (mut cluster, ds) = loaded(3, 1500);
        let new_node = cluster.add_node().unwrap();
        cluster.set_fault_plane(
            FaultSchedule::seeded(SEED ^ wave as u64)
                .with_fault(StepPoint::AfterWave(wave), Fault::LoseNode(new_node)),
        );
        let target = cluster.topology().clone();
        let report = cluster
            .rebalance(ds, &target, RebalanceOptions::none())
            .unwrap_or_else(|e| panic!("loss after wave {wave} must re-plan, not abort: {e}"));
        assert_eq!(report.outcome, RebalanceOutcome::Committed, "wave {wave}");
        assert!(report.reroutes > 0, "wave {wave}: loss must cause reroutes");
        assert!(
            cluster.fault_stats().lost_buckets.is_empty(),
            "wave {wave}: a pure destination holds no sole copies"
        );
        assert_eq!(cluster.dataset_len(ds).unwrap(), 1500, "wave {wave}");
        assert_all_records_served(&cluster, ds, 1500);
        cluster.remove_lost_node(new_node).unwrap();
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .unwrap_or_else(|e| panic!("integrity violation (wave {wave}): {e}"));
        assert!(cluster.admin().health().all_healthy(), "wave {wave}");
    }
}

#[test]
fn replanning_twice_in_a_row_is_idempotent() {
    let (mut cluster, ds) = loaded(3, 2000);
    let new_node = cluster.add_node().unwrap();
    let target = cluster.topology().clone();
    let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 2).unwrap();
    job.init(&mut cluster).unwrap();
    job.run_wave(&mut cluster).unwrap();
    cluster.lose_node(new_node).unwrap();
    let first = job.replan_wave(&mut cluster).unwrap();
    assert_eq!(first.lost_nodes, vec![new_node]);
    assert!(first.rerouted > 0);
    // The lost node left the participant set: a second re-plan (and a
    // third) finds nothing to do.
    let second = job.replan_wave(&mut cluster).unwrap();
    assert!(second.is_noop(), "second replan must be a noop: {second:?}");
    let third = job.replan_wave(&mut cluster).unwrap();
    assert!(third.is_noop());
    while job.has_remaining_waves() {
        job.run_wave(&mut cluster).unwrap();
    }
    job.prepare(&mut cluster).unwrap();
    assert_eq!(
        job.decide(&mut cluster).unwrap(),
        RebalanceOutcome::Committed
    );
    job.commit(&mut cluster).unwrap();
    let report = job.finalize(&mut cluster).unwrap();
    assert_eq!(report.outcome, RebalanceOutcome::Committed);
    assert_eq!(cluster.dataset_len(ds).unwrap(), 2000);
    cluster.remove_lost_node(new_node).unwrap();
    cluster
        .check_rebalance_integrity(ds, report.rebalance_id)
        .unwrap();
}

/// Two losses before a re-ship wave runs. The first takes the destination
/// of a bucket wave 0 shipped off the evacuee, and the replan reroutes the
/// bucket to a survivor; the second takes another survivor before that
/// re-ship wave runs. The second replan must keep the re-ship scheduled: a
/// commit that routes the bucket to an owner that never received it leaves
/// its records stranded on the evacuee and every read of it redirecting.
#[test]
fn a_second_loss_before_the_reship_wave_still_reships() {
    let (mut cluster, ds) = loaded(5, 1500);
    let evacuee = NodeId(4);
    let target = cluster.topology_without(evacuee);
    let topology = cluster.topology().clone();
    let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 2).unwrap();
    job.init(&mut cluster).unwrap();
    job.run_wave(&mut cluster).unwrap();
    let shipped = (job.waves()[0].iter())
        .find(|m| topology.node_of(m.from) == Some(evacuee))
        .copied()
        .expect("wave 0 ships a bucket off the evacuee");
    let scheduled = |job: &RebalanceJob| {
        (job.waves()[job.completed_waves()..].iter())
            .flatten()
            .find(|m| m.bucket == shipped.bucket)
            .map(|m| m.to)
    };

    let first = topology.node_of(shipped.to).unwrap();
    cluster.lose_node(first).unwrap();
    let replan = job.replan_wave(&mut cluster).unwrap();
    assert!(replan.reshipped > 0, "{replan:?}");
    let rerouted = scheduled(&job).expect("the first replan schedules the re-ship");
    let second = (target.nodes().into_iter())
        .find(|n| *n != first && Some(*n) != topology.node_of(rerouted))
        .unwrap();
    cluster.lose_node(second).unwrap();
    job.replan_wave(&mut cluster).unwrap();
    assert_eq!(
        scheduled(&job),
        Some(rerouted),
        "the second replan dropped the re-ship"
    );

    let report = job.drive(&mut cluster).unwrap();
    assert_eq!(report.outcome, RebalanceOutcome::Committed);
    cluster.decommission_node(evacuee).unwrap();
    cluster.remove_lost_node(first).unwrap();
    cluster.remove_lost_node(second).unwrap();
    cluster
        .check_rebalance_integrity(ds, report.rebalance_id)
        .unwrap();
    let mut session = cluster.session(ds).unwrap();
    let records = (0..1500).map(record);
    let moved: Vec<_> = records
        .filter(|(key, _)| shipped.bucket.contains_key(key))
        .collect();
    assert!(!moved.is_empty());
    for (key, expected) in moved {
        assert_eq!(session.get(&cluster, &key).unwrap(), Some(expected));
    }
}

#[test]
fn double_loss_of_two_destinations_still_commits() {
    // Scale from 2 to 4 nodes, then lose *both* new nodes at different wave
    // boundaries. Every move cancels back to its live source and the job
    // commits as a (near-)noop instead of aborting.
    let (mut cluster, ds) = loaded(2, 1500);
    let n2 = cluster.add_node().unwrap();
    let n3 = cluster.add_node().unwrap();
    cluster.set_fault_plane(
        FaultSchedule::seeded(SEED)
            .with_fault(StepPoint::AfterWave(0), Fault::LoseNode(n2))
            .with_fault(StepPoint::AfterWave(1), Fault::LoseNode(n3)),
    );
    let target = cluster.topology().clone();
    let report = cluster
        .rebalance(ds, &target, RebalanceOptions::none())
        .expect("double loss must re-plan, not abort");
    assert_eq!(report.outcome, RebalanceOutcome::Committed);
    assert_eq!(cluster.dataset_len(ds).unwrap(), 1500);
    cluster.remove_lost_node(n2).unwrap();
    cluster.remove_lost_node(n3).unwrap();
    cluster
        .check_rebalance_integrity(ds, report.rebalance_id)
        .unwrap();
    assert_eq!(cluster.fault_stats().lost_nodes, vec![n2, n3]);
}

fn assert_all_records_served(cluster: &Cluster, ds: DatasetId, n: u64) {
    let mut session = cluster.session(ds).unwrap();
    for i in 0..n {
        let (key, expected) = record(i);
        assert_eq!(
            session.get(cluster, &key).unwrap(),
            Some(expected),
            "key {i}"
        );
    }
}

#[test]
fn established_node_loss_mid_rebalance_degrades_reads_until_repair_is_done_once() {
    // Unlike the pure-destination losses above, this loss takes an
    // *established* node mid-rebalance: the job still commits (re-planning
    // installs empty replacements), but the sole copies die with the node —
    // reads get the typed degraded error until a repair restores them, and a
    // second repair of the healthy dataset is a pure no-op.
    let (mut cluster, ds) = loaded(3, 1500);
    cluster.add_node().unwrap();
    let victim = NodeId(0);
    cluster.set_fault_plane(
        FaultSchedule::seeded(SEED).with_fault(StepPoint::AfterWave(0), Fault::LoseNode(victim)),
    );
    let target = cluster.topology().clone();
    let report = cluster
        .rebalance(
            ds,
            &target,
            RebalanceOptions::none().with_max_concurrent_moves(2),
        )
        .expect("an established-node loss must re-plan, not abort");
    assert_eq!(report.outcome, RebalanceOutcome::Committed);
    let degraded = cluster.fault_stats().degraded_buckets(ds);
    assert!(
        !degraded.is_empty(),
        "an established node held sole bucket copies"
    );

    let mut session = cluster.session(ds).unwrap();
    let mut degraded_reads = 0u64;
    let mut served = 0u64;
    for i in 0..1500u64 {
        match session.get(&cluster, &Key::from_u64(i)) {
            Ok(Some(_)) => served += 1,
            Ok(None) => panic!("a degraded bucket must never read as silently empty"),
            Err(ClusterError::BucketDegraded { dataset, bucket }) => {
                assert_eq!(dataset, ds);
                assert!(degraded.contains(&bucket));
                degraded_reads += 1;
            }
            Err(e) => panic!("unexpected read error: {e}"),
        }
    }
    assert!(degraded_reads > 0, "some keys route to the lost buckets");
    assert_eq!(served + degraded_reads, 1500);

    let feed: Vec<(Key, Bytes)> = (0..1500).map(record).collect();
    let first = cluster.admin().repair_dataset(ds, &feed).unwrap();
    let first = first.expect("a degraded dataset has something to repair");
    assert_eq!(first.outcome, RebalanceOutcome::Committed);
    assert_eq!(first.buckets_moved, degraded.len());
    assert!(cluster.fault_stats().degraded_buckets(ds).is_empty());

    // Idempotence: repairing a healthy dataset forces no log records,
    // restores nothing, and bumps no counters.
    let wal_len = cluster.controller.metadata_log.len();
    let second = cluster.admin().repair_dataset(ds, &feed).unwrap();
    assert!(second.is_none());
    assert_eq!(cluster.controller.metadata_log.len(), wal_len);
    assert_eq!(
        cluster.fault_stats().repaired_buckets,
        degraded.len() as u64
    );

    assert_all_records_served(&cluster, ds, 1500);
    cluster.remove_lost_node(victim).unwrap();
    cluster
        .check_rebalance_integrity(ds, first.rebalance_id)
        .unwrap();
}

#[test]
fn losing_a_second_node_mid_repair_replans_and_still_restores_everything() {
    let (mut cluster, ds) = loaded(4, 1500);
    let nodes = cluster.topology().nodes();
    cluster.lose_node(nodes[0]).unwrap();
    let initially_degraded = cluster.fault_stats().degraded_buckets(ds).len();
    assert!(initially_degraded > 0);
    let feed: Vec<(Key, Bytes)> = (0..1500).map(record).collect();

    let mut job = RebalanceJob::plan_repair(&mut cluster, ds, &feed).unwrap();
    let scope = job.plan_ref().num_moves();
    assert_eq!(scope, initially_degraded);
    job.init(&mut cluster).unwrap();
    // A survivor that the plan repaired onto dies mid-repair, taking the
    // pending copies it was about to receive *and* its own resident buckets
    // with it.
    cluster.lose_node(nodes[1]).unwrap();
    match job.run_wave(&mut cluster) {
        Err(ClusterError::NodeLost(n)) => assert_eq!(n, nodes[1]),
        other => panic!("staging must fail typed on a lost owner, got {other:?}"),
    }
    // The driver re-plans around the loss exactly as it does for a
    // rebalance: dead owners are reassigned and loaded again, and the second
    // node's own buckets are installed empty — newly degraded.
    let report = job.drive(&mut cluster).unwrap();
    assert_eq!(report.outcome, RebalanceOutcome::Committed);
    assert!(report.reroutes > 0, "the replan must reassign dead owners");
    assert!(report.buckets_moved > scope);
    let newly_degraded = cluster.fault_stats().degraded_buckets(ds);
    assert!(!newly_degraded.is_empty());
    assert_eq!(
        cluster.fault_stats().repaired_buckets,
        initially_degraded as u64,
        "every bucket of the original scope was restored"
    );

    // A second repair restores the second node's buckets.
    let second = cluster.admin().repair_dataset(ds, &feed).unwrap().unwrap();
    assert_eq!(second.buckets_moved, newly_degraded.len());
    assert!(cluster.fault_stats().degraded_buckets(ds).is_empty());

    assert_all_records_served(&cluster, ds, 1500);
    cluster.remove_lost_node(nodes[0]).unwrap();
    cluster.remove_lost_node(nodes[1]).unwrap();
    for id in [report.rebalance_id, second.rebalance_id] {
        cluster.check_rebalance_integrity(ds, id).unwrap();
    }
}

#[test]
fn an_aborted_repair_releases_the_dataset_at_once() {
    let (mut cluster, ds) = loaded(4, 1500);
    cluster.lose_node(NodeId(0)).unwrap();
    let degraded = cluster.fault_stats().degraded_buckets(ds);
    let feed: Vec<(Key, Bytes)> = (0..1500).map(record).collect();
    let healthy = (0..1500)
        .map(record)
        .find(|(k, _)| {
            let mut session = cluster.session(ds).unwrap();
            session.get(&cluster, k).is_ok()
        })
        .expect("some key routes to a surviving bucket");

    let mut job = RebalanceJob::plan_repair(&mut cluster, ds, &feed).unwrap();
    job.init(&mut cluster).unwrap();
    while job.has_remaining_waves() {
        job.run_wave(&mut cluster).unwrap();
    }
    job.prepare(&mut cluster).unwrap();
    let mut session = cluster.session(ds).unwrap();
    assert!(matches!(
        session.put(&mut cluster, healthy.0.clone(), healthy.1.clone()),
        Err(ClusterError::DatasetWriteBlocked(_))
    ));
    job.abort(&mut cluster).unwrap();

    // Right after the abort — before finalize — nothing of the job is left
    // registered: writes flow again and the dataset accepts a new job.
    session
        .put(&mut cluster, healthy.0.clone(), healthy.1.clone())
        .expect("an aborted repair no longer blocks writes");
    let mut retry = RebalanceJob::plan_repair(&mut cluster, ds, &feed)
        .expect("an aborted repair no longer holds the dataset");
    let aborted = job.finalize(&mut cluster).unwrap();
    assert_eq!(aborted.outcome, RebalanceOutcome::Aborted);
    assert_eq!(cluster.fault_stats().degraded_buckets(ds), degraded);

    // Finalizing the aborted job must not release the retry's registration.
    assert!(RebalanceJob::plan_repair(&mut cluster, ds, &feed).is_err());
    let report = retry.drive(&mut cluster).unwrap();
    assert_eq!(report.outcome, RebalanceOutcome::Committed);
    assert_all_records_served(&cluster, ds, 1500);
    cluster.remove_lost_node(NodeId(0)).unwrap();
    for id in [aborted.rebalance_id, report.rebalance_id] {
        cluster.check_rebalance_integrity(ds, id).unwrap();
    }
}

#[test]
fn a_second_job_cannot_be_planned_over_an_in_flight_one() {
    let feed: Vec<(Key, Bytes)> = (0..1500).map(record).collect();
    let refused = |attempt: Result<RebalanceJob, ClusterError>, ds, what: &str| match attempt {
        Err(ClusterError::RebalanceInFlight(d)) if d == ds => {}
        other => panic!("{what} must be refused typed, got {other:?}"),
    };
    for source in [Source::Live, Source::Feed] {
        let (mut cluster, ds, lost) = staged(source);
        let mut job = plan(source, &mut cluster, ds);
        let target = cluster.topology().clone();
        // Planned is already in flight; so is every later step.
        for step in 0..2 {
            let wal_len = cluster.controller.metadata_log.len();
            refused(
                RebalanceJob::plan(&mut cluster, ds, &target, 2),
                ds,
                "a rebalance over an in-flight job",
            );
            refused(
                RebalanceJob::plan_repair(&mut cluster, ds, &feed),
                ds,
                "a repair over an in-flight job",
            );
            assert!(cluster
                .rebalance(ds, &target, RebalanceOptions::none())
                .is_err());
            assert_eq!(
                cluster.controller.metadata_log.len(),
                wal_len,
                "{source:?}: a refused plan must not leave a dangling BEGIN"
            );
            if step == 0 {
                job.init(&mut cluster).unwrap();
                job.run_wave(&mut cluster).unwrap();
            }
        }
        // The first job was not disturbed: it finishes, and then the
        // dataset takes the next job.
        let report = job.drive(&mut cluster).unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed, "{source:?}");
        assert_all_records_served(&cluster, ds, 1500);
        if let Some(lost) = lost {
            cluster.remove_lost_node(lost).unwrap();
        }
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .unwrap();
        let target = cluster.topology().clone();
        let next = cluster
            .rebalance(ds, &target, RebalanceOptions::none())
            .unwrap();
        assert_eq!(next.outcome, RebalanceOutcome::Committed);
    }
}
