//! Exhaustive failure matrix (Section V-D).
//!
//! A failure is a `(StepPoint, Fault)` row on the cluster's fault schedule.
//! The paper's six cases are nine such rows with the outcome each must have
//! (`failure_cases`); the sweep then crosses *every* boundary the driver
//! passes with every single-node crash, node restart and controller restart,
//! expecting no particular outcome — only that whatever happened is safe.
//! Both run for every bucketed scheme and both rebalance directions
//! (scale-out and scale-in). Afterwards the record count is unchanged, every
//! record routes to the partition that stores it, the CC's global directory
//! agrees with the partitions' local directories, no pending rebalance state
//! is left anywhere, and the metadata WAL shows the terminal `Done` status
//! ([`Cluster::check_rebalance_integrity`]).

use dynahash::cluster::{
    Cluster, ClusterConfig, DatasetSpec, Fault, FaultSchedule, RebalanceJob, RebalanceOptions,
    SecondaryIndexDef, StepPoint,
};
use dynahash::core::{ClusterTopology, NodeId, RebalanceOutcome, Scheme};
use dynahash::lsm::entry::Key;
use dynahash::lsm::wal::LogRecordBody;
use dynahash::lsm::Bytes;

const RECORDS: u64 = 1500;
/// The node a scale-out adds and a scale-in removes.
const NEW: NodeId = NodeId(2);
/// A node that survives in both directions.
const OLD: NodeId = NodeId(0);

fn schemes() -> Vec<(&'static str, Scheme)> {
    vec![
        ("StaticHash", Scheme::StaticHash { num_buckets: 32 }),
        ("DynaHash", Scheme::dynahash(16 * 1024, 8)),
    ]
}

/// One row of the matrix: a label, the failure, the outcome it must have.
type Row = (&'static str, StepPoint, Fault, RebalanceOutcome);

/// Section V-D's six cases as rows.
fn failure_cases() -> Vec<Row> {
    use Fault::*;
    use RebalanceOutcome::*;
    use StepPoint::*;
    vec![
        // Case 1: a missing prepare vote aborts the rebalance.
        ("case 1/new", BeforePrepare, CrashNode(NEW), Aborted),
        ("case 1/old", BeforePrepare, CrashNode(OLD), Aborted),
        // Case 2: the vote is already in; the commit goes through and the
        // recovered NC re-runs its commit tasks.
        ("case 2/new", AfterPrepare, CrashNode(NEW), Committed),
        ("case 2/old", AfterPrepare, CrashNode(OLD), Committed),
        // Case 3: BEGIN without COMMIT found on CC recovery -> abort.
        ("case 3", AfterPrepare, RestartController, Aborted),
        // Case 4: COMMIT is durable; the recovered NC finishes its tasks.
        ("case 4/new", AfterCommitLog, CrashNode(NEW), Committed),
        ("case 4/old", AfterCommitLog, CrashNode(OLD), Committed),
        // Case 5: COMMIT without DONE -> the commit tasks are re-driven.
        ("case 5", BeforeFinalize, RestartController, Committed),
        // Case 6: DONE is durable; recovery has nothing to do.
        ("case 6", AfterFinalize, RestartController, Committed),
    ]
}

fn loaded_cluster(nodes: u32, spec: DatasetSpec) -> (Cluster, u32) {
    let mut cluster = Cluster::with_config(
        nodes,
        ClusterConfig {
            partitions_per_node: 2,
        },
    );
    let ds = cluster.create_dataset(spec).unwrap();
    let records: Vec<(Key, Bytes)> = (0..RECORDS)
        .map(|i| (Key::from_u64(i), Bytes::from(vec![(i % 249) as u8; 48])))
        .collect();
    let mut session = cluster.session(ds).unwrap();
    session.ingest(&mut cluster, records).unwrap();
    (cluster, ds)
}

/// A loaded cluster and the target of its rebalance: 2 nodes growing to 3
/// (`scale_out`) or 3 nodes shrinking to 2, [`NEW`] coming or going.
fn before_rebalance(scheme: Scheme, scale_out: bool) -> (Cluster, u32, ClusterTopology) {
    let spec = DatasetSpec::new("events", scheme);
    if scale_out {
        let (mut cluster, ds) = loaded_cluster(2, spec);
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        (cluster, ds, target)
    } else {
        let (cluster, ds) = loaded_cluster(3, spec);
        let target = cluster.topology_without(NEW);
        (cluster, ds, target)
    }
}

/// Live records stored on [`NEW`] (white-box placement check).
fn live_on_new_node(cluster: &mut Cluster, ds: u32) -> usize {
    let parts = cluster.topology().partitions_of_node(NEW);
    let admin = cluster.admin();
    parts
        .iter()
        .map(|p| {
            let store = admin.partition(*p).unwrap().dataset(ds).unwrap();
            store.primary.live_len()
        })
        .sum()
}

/// Runs one row and asserts its outcome and the full integrity contract.
fn run_row(scheme_name: &str, scheme: Scheme, scale_out: bool, row: Row) {
    let (label, point, fault, expected) = row;
    let ctx = format!("{scheme_name}/scale_out={scale_out}/{label}");
    let (mut cluster, ds, target) = before_rebalance(scheme, scale_out);
    cluster.set_fault_plane(FaultSchedule::none().with_fault(point, fault));
    let report = cluster
        .rebalance(ds, &target, RebalanceOptions::none())
        .unwrap_or_else(|e| panic!("[{ctx}] rebalance errored: {e}"));
    assert_eq!(report.outcome, expected, "[{ctx}] unexpected outcome");
    assert_eq!(
        cluster.dataset_len(ds).unwrap(),
        RECORDS as usize,
        "[{ctx}] records lost or duplicated"
    );
    // every crashed node is back up by the time the rebalance returns
    for n in cluster.topology().nodes() {
        assert!(cluster.node_is_alive(n), "[{ctx}] node {n} left down");
    }
    cluster
        .check_rebalance_integrity(ds, report.rebalance_id)
        .unwrap_or_else(|e| panic!("[{ctx}] integrity violated: {e}"));
    // direction-specific posture: an abort leaves the new node empty (or the
    // leaving node full), a commit lands data on it (or empties it)
    let on_new = live_on_new_node(&mut cluster, ds);
    match (expected, scale_out) {
        (RebalanceOutcome::Aborted, true) => assert_eq!(on_new, 0, "[{ctx}] abort leaked data"),
        (RebalanceOutcome::Committed, true) => assert!(on_new > 0, "[{ctx}] commit moved nothing"),
        (RebalanceOutcome::Aborted, false) => assert!(on_new > 0, "[{ctx}] abort moved data"),
        (RebalanceOutcome::Committed, false) => {
            // a committed scale-in empties the victim so it can be removed
            cluster
                .decommission_node(NEW)
                .unwrap_or_else(|e| panic!("[{ctx}] decommission failed: {e}"));
            assert_eq!(cluster.topology().num_nodes(), 2);
            cluster.check_dataset_consistency(ds).unwrap();
        }
    }
}

#[test]
fn failure_matrix_scale_out() {
    for (scheme_name, scheme) in schemes() {
        for row in failure_cases() {
            run_row(scheme_name, scheme, true, row);
        }
    }
}

#[test]
fn failure_matrix_scale_in() {
    for (scheme_name, scheme) in schemes() {
        for row in failure_cases() {
            run_row(scheme_name, scheme, false, row);
        }
    }
}

/// Every boundary the driver of a `waves`-wave job passes.
fn step_points(waves: usize) -> Vec<StepPoint> {
    use StepPoint::*;
    let mut points = vec![AfterPlan, AfterInit];
    points.extend((0..waves).map(AfterWave));
    points.extend([
        BeforePrepare,
        AfterPrepare,
        AfterCommitLog,
        BeforeFinalize,
        AfterFinalize,
    ]);
    points
}

/// One cell of the sweep: `fault` at `point`, no outcome expected. Whatever
/// `rebalance` returned — aborted, committed or an error, counted in that
/// order in `endings` — once the crashed nodes are back the operation must
/// have been atomic and must have left the dataset ready for the next one.
fn run_cell(ctx: &str, scheme: Scheme, scale_out: bool, point: StepPoint, fault: Fault) -> usize {
    let (mut cluster, ds, target) = before_rebalance(scheme, scale_out);
    let on_new_before = live_on_new_node(&mut cluster, ds);
    cluster.set_fault_plane(FaultSchedule::none().with_fault(point, fault));
    let result = cluster.rebalance(ds, &target, RebalanceOptions::none());
    assert!(
        cluster.fault_plane().is_empty(),
        "[{ctx}] the driver never passed the point"
    );
    cluster.recover_all_nodes();

    // The first operation of a fresh controller has id 1.
    let commit = LogRecordBody::RebalanceCommit { rebalance: 1 };
    let log = cluster.controller.metadata_log.records();
    let committed = log.iter().any(|r| r.durable && r.body == commit);
    let ending = match &result {
        Ok(report) => {
            let in_report = report.outcome == RebalanceOutcome::Committed;
            assert_eq!(in_report, committed, "[{ctx}] report vs WAL");
            usize::from(committed)
        }
        // a restarted CC decides by its log; it never fails
        Err(e) => {
            assert_ne!(fault, Fault::RestartController, "[{ctx}] errored: {e}");
            2
        }
    };
    assert_eq!(
        cluster.dataset_len(ds).unwrap(),
        RECORDS as usize,
        "[{ctx}] records lost or duplicated"
    );
    // terminal WAL status, consistent placement, no residue
    cluster
        .check_rebalance_integrity(ds, 1)
        .unwrap_or_else(|e| panic!("[{ctx}] integrity violated: {e}"));
    // COMMIT is durable exactly when the data moved
    let on_new = live_on_new_node(&mut cluster, ds);
    let moved = if scale_out { on_new > 0 } else { on_new == 0 };
    assert_eq!(moved, committed, "[{ctx}] {on_new_before} -> {on_new}");
    if !moved {
        assert_eq!(on_new, on_new_before, "[{ctx}] an abort moved records");
    }

    let next = cluster
        .rebalance(ds, &target, RebalanceOptions::none())
        .unwrap_or_else(|e| panic!("[{ctx}] follow-up errored: {e}"));
    assert_eq!(next.outcome, RebalanceOutcome::Committed, "[{ctx}]");
    cluster
        .check_rebalance_integrity(ds, next.rebalance_id)
        .unwrap_or_else(|e| panic!("[{ctx}] follow-up integrity: {e}"));
    assert_eq!(cluster.dataset_len(ds).unwrap(), RECORDS as usize);
    ending
}

/// The sweep: every step point × every single fault, for both schemes and
/// both directions.
#[test]
fn every_fault_at_every_step_point_is_safe() {
    use Fault::*;
    let faults = [
        CrashNode(NEW),
        CrashNode(OLD),
        RestartNode(NEW),
        RestartNode(OLD),
        RestartController,
    ];
    let mut endings = [0usize; 3];
    for (scheme_name, scheme) in schemes() {
        for scale_out in [true, false] {
            let waves = {
                let (mut cluster, ds, target) = before_rebalance(scheme, scale_out);
                let job = RebalanceJob::plan(&mut cluster, ds, &target, 1).unwrap();
                job.num_waves()
            };
            assert!(waves >= 2, "the sweep wants a boundary between two waves");
            for point in step_points(waves) {
                for fault in faults {
                    let ctx = format!("{scheme_name}/scale_out={scale_out}/{point:?}/{fault:?}");
                    endings[run_cell(&ctx, scheme, scale_out, point, fault)] += 1;
                }
            }
        }
    }
    let [aborted, committed, errored] = endings;
    assert!(
        aborted > 0 && committed > 0 && errored > 0,
        "the sweep must see every kind of ending: {endings:?}"
    );
}

/// `drop_all_pending` is per destination partition, not per bucket: a job
/// aborted with two buckets of an indexed dataset staged on one destination
/// leaves nothing behind, and its re-run commits.
#[test]
fn an_abort_with_two_buckets_pending_on_one_destination_reruns_and_commits() {
    let spec = DatasetSpec::new("events", Scheme::StaticHash { num_buckets: 32 })
        .with_secondary_index(SecondaryIndexDef::new("idx_first", |payload| {
            payload.first().map(|b| Key::from_u64(u64::from(*b)))
        }));
    let (mut cluster, ds) = loaded_cluster(2, spec);
    cluster.add_node().unwrap();
    let target = cluster.topology().clone();
    let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 4).unwrap();
    job.init(&mut cluster).unwrap();
    while job.has_remaining_waves() {
        job.run_wave(&mut cluster).unwrap();
    }
    let destinations = cluster.topology().partitions_of_node(NEW);
    let admin = cluster.admin();
    let most_pending = (destinations.iter())
        .map(|p| admin.partition(*p).unwrap().dataset(ds).unwrap())
        .map(|part| part.primary.pending_bucket_ids().len())
        .max();
    assert!(
        most_pending >= Some(2),
        "{most_pending:?} on one destination"
    );
    job.abort(&mut cluster).unwrap();
    let aborted = job.finalize(&mut cluster).unwrap();
    assert_eq!(aborted.outcome, RebalanceOutcome::Aborted);
    cluster
        .check_rebalance_integrity(ds, aborted.rebalance_id)
        .unwrap();
    assert_eq!(live_on_new_node(&mut cluster, ds), 0);

    let rerun = cluster
        .rebalance(ds, &target, RebalanceOptions::none())
        .unwrap();
    assert_eq!(rerun.outcome, RebalanceOutcome::Committed);
    cluster
        .check_rebalance_integrity(ds, rerun.rebalance_id)
        .unwrap();
    assert!(live_on_new_node(&mut cluster, ds) > 0);
    // the secondary index answers for every record from where it now lives
    let hits: usize = (cluster.session(ds).unwrap())
        .index_scan(&mut cluster, "idx_first", None, None)
        .unwrap()
        .iter()
        .map(|(_, entries)| entries.len())
        .sum();
    assert_eq!(hits, RECORDS as usize);
}
