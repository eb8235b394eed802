//! Fault-tolerance scenario: inject every failure case of Section V-D into a
//! rebalance operation and show that the dataset always ends up consistent —
//! either the rebalance commits everywhere or it aborts and leaves the data
//! untouched. A failure is a row: the `Fault`, and the `StepPoint` of the
//! rebalance it is scheduled at.
//!
//! Run with `cargo run --example fault_tolerance`.

use dynahash::cluster::{Cluster, DatasetSpec, Fault, FaultSchedule, RebalanceOptions, StepPoint};
use dynahash::core::{NodeId, RebalanceOutcome, Scheme};
use dynahash::lsm::entry::Key;
use dynahash::lsm::Bytes;

fn build_cluster() -> (Cluster, dynahash::cluster::DatasetId) {
    let mut cluster = Cluster::new(3);
    let ds = cluster
        .create_dataset(DatasetSpec::new(
            "accounts",
            Scheme::StaticHash { num_buckets: 64 },
        ))
        .expect("create dataset");
    let records =
        (0..10_000u64).map(|i| (Key::from_u64(i), Bytes::from(vec![(i % 200) as u8; 80])));
    let mut session = cluster.session(ds).expect("open session");
    session.ingest(&mut cluster, records).expect("ingest");
    (cluster, ds)
}

fn main() {
    use Fault::{CrashNode, RestartController};
    use StepPoint::{AfterCommitLog, AfterFinalize, AfterPrepare, BeforeFinalize, BeforePrepare};
    let (new_node, old_node) = (NodeId(3), NodeId(0));
    let cases: [(&str, StepPoint, Fault); 6] = [
        (
            "case 1: NC fails before voting prepared",
            BeforePrepare,
            CrashNode(new_node),
        ),
        (
            "case 2: NC fails after voting prepared",
            AfterPrepare,
            CrashNode(new_node),
        ),
        (
            "case 3: CC fails before forcing COMMIT",
            AfterPrepare,
            RestartController,
        ),
        (
            "case 4: NC fails before acking commit",
            AfterCommitLog,
            CrashNode(old_node),
        ),
        (
            "case 5: CC fails after COMMIT, before DONE",
            BeforeFinalize,
            RestartController,
        ),
        (
            "case 6: CC fails after DONE",
            AfterFinalize,
            RestartController,
        ),
    ];

    println!("injecting failures into a scale-out rebalance (3 -> 4 nodes, 10k records)\n");
    for (label, point, fault) in cases {
        let (mut cluster, ds) = build_cluster();
        cluster.add_node().expect("add node");
        let target = cluster.topology().clone();
        cluster.set_fault_plane(FaultSchedule::none().with_fault(point, fault));
        let report = cluster
            .rebalance(ds, &target, RebalanceOptions::none())
            .expect("rebalance executes");
        cluster
            .check_dataset_consistency(ds)
            .expect("dataset stays consistent");
        let records = cluster.dataset_len(ds).unwrap();
        // a client session opened before the failure still reads correctly,
        // redirecting if the rebalance committed under its feet
        let mut session = cluster.session(ds).expect("session");
        assert!(session
            .get(&cluster, &Key::from_u64(4_321))
            .expect("routed read")
            .is_some());
        assert_eq!(records, 10_000, "no record may be lost or duplicated");
        let verdict = match report.outcome {
            RebalanceOutcome::Committed => "committed (new directory installed)",
            RebalanceOutcome::Aborted => "aborted   (dataset left unchanged)",
        };
        println!("{label:<45} -> {verdict}, 10000 records intact");
    }

    println!("\nall six failure cases leave the dataset consistent, as required by Section V-D");
}
