//! Property-based integration tests of the rebalance invariants: whatever
//! sequence of scale-out / scale-in / ingest steps is applied, no record is
//! ever lost or misrouted, and the load balance stays bounded.

mod common;

use common::{check_seeded_cases, record, test_cluster, CASES};
use dynahash::cluster::{Cluster, DatasetSpec, RebalanceOptions};
use dynahash::core::{NodeId, RebalanceOutcome, Scheme};
use dynahash::lsm::entry::Key;
use dynahash::lsm::rng::SplitMix64;

#[derive(Debug, Clone)]
enum Step {
    Ingest(u16),
    ScaleOut,
    ScaleIn,
}

/// Draws a step with the same distribution the old proptest strategy used:
/// one of Ingest(50..400), ScaleOut, ScaleIn, uniformly.
fn random_step(rng: &mut SplitMix64) -> Step {
    match rng.gen_range(0..3) {
        0 => Step::Ingest(rng.gen_range(50..400) as u16),
        1 => Step::ScaleOut,
        _ => Step::ScaleIn,
    }
}

fn random_steps(rng: &mut SplitMix64) -> Vec<Step> {
    let n = rng.gen_range(1..8) as usize;
    (0..n).map(|_| random_step(rng)).collect()
}

/// Runs [`CASES`] seeded random step sequences against `scheme`. On failure
/// the panic message names the failing seed and the exact step sequence so
/// the case can be replayed deterministically.
fn check_never_loses_records(scheme: Scheme, seed_base: u64) {
    check_seeded_cases(
        &format!("rebalance property for scheme {scheme:?}"),
        seed_base,
        CASES,
        |_seed, rng| random_steps(rng),
        |_seed, steps| run_steps(scheme, steps),
    );
}

fn run_steps(scheme: Scheme, steps: &[Step]) {
    let mut cluster = test_cluster(2);
    let ds = cluster
        .create_dataset(DatasetSpec::new("events", scheme))
        .unwrap();
    let mut next_key = 0u64;
    let mut expected = 0usize;

    for step in steps {
        match step {
            Step::Ingest(n) => {
                let n = *n as u64;
                let mut session = cluster.session(ds).unwrap();
                session
                    .ingest(&mut cluster, (next_key..next_key + n).map(record))
                    .unwrap();
                next_key += n;
                expected += n as usize;
            }
            Step::ScaleOut => {
                if cluster.topology().num_nodes() >= 5 {
                    continue;
                }
                cluster.add_node().unwrap();
                let target = cluster.topology().clone();
                let report = cluster
                    .rebalance(ds, &target, RebalanceOptions::none())
                    .unwrap();
                assert_eq!(report.outcome, RebalanceOutcome::Committed);
            }
            Step::ScaleIn => {
                if cluster.topology().num_nodes() <= 1 {
                    continue;
                }
                let victim = *cluster.topology().nodes().last().unwrap();
                let target = cluster.topology_without(victim);
                let report = cluster
                    .rebalance(ds, &target, RebalanceOptions::none())
                    .unwrap();
                assert_eq!(report.outcome, RebalanceOutcome::Committed);
                if scheme.is_bucketed() {
                    cluster.decommission_node(victim).unwrap();
                } else {
                    // the Hashing scheme drops the old storage itself
                    cluster.decommission_node(victim).unwrap();
                }
            }
        }
        // Invariants after every step.
        cluster.check_dataset_consistency(ds).unwrap();
        assert_eq!(
            cluster.dataset_len(ds).unwrap(),
            expected,
            "records lost or duplicated"
        );
    }

    // Spot-check a sample of keys for readability at the end, through a
    // fresh client session (the sanctioned read path).
    let mut session = cluster.session(ds).unwrap();
    for k in (0..next_key).step_by(97) {
        let key = Key::from_u64(k);
        assert!(
            session.get(&cluster, &key).unwrap().is_some(),
            "key {k} unreachable after the step sequence"
        );
    }
    assert_eq!(
        session.metrics().redirects,
        0,
        "a fresh session never redirects"
    );
}

#[test]
fn prop_dynahash_never_loses_records() {
    check_never_loses_records(Scheme::dynahash(16 * 1024, 4), 0xdee0_0000);
}

#[test]
fn prop_statichash_never_loses_records() {
    check_never_loses_records(Scheme::StaticHash { num_buckets: 32 }, 0xdee1_0000);
}

#[test]
fn repeated_scale_out_keeps_load_balanced() {
    let mut cluster = Cluster::new(2);
    let scheme = Scheme::dynahash(24 * 1024, 8);
    let ds = cluster
        .create_dataset(DatasetSpec::new("events", scheme))
        .unwrap();
    let mut session = cluster.session(ds).unwrap();
    session
        .ingest(&mut cluster, (0..12_000u64).map(record))
        .unwrap();

    for _ in 0..3 {
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        cluster
            .rebalance(ds, &target, RebalanceOptions::none())
            .unwrap();
        cluster.check_dataset_consistency(ds).unwrap();

        // Per-node record counts should stay within 2.5x of the average
        // (bucket granularity limits how perfect the balance can be).
        let dist = cluster.dataset_distribution(ds).unwrap();
        let mut per_node = std::collections::BTreeMap::new();
        for (p, n) in dist {
            let node = cluster.node_of_partition(p).unwrap();
            *per_node.entry(node).or_insert(0usize) += n;
        }
        let avg = 12_000.0 / per_node.len() as f64;
        for (node, count) in per_node {
            assert!(
                (count as f64) < avg * 2.5,
                "node {node} holds {count} records, average is {avg}"
            );
        }
    }
    assert_eq!(cluster.topology().num_nodes(), 5);
}

#[test]
fn aborted_rebalance_leaves_everything_untouched() {
    use dynahash::cluster::{Fault, FaultSchedule, StepPoint};
    let mut cluster = Cluster::new(2);
    let ds = cluster
        .create_dataset(DatasetSpec::new(
            "events",
            Scheme::StaticHash { num_buckets: 32 },
        ))
        .unwrap();
    cluster
        .session(ds)
        .unwrap()
        .ingest(&mut cluster, (0..4_000u64).map(record))
        .unwrap();
    let distribution_before = cluster.dataset_distribution(ds).unwrap();

    cluster.add_node().unwrap();
    let target = cluster.topology().clone();
    // Case 1: the new node dies before it can vote "prepared"
    cluster.set_fault_plane(
        FaultSchedule::none().with_fault(StepPoint::BeforePrepare, Fault::CrashNode(NodeId(2))),
    );
    let report = cluster
        .rebalance(ds, &target, RebalanceOptions::none())
        .unwrap();
    assert_eq!(report.outcome, RebalanceOutcome::Aborted);
    // distribution identical to before the attempt
    assert_eq!(cluster.dataset_distribution(ds).unwrap(), {
        let mut d = distribution_before;
        // the new node's partitions exist but hold nothing
        for p in cluster.topology().partitions_of_node(NodeId(2)) {
            d.insert(p, 0);
        }
        d
    });
    cluster.check_dataset_consistency(ds).unwrap();
}
