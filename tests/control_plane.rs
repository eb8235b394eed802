//! Seeded property tests of the control plane's decision invariants.
//!
//! Whatever seeded workload the decision loop faces — skewed ingest, query
//! hotspots, nodes joining, a node lost mid-wave — the decision stream in
//! the cluster's event log must obey the protocol: every trigger earns its
//! hysteresis streak, no trigger lands inside a cooldown, no migration window
//! exceeds the budget, the decision counts agree exactly with the job events
//! they cause, and every committed auto-job leaves the dataset routable with
//! zero lost records. One seeded run with control, chaos, a node loss and a
//! repair must also log the same events, byte for byte, every time.

mod common;

use std::collections::{BTreeMap, BTreeSet};

use common::{assert_committed_set, check_seeded_cases, record, test_cluster, CASES};
use dynahash::cluster::{
    Cluster, ControlConfig, ControlDecision, ControlPlane, DatasetSpec, Event, FaultSchedule,
    COOLDOWN_TICKS, HYSTERESIS_TICKS,
};
use dynahash::core::{MigrationBudget, NodeId, RebalanceOutcome, Scheme};
use dynahash::lsm::entry::Key;
use dynahash::lsm::rng::SplitMix64;

/// Small buckets so even a few hundred records split into enough buckets
/// for Algorithm 2 to balance onto the joining nodes.
fn small_scheme() -> Scheme {
    Scheme::dynahash(4 * 1024, 8)
}

#[derive(Debug)]
struct LoopParams {
    records: u64,
    hot_ops: u64,
    grow: u32,
    ticks: u64,
    budget_buckets: usize,
    window_ticks: u64,
}

fn random_loop_params(rng: &mut SplitMix64) -> LoopParams {
    LoopParams {
        records: rng.gen_range(300..900),
        hot_ops: rng.gen_range(0..3000),
        grow: rng.gen_range(1..3) as u32,
        ticks: rng.gen_range(80..140),
        budget_buckets: rng.gen_range(1..4) as usize,
        window_ticks: rng.gen_range(2..5),
    }
}

/// How many of `events` match `pred`.
fn count(events: &[Event], pred: impl Fn(&Event) -> bool) -> u64 {
    events.iter().filter(|e| pred(e)).count() as u64
}

/// Builds the workload, runs the decision loop for a fixed number of ticks,
/// and checks every protocol invariant against the complete event log, read
/// tick by tick.
fn run_decision_loop(seed: u64, p: &LoopParams) {
    let mut cluster = test_cluster(3);
    cluster.set_heat_tracking(true);
    let ds = cluster
        .create_dataset(DatasetSpec::new("events", small_scheme()))
        .unwrap();
    let mut session = cluster.session(ds).unwrap();
    session
        .ingest(&mut cluster, (0..p.records).map(record))
        .unwrap();
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x0c0f_fee0);
    for _ in 0..p.hot_ops {
        let key = rng.gen_range(0..4);
        session.get(&cluster, &Key::from_u64(key)).unwrap();
    }
    for _ in 0..p.grow {
        cluster.add_node().unwrap();
    }

    let config = ControlConfig {
        budget: MigrationBudget {
            max_buckets_per_window: p.budget_buckets,
            max_bytes_per_window: 1 << 30,
            window_ticks: p.window_ticks,
        },
        ..ControlConfig::default()
    };
    let mut plane = ControlPlane::new(config);
    // The log read one tick at a time: each tick's slice is what it
    // appended, and its waves count against the budget window it ran in
    // (windows are `window_ticks` long from tick 1).
    let mut stream: Vec<ControlDecision> = Vec::new();
    let mut windows: BTreeMap<u64, (usize, u64)> = BTreeMap::new();
    let mut seq = 0;
    for tick in 1..=p.ticks {
        plane.tick(&mut cluster).unwrap();
        let appended = cluster.events(seq);
        seq += appended.len();
        stream.extend(appended.iter().filter_map(Event::decision).cloned());
        let window = windows.entry((tick - 1) / p.window_ticks).or_default();
        for event in appended {
            if let Event::WaveRun { moves, bytes, .. } = event {
                window.0 += moves;
                window.1 += bytes;
            }
        }
    }
    let events = cluster.events(0);
    let decision =
        |pred: fn(&ControlDecision) -> bool| count(events, |e| e.decision().is_some_and(pred));

    // The empty joining nodes push the imbalance far over the threshold, so
    // the loop must actually have worked: a trigger, a commit, and the
    // hysteresis streak leading up to the first trigger.
    let triggers = decision(|d| matches!(d, ControlDecision::Triggered { .. }));
    let committed = decision(|d| matches!(d, ControlDecision::Committed { .. }));
    assert!(triggers >= 1, "the plane never triggered");
    assert!(committed >= 1, "no auto-job committed");

    // The decisions read tick by tick are exactly the log's, and the counts
    // agree with the job events the decisions caused: every decision is
    // logged, none invented. The plane is the only planner here, and it
    // plans one job per trigger or no-improvement verdict.
    let whole: Vec<ControlDecision> = events.iter().filter_map(Event::decision).cloned().collect();
    assert_eq!(stream, whole);
    let no_improvement = decision(|d| matches!(d, ControlDecision::NoImprovement { .. }));
    let planned = count(events, |e| matches!(e, Event::JobPlanned { .. }));
    assert_eq!(triggers + no_improvement, planned);
    let finalized = |outcome| {
        count(
            events,
            |e| matches!(e, Event::Finalized { outcome: o, .. } if *o == outcome),
        )
    };
    assert_eq!(committed, finalized(RebalanceOutcome::Committed));
    assert_eq!(
        decision(|d| matches!(d, ControlDecision::Aborted { .. })) + no_improvement,
        finalized(RebalanceOutcome::Aborted)
    );
    assert_eq!(
        planned - u64::from(plane.job_in_flight()),
        committed + finalized(RebalanceOutcome::Aborted)
    );
    assert_eq!(
        decision(|d| matches!(d, ControlDecision::Replanned { .. })),
        count(events, |e| matches!(e, Event::Replanned { .. }))
    );
    // A deferred wave is the wave that runs next, whole.
    for (at, event) in events.iter().enumerate() {
        let Some(ControlDecision::DeferredByBudget {
            wave_buckets,
            wave_bytes,
            ..
        }) = event.decision()
        else {
            continue;
        };
        let next = events[at..].iter().find_map(|e| match e {
            Event::WaveRun { moves, bytes, .. } => Some((*moves, *bytes)),
            _ => None,
        });
        if let Some(ran) = next {
            assert_eq!(ran, (*wave_buckets, *wave_bytes), "deferral at seq {at}");
        }
    }

    // No trigger inside the cooldown that follows a committed or no-op job.
    let trigger_ticks: Vec<u64> = stream
        .iter()
        .filter_map(|d| match d {
            ControlDecision::Triggered { tick, .. } => Some(*tick),
            _ => None,
        })
        .collect();
    for d in &stream {
        let tc = match d {
            ControlDecision::Committed { tick, .. }
            | ControlDecision::NoImprovement { tick, .. } => *tick,
            _ => continue,
        };
        for t in &trigger_ticks {
            assert!(
                *t <= tc || *t > tc + COOLDOWN_TICKS,
                "trigger at tick {t} inside the cooldown after tick {tc}"
            );
        }
    }

    // Every trigger earns its streak: at least hysteresis - 1 suppressed
    // decisions since the previous terminal decision.
    let mut boundary = 0u64;
    for d in &stream {
        match d {
            ControlDecision::Triggered { tick, .. } => {
                let streak = stream
                    .iter()
                    .filter(|x| {
                        matches!(x, ControlDecision::SuppressedByHysteresis { tick: ht, .. }
                                 if *ht > boundary && *ht < *tick)
                    })
                    .count() as u32;
                assert!(
                    streak >= HYSTERESIS_TICKS - 1,
                    "trigger at tick {tick} with only {streak} hysteresis-suppressed \
                     ticks since tick {boundary}"
                );
                boundary = *tick;
            }
            ControlDecision::Committed { tick, .. }
            | ControlDecision::Aborted { tick, .. }
            | ControlDecision::NoImprovement { tick, .. } => boundary = *tick,
            _ => {}
        }
    }

    // No window ever exceeds the migration budget.
    for (w, (buckets, bytes)) in &windows {
        assert!(
            *buckets <= config.budget.max_buckets_per_window
                && *bytes <= config.budget.max_bytes_per_window,
            "window at tick {} shipped {buckets} buckets / {bytes} bytes over the budget",
            w * p.window_ticks + 1,
        );
    }
    let peak = windows
        .values()
        .fold((0, 0), |(b, y), (wb, wy)| (b.max(*wb), y.max(*wy)));
    assert_eq!(plane.peak_window(), peak);

    // Every committed auto-job left the dataset routable and complete.
    if let Some(ControlDecision::Committed { rebalance, .. }) = stream
        .iter()
        .rev()
        .find(|d| matches!(d, ControlDecision::Committed { .. }))
    {
        cluster.check_rebalance_integrity(ds, *rebalance).unwrap();
    }
    let expected: BTreeSet<u64> = (0..p.records).collect();
    assert_committed_set(&mut cluster, ds, &expected, "after the decision loop");
}

#[test]
fn decision_loop_invariants_hold_under_seeded_workloads() {
    check_seeded_cases(
        "control-plane decision-loop property",
        0x50a6_0901,
        CASES,
        |_seed, rng| random_loop_params(rng),
        run_decision_loop,
    );
}

#[derive(Debug)]
struct LossParams {
    records: u64,
    lose_second: bool,
    extra_ticks_before_loss: u64,
}

/// An auto-triggered job interrupted by a permanent node loss mid-wave must
/// be re-planned by the control plane's health monitoring and still commit
/// with full integrity.
fn run_loss_mid_wave(_seed: u64, p: &LossParams) {
    let mut cluster = test_cluster(4);
    cluster.set_heat_tracking(true);
    let ds = cluster
        .create_dataset(DatasetSpec::new("events", small_scheme()))
        .unwrap();
    cluster
        .session(ds)
        .unwrap()
        .ingest(&mut cluster, (0..p.records).map(record))
        .unwrap();
    let added = [cluster.add_node().unwrap(), cluster.add_node().unwrap()];

    // A tight bucket budget stretches the job over many windows, so the
    // node loss reliably lands while waves are still pending.
    let config = ControlConfig {
        budget: MigrationBudget {
            max_buckets_per_window: 2,
            max_bytes_per_window: 1 << 30,
            window_ticks: 4,
        },
        ..ControlConfig::default()
    };
    let mut plane = ControlPlane::new(config);
    let mut ticks = 0u64;
    loop {
        plane.tick(&mut cluster).unwrap();
        ticks += 1;
        if plane.job_in_flight() {
            break;
        }
        assert!(ticks < 20, "no auto-job started within 20 ticks");
    }
    for _ in 0..p.extra_ticks_before_loss {
        plane.tick(&mut cluster).unwrap();
        ticks += 1;
    }

    // Both joining nodes are destinations of the auto-planned moves; losing
    // either interrupts the job mid-wave.
    let lost = added[usize::from(p.lose_second)];
    cluster.lose_node(lost).unwrap();
    let loss_tick = ticks;

    let committed = |cluster: &Cluster| {
        (cluster.events(0).iter())
            .any(|e| matches!(e.decision(), Some(ControlDecision::Committed { .. })))
    };
    for _ in 0..300 {
        plane.tick(&mut cluster).unwrap();
        if !plane.job_in_flight() && committed(&cluster) {
            break;
        }
    }

    let stream: Vec<ControlDecision> = (cluster.events(0).iter())
        .filter_map(Event::decision)
        .cloned()
        .collect();
    assert!(
        (stream.iter()).any(|d| matches!(d, ControlDecision::Replanned { .. })),
        "the control plane never re-planned around the lost node"
    );
    let committed_after_loss = stream
        .iter()
        .any(|d| matches!(d, ControlDecision::Committed { tick, .. } if *tick >= loss_tick));
    assert!(
        committed_after_loss,
        "the interrupted job never committed after the loss at tick {loss_tick}"
    );
    if let Some(ControlDecision::Committed { rebalance, .. }) = stream
        .iter()
        .rev()
        .find(|d| matches!(d, ControlDecision::Committed { .. }))
    {
        cluster.check_rebalance_integrity(ds, *rebalance).unwrap();
    }
    let expected: BTreeSet<u64> = (0..p.records).collect();
    assert_committed_set(&mut cluster, ds, &expected, "after the mid-wave node loss");
}

#[test]
fn auto_job_interrupted_by_node_loss_replans_and_commits() {
    check_seeded_cases(
        "control-plane mid-wave node-loss property",
        0x50a6_0902,
        CASES,
        |_seed, rng| LossParams {
            records: rng.gen_range(1500..3000),
            lose_second: rng.gen_range(0..2) == 1,
            extra_ticks_before_loss: rng.gen_range(0..3),
        },
        run_loss_mid_wave,
    );
}

/// One seeded run with every plane at work: a hot dataset on a cluster that
/// just grew by two empty nodes, an armed control plane under a tight
/// migration budget, transient transfer faults, an established node lost
/// while the auto-job is in flight, and a repair from a registered feed.
/// Returns the run's event log.
fn traced_run() -> Vec<Event> {
    let mut cluster = test_cluster(3);
    cluster.set_heat_tracking(true);
    let ds = cluster
        .create_dataset(DatasetSpec::new("events", small_scheme()))
        .unwrap();
    let records: Vec<_> = (0..1500).map(record).collect();
    let mut session = cluster.session(ds).unwrap();
    session.ingest(&mut cluster, records.clone()).unwrap();
    for _ in 0..600 {
        for key in [1, 2, 3] {
            session.get(&cluster, &Key::from_u64(key)).unwrap();
        }
    }
    cluster.add_node().unwrap();
    cluster.add_node().unwrap();
    cluster.set_fault_plane(FaultSchedule::seeded(0x0b5e_2026).with_transient(300, 2));
    let mut plane = ControlPlane::new(ControlConfig {
        budget: MigrationBudget {
            max_buckets_per_window: 2,
            max_bytes_per_window: 1 << 30,
            window_ticks: 3,
        },
        hot_bucket_ops: 200,
        ..ControlConfig::default()
    });
    while !plane.job_in_flight() {
        plane.tick(&mut cluster).unwrap();
    }
    for _ in 0..4 {
        plane.tick(&mut cluster).unwrap();
    }
    // An established node dies mid-job; the plane re-plans around it, and
    // once the job commits its health tick repairs what died with it.
    cluster.lose_node(NodeId(1)).unwrap();
    plane.set_repair_feed(ds, records);
    for _ in 0..200 {
        plane.tick(&mut cluster).unwrap();
        let healthy = cluster.fault_stats().degraded_datasets().is_empty();
        if !plane.job_in_flight() && healthy {
            break;
        }
    }
    assert!(cluster.fault_stats().degraded_datasets().is_empty());
    cluster.events(0).to_vec()
}

/// The kind of `event`, as the golden-trace test asks for them.
fn kind(event: &Event) -> &'static str {
    match event {
        Event::WaveRun { .. } => "wave",
        Event::TransientFault {
            backoff: Some(_), ..
        } => "retry",
        Event::Replanned { .. } => "replan",
        Event::Control(ControlDecision::Triggered { .. }) => "trigger",
        Event::Control(ControlDecision::SuppressedByHysteresis { .. }) => "hysteresis",
        Event::Control(ControlDecision::DeferredByBudget { .. }) => "budget deferral",
        Event::Control(ControlDecision::HotSplit { .. }) => "hot split",
        Event::Control(ControlDecision::Committed { .. }) => "commit",
        Event::Control(ControlDecision::Repaired { .. }) => "repair",
        _ => "other",
    }
}

#[test]
fn one_seed_logs_the_same_events_twice() {
    let first = traced_run();
    let seen: BTreeSet<&str> = first.iter().map(kind).collect();
    for wanted in [
        "wave",
        "retry",
        "replan",
        "trigger",
        "hysteresis",
        "budget deferral",
        "hot split",
        "commit",
        "repair",
    ] {
        assert!(seen.contains(wanted), "the run logged no {wanted} event");
    }
    assert!(
        first.contains(&Event::NodeLost { node: NodeId(1) }),
        "the run logged no loss of node 1"
    );
    let second = traced_run();
    assert_eq!(format!("{first:?}"), format!("{second:?}"));
}
