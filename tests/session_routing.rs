//! Seeded property harness for the versioned-directory session API.
//!
//! N client sessions with *independently stale* routing caches interleave
//! reads, writes, overwrites, and deletes with the steps of a
//! [`RebalanceJob`], across {StaticHash, DynaHash} x {scale-out, scale-in}.
//! Invariants, checked per seeded case (the failing seed and its parameters
//! are printed on panic, same style as `rebalance_invariants.rs`):
//!
//! * **read-your-writes per session** — every session immediately reads
//!   back what it wrote, at every step boundary, however stale its cache;
//! * **transparent convergence** — after the rebalance commits (and, for a
//!   scale-in, the victim node is decommissioned), the still-stale sessions
//!   serve every key correctly through the stale-directory redirect
//!   protocol, with a bounded redirect count;
//! * **byte-identical contents** — each session's final scan equals the
//!   model and equals an *oracle session* that refreshed at every step.

mod common;

use std::collections::BTreeMap;

use common::{check_seeded_cases, test_cluster, CASES};
use dynahash::cluster::{DatasetSpec, RebalanceJob, Session};
use dynahash::core::{RebalanceOutcome, Scheme};
use dynahash::lsm::entry::Key;
use dynahash::lsm::rng::SplitMix64;
use dynahash::lsm::Bytes;

/// Client sessions with independently stale caches.
const NUM_SESSIONS: usize = 3;

fn payload(i: u64, version: u64) -> Bytes {
    let mut v = i.to_be_bytes().to_vec();
    v.extend_from_slice(&version.to_be_bytes());
    v.extend_from_slice(&[(i % 251) as u8; 32]);
    Bytes::from(v)
}

/// The model: what the dataset must contain, keyed by raw u64 key.
type Model = BTreeMap<u64, Bytes>;

fn model_as_contents(model: &Model) -> BTreeMap<Key, Bytes> {
    model
        .iter()
        .map(|(k, v)| (Key::from_u64(*k), v.clone()))
        .collect()
}

#[derive(Debug)]
struct CaseParams {
    scheme: Scheme,
    grow: bool,
    base_records: u64,
    max_moves: usize,
}

fn run_case(seed: u64, params: &CaseParams) {
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5e55_10f1);
    let nodes = if params.grow { 2 } else { 3 };
    let mut cluster = test_cluster(nodes);
    let ds = cluster
        .create_dataset(DatasetSpec::new("events", params.scheme))
        .unwrap();

    let mut model: Model = BTreeMap::new();
    {
        let mut loader = cluster.session(ds).unwrap();
        let batch: Vec<(Key, Bytes)> = (0..params.base_records)
            .map(|i| (Key::from_u64(i), payload(i, 0)))
            .collect();
        loader.ingest(&mut cluster, batch).unwrap();
    }
    model.extend((0..params.base_records).map(|i| (i, payload(i, 0))));

    // The oracle refreshes at every step; the client sessions are only ever
    // refreshed by the redirect protocol itself.
    let mut oracle = cluster.session(ds).unwrap();
    let mut sessions: Vec<Session> = (0..NUM_SESSIONS)
        .map(|_| cluster.session(ds).unwrap())
        .collect();
    // Per-session private key ranges for read-your-writes bookkeeping.
    let mut own_keys: Vec<Vec<u64>> = vec![Vec::new(); NUM_SESSIONS];
    let mut next_own: Vec<u64> = (0..NUM_SESSIONS as u64)
        .map(|s| 1_000_000 + s * 100_000)
        .collect();

    let (target, victim) = if params.grow {
        cluster.add_node().unwrap();
        (cluster.topology().clone(), None)
    } else {
        let victim = *cluster.topology().nodes().last().unwrap();
        (cluster.topology_without(victim), Some(victim))
    };

    let mut job = RebalanceJob::plan(&mut cluster, ds, &target, params.max_moves).unwrap();
    job.init(&mut cluster).unwrap();

    // Interleave session traffic with the job's waves. Session 0 stays
    // silent until after the commit — the fully-stale client.
    while job.has_remaining_waves() {
        job.run_wave(&mut cluster).unwrap();
        for (s, session) in sessions.iter_mut().enumerate() {
            if s == 0 || rng.gen_range(0..4) == 0 {
                continue;
            }
            // a fresh write, immediately read back
            let k = next_own[s];
            next_own[s] += 1;
            let v = payload(k, 1);
            session
                .put(&mut cluster, Key::from_u64(k), v.clone())
                .unwrap();
            model.insert(k, v.clone());
            own_keys[s].push(k);
            assert_eq!(
                session.get(&cluster, &Key::from_u64(k)).unwrap(),
                Some(v),
                "seed {seed}: session {s} lost its own write mid-rebalance"
            );
            match rng.gen_range(0..3) {
                // overwrite one of its own keys
                0 if !own_keys[s].is_empty() => {
                    let idx = rng.gen_range(0..own_keys[s].len() as u64) as usize;
                    let k = own_keys[s][idx];
                    let v = payload(k, 2 + rng.gen_range(0..1000));
                    session
                        .put(&mut cluster, Key::from_u64(k), v.clone())
                        .unwrap();
                    model.insert(k, v.clone());
                    assert_eq!(
                        session.get(&cluster, &Key::from_u64(k)).unwrap(),
                        Some(v),
                        "seed {seed}: session {s} lost an overwrite"
                    );
                }
                // delete one of its own keys
                1 if !own_keys[s].is_empty() => {
                    let idx = rng.gen_range(0..own_keys[s].len() as u64) as usize;
                    let k = own_keys[s].swap_remove(idx);
                    assert!(session.delete(&mut cluster, &Key::from_u64(k)).unwrap());
                    model.remove(&k);
                    assert_eq!(
                        session.get(&cluster, &Key::from_u64(k)).unwrap(),
                        None,
                        "seed {seed}: session {s} read back a deleted key"
                    );
                }
                // read a random base key
                _ => {
                    let k = rng.gen_range(0..params.base_records);
                    assert_eq!(
                        session.get(&cluster, &Key::from_u64(k)).unwrap().as_ref(),
                        model.get(&k),
                        "seed {seed}: session {s} misread base key {k}"
                    );
                }
            }
        }
        // the oracle refreshes at every step and must agree with the model
        oracle.refresh(&cluster).unwrap();
        let k = rng.gen_range(0..params.base_records);
        assert_eq!(
            oracle.get(&cluster, &Key::from_u64(k)).unwrap().as_ref(),
            model.get(&k),
            "seed {seed}: oracle misread base key {k}"
        );
    }
    // Sources serve moving buckets until the commit: no stale session was
    // redirected while the waves ran.
    for (s, session) in sessions.iter().enumerate() {
        assert_eq!(
            session.metrics().redirects,
            0,
            "seed {seed}: session {s} redirected mid-rebalance"
        );
    }

    job.prepare(&mut cluster).unwrap();
    assert_eq!(
        job.decide(&mut cluster).unwrap(),
        RebalanceOutcome::Committed,
        "seed {seed}: rebalance must commit"
    );
    job.commit(&mut cluster).unwrap();
    let report = job.finalize(&mut cluster).unwrap();
    cluster
        .check_rebalance_integrity(ds, report.rebalance_id)
        .unwrap_or_else(|e| panic!("seed {seed}: integrity after finalize: {e}"));
    if let Some(victim) = victim {
        cluster.decommission_node(victim).unwrap();
    }

    // Every session is now stale across the full rebalance (session 0 never
    // even issued a request). Drive them over the whole key space: the
    // redirect protocol must converge each one with correct answers.
    let expected = model_as_contents(&model);
    for (s, session) in sessions.iter_mut().enumerate() {
        let before = session.metrics();
        for (k, v) in model.iter() {
            assert_eq!(
                session.get(&cluster, &Key::from_u64(*k)).unwrap().as_ref(),
                Some(v),
                "seed {seed}: session {s} misread key {k} after the rebalance"
            );
        }
        let (contents, raw) = session.collect_records(&cluster).unwrap();
        assert_eq!(
            raw,
            expected.len(),
            "seed {seed}: session {s} saw a key twice"
        );
        assert_eq!(
            contents, expected,
            "seed {seed}: session {s} final contents diverge from the model"
        );
        let after = session.metrics();
        let redirects = after.redirects - before.redirects;
        let bound = (report.buckets_moved as u64).max(1) + 1;
        assert!(
            redirects <= bound,
            "seed {seed}: session {s} took {redirects} redirects (bound {bound}, \
             {} buckets moved)",
            report.buckets_moved
        );
        // Reading every key touches a moved bucket, so the protocol ran.
        assert!(
            report.buckets_moved == 0 || redirects >= 1,
            "seed {seed}: session {s} was never redirected although {} buckets moved",
            report.buckets_moved
        );
    }

    // The oracle (refreshed every step) agrees byte for byte.
    let (oracle_contents, oracle_raw) = oracle.collect_records(&cluster).unwrap();
    assert_eq!(
        oracle_raw,
        expected.len(),
        "seed {seed}: oracle double-read"
    );
    assert_eq!(
        oracle_contents, expected,
        "seed {seed}: oracle contents diverge from the model"
    );
    assert_eq!(
        cluster.dataset_len(ds).unwrap(),
        expected.len(),
        "seed {seed}: records lost or duplicated"
    );
    cluster.check_dataset_consistency(ds).unwrap();
}

fn check_sessions_converge(scheme: Scheme, grow: bool, seed_base: u64) {
    check_seeded_cases(
        "session-routing property",
        seed_base,
        CASES,
        |_seed, rng| CaseParams {
            scheme,
            grow,
            base_records: rng.gen_range(300..800),
            max_moves: rng.gen_range(1..5) as usize,
        },
        run_case,
    );
}

#[test]
fn prop_stale_sessions_converge_statichash_scale_out() {
    check_sessions_converge(Scheme::StaticHash { num_buckets: 32 }, true, 0x5e55_0000);
}

#[test]
fn prop_stale_sessions_converge_statichash_scale_in() {
    check_sessions_converge(Scheme::StaticHash { num_buckets: 32 }, false, 0x5e55_1000);
}

#[test]
fn prop_stale_sessions_converge_dynahash_scale_out() {
    check_sessions_converge(Scheme::dynahash(16 * 1024, 8), true, 0x5e55_2000);
}

#[test]
fn prop_stale_sessions_converge_dynahash_scale_in() {
    check_sessions_converge(Scheme::dynahash(16 * 1024, 8), false, 0x5e55_3000);
}
