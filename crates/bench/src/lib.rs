//! The experiment harness: regenerates every figure of the DynaHash paper.
//!
//! Each study function builds the clusters, loads the scaled-down TPC-H
//! data, runs the experiment, and returns typed rows that mirror the
//! corresponding figure of the paper (Section VI):
//!
//! * [`fig6_ingestion`] — ingestion time vs. cluster size (Figure 6);
//! * [`fig7_rebalance`] — rebalance time for removing/adding a node
//!   (Figures 7a and 7b);
//! * [`fig7c_concurrent_writes`] — rebalance time under concurrent ingestion
//!   (Figure 7c);
//! * [`fig8_queries`] — TPC-H query times on the original cluster, including
//!   the lazy-cleanup variant (Figures 8a/8b);
//! * [`fig9_queries`] — query times on the downsized cluster (Figures 9a/9b);
//! * the studies behind the regression gates and the two ablations.
//!
//! Every row type declares its columns once ([`table_row!`]), every study is
//! one entry of the [`FIGURES`] registry, and [`run_figures`] is the one
//! driver: it runs the selected figures, evaluates each gate on the typed
//! rows, and hands back the [`Table`]s that markdown and JSON are rendered
//! from.
//!
//! Absolute numbers are simulated time produced by the cost model of
//! `dynahash-cluster`; only the relative comparisons are meaningful.

pub mod json;
pub mod scenario;
pub mod table;
pub mod timing;

use std::collections::BTreeMap;

use dynahash_cluster::{
    Cluster, ClusterConfig, ControlConfig, ControlDecision, ControlPlane, CostModel, DatasetId,
    DatasetSpec, Event, Fault, FaultSchedule, RebalanceJob, RebalanceOptions, Session,
    SessionMetrics, SimDuration, SpeculationPolicy, StepPoint,
};
use dynahash_core::balance::{balance_assignment, load_balance_factor, BalanceInput, BucketLoad};
use dynahash_core::{BucketId, ClusterTopology, NodeId, PartitionId, RebalanceOutcome, Scheme};
use dynahash_lsm::entry::Key;
use dynahash_lsm::{BucketedConfig, BucketedLsmTree, Bytes, LsmConfig, LsmTree, StorageMetrics};
use dynahash_tpch::loader::lineitem_records;
use dynahash_tpch::{
    generator, load_tpch, query_traits, run_query, TpchScale, TpchTables, NUM_QUERIES,
};

use crate::json::Json;
use crate::table::{Hex, Table};
use crate::timing::ns_per_op;

/// Scale and layout knobs shared by all experiments.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// TPC-H orders generated per node (the paper scales data with cluster
    /// size; so do we).
    pub orders_per_node: usize,
    /// Storage partitions per node (4 in the paper).
    pub partitions_per_node: u32,
    /// Cluster sizes on the x-axis of Figures 6, 7a and 7b.
    pub node_counts: &'static [u32],
    /// Cluster sizes the query suites of Figures 8 and 9 run on.
    pub query_nodes: &'static [u32],
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            orders_per_node: 400,
            partitions_per_node: 4,
            node_counts: &[2, 4, 8, 16],
            query_nodes: &[4, 16],
        }
    }
}

impl ExperimentConfig {
    /// A reduced configuration for fast benches and smoke tests.
    pub fn quick() -> Self {
        ExperimentConfig {
            orders_per_node: 120,
            partitions_per_node: 2,
            node_counts: &[2, 4],
            query_nodes: &[4],
        }
    }

    fn cluster(&self, nodes: u32) -> Cluster {
        Cluster::with_config(
            nodes,
            ClusterConfig {
                partitions_per_node: self.partitions_per_node,
                cost_model: CostModel::default(),
            },
        )
    }

    /// The three schemes evaluated by the paper, parameterised for this
    /// scale: Hashing, StaticHash(256), and DynaHash with a maximum bucket
    /// size chosen so that each partition ends up with roughly 4 buckets
    /// after loading (mirroring the paper's 10 GB threshold).
    pub fn schemes(&self, nodes: u32) -> Vec<Scheme> {
        vec![
            Scheme::Hashing,
            Scheme::static_hash_256(),
            self.dynahash_scheme(nodes),
        ]
    }

    /// The DynaHash scheme sized for this configuration.
    pub fn dynahash_scheme(&self, nodes: u32) -> Scheme {
        // Estimated LineItem bytes per partition: ~4 lineitems per order at
        // ~129 bytes each, divided over the node's partitions.
        let per_partition =
            (self.orders_per_node as u64 * 4 * 130) / self.partitions_per_node as u64;
        let max_bucket = (per_partition / 4).max(4 * 1024);
        Scheme::DynaHash {
            max_bucket_size_bytes: max_bucket,
            initial_buckets: (nodes * self.partitions_per_node).next_power_of_two(),
        }
    }

    fn scale(&self, nodes: u32) -> TpchScale {
        TpchScale::per_node(self.orders_per_node, nodes as usize)
    }
}

/// The eight TPC-H datasets, in the order the figures rebalance them.
fn all_datasets(t: &TpchTables) -> [DatasetId; 8] {
    [
        t.lineitem, t.orders, t.customer, t.part, t.supplier, t.partsupp, t.nation, t.region,
    ]
}

/// Creates a dataset and loads `records` into it through a session.
fn load_dataset(
    cluster: &mut Cluster,
    spec: DatasetSpec,
    records: impl IntoIterator<Item = (Key, Bytes)>,
) -> DatasetId {
    let ds = cluster.create_dataset(spec).expect("create dataset");
    let mut session = cluster.session(ds).expect("session");
    session.ingest(cluster, records).expect("load");
    ds
}

/// The record the fault, control and recovery studies load for key `i`.
fn small_record(i: u64) -> (Key, Bytes) {
    (Key::from_u64(i), Bytes::from(vec![(i % 249) as u8; 24]))
}

/// One way a figure's gate was violated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// What went wrong, for the `GATE FAILED` line.
    pub message: String,
    /// True when the violated condition compares wall-clock measurements:
    /// a loaded runner can cause it, so the driver re-measures before it
    /// fails the run. Every other condition is deterministic and fails at
    /// once.
    pub wall_clock: bool,
}

/// A deterministic gate violation.
fn fail(message: impl Into<String>) -> Violation {
    Violation {
        message: message.into(),
        wall_clock: false,
    }
}

/// A violation of a condition that compares wall-clock measurements.
fn fail_wall_clock(message: String) -> Violation {
    Violation {
        message,
        wall_clock: true,
    }
}

/// The row labelled `label` (`of` reads a row's label); without one, a
/// "row missing" violation goes to `bad` — a gate fails on a row it cannot
/// find.
fn find_row<'a, R>(
    rows: &'a [R],
    bad: &mut Vec<Violation>,
    label: &str,
    of: impl Fn(&R) -> &str,
) -> Option<&'a R> {
    let found = rows.iter().find(|r| of(r) == label);
    if found.is_none() {
        bad.push(fail(format!("\"{label}\" row missing")));
    }
    found
}

// ------------------------------------------------------------------ Figure 6

table_row! {
    /// One bar of Figure 6.
    pub struct IngestionRow {
        /// Cluster size.
        pub nodes: u32 => col("nodes", "nodes"),
        /// Scheme name ("Hashing" / "StaticHash" / "DynaHash").
        pub scheme: &'static str => col("scheme", "scheme"),
        /// Ingestion time in simulated seconds.
        pub seconds: f64 => col("sim_seconds", "ingestion time (sim s)", 3),
        /// Records ingested.
        pub records: u64 => col("records", "records"),
    }
}

/// Figure 6: ingestion time for each scheme and cluster size.
pub fn fig6_ingestion(cfg: &ExperimentConfig) -> Vec<IngestionRow> {
    let mut rows = Vec::new();
    for &nodes in cfg.node_counts {
        for scheme in cfg.schemes(nodes) {
            let mut cluster = cfg.cluster(nodes);
            let (_, _, report) =
                load_tpch(&mut cluster, scheme, cfg.scale(nodes)).expect("load TPC-H");
            rows.push(IngestionRow {
                nodes,
                scheme: scheme.name(),
                seconds: report.elapsed.as_secs_f64(),
                records: report.records,
            });
        }
    }
    rows
}

// --------------------------------------------------------------- Figures 7a/b

/// Scale-in (remove a node) or scale-out (add a node).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebalanceDirection {
    /// Rebalance from N nodes to N-1 nodes (Figure 7a).
    RemoveNode,
    /// Rebalance from N-1 nodes to N nodes (Figure 7b).
    AddNode,
}

table_row! {
    /// One bar of Figure 7a/7b.
    pub struct RebalanceRow {
        /// Cluster size N referenced by the figure's x-axis.
        pub nodes: u32 => col("nodes", "nodes"),
        /// Scheme name.
        pub scheme: &'static str => col("scheme", "scheme"),
        /// Total rebalance time in simulated seconds (all datasets).
        pub seconds: f64 => col("sim_seconds", "rebalance time (sim s)", 3),
        /// Fraction of the primary data that moved (weighted over datasets).
        pub moved_fraction: f64 => col("moved_fraction", "moved fraction", 3),
    }
}

/// The rebalance options of the figure experiments: four moves per wave.
/// AsterixDB executes the data movement as one Hyracks job that ships
/// buckets from all partitions concurrently, so the figures use a parallel
/// wave schedule rather than the conservative serial default of
/// `RebalanceOptions`.
fn figure_options() -> RebalanceOptions {
    RebalanceOptions::none().with_max_concurrent_moves(4)
}

/// Figures 7a/7b: rebalance time for removing or adding one node.
pub fn fig7_rebalance(cfg: &ExperimentConfig, direction: RebalanceDirection) -> Vec<RebalanceRow> {
    let mut rows = Vec::new();
    for &nodes in cfg.node_counts {
        for scheme in cfg.schemes(nodes) {
            // Load on the initial cluster size for the experiment: removing
            // starts from N nodes, adding starts from N-1 nodes.
            let initial_nodes = match direction {
                RebalanceDirection::RemoveNode => nodes,
                RebalanceDirection::AddNode => (nodes - 1).max(1),
            };
            let mut cluster = cfg.cluster(initial_nodes);
            let (tables, _, _) =
                load_tpch(&mut cluster, scheme, cfg.scale(nodes)).expect("load TPC-H");
            let target = match direction {
                RebalanceDirection::RemoveNode => {
                    cluster.topology_without(NodeId(initial_nodes - 1))
                }
                RebalanceDirection::AddNode => {
                    cluster.add_node().expect("add node");
                    cluster.topology().clone()
                }
            };
            let mut total = SimDuration::ZERO;
            let mut moved = 0.0f64;
            let mut weight = 0.0f64;
            for ds in all_datasets(&tables) {
                let bytes = cluster.dataset_primary_bytes(ds).unwrap_or(0) as f64;
                let report = cluster
                    .rebalance(ds, &target, figure_options())
                    .expect("rebalance");
                total += report.elapsed;
                moved += report.moved_fraction * bytes;
                weight += bytes;
            }
            rows.push(RebalanceRow {
                nodes,
                scheme: scheme.name(),
                seconds: total.as_secs_f64(),
                moved_fraction: if weight == 0.0 { 0.0 } else { moved / weight },
            });
        }
    }
    rows
}

// ----------------------------------------------------------------- Figure 7c

table_row! {
    /// One point of Figure 7c.
    pub struct ConcurrentWriteRow {
        /// Controlled write rate in krecords per simulated second.
        pub write_rate_krps: f64 => col("write_rate_krps", "write rate (krec/s)"),
        /// Rebalance time in simulated seconds.
        pub seconds: f64 => col("sim_seconds", "rebalance time (sim s)", 3),
        /// Concurrent records ingested while rebalancing.
        pub concurrent_records: u64 => col("concurrent_records", "concurrent records"),
    }
}

/// Figure 7c: DynaHash rebalance time (4 → 3 nodes) under concurrent
/// LineItem ingestion at a controlled rate.
pub fn fig7c_concurrent_writes(
    cfg: &ExperimentConfig,
    rates_krps: &[f64],
) -> Vec<ConcurrentWriteRow> {
    let nodes = 4u32;
    // Baseline rebalance (no writes) to size the concurrent workload:
    // records = rate × baseline duration.
    let baseline_secs = {
        let mut cluster = cfg.cluster(nodes);
        let scheme = cfg.dynahash_scheme(nodes);
        let (tables, _, _) = load_tpch(&mut cluster, scheme, cfg.scale(nodes)).expect("load");
        let target = cluster.topology_without(NodeId(nodes - 1));
        let report = cluster
            .rebalance(tables.lineitem, &target, figure_options())
            .expect("rebalance");
        report.elapsed.as_secs_f64()
    };

    let mut rows = Vec::new();
    for &rate in rates_krps {
        let mut cluster = cfg.cluster(nodes);
        let scheme = cfg.dynahash_scheme(nodes);
        let (tables, data, _) = load_tpch(&mut cluster, scheme, cfg.scale(nodes)).expect("load");
        let target = cluster.topology_without(NodeId(nodes - 1));
        let concurrent_count = (rate * 1000.0 * baseline_secs) as usize;
        let next_orderkey = data.orders.len() as u64 + 1;
        let extra = generator::extra_lineitems(next_orderkey, concurrent_count, 7);
        let writes = lineitem_records(&extra);
        let report = cluster
            .rebalance(
                tables.lineitem,
                &target,
                figure_options().with_concurrent_writes(writes),
            )
            .expect("rebalance with writes");
        rows.push(ConcurrentWriteRow {
            write_rate_krps: rate,
            seconds: report.elapsed.as_secs_f64(),
            concurrent_records: report.concurrent_writes_applied,
        });
    }
    rows
}

// -------------------------------------------- wave parallelism (step executor)

table_row! {
    /// One row of the wave-parallelism study: the same DynaHash scale-in
    /// rebalance executed by the step-driven job with a different
    /// `max_concurrent_moves`.
    pub struct WaveRow {
        /// Bucket moves per wave.
        pub max_concurrent_moves: usize => col("max_concurrent_moves", "moves/wave"),
        /// Number of waves the moves were scheduled into.
        pub waves: usize => col("waves", "waves"),
        /// Buckets moved (identical across rows — only the schedule differs).
        pub buckets_moved: usize => col("buckets_moved", "buckets"),
        /// Simulated makespan of the data-movement phase alone (the sum of
        /// the waves' makespans) in seconds.
        pub movement_seconds: f64 => col("movement_sim_seconds", "movement (sim s)", 3),
        /// Total simulated rebalance makespan in seconds.
        pub seconds: f64 => col("total_sim_seconds", "total (sim s)", 3),
    }
}

/// Wave-parallelism study: rebalance LineItem from 4 to 3 nodes with the
/// step-driven executor, varying how many bucket moves each wave runs in
/// parallel. `max_concurrent_moves = 1` reproduces the serial
/// one-bucket-at-a-time schedule; wider waves are charged their slowest node
/// only, so they finish strictly faster while moving exactly the same
/// buckets.
pub fn rebalance_wave_scaling(cfg: &ExperimentConfig, max_moves: &[usize]) -> Vec<WaveRow> {
    let nodes = 4u32;
    let mut rows = Vec::new();
    for &moves_per_wave in max_moves {
        let mut cluster = cfg.cluster(nodes);
        let scheme = cfg.dynahash_scheme(nodes);
        let (tables, _, _) = load_tpch(&mut cluster, scheme, cfg.scale(nodes)).expect("load");
        let target = cluster.topology_without(NodeId(nodes - 1));
        let mut job = RebalanceJob::plan(&mut cluster, tables.lineitem, &target, moves_per_wave)
            .expect("plan job");
        let waves = job.num_waves();
        let report = job.drive(&mut cluster).expect("drive job");
        rows.push(WaveRow {
            max_concurrent_moves: moves_per_wave,
            waves,
            buckets_moved: report.buckets_moved,
            movement_seconds: report.phases.data_movement.as_secs_f64(),
            seconds: report.elapsed.as_secs_f64(),
        });
    }
    rows
}

/// The one checksum of the harness: FNV-1a, continued from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The FNV-1a offset basis a checksum starts from.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Live record count and FNV-1a checksum of a dataset's sorted (key, value)
/// pairs, read through a fresh session scan — placement may legally differ
/// between two runs, record contents may not.
fn contents_checksum(cluster: &Cluster, ds: DatasetId) -> (u64, Hex) {
    let mut session = cluster.session(ds).expect("checksum session");
    let (contents, _) = session.collect_records(cluster).expect("checksum scan");
    let h = contents.iter().fold(FNV_OFFSET, |h, (k, v)| {
        fnv1a(fnv1a(h, k.as_slice()), v.as_ref())
    });
    (contents.len() as u64, Hex(h))
}

// ------------------------------------------------- session routing study

table_row! {
    /// One row of the session-routing study: redirect-protocol traffic and
    /// per-operation overhead for one phase of a rebalance.
    pub struct RoutingRow {
        /// Phase label: "outside" (no rebalance), "during" (between waves of
        /// a step-driven job), or "after" (stale sessions converging).
        pub phase: &'static str => col("phase", "phase"),
        /// Client sessions driving traffic in this phase.
        pub sessions: usize => col("sessions", "sessions"),
        /// Logical requests issued across all sessions.
        pub ops: u64 => col("ops", "ops"),
        /// Stale-directory rejections received.
        pub redirects: u64 => col("redirects", "redirects"),
        /// Refreshes served as a directory delta.
        pub delta_refreshes: u64 => col("delta_refreshes", "delta refr."),
        /// Refreshes that copied the full snapshot.
        pub full_refreshes: u64 => col("full_refreshes", "full refr."),
        /// Buckets moved by the rebalance (0 outside one): the redirect bound.
        pub buckets_moved: usize => col("buckets_moved", "buckets moved"),
        /// Read-your-writes or final-contents violations seen (must be 0).
        pub integrity_violations: u64 => col("integrity_violations", "violations"),
        /// Wall-clock nanoseconds per point read through a session (best
        /// rep; 0 on rows without a timing arm).
        pub session_ns_per_op: f64 => wall("session_ns_per_op", "session (ns/op)", 1),
        /// Wall-clock nanoseconds per point read through direct (admin)
        /// access (best rep; 0 on rows without a timing arm).
        pub direct_ns_per_op: f64 => wall("direct_ns_per_op", "direct (ns/op)", 1),
        /// Session routing cost relative to direct access: the minimum ratio
        /// over interleaved session/direct measurement pairs (paired minima
        /// shed the scheduler and frequency noise that independent minima
        /// keep). 1.0 on rows without a timing arm.
        pub overhead_ratio: f64 => wall("overhead_ratio", "overhead (x)", 3),
    }
}

/// Interleaves `reps` (session, direct) measurement pairs — `run(false)` is
/// the session arm, `run(true)` the direct arm — and returns the per-op
/// minima of each arm plus the minimum paired ratio.
fn paired_overhead(reps: usize, ops: u64, mut run: impl FnMut(bool)) -> (f64, f64, f64) {
    // warm-up both arms
    run(false);
    run(true);
    let (mut best_s, mut best_d, mut best_ratio) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..reps.max(1) {
        let s = ns_per_op(ops, &mut || run(false));
        let d = ns_per_op(ops, &mut || run(true));
        best_s = best_s.min(s);
        best_d = best_d.min(d);
        if d > 0.0 {
            best_ratio = best_ratio.min(s / d);
        }
    }
    (best_s, best_d, best_ratio)
}

/// The session-routing study: a DynaHash dataset on 4 nodes, read and
/// written exclusively through client sessions, across a 4 → 3 scale-in
/// driven step by step.
///
/// * **outside** — a fresh session's point reads vs direct (admin) access:
///   the routing layer's steady-state overhead, with zero redirects.
/// * **during** — four sessions opened *before* the job keep reading and
///   writing between waves: sources serve moving buckets until the commit,
///   so the protocol stays silent (zero redirects) while every session
///   still reads its own writes.
/// * **after** — the same, now-stale, sessions drive reads over every key:
///   the first touch of a moved bucket redirects, one (delta) refresh per
///   session converges it, and the final contents match a fresh session
///   byte for byte. Redirects are bounded by buckets-moved per session.
pub fn session_routing_study(cfg: &ExperimentConfig) -> Vec<RoutingRow> {
    const NUM_SESSIONS: usize = 4;
    const TIMING_REPS: usize = 5;
    let nodes = 4u32;
    let n = cfg.orders_per_node as u64 * 40;
    let record = |i: u64| (Key::from_u64(i), Bytes::from(vec![(i % 251) as u8; 48]));

    let mut cluster = cfg.cluster(nodes);
    let spec = DatasetSpec::new("events", cfg.dynahash_scheme(nodes));
    let ds = load_dataset(&mut cluster, spec, (0..n).map(record));
    // A row without a timing arm: the traffic between two metric snapshots.
    let row = |phase, sessions, from: &SessionMetrics, to: &SessionMetrics, moved, violations| {
        RoutingRow {
            phase,
            sessions,
            ops: to.requests - from.requests,
            redirects: to.redirects - from.redirects,
            delta_refreshes: to.delta_refreshes - from.delta_refreshes,
            full_refreshes: to.full_refreshes - from.full_refreshes,
            buckets_moved: moved,
            integrity_violations: violations,
            session_ns_per_op: 0.0,
            direct_ns_per_op: 0.0,
            overhead_ratio: 1.0,
        }
    };
    let total = |sessions: &[Session]| {
        let mut sum = SessionMetrics::default();
        for m in sessions.iter().map(Session::metrics) {
            sum.requests += m.requests;
            sum.redirects += m.redirects;
            sum.delta_refreshes += m.delta_refreshes;
            sum.full_refreshes += m.full_refreshes;
        }
        sum
    };
    let idle = SessionMetrics::default();

    // ---- outside a rebalance: steady-state routing overhead. The session
    // and direct arms run the same key loop back to back, interleaved per
    // repetition, and the gate uses the best paired ratio.
    let mut fresh = cluster.session(ds).expect("session");
    let (session_ns, direct_ns, overhead) = {
        let fresh = &mut fresh;
        // split borrows: the session arm reads through &Cluster, the direct
        // arm through the admin view of the same cluster, so the two
        // closures cannot be alive at once — drive them via a mode flag.
        let mut run = |direct: bool| {
            if direct {
                let admin = cluster.admin();
                for i in 0..n {
                    let key = Key::from_u64(i);
                    let p = admin.route_key(ds, &key).expect("route");
                    std::hint::black_box(
                        admin
                            .partition(p)
                            .expect("partition")
                            .dataset(ds)
                            .unwrap()
                            .get(&key),
                    );
                }
            } else {
                for i in 0..n {
                    std::hint::black_box(fresh.get(&cluster, &Key::from_u64(i)).expect("get"));
                }
            }
        };
        paired_overhead(TIMING_REPS, n, &mut run)
    };
    let mut rows = vec![RoutingRow {
        session_ns_per_op: session_ns,
        direct_ns_per_op: direct_ns,
        overhead_ratio: overhead,
        ..row("outside", 1, &idle, &fresh.metrics(), 0, 0)
    }];

    // ---- during: stale-capable sessions interleaved with job steps
    let mut sessions: Vec<Session> = (0..NUM_SESSIONS)
        .map(|_| cluster.session(ds).expect("session"))
        .collect();
    let target = cluster.topology_without(NodeId(nodes - 1));
    let mut job = RebalanceJob::plan(&mut cluster, ds, &target, 4).expect("plan");
    job.init(&mut cluster).expect("init");
    let mut violations = 0u64;
    let mut next_key = n;
    let mut wave_idx = 0u64;
    while job.has_remaining_waves() {
        job.run_wave(&mut cluster).expect("wave");
        for (s, session) in sessions.iter_mut().enumerate() {
            // each session writes its own key and immediately reads it back
            let (k, v) = record(next_key + s as u64);
            session
                .put(&mut cluster, k.clone(), v.clone())
                .expect("routed write");
            if session.get(&cluster, &k).expect("routed read") != Some(v) {
                violations += 1;
            }
            // plus a spread of base-data reads across the hash space
            for i in (wave_idx * 13..).step_by(97).take(8) {
                let (k, v) = record(i % n);
                if session.get(&cluster, &k).expect("routed read") != Some(v) {
                    violations += 1;
                }
            }
        }
        next_key += NUM_SESSIONS as u64;
        wave_idx += 1;
    }
    let mid = total(&sessions);
    let report = job.drive(&mut cluster).expect("finish job");
    cluster
        .check_rebalance_integrity(ds, report.rebalance_id)
        .expect("post-rebalance integrity");
    let moved = report.buckets_moved;
    rows.push(row("during", NUM_SESSIONS, &idle, &mid, moved, violations));

    // ---- after: the stale sessions converge through the redirect protocol
    let mut violations = 0u64;
    let expected = cluster
        .session(ds)
        .expect("session")
        .collect_records(&cluster)
        .expect("oracle scan")
        .0;
    for session in sessions.iter_mut() {
        for i in 0..n {
            let (k, v) = record(i);
            if session.get(&cluster, &k).expect("routed read") != Some(v) {
                violations += 1;
            }
        }
        let (contents, raw) = session.collect_records(&cluster).expect("session scan");
        if contents != expected || raw != expected.len() {
            violations += 1;
        }
    }
    let end = total(&sessions);
    rows.push(row("after", NUM_SESSIONS, &mid, &end, moved, violations));
    rows
}

/// Maximum session-routing overhead the `routing` gate tolerates outside a
/// rebalance (acceptance bar: within 10% of direct access).
pub const ROUTING_OVERHEAD_GATE: f64 = 1.10;

/// Checks the session-routing gate over the study's rows. Returns the list
/// of violations (empty = gate passes): stale sessions must converge with
/// zero integrity violations, redirects must be zero outside/during a
/// rebalance and bounded by buckets-moved per session after it, and the
/// steady-state routing overhead must stay within
/// [`ROUTING_OVERHEAD_GATE`] of direct access.
pub fn routing_gate_violations(rows: &[RoutingRow]) -> Vec<Violation> {
    let mut bad = Vec::new();
    for r in rows {
        if r.integrity_violations > 0 {
            bad.push(fail(format!(
                "{}: {} integrity violations (lost or wrong reads)",
                r.phase, r.integrity_violations
            )));
        }
    }
    if let Some(outside) = find_row(rows, &mut bad, "outside", |r| r.phase) {
        if outside.redirects != 0 {
            bad.push(fail(format!(
                "outside: {} redirects without any rebalance",
                outside.redirects
            )));
        }
        // The study's only wall-clock condition: a loaded runner can
        // inflate even the paired-minimum ratio.
        if outside.overhead_ratio > ROUTING_OVERHEAD_GATE {
            bad.push(fail_wall_clock(format!(
                "outside: session overhead {:.3}x exceeds the {:.2}x gate \
                 ({:.0} ns/op vs {:.0} ns/op direct)",
                outside.overhead_ratio,
                ROUTING_OVERHEAD_GATE,
                outside.session_ns_per_op,
                outside.direct_ns_per_op
            )));
        }
    }
    if let Some(during) = find_row(rows, &mut bad, "during", |r| r.phase) {
        if during.redirects != 0 {
            bad.push(fail(format!(
                "during: {} redirects — old owners must serve moving buckets until commit",
                during.redirects
            )));
        }
    }
    if let Some(after) = find_row(rows, &mut bad, "after", |r| r.phase) {
        if after.redirects == 0 {
            bad.push(fail(
                "after: zero redirects — the protocol was never exercised",
            ));
        }
        let bound = (after.sessions * after.buckets_moved) as u64;
        if after.redirects > bound {
            bad.push(fail(format!(
                "after: {} redirects exceed the sessions x buckets-moved bound of {}",
                after.redirects, bound
            )));
        }
    }
    bad
}

// -------------------------------------------------------------- Figures 8 / 9

table_row! {
    /// One bar of Figures 8/9: the time of one query under one scheme.
    pub struct QueryRow {
        /// Size of the cluster the data was loaded on.
        pub nodes: u32 => col("nodes", "nodes"),
        /// Query number (1-22).
        pub query: usize => col("query", "query"),
        /// Scheme label ("Hashing", "StaticHash", "DynaHash",
        /// "DynaHash-lazy-cleanup").
        pub scheme: &'static str => col("scheme", "scheme"),
        /// Query time in simulated seconds.
        pub seconds: f64 => col("sim_seconds", "query time (sim s)", 4),
        /// The query's scalar answer (used to check scheme-independence).
        pub answer: f64 => col("answer", "answer", 2),
        /// True if the query is scan-heavy (sensitive to load imbalance).
        pub scan_heavy: bool => col("scan_heavy", "scan-heavy"),
    }
}

fn run_all_queries(
    cluster: &mut Cluster,
    tables: &TpchTables,
    nodes: u32,
    scheme: &'static str,
) -> Vec<QueryRow> {
    (1..=NUM_QUERIES)
        .map(|n| {
            let mut exec = cluster.query();
            let answer = run_query(n, &mut exec, tables).expect("query");
            let report = exec.finish();
            QueryRow {
                nodes,
                query: n,
                scheme,
                seconds: report.elapsed.as_secs_f64(),
                answer,
                scan_heavy: query_traits(n).scan_heavy,
            }
        })
        .collect()
}

/// Figure 8: query times on the original cluster, at every size in
/// `cfg.query_nodes`, for Hashing, StaticHash, DynaHash, and DynaHash after
/// a node-remove/node-add round trip that leaves obsolete secondary entries
/// behind ("DynaHash-lazy-cleanup").
pub fn fig8_queries(cfg: &ExperimentConfig) -> Vec<QueryRow> {
    let mut rows = Vec::new();
    for &nodes in cfg.query_nodes {
        for scheme in cfg.schemes(nodes) {
            let mut cluster = cfg.cluster(nodes);
            let (tables, _, _) = load_tpch(&mut cluster, scheme, cfg.scale(nodes)).expect("load");
            rows.extend(run_all_queries(&mut cluster, &tables, nodes, scheme.name()));
        }
        // DynaHash-lazy-cleanup: rebalance down one node and back up, so
        // moved buckets leave obsolete entries in the secondary indexes of
        // their old partitions; queries then pay the validation overhead.
        let scheme = cfg.dynahash_scheme(nodes);
        let mut cluster = cfg.cluster(nodes);
        let (tables, _, _) = load_tpch(&mut cluster, scheme, cfg.scale(nodes)).expect("load");
        let down = cluster.topology_without(NodeId(nodes - 1));
        let up = cluster.topology().clone();
        for target in [&down, &up] {
            for ds in all_datasets(&tables) {
                cluster
                    .rebalance(ds, target, RebalanceOptions::none())
                    .expect("rebalance down, then back up");
            }
        }
        rows.extend(run_all_queries(
            &mut cluster,
            &tables,
            nodes,
            "DynaHash-lazy-cleanup",
        ));
    }
    rows
}

/// Figure 9: query times on the downsized cluster (`nodes` → `nodes-1`, for
/// every size in `cfg.query_nodes`). The Hashing baseline redistributes
/// perfectly; the bucketing schemes end up with some partitions holding one
/// more bucket than others.
pub fn fig9_queries(cfg: &ExperimentConfig) -> Vec<QueryRow> {
    let mut rows = Vec::new();
    for &nodes in cfg.query_nodes {
        for scheme in cfg.schemes(nodes) {
            let mut cluster = cfg.cluster(nodes);
            let (tables, _, _) = load_tpch(&mut cluster, scheme, cfg.scale(nodes)).expect("load");
            let target = cluster.topology_without(NodeId(nodes - 1));
            for ds in all_datasets(&tables) {
                cluster
                    .rebalance(ds, &target, RebalanceOptions::none())
                    .expect("rebalance down");
            }
            cluster
                .decommission_node(NodeId(nodes - 1))
                .expect("decommission");
            rows.extend(run_all_queries(&mut cluster, &tables, nodes, scheme.name()));
        }
    }
    rows
}

/// The gate of Figures 8 and 9: on every cluster size, every query must
/// produce the same answer under every scheme (a rebalancing scheme may
/// change where records live, never what a query returns).
pub fn answer_mismatches(rows: &[QueryRow]) -> Vec<Violation> {
    let mut bad = Vec::new();
    let mut seen: Vec<(u32, usize, f64)> = Vec::new();
    for r in rows {
        match seen.iter().find(|s| (s.0, s.1) == (r.nodes, r.query)) {
            None => seen.push((r.nodes, r.query, r.answer)),
            Some(&(_, _, first)) => {
                if (first - r.answer).abs() > 1e-6 * first.abs().max(1.0) {
                    bad.push(fail(format!(
                        "q{} on {} nodes: {} answered {} where the first scheme answered {first}",
                        r.query, r.nodes, r.scheme, r.answer
                    )));
                }
            }
        }
    }
    bad
}

// ----------------------------------------------------------------- Ablations

table_row! {
    /// One row of the storage-option ablation (Section IV of the paper
    /// discusses Options 1-3; the paper picks Option 3 for primary indexes).
    pub struct StorageOptionRow {
        /// Option label.
        pub option: &'static str => col("option", "option"),
        /// Simulated cost of moving one bucket out of a partition: bytes read.
        pub bucket_move_read_bytes: u64 => col("bucket_move_read_bytes", "bucket-move read bytes"),
        /// Point-lookup work: components examined per lookup (average).
        pub lookup_components: f64 => col("lookup_components", "avg components per lookup", 1),
    }
}

/// Ablation: what moving one bucket costs under the three storage options.
///
/// * Option 1 (one LSM-tree in key order) must scan the whole partition;
/// * Options 2/3 (bucketed) only read the moving bucket.
pub fn ablation_storage_options(records: u64) -> Vec<StorageOptionRow> {
    let value = Bytes::from(vec![7u8; 100]);

    // Option 1: a single LSM-tree for the whole partition.
    let budget = LsmConfig::with_memtable_budget(16 * 1024);
    let mut flat = LsmTree::new(budget.clone(), StorageMetrics::new_shared());
    for i in 0..records {
        flat.put(i, value.clone());
    }
    flat.flush();
    let moving_bucket = BucketId::new(0, 2);
    // moving a bucket must scan everything and filter
    let opt1_read: u64 = flat.scan_all().iter().map(|e| e.size_bytes() as u64).sum();
    let opt1_components = flat.num_components() as f64;

    // Option 3: one LSM-tree per bucket.
    let mut bucketed = BucketedLsmTree::new(
        BucketedConfig {
            lsm: budget,
            max_bucket_size_bytes: None,
            max_depth: 8,
        },
        (0..4).map(|b| BucketId::new(b, 2)),
        StorageMetrics::new_shared(),
    );
    for i in 0..records {
        bucketed.insert(i, value.clone()).expect("bucketed insert");
    }
    bucketed.flush_all();
    let opt3_read: u64 = bucketed
        .scan_bucket(moving_bucket)
        .expect("bucket scan")
        .iter()
        .map(|e| e.size_bytes() as u64)
        .sum();
    let opt3_components = bucketed.num_components() as f64 / 4.0;

    vec![
        StorageOptionRow {
            option: "Option 1 (single LSM, key order)",
            bucket_move_read_bytes: opt1_read,
            lookup_components: opt1_components,
        },
        StorageOptionRow {
            option: "Option 3 (bucketed LSM, per-bucket trees)",
            bucket_move_read_bytes: opt3_read,
            lookup_components: opt3_components,
        },
    ]
}

table_row! {
    /// One row of the balance-quality ablation.
    pub struct BalanceQualityRow {
        /// Bucket-size skew factor (largest bucket / smallest bucket).
        pub skew: u64 => col("skew", "bucket size skew (x)"),
        /// Load-balance factor (max/avg) of Algorithm 2.
        pub algorithm2: f64 => col("algorithm2", "Algorithm 2 (max/avg)", 3),
        /// Load-balance factor of naive round-robin assignment.
        pub round_robin: f64 => col("round_robin", "round-robin (max/avg)", 3),
    }
}

/// Ablation: Algorithm 2 vs. naive round-robin assignment under bucket-size
/// skew.
pub fn ablation_balance_quality(skews: &[u64]) -> Vec<BalanceQualityRow> {
    let topo = ClusterTopology::uniform(4, 2);
    let parts = topo.partitions();
    skews
        .iter()
        .map(|&skew| {
            let buckets: Vec<BucketLoad> = (0..32u32)
                .map(|bits| BucketLoad {
                    bucket: BucketId::new(bits, 5),
                    size: 100 + (bits as u64 % 4) * (skew.saturating_sub(1)) * 100 / 3,
                    current: None,
                })
                .collect();
            let sizes: BTreeMap<BucketId, u64> =
                buckets.iter().map(|b| (b.bucket, b.size)).collect();
            let alg2 = balance_assignment(&BalanceInput {
                buckets: buckets.clone(),
                target: topo.clone(),
            })
            .expect("balance");
            let rr: BTreeMap<BucketId, PartitionId> = buckets
                .iter()
                .enumerate()
                .map(|(i, b)| (b.bucket, parts[i % parts.len()]))
                .collect();
            BalanceQualityRow {
                skew,
                algorithm2: load_balance_factor(&alg2, &sizes, &topo),
                round_robin: load_balance_factor(&rr, &sizes, &topo),
            }
        })
        .collect()
}

// ------------------------------------------------------ fault study (PR 8)

table_row! {
    /// One row of the `faults` figure: the same seeded rebalance (same data,
    /// same topology change) driven under one fault regime, compared against
    /// the fault-free oracle row.
    pub struct FaultRow {
        /// Fault regime of this row.
        pub label: &'static str => col("regime", "regime"),
        /// True when the job committed (the fault plane must never abort it).
        pub committed: bool => col("committed", "committed"),
        /// Simulated makespan of the rebalance.
        pub makespan: SimDuration => col("makespan_ns", "makespan (ms)"),
        /// Transfer attempts retried after an injected transient failure.
        pub retries: u64 => col("retries", "retries"),
        /// Moves rerouted or canceled by re-planning around a lost node.
        pub reroutes: u64 => col("reroutes", "reroutes"),
        /// Live records after the rebalance.
        pub records: u64 => col("records", "records"),
        /// Checksum of the record contents (see [`contents_checksum`]).
        pub checksum: Hex => col("checksum", "checksum"),
    }
}

/// Runs the identical seeded rebalance (grow by one node) under four fault
/// regimes: no schedule installed (the oracle), an installed-but-empty
/// schedule (must be byte-identical to the oracle — the fault-free gate),
/// transient ship failures capped below the retry budget (absorbed, same
/// contents, makespan pays the backoff), and the permanent loss of the new
/// node after the first wave (re-planned, committed, same contents).
pub fn fault_study(cfg: &ExperimentConfig) -> Vec<FaultRow> {
    let nodes = 4;
    let records = (cfg.orders_per_node as u64) * 40;
    let regimes: [(&'static str, u8); 4] = [
        ("fault-free oracle", 0),
        ("empty schedule", 1),
        ("transient faults", 2),
        ("node loss", 3),
    ];

    let mut rows = Vec::new();
    for (label, regime) in regimes {
        let mut cluster = cfg.cluster(nodes);
        let spec = DatasetSpec::new("faults", cfg.dynahash_scheme(nodes));
        let ds = load_dataset(&mut cluster, spec, (0..records).map(small_record));
        let new_node = cluster.add_node().expect("faults add_node");
        match regime {
            1 => cluster.set_fault_plane(FaultSchedule::none()),
            2 => cluster.set_fault_plane(FaultSchedule::seeded(0xfa_2026).with_transient(600, 2)),
            3 => cluster.set_fault_plane(
                FaultSchedule::seeded(0xfa_2026)
                    .with_fault(StepPoint::AfterWave(0), Fault::LoseNode(new_node)),
            ),
            _ => {}
        }
        let target = cluster.topology().clone();
        let options = RebalanceOptions::none().with_max_concurrent_moves(2);
        let report = cluster
            .rebalance(ds, &target, options)
            .expect("the fault plane must never abort the rebalance");
        if regime == 3 {
            cluster
                .remove_lost_node(new_node)
                .expect("remove the lost node");
        }
        let (live, checksum) = contents_checksum(&cluster, ds);
        rows.push(FaultRow {
            label,
            committed: report.outcome == RebalanceOutcome::Committed,
            makespan: report.elapsed,
            retries: report.retries,
            reroutes: report.reroutes,
            records: live,
            checksum,
        });
    }
    rows
}

/// Checks the `faults` figure's gate. The comparisons are against the
/// oracle row and exact (the executor is deterministic): an empty schedule
/// must be byte-identical to no schedule, transients must be absorbed by
/// retry with identical final contents, and a node loss must commit via
/// re-planning — again with identical record contents.
pub fn fault_gate_violations(rows: &[FaultRow]) -> Vec<Violation> {
    let mut bad = Vec::new();
    let Some(oracle) = find_row(rows, &mut bad, "fault-free oracle", |r| r.label) else {
        return bad;
    };
    for r in rows {
        if !r.committed {
            bad.push(fail(format!("{}: the rebalance did not commit", r.label)));
        }
        if r.records != oracle.records || r.checksum != oracle.checksum {
            bad.push(fail(format!(
                "{}: contents diverged from the oracle ({} records, checksum \
                 {}; oracle has {} and {})",
                r.label, r.records, r.checksum, oracle.records, oracle.checksum
            )));
        }
    }
    if let Some(empty) = find_row(rows, &mut bad, "empty schedule", |r| r.label) {
        if empty.makespan != oracle.makespan || empty.retries != 0 || empty.reroutes != 0 {
            bad.push(fail(format!(
                "empty schedule is not byte-identical to the oracle \
                 (makespan {} vs {}, {} retries, {} reroutes)",
                empty.makespan.as_nanos(),
                oracle.makespan.as_nanos(),
                empty.retries,
                empty.reroutes
            )));
        }
    }
    if let Some(transient) = find_row(rows, &mut bad, "transient faults", |r| r.label) {
        if transient.retries == 0 {
            bad.push(fail("transient regime injected no faults"));
        }
        if transient.makespan < oracle.makespan {
            bad.push(fail("transient regime was faster than the oracle"));
        }
    }
    if let Some(loss) = find_row(rows, &mut bad, "node loss", |r| r.label) {
        if loss.reroutes == 0 {
            bad.push(fail("node-loss regime re-planned nothing"));
        }
    }
    bad
}

// ---------------------------------------------------- control study (PR 9)

/// Tick budget the armed control plane gets to converge in [`control_study`].
/// The loop typically needs two trigger cycles: the first auto-job balances
/// the heat-weighted load as of its trigger tick, and once the query heat
/// decays the residual byte imbalance resurfaces and a second cycle (after
/// the cooldown and hysteresis windows) settles it.
pub const CONTROL_CONVERGENCE_TICKS: u64 = 120;

/// How many control decisions in `cluster`'s event log `pred` accepts.
pub(crate) fn count_decisions(cluster: &Cluster, pred: fn(&ControlDecision) -> bool) -> u64 {
    let decisions = cluster.events(0).iter().filter_map(Event::decision);
    decisions.filter(|d| pred(d)).count() as u64
}

table_row! {
    /// One row of the `control` figure: the identical seeded workload —
    /// skewed ingest, a two-key query hotspot, then two empty nodes joining —
    /// observed under one control-plane regime.
    pub struct ControlRow {
        /// Control-plane regime of this row.
        pub label: &'static str => col("regime", "regime"),
        /// Control ticks executed (0 for the disarmed rows).
        pub ticks: u64 => col("ticks", "ticks"),
        /// Rebalances auto-triggered.
        pub triggers: u64 => col("triggers", "triggers"),
        /// Decisions suppressed by hysteresis or cooldown.
        pub suppressed: u64 => col("suppressed", "suppressed"),
        /// Auto-triggered rebalances that committed.
        pub committed: u64 => col("committed", "committed"),
        /// Hot buckets split over the heat budget.
        pub hot_splits: u64 => col("hot_splits", "hot splits"),
        /// Heat-weighted max-deviation imbalance right after the empty nodes
        /// joined (what the plane faces).
        pub imbalance_start: f64 => col("imbalance_start", "imbalance at start", 3),
        /// Imbalance at the end of the row.
        pub imbalance_end: f64 => col("imbalance_end", "imbalance at end", 3),
        /// The armed plane's imbalance threshold (copied into every row so
        /// the gate needs no out-of-band constant).
        pub threshold: f64 => col("threshold", "threshold", 3),
        /// Most buckets any migration window shipped.
        pub max_window_buckets: usize => col("max_window_buckets", "peak window (buckets)"),
        /// Most bytes any migration window shipped.
        pub max_window_bytes: u64 => col("max_window_bytes", "peak window (bytes)"),
        /// Live records at the end.
        pub records: u64 => col("records", "records"),
        /// Checksum of the record contents (see [`contents_checksum`]).
        pub checksum: Hex => col("checksum", "checksum"),
        /// The budget's per-window bucket cap.
        pub budget_buckets: usize,
        /// The budget's per-window byte cap.
        pub budget_bytes: u64,
        /// Primary-index bytes at the end
        /// ([`Cluster::dataset_primary_bytes`]).
        pub resident_bytes: u64,
    }
}

/// Runs the identical seeded workload under three control regimes: heat
/// tracking never armed (the baseline), armed-then-disarmed before any work
/// (must be byte-identical to the baseline — the disarmed gate), and armed
/// with the decision loop ticking (must auto-split the hot buckets,
/// auto-trigger a migration onto the empty nodes after the hysteresis
/// window, respect the per-window budget, and converge below the threshold
/// within [`CONTROL_CONVERGENCE_TICKS`]).
pub fn control_study(cfg: &ExperimentConfig) -> Vec<ControlRow> {
    let nodes = 4;
    // Enough records that buckets are fine-grained relative to partitions —
    // the achievable post-rebalance imbalance is roughly one bucket's share
    // of a partition, and the gate needs that well below the threshold.
    let records = (cfg.orders_per_node as u64) * 160;
    let control_config = ControlConfig::default();
    let regimes: [(&'static str, u8); 3] = [
        ("never armed", 0),
        ("armed then disarmed", 1),
        ("armed + decision loop", 2),
    ];

    let mut rows = Vec::new();
    for (label, regime) in regimes {
        let mut cluster = cfg.cluster(nodes);
        match regime {
            1 => {
                // Arm/disarm must leave no trace on anything measured below.
                cluster.set_heat_tracking(true);
                cluster.set_heat_tracking(false);
            }
            2 => cluster.set_heat_tracking(true),
            _ => {}
        }
        let spec = DatasetSpec::new("control", cfg.dynahash_scheme(nodes));
        let ds = load_dataset(&mut cluster, spec, (0..records).map(small_record));
        let mut session = cluster.session(ds).expect("control session");
        // The query hotspot: two keys hammered hard enough that their
        // buckets cross the hot-bucket op budget when heat is armed.
        for _ in 0..2_000 {
            for key in [3u64, 11] {
                session.get(&cluster, &Key::from_u64(key)).expect("hot get");
            }
        }
        // Two empty nodes join; nobody moves data onto them except the
        // armed control plane.
        cluster.add_node().expect("control add_node");
        cluster.add_node().expect("control add_node");

        let imbalance_of = |cluster: &mut Cluster| {
            cluster
                .admin()
                .heat(ds)
                .expect("control heat report")
                .imbalance(control_config.op_weight_bytes)
        };
        let imbalance_start = imbalance_of(&mut cluster);

        let mut ticks = 0;
        let mut plane = (regime == 2).then(|| ControlPlane::new(control_config));
        if let Some(plane) = plane.as_mut() {
            while ticks < CONTROL_CONVERGENCE_TICKS {
                plane.tick(&mut cluster).expect("control tick");
                ticks += 1;
                if !plane.job_in_flight()
                    && imbalance_of(&mut cluster) <= control_config.imbalance_threshold
                {
                    break;
                }
            }
        }

        let imbalance_end = imbalance_of(&mut cluster);
        // The disarmed regimes have no plane: the log holds no decision.
        let (max_window_buckets, max_window_bytes) = plane.map_or((0, 0), |p| p.peak_window());
        let (live, checksum) = contents_checksum(&cluster, ds);
        let resident = cluster.dataset_primary_bytes(ds).unwrap_or(0);
        let count = |pred| count_decisions(&cluster, pred);
        rows.push(ControlRow {
            label,
            ticks,
            triggers: count(|d| matches!(d, ControlDecision::Triggered { .. })),
            suppressed: count(|d| {
                matches!(
                    d,
                    ControlDecision::SuppressedByHysteresis { .. }
                        | ControlDecision::SuppressedByCooldown { .. }
                )
            }),
            committed: count(|d| matches!(d, ControlDecision::Committed { .. })),
            hot_splits: count(|d| matches!(d, ControlDecision::HotSplit { .. })),
            imbalance_start,
            imbalance_end,
            threshold: control_config.imbalance_threshold,
            max_window_buckets,
            max_window_bytes,
            records: live,
            checksum,
            budget_buckets: control_config.budget.max_buckets_per_window,
            budget_bytes: control_config.budget.max_bytes_per_window,
            resident_bytes: resident,
        });
    }
    rows
}

/// Checks the `control` figure's gate. Everything here is simulated time
/// and byte accounting — deterministic, so violations fail immediately:
/// the two disarmed rows must be identical in every measured dimension
/// (the disarmed data path is byte-identical to a build without the control
/// plane), and the armed row must converge below the threshold within the
/// tick budget, via at least one hysteresis-suppressed decision and one
/// committed auto-rebalance, never exceeding the per-window migration
/// budget — all while leaving record contents identical to the baseline.
pub fn control_gate_violations(rows: &[ControlRow]) -> Vec<Violation> {
    let mut bad = Vec::new();
    let Some(base) = find_row(rows, &mut bad, "never armed", |r| r.label) else {
        return bad;
    };
    if base.imbalance_start <= base.threshold {
        bad.push(fail(format!(
            "baseline imbalance {:.3} does not exceed the threshold {:.3} — \
             the workload gives the plane nothing to do",
            base.imbalance_start, base.threshold
        )));
    }
    if let Some(disarmed) = find_row(rows, &mut bad, "armed then disarmed", |r| r.label) {
        let identical = disarmed.records == base.records
            && disarmed.checksum == base.checksum
            && disarmed.resident_bytes == base.resident_bytes
            && disarmed.imbalance_start == base.imbalance_start
            && disarmed.imbalance_end == base.imbalance_end
            && disarmed.triggers == 0
            && disarmed.hot_splits == 0;
        if !identical {
            bad.push(fail(format!(
                "arm/disarm left a trace: {disarmed:?} differs from the \
                 never-armed baseline {base:?}"
            )));
        }
    }
    let Some(armed) = find_row(rows, &mut bad, "armed + decision loop", |r| r.label) else {
        return bad;
    };
    if armed.triggers == 0 {
        bad.push(fail("armed plane never auto-triggered"));
    }
    if armed.suppressed == 0 {
        bad.push(fail("hysteresis never suppressed a decision"));
    }
    if armed.committed == 0 {
        bad.push(fail("no auto-triggered rebalance committed"));
    }
    if armed.hot_splits == 0 {
        bad.push(fail("the query hotspot split no buckets"));
    }
    if armed.ticks > CONTROL_CONVERGENCE_TICKS {
        bad.push(fail(format!(
            "armed plane used {} ticks (budget {})",
            armed.ticks, CONTROL_CONVERGENCE_TICKS
        )));
    }
    if armed.imbalance_end > armed.threshold {
        bad.push(fail(format!(
            "armed plane left imbalance {:.3} above the threshold {:.3}",
            armed.imbalance_end, armed.threshold
        )));
    }
    if armed.max_window_buckets > armed.budget_buckets
        || armed.max_window_bytes > armed.budget_bytes
    {
        bad.push(fail(format!(
            "migration budget exceeded: window shipped {} buckets / {} bytes (budget {} / {})",
            armed.max_window_buckets,
            armed.max_window_bytes,
            armed.budget_buckets,
            armed.budget_bytes
        )));
    }
    if armed.records != base.records || armed.checksum != base.checksum {
        bad.push(fail(format!(
            "auto-rebalancing changed record contents ({} records, checksum {}; baseline has \
             {} and {})",
            armed.records, armed.checksum, base.records, base.checksum
        )));
    }
    bad
}

// --------------------------------------------------- recovery study (PR 10)

table_row! {
    /// One row of the `recovery` figure: either a straggler arm (the
    /// identical seeded scale-out with one badly slow source node, with and
    /// without speculative re-execution) or a repair arm (a dataset that
    /// never lost a node vs. its twin that lost an established node and was
    /// repaired from the original feed).
    pub struct RecoveryRow {
        /// Arm of this row.
        pub label: &'static str => col("arm", "arm"),
        /// True when the rebalance/repair committed.
        pub committed: bool => col("committed", "committed"),
        /// Simulated makespan of the rebalance (or repair; zero for the
        /// loss-free oracle, which runs none).
        pub makespan: SimDuration => col("makespan_ns", "makespan (ms)"),
        /// Transfer legs shipped a second time by speculation.
        pub speculated: u64 => col("speculated", "speculated"),
        /// Speculative backups that strictly beat the original leg.
        pub speculation_wins: u64 => col("speculation_wins", "wins"),
        /// Lost buckets a repair restored.
        pub repaired_buckets: u64 => col("repaired_buckets", "repaired"),
        /// Live records at the end.
        pub records: u64 => col("records", "records"),
        /// Checksum of the record contents (see [`contents_checksum`]).
        pub checksum: Hex => col("checksum", "checksum"),
    }
}

/// Runs the two recovery-plane experiments. Straggler arm: the identical
/// seeded scale-out with one source node slowed 50×, without and with
/// [`SpeculationPolicy`] — speculation must strictly shorten the makespan
/// while leaving record contents byte-identical. Repair arm: a dataset
/// whose cluster never loses a node vs. its twin that permanently loses an
/// established node (degrading that node's resident buckets) and is
/// repaired from the original feed — the repaired dataset must be
/// byte-identical to the never-lost oracle.
pub fn recovery_study(cfg: &ExperimentConfig) -> Vec<RecoveryRow> {
    let nodes = 4;
    let records = (cfg.orders_per_node as u64) * 40;
    let load = |cluster: &mut Cluster| {
        let spec = DatasetSpec::new("recovery", cfg.dynahash_scheme(nodes));
        load_dataset(cluster, spec, (0..records).map(small_record))
    };
    // A row of what a cluster holds now; the arms fill in what they ran.
    let row = |label, cluster: &Cluster, ds| {
        let (records, checksum) = contents_checksum(cluster, ds);
        RecoveryRow {
            label,
            committed: true,
            makespan: SimDuration::ZERO,
            speculated: 0,
            speculation_wins: 0,
            repaired_buckets: 0,
            records,
            checksum,
        }
    };

    let mut rows = Vec::new();

    for (label, policy) in [
        ("speculation off", SpeculationPolicy::disabled()),
        ("speculation on", SpeculationPolicy::default()),
    ] {
        let mut cluster = cfg.cluster(nodes);
        let ds = load(&mut cluster);
        cluster.add_node().expect("recovery add_node");
        let target = cluster.topology().clone();
        let mut job =
            RebalanceJob::plan(&mut cluster, ds, &target, 4).expect("plan recovery rebalance");
        // Slow the node sourcing the first planned move, so the straggler
        // is guaranteed to sit on the critical path.
        let slow = cluster
            .node_of_partition(job.waves()[0][0].from)
            .expect("slow node of first move");
        cluster.set_fault_plane(FaultSchedule::seeded(0x5bec_2026).with_slow_node(slow, 50));
        job.set_speculation(policy);
        let report = job.drive(&mut cluster).expect("drive recovery rebalance");
        cluster.clear_fault_plane();
        // The races this job ran, read from its events.
        let races: Vec<bool> = (cluster.events(0).iter())
            .filter_map(|e| match *e {
                Event::Speculated { rebalance, won } if rebalance == report.rebalance_id => {
                    Some(won)
                }
                _ => None,
            })
            .collect();
        rows.push(RecoveryRow {
            committed: report.outcome == RebalanceOutcome::Committed,
            makespan: report.elapsed,
            speculated: races.len() as u64,
            speculation_wins: races.iter().filter(|won| **won).count() as u64,
            ..row(label, &cluster, ds)
        });
    }

    let mut oracle = cfg.cluster(nodes);
    let ds = load(&mut oracle);
    rows.push(row("never-lost oracle", &oracle, ds));

    let mut cluster = cfg.cluster(nodes);
    let ds = load(&mut cluster);
    let victim = cluster.topology().nodes()[0];
    cluster.lose_node(victim).expect("lose an established node");
    let feed: Vec<(Key, Bytes)> = (0..records).map(small_record).collect();
    let report = cluster
        .admin()
        .repair_dataset(ds, &feed)
        .expect("repair the degraded dataset")
        .expect("losing an established node degrades the dataset");
    cluster
        .remove_lost_node(victim)
        .expect("remove the lost node");
    rows.push(RecoveryRow {
        committed: report.outcome == RebalanceOutcome::Committed,
        makespan: report.elapsed,
        repaired_buckets: report.buckets_moved as u64,
        ..row("lost + repaired", &cluster, ds)
    });
    rows
}

/// Checks the `recovery` figure's gate — everything is simulated time and
/// byte accounting, so the comparisons are exact: speculation must launch
/// backups that win and strictly shorten the makespan without touching
/// record contents, and the repaired dataset must be byte-identical to the
/// never-lost oracle.
pub fn recovery_gate_violations(rows: &[RecoveryRow]) -> Vec<Violation> {
    let mut bad = Vec::new();
    for r in rows {
        if !r.committed {
            bad.push(fail(format!("{}: did not commit", r.label)));
        }
    }
    let mut arm = |label| find_row(rows, &mut bad, label, |r| r.label);
    let arms = (
        arm("speculation off"),
        arm("speculation on"),
        arm("never-lost oracle"),
        arm("lost + repaired"),
    );
    let (Some(off), Some(on), Some(oracle), Some(repaired)) = arms else {
        return bad;
    };
    if off.speculated != 0 || off.speculation_wins != 0 {
        bad.push(fail(format!(
            "disabled policy still speculated ({} legs, {} wins)",
            off.speculated, off.speculation_wins
        )));
    }
    if on.speculated == 0 {
        bad.push(fail("speculation never launched a backup"));
    }
    if on.speculation_wins == 0 {
        bad.push(fail("no speculative backup beat the 50× straggler"));
    }
    if on.makespan >= off.makespan {
        bad.push(fail(format!(
            "speculation did not shorten the makespan ({} ns vs {} ns)",
            on.makespan.as_nanos(),
            off.makespan.as_nanos()
        )));
    }
    if on.records != off.records || on.checksum != off.checksum {
        bad.push(fail(format!(
            "speculation changed record contents ({} records, checksum {}; without it {} and {})",
            on.records, on.checksum, off.records, off.checksum
        )));
    }
    if repaired.repaired_buckets == 0 {
        bad.push(fail("losing an established node degraded no buckets"));
    }
    if repaired.records != oracle.records || repaired.checksum != oracle.checksum {
        bad.push(fail(format!(
            "repair left the dataset different from the never-lost oracle ({} records, checksum \
             {}; oracle has {} and {})",
            repaired.records, repaired.checksum, oracle.records, oracle.checksum
        )));
    }
    bad
}

// ------------------------------------------------------- registry and driver

/// What one run of a figure produced: its tables, and what its gate found on
/// the typed rows behind them.
#[derive(Debug, Clone, Default)]
pub struct Study {
    /// The figure's tables, in output order.
    pub tables: Vec<Table>,
    /// The gate's violations (empty = the gate passes, or there is none).
    pub violations: Vec<Violation>,
}

impl Study {
    /// A figure of one table, with what `gate` finds on its typed rows.
    fn of<R: table::Row>(key: &'static str, rows: &[R], gate: fn(&[R]) -> Vec<Violation>) -> Study {
        Study {
            tables: vec![Table::of(key, rows)],
            violations: gate(rows),
        }
    }
}

/// The gate of a figure without one.
fn no_gate<R>(_: &[R]) -> Vec<Violation> {
    Vec::new()
}

/// One entry of the figure registry.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The name `--figure` selects (matched case-insensitively).
    pub name: &'static str,
    /// The markdown heading.
    pub title: &'static str,
    /// Runs the study at the given scale and evaluates its gate.
    pub run: fn(&ExperimentConfig) -> Study,
    /// What a passing gate established; `None` for a figure without a gate.
    pub gate_note: Option<&'static str>,
}

/// Every figure `experiments` can regenerate, in output order. Six carry
/// a regression gate — any violation makes the run exit 1 — and what each
/// gate demands is documented on its `*_gate_violations` function.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "6",
        title: "Figure 6 — Ingestion time",
        run: |cfg| Study::of("fig6_ingestion", &fig6_ingestion(cfg), no_gate),
        gate_note: None,
    },
    Figure {
        name: "7a",
        title: "Figure 7a — Rebalance time, removing one node",
        run: |cfg| {
            let rows = fig7_rebalance(cfg, RebalanceDirection::RemoveNode);
            Study::of("fig7a_remove_node", &rows, no_gate)
        },
        gate_note: None,
    },
    Figure {
        name: "7b",
        title: "Figure 7b — Rebalance time, adding one node",
        run: |cfg| {
            let rows = fig7_rebalance(cfg, RebalanceDirection::AddNode);
            Study::of("fig7b_add_node", &rows, no_gate)
        },
        gate_note: None,
    },
    Figure {
        name: "7c",
        title: "Figure 7c — Rebalance time under concurrent ingestion (DynaHash, 4 -> 3 nodes)",
        run: |cfg| {
            let rows = fig7c_concurrent_writes(cfg, &[0.0, 10.0, 20.0, 30.0, 40.0]);
            Study::of("fig7c_concurrent_writes", &rows, no_gate)
        },
        gate_note: None,
    },
    Figure {
        name: "waves",
        title: "Wave parallelism — step-driven rebalance (DynaHash, 4 -> 3 nodes)",
        run: |cfg| {
            let rows = rebalance_wave_scaling(cfg, &[1, 2, 4, 8]);
            Study::of("waves", &rows, no_gate)
        },
        gate_note: None,
    },
    Figure {
        name: "routing",
        title: "Session routing — redirect protocol and overhead (DynaHash, 4 -> 3 nodes)",
        run: |cfg| {
            let rows = session_routing_study(cfg);
            Study::of("routing", &rows, routing_gate_violations)
        },
        gate_note: Some(
            "stale sessions converged, redirects bounded by buckets moved, session overhead \
             within the bound on direct access",
        ),
    },
    Figure {
        name: "faults",
        title: "Fault plane — retry, re-planning, the fault-free oracle (DynaHash, 4 -> 5 nodes)",
        run: |cfg| Study::of("faults", &fault_study(cfg), fault_gate_violations),
        gate_note: Some(
            "empty schedule byte-identical to the oracle, transients absorbed by retry, node \
             loss re-planned and committed, contents identical",
        ),
    },
    Figure {
        name: "control",
        title: "Control plane — auto-rebalancing under a query hotspot (DynaHash, 4 -> 6 nodes)",
        run: |cfg| Study::of("control", &control_study(cfg), control_gate_violations),
        gate_note: Some(
            "disarmed run byte-identical to the baseline, armed loop split the hotspot and \
             converged below the threshold within the tick budget inside the migration budget, \
             contents identical",
        ),
    },
    Figure {
        name: "recovery",
        title: "Recovery plane — straggler speculation and dataset repair (DynaHash, 4 -> 5 nodes)",
        run: |cfg| Study::of("recovery", &recovery_study(cfg), recovery_gate_violations),
        gate_note: Some(
            "speculation strictly shortened the straggler-stretched makespan with \
             byte-identical contents; the repaired dataset is byte-identical to the never-lost \
             oracle",
        ),
    },
    Figure {
        name: "8",
        title: "Figure 8 — TPC-H query time on the original cluster",
        run: |cfg| Study::of("fig8_queries", &fig8_queries(cfg), answer_mismatches),
        gate_note: Some("all schemes returned identical query answers"),
    },
    Figure {
        name: "9",
        title: "Figure 9 — TPC-H query time on the downsized cluster (N -> N-1 nodes)",
        run: |cfg| Study::of("fig9_queries", &fig9_queries(cfg), answer_mismatches),
        gate_note: Some("all schemes returned identical query answers"),
    },
    Figure {
        name: "ablations",
        title: "Ablations — primary-index storage options; Algorithm 2 vs round-robin balance",
        run: |_| Study {
            tables: vec![
                Table::of("ablation_storage_options", &ablation_storage_options(5000)),
                Table::of(
                    "ablation_balance_quality",
                    &ablation_balance_quality(&[1, 2, 4, 8, 16]),
                ),
            ],
            violations: Vec::new(),
        },
        gate_note: None,
    },
];

/// The registry's figure names, comma-separated (for `--help` and the
/// unknown-figure error).
pub fn figure_names(registry: &[Figure]) -> String {
    let names: Vec<&str> = registry.iter().map(|f| f.name).collect();
    names.join(", ")
}

/// The one driver: runs every figure of `registry` — or the one `select`
/// names — prints each as markdown, and returns the process exit status
/// with everything that was produced: 0 when every gate passed, 1 on any
/// violation, 2 when `select` names no figure (nothing runs; the valid
/// names go to stderr).
///
/// A gate is deterministic except where a violation says it compared
/// wall-clock measurements, which a loaded runner can inflate: a figure
/// whose violations are *all* of that kind is re-run, at most twice, before
/// it fails the run. Any deterministic violation fails at once.
pub fn run_figures(
    registry: &[Figure],
    select: Option<&str>,
    cfg: &ExperimentConfig,
) -> (i32, Study) {
    let mut all = Study::default();
    let selected: Vec<&Figure> = registry
        .iter()
        .filter(|f| select.is_none_or(|name| name.eq_ignore_ascii_case(f.name)))
        .collect();
    if selected.is_empty() {
        eprintln!(
            "unknown figure {:?}; valid figures: {}",
            select.unwrap_or_default(),
            figure_names(registry)
        );
        return (2, all);
    }
    println!("# DynaHash experiment results\n");
    println!(
        "configuration: {} orders/node, {} partitions/node, node counts {:?} (simulated time)\n",
        cfg.orders_per_node, cfg.partitions_per_node, cfg.node_counts
    );
    for figure in selected {
        println!("## {}\n", figure.title);
        let mut study = (figure.run)(cfg);
        for _ in 0..2 {
            if study.violations.is_empty() || !study.violations.iter().all(|v| v.wall_clock) {
                break;
            }
            eprintln!(
                "wall-clock measurement over the gate; re-measuring: {:?}",
                study.violations
            );
            study = (figure.run)(cfg);
        }
        for table in &study.tables {
            println!("`{}`\n\n{}", table.key, table.markdown());
        }
        match (study.violations.is_empty(), figure.gate_note) {
            (true, Some(note)) => println!("(gate: {note})\n"),
            (true, None) => {}
            (false, _) => {
                for v in &study.violations {
                    eprintln!("GATE FAILED: {}: {}", figure.name, v.message);
                }
            }
        }
        all.tables.append(&mut study.tables);
        all.violations.append(&mut study.violations);
    }
    (if all.violations.is_empty() { 0 } else { 1 }, all)
}

/// The machine-readable document of a run: the configuration and every
/// table under its key. With `wall_clock` unset the wall-clock columns are
/// left out, and what remains is byte-identical from run to run.
pub fn json_document(
    cfg: &ExperimentConfig,
    quick: bool,
    tables: &[Table],
    wall_clock: bool,
) -> Json {
    let node_counts = cfg.node_counts.iter().map(|&n| Json::Int(n as u64));
    let partitions = cfg.partitions_per_node as u64;
    let config = Json::obj([
        ("orders_per_node", Json::Int(cfg.orders_per_node as u64)),
        ("partitions_per_node", Json::Int(partitions)),
        ("quick", Json::Bool(quick)),
        ("node_counts", Json::Arr(node_counts.collect())),
    ]);
    let figures = tables
        .iter()
        .map(|t| (t.key.to_string(), t.json(wall_clock)));
    Json::obj([
        ("config", config),
        ("figures", Json::Obj(figures.collect())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            orders_per_node: 60,
            partitions_per_node: 2,
            node_counts: &[2],
            query_nodes: &[2],
        }
    }

    fn rendered<R: table::Row>(rows: &[R]) -> String {
        Table::of("t", rows).markdown()
    }

    #[test]
    fn fig6_shapes_hold_at_tiny_scale() {
        let rows = fig6_ingestion(&tiny());
        assert_eq!(rows.len(), 3);
        // every scheme ingests the same number of records
        assert!(rows.windows(2).all(|w| w[0].records == w[1].records));
        // bucketing overhead stays small (within 2x of Hashing)
        let hashing = rows.iter().find(|r| r.scheme == "Hashing").unwrap().seconds;
        for r in &rows {
            assert!(r.seconds <= hashing * 2.0 + 1e-9, "{} too slow", r.scheme);
        }
        assert!(rendered(&rows).contains("| DynaHash |"));
    }

    #[test]
    fn fig7_bucketing_beats_hashing() {
        let rows = fig7_rebalance(&tiny(), RebalanceDirection::RemoveNode);
        let hashing = rows.iter().find(|r| r.scheme == "Hashing").unwrap();
        let dyna = rows.iter().find(|r| r.scheme == "DynaHash").unwrap();
        assert!(dyna.seconds < hashing.seconds);
        assert!(dyna.moved_fraction < hashing.moved_fraction);
        assert!(hashing.moved_fraction > 0.8);
        assert!(rendered(&rows).contains("| StaticHash |"));
    }

    #[test]
    fn fig7c_time_grows_with_write_rate() {
        let rows = fig7c_concurrent_writes(&tiny(), &[0.0, 2.0]);
        assert_eq!(rows.len(), 2);
        assert!(rows[1].seconds >= rows[0].seconds);
        assert!(rows[1].concurrent_records > 0);
        assert!(rendered(&rows).contains("krec"));
    }

    #[test]
    fn parallel_waves_beat_serial_makespan() {
        let rows = rebalance_wave_scaling(&tiny(), &[1, 4]);
        assert_eq!(rows.len(), 2);
        let (serial, parallel) = (&rows[0], &rows[1]);
        assert_eq!(serial.buckets_moved, parallel.buckets_moved);
        assert!(parallel.waves < serial.waves);
        assert!(
            parallel.movement_seconds < serial.movement_seconds,
            "parallel movement {} !< serial {}",
            parallel.movement_seconds,
            serial.movement_seconds
        );
        assert!(parallel.seconds < serial.seconds);
        assert!(rendered(&rows).contains("moves/wave"));
    }

    #[test]
    fn session_routing_study_passes_its_gate() {
        let rows = session_routing_study(&tiny());
        assert_eq!(rows.len(), 3);
        // the wall-clock overhead arm can flake on a loaded CI box; every
        // deterministic condition must hold unconditionally
        let violations = routing_gate_violations(&rows);
        assert!(
            violations.iter().all(|v| v.wall_clock),
            "gate violations: {violations:?}"
        );
        let after = rows.iter().find(|r| r.phase == "after").unwrap();
        assert!(after.redirects >= 1);
        assert!(
            after.delta_refreshes >= 1,
            "commits should fit the delta log"
        );
        assert!(rendered(&rows).contains("redirects"));
    }

    #[test]
    fn ablation_storage_option3_reads_less() {
        let rows = ablation_storage_options(2000);
        assert_eq!(rows.len(), 2);
        assert!(rows[1].bucket_move_read_bytes < rows[0].bucket_move_read_bytes / 2);
    }

    #[test]
    fn ablation_balance_quality_improves_on_round_robin() {
        let rows = ablation_balance_quality(&[1, 4, 16]);
        for r in &rows {
            assert!(r.algorithm2 <= r.round_robin + 1e-9, "skew {}", r.skew);
        }
    }

    #[test]
    fn fault_study_passes_its_gate() {
        let rows = fault_study(&tiny());
        assert_eq!(rows.len(), 4);
        assert_eq!(fault_gate_violations(&rows), vec![]);
        let transient = rows.iter().find(|r| r.label == "transient faults").unwrap();
        assert!(transient.retries > 0 && transient.makespan > rows[0].makespan);
        // the gate bites: contents that diverge from the oracle are caught
        let mut broken = rows.clone();
        broken[3].checksum = Hex(!broken[3].checksum.0);
        assert_eq!(fault_gate_violations(&broken).len(), 1);
        assert!(rendered(&rows).contains("| node loss | true |"));
    }

    #[test]
    fn recovery_study_passes_its_gate() {
        let rows = recovery_study(&tiny());
        assert_eq!(rows.len(), 4);
        assert_eq!(recovery_gate_violations(&rows), vec![]);
        let on = rows.iter().find(|r| r.label == "speculation on").unwrap();
        assert!(on.speculation_wins > 0);
        let repaired = rows.iter().find(|r| r.label == "lost + repaired").unwrap();
        assert!(repaired.repaired_buckets > 0);
        assert!(rendered(&rows).contains("never-lost oracle"));
    }

    #[test]
    fn control_study_passes_its_gate() {
        let rows = control_study(&tiny());
        assert_eq!(rows.len(), 3);
        assert_eq!(control_gate_violations(&rows), vec![]);
        let armed = rows
            .iter()
            .find(|r| r.label.starts_with("armed +"))
            .unwrap();
        assert!(armed.ticks < CONTROL_CONVERGENCE_TICKS, "no headroom left");
        assert!(rendered(&rows).contains("decision loop"));
    }
}
