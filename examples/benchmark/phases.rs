//! What a run does.
//!
//! A run is a number of **laps** (at least five). A lap is the whole
//! experiment once, on a freshly built cluster:
//!
//! set-up (build and load; on `ingest_heavy` the timed ingest phase on top)
//! → one scan pair → the query suite → a rebalance step away from four nodes
//! → the query suite on the rebalanced cluster → the step back and an
//! integrity check → a round of point operations → a full verifying scan.
//!
//! Every lap replays the same operations from the same state, so each timed
//! step of a lap — one query, one rebalance wave, one ingest batch, one get —
//! has a replica in every other lap, spread over the whole run; a read-only
//! phase that a lap runs twice (`Spec::read_passes`) has two. A metric is
//! computed from the *least* time each step took in any pass ([`Series`]):
//! a suite's seconds are the sum of its queries' least times, a latency
//! percentile is taken over the operations' least times. `setup_s` is the
//! median lap. The reason is the noise of this class of host: it is
//! one-sided (a neighbour can only slow the process down) and comes in
//! episodes that last from microseconds to seconds. A whole lap is rarely
//! free of them; a single step is free of them in most laps, and the
//! quiet-machine cost of deterministic work is a floor that runs agree on.
//! `README.md` has the measurements behind this.
//!
//! Workloads differ in dataset, key distribution, operation mix and sizes
//! (`spec.rs`); the phases and the metric definitions are the same for all.

use std::collections::BTreeMap;

use dynahash_cluster::{Cluster, ClusterError, DatasetId, RebalanceJob, Session};
use dynahash_core::{ClusterTopology, NodeId, PartitionId};
use dynahash_lsm::entry::Key;
use dynahash_lsm::metrics::MetricsSnapshot;
use dynahash_lsm::rng::SplitMix64;
use dynahash_lsm::wal::RebalanceId;
use dynahash_lsm::{Entry, ScanOrder};
use dynahash_tpch::run_query;

use crate::spec::Spec;
use crate::stats::{mean, median, Series};
use crate::trace::{timed, Tracer};
use crate::world::{Data, LoadStats, OpGen, World, BATCH, KV_GROUPS};

/// Bucket moves one rebalance wave may run at once.
const MAX_CONCURRENT_MOVES: usize = 4;

/// Span names of the 22 TPC-H queries.
pub const QUERY_SPANS: [&str; 22] = [
    "tpch.q01", "tpch.q02", "tpch.q03", "tpch.q04", "tpch.q05", "tpch.q06", "tpch.q07", "tpch.q08",
    "tpch.q09", "tpch.q10", "tpch.q11", "tpch.q12", "tpch.q13", "tpch.q14", "tpch.q15", "tpch.q16",
    "tpch.q17", "tpch.q18", "tpch.q19", "tpch.q20", "tpch.q21", "tpch.q22",
];

/// Operations attempted and failed. An `Err`, a missing key, a version that
/// disagrees with the model, a changed query answer and a failed consistency
/// check each count as one failed operation.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// What the first few failures were.
    pub first_failures: Vec<&'static str>,
}

impl Tally {
    fn record(&mut self, what: &'static str, ok: bool) {
        self.record_many(what, 1, ok);
    }

    fn record_many(&mut self, what: &'static str, n: u64, ok: bool) {
        self.attempted += n;
        if !ok {
            self.failed += n;
            if self.first_failures.len() < 8 {
                self.first_failures.push(what);
            }
        }
    }
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operation counts.
    pub tally: Tally,
    /// End-to-end metric values by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer values that come from counters rather than spans.
    pub layer: BTreeMap<&'static str, f64>,
    /// Sample counts and phase lengths, for the report.
    pub notes: Vec<String>,
    /// Seconds of timed work in the whole run.
    pub timed_s: f64,
    /// Seconds of timed work in the workload's own phases (the layer probe
    /// of a traced run excluded).
    pub phases_s: f64,
    /// First fatal error, if the run could not complete.
    pub fatal: Option<String>,
}

/// The timed steps of a lap, one series per kind, reduced over laps.
#[derive(Debug, Default)]
struct Laps {
    /// Seconds of each lap's set-up.
    setup_s: Vec<f64>,
    /// The ingest calls of the load — on `ingest_heavy`, of the ingest phase.
    ingest: Series,
    /// The two full scans.
    scan: Series,
    /// The queries of the suite on four nodes.
    query: Series,
    /// The same after the first rebalance step.
    query_rebalanced: Series,
    /// Every `RebalanceJob` call of the cycle, prepare → commit as one.
    job: Series,
    /// The write-blocked windows of the cycle.
    blocked: Series,
    /// The point operations, in flight and after the cycle.
    ops: PointStats,
}

impl Laps {
    fn series(&mut self) -> [(&'static str, &mut Series); 8] {
        [
            ("ingest calls", &mut self.ingest),
            ("scans", &mut self.scan),
            ("queries", &mut self.query),
            ("queries, rebalanced", &mut self.query_rebalanced),
            ("job calls", &mut self.job),
            ("write-blocked windows", &mut self.blocked),
            ("gets", &mut self.ops.get),
            ("puts", &mut self.ops.put),
        ]
    }
}

/// Per-operation times of the point operations.
#[derive(Debug, Default)]
struct PointStats {
    get: Series,
    put: Series,
}

/// The clients of a workload: sessions used round-robin and a seeded stream
/// of operations.
struct Clients {
    sessions: Vec<Session>,
    next: usize,
    gen: OpGen,
}

impl Clients {
    fn open(world: &World, spec: &Spec, seed: u64) -> Result<Self, String> {
        let sessions = (0..spec.sessions)
            .map(|_| world.cluster.session(world.ops_dataset))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        Ok(Clients {
            sessions,
            next: 0,
            gen: OpGen::new(seed, spec.dist, world.ranks(), spec.get_per_mille),
        })
    }

    /// Issues `ops` point operations one at a time, each timed on its own
    /// and checked against the model.
    fn run(
        &mut self,
        world: &mut World,
        ops: usize,
        stats: &mut PointStats,
        tally: &mut Tally,
        tracer: &mut Tracer,
    ) {
        let (gets, puts) = (stats.get.pass_len(), stats.put.pass_len());
        let (get_ns, put_ns) = (stats.get.pass_ns(), stats.put.pass_ns());
        for _ in 0..ops {
            let (rank, is_get) = self.gen.next_op();
            let at = self.next;
            self.next = (at + 1) % self.sessions.len();
            let session = &mut self.sessions[at];
            if is_get {
                let key = world.key(rank);
                let (got, ns) = timed(|| session.get(&world.cluster, &key));
                tally.record(
                    "get",
                    matches!(&got, Ok(v) if world.check_get(rank, v.as_ref())),
                );
                stats.get.record(ns);
            } else {
                let (key, value) = world.next_put(rank);
                let (res, ns) = timed(|| session.put(&mut world.cluster, key, value));
                tally.record("put", res.is_ok());
                stats.put.record(ns);
            }
        }
        tracer.batch(
            "cluster.session_get",
            (stats.get.pass_len() - gets) as u64,
            stats.get.pass_ns() - get_ns,
        );
        tracer.batch(
            "cluster.session_put",
            (stats.put.pass_len() - puts) as u64,
            stats.put.pass_ns() - put_ns,
        );
    }
}

/// One full scan pair (unordered, then ordered) of the operations dataset.
/// Returns entries returned and whether both scans matched the model.
fn scan_pair(
    world: &World,
    session: &mut Session,
    scans: &mut Series,
    tracer: &mut Tracer,
) -> (u64, bool) {
    let mut entries = 0u64;
    let mut ok = true;
    for (name, order) in [
        ("cluster.session_scan_unordered", ScanOrder::Unordered),
        ("cluster.session_scan_ordered", ScanOrder::Ordered),
    ] {
        let (res, ns) = tracer.span(name, world.ranks(), |_| session.scan(&world.cluster, order));
        scans.record(ns);
        match res {
            Ok(parts) => {
                let all: Vec<Entry> = parts.into_iter().flat_map(|(_, e)| e).collect();
                entries += all.len() as u64;
                ok &= world.check_scan(&all);
            }
            Err(_) => ok = false,
        }
    }
    (entries, ok)
}

/// One pass of the workload's query suite, each query a step of `queries`.
/// Returns wall seconds, simulated seconds and whether every answer was
/// right.
fn query_pass(world: &mut World, queries: &mut Series, tracer: &mut Tracer) -> (f64, f64, bool) {
    let mut wall_ns = 0.0;
    let mut sim_s = 0.0;
    let mut ok = true;
    match &mut world.data {
        Data::Tpch(model) => {
            // The first pass of a run records the answers; every later pass,
            // on whatever topology, must reproduce them.
            let first = model.answers.is_empty();
            for (i, name) in QUERY_SPANS.iter().enumerate() {
                let tables = model.tables;
                let cluster = &mut world.cluster;
                let ((answer, report), ns) = tracer.span(name, 1, |_| {
                    let mut exec = cluster.query();
                    let answer = run_query(i + 1, &mut exec, &tables);
                    (answer, exec.finish())
                });
                queries.record(ns);
                wall_ns += ns;
                sim_s += report.elapsed.as_secs_f64();
                match answer {
                    Ok(a) if first => model.answers.push(a),
                    Ok(a) => {
                        let want = model.answers[i];
                        ok &= (a - want).abs() <= 1e-6 * want.abs().max(1.0);
                    }
                    Err(_) => {
                        ok = false;
                        if first {
                            model.answers.push(f64::NAN);
                        }
                    }
                }
            }
        }
        Data::Kv(model) => {
            // The analytic side of a key-value dataset: a full aggregate in
            // hash order, the same in primary-key order (the per-partition
            // merge TPC-H q18 needs), and an index range with its fetches
            // where the dataset has a secondary index.
            let ds = world.ops_dataset;
            let cluster = &mut world.cluster;
            for (name, ordered) in [
                ("cluster.query_scan_unordered", false),
                ("cluster.query_scan_ordered", true),
            ] {
                let ((res, report), ns) = tracer.span(name, model.len(), |_| {
                    let mut exec = cluster.query();
                    let res = exec.scan_table(ds, ordered);
                    (res, exec.finish())
                });
                queries.record(ns);
                wall_ns += ns;
                sim_s += report.elapsed.as_secs_f64();
                ok &= match res {
                    Ok(parts) => {
                        let sorted = !ordered
                            || parts
                                .iter()
                                .all(|(_, e)| e.windows(2).all(|w| w[0].key < w[1].key));
                        let n: usize = parts.iter().map(|(_, e)| e.len()).sum();
                        sorted
                            && n as u64 == model.len()
                            && parts
                                .iter()
                                .all(|(_, e)| e.iter().all(|e| model.check_entry(e)))
                    }
                    Err(_) => false,
                };
            }
            if let Some(index) = world.index {
                let hi = Key::from_u64(KV_GROUPS / 16);
                let ((res, report), ns) = tracer.span("cluster.query_index_fetch", 1, |_| {
                    let mut exec = cluster.query();
                    let res = exec
                        .index_scan(ds, index, None, Some(&hi))
                        .and_then(|hits| {
                            let (mut found, mut fetched) = (0usize, 0usize);
                            for (p, entries) in hits {
                                let keys: Vec<Key> =
                                    entries.into_iter().map(|e| e.primary).collect();
                                found += keys.len();
                                fetched += exec.fetch(ds, p, &keys)?.len();
                            }
                            Ok((found, fetched))
                        });
                    (res, exec.finish())
                });
                queries.record(ns);
                wall_ns += ns;
                sim_s += report.elapsed.as_secs_f64();
                // Index hits are candidates: after a bucket has moved away
                // and back, a partition can still list keys it no longer
                // owns. The fetch validates them, so the answer is what the
                // fetches return.
                let want = model.group_count(KV_GROUPS / 16);
                ok &= matches!(res, Ok((found, fetched)) if fetched == want && found >= fetched);
            }
        }
    }
    (wall_ns / 1e9, sim_s, ok)
}

/// What one scale-out or scale-in step measured.
#[derive(Debug, Default, Clone)]
struct StepTimes {
    /// plan + init + waves + prepare + decide + commit + finalize, summed
    /// over the step's datasets; client operations excluded.
    job_ns: f64,
    /// Byte-weighted moved fraction of the step.
    moved_fraction: f64,
    sim_s: f64,
    waves: u64,
    wave_ns: f64,
    bytes_shipped: u64,
    /// The finished jobs, for the integrity check.
    jobs: Vec<(DatasetId, RebalanceId)>,
}

/// Moves every dataset onto `target` with the step-driven job, issuing
/// `spec.in_flight_ops` client operations after every wave. Every job call is
/// a step of `laps.job`, every write-blocked window one of `laps.blocked`.
fn rebalance_to(
    world: &mut World,
    target: &ClusterTopology,
    spec: &Spec,
    clients: &mut Clients,
    laps: &mut Laps,
    tally: &mut Tally,
    tracer: &mut Tracer,
) -> StepTimes {
    let mut step = StepTimes::default();
    let (mut weighted, mut total_bytes) = (0.0, 0.0);
    for ds in world.datasets.clone() {
        let bytes = world.cluster.dataset_primary_bytes(ds).unwrap_or(0) as f64;
        let ok = (|| -> Result<(), ClusterError> {
            let (job, ns) = tracer.span("cluster.job_plan", 1, |_| {
                RebalanceJob::plan(&mut world.cluster, ds, target, MAX_CONCURRENT_MOVES)
            });
            let mut job = job?;
            laps.job.record(ns);
            step.job_ns += ns;
            let (res, ns) = tracer.span("cluster.job_init", 1, |_| job.init(&mut world.cluster));
            res?;
            laps.job.record(ns);
            step.job_ns += ns;
            while job.has_remaining_waves() {
                let (res, ns) =
                    tracer.span("cluster.job_wave", 1, |_| job.run_wave(&mut world.cluster));
                res?;
                laps.job.record(ns);
                step.job_ns += ns;
                step.wave_ns += ns;
                step.waves += 1;
                if spec.in_flight_ops > 0 {
                    tracer.span("phase.in_flight_ops", 0, |t| {
                        clients.run(world, spec.in_flight_ops, &mut laps.ops, tally, t)
                    });
                }
            }
            let (res, ns) = tracer.span("cluster.write_blocked", 1, |t| {
                t.span("cluster.job_prepare", 1, |_| {
                    job.prepare(&mut world.cluster)
                })
                .0?;
                t.span("cluster.job_decide", 1, |_| job.decide(&mut world.cluster))
                    .0?;
                t.span("cluster.job_commit", 1, |_| job.commit(&mut world.cluster))
                    .0
            });
            res?;
            laps.job.record(ns);
            laps.blocked.record(ns);
            step.job_ns += ns;
            let (report, ns) = tracer.span("cluster.job_finalize", 1, |_| {
                job.finalize(&mut world.cluster)
            });
            let report = report?;
            laps.job.record(ns);
            step.job_ns += ns;
            step.sim_s += report.elapsed.as_secs_f64();
            step.bytes_shipped += job.bytes_shipped();
            step.jobs.push((ds, job.rebalance_id()));
            weighted += report.moved_fraction * bytes;
            total_bytes += bytes;
            Ok(())
        })()
        .is_ok();
        tally.record("rebalance job", ok);
    }
    if total_bytes > 0.0 {
        step.moved_fraction = weighted / total_bytes;
    }
    step
}

/// Adds the storage counters of `partitions` to `into`.
fn add_storage_totals(
    cluster: &mut Cluster,
    partitions: &[PartitionId],
    into: &mut MetricsSnapshot,
) {
    let admin = cluster.admin();
    for p in partitions {
        if let Ok(part) = admin.partition(*p) {
            let s = part.metrics().snapshot();
            into.bytes_flushed += s.bytes_flushed;
            into.bytes_merged += s.bytes_merged;
            into.flush_count += s.flush_count;
            into.merge_count += s.merge_count;
            into.split_count += s.split_count;
            into.bytes_rebalance_shipped += s.bytes_rebalance_shipped;
            into.components_shipped += s.components_shipped;
        }
    }
}

/// Storage bytes of every partition, and components per bucket tree of the
/// operations dataset.
fn storage_shape(cluster: &mut Cluster, ds: DatasetId) -> (u64, f64) {
    let partitions = cluster.topology().partitions();
    let admin = cluster.admin();
    let (mut bytes, mut components, mut trees) = (0u64, 0usize, 0usize);
    for p in partitions {
        if let Ok(part) = admin.partition(p) {
            bytes += part.total_storage_bytes() as u64;
            if let Ok(d) = part.dataset(ds) {
                components += d.primary.num_components();
                trees += d.primary.num_buckets();
            }
        }
    }
    (bytes, components as f64 / trees.max(1) as f64)
}

/// Key plus payload bytes of every live row of every dataset, from one scan
/// per dataset.
fn scanned_user_bytes(world: &World) -> u64 {
    let mut bytes = 0u64;
    for ds in &world.datasets {
        if let Ok(mut s) = world.cluster.session(*ds) {
            if let Ok(parts) = s.scan(&world.cluster, ScanOrder::Unordered) {
                for (_, entries) in parts {
                    bytes += entries
                        .iter()
                        .map(|e| (e.key.len() + e.op.value_len()) as u64)
                        .sum::<u64>();
                }
            }
        }
    }
    bytes
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one workload start to finish.
pub fn run_workload(spec: &Spec, seed: u64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let ((), _) = tracer.span("run", 1, |t| {
        if let Err(e) = run_phases(spec, seed, t, &mut out) {
            out.tally.record("run", false);
            out.fatal = Some(e);
        }
    });
    out.timed_s = tracer.now_s();
    out
}

/// The timed ingest phase of `ingest_heavy`: new records mixed with updates
/// of existing ones, in batches through one session.
fn ingest_phase(
    spec: &Spec,
    seed: u64,
    world: &mut World,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<LoadStats, String> {
    let mut session = world
        .cluster
        .session(world.ops_dataset)
        .map_err(|e| e.to_string())?;
    let mut rng = SplitMix64::seed_from_u64(seed ^ 0x1a6e57);
    let mut stats = LoadStats::default();
    let mut left = spec.ingest_records;
    while left > 0 {
        let n = left.min(BATCH);
        let Data::Kv(model) = &mut world.data else {
            return Err("the ingest phase needs a key-value dataset".to_string());
        };
        let batch: Vec<_> = (0..n)
            .map(|_| {
                let rank = if rng.gen_ratio(spec.ingest_update_per_mille, 1000) {
                    rng.gen_range(0..model.len())
                } else {
                    model.len()
                };
                model.next_put(rank)
            })
            .collect();
        let (report, ns) = tracer.span("cluster.session_ingest", n as u64, |_| {
            session.ingest(&mut world.cluster, batch)
        });
        tally.record_many("ingest", n as u64, report.is_ok());
        if let Ok(r) = report {
            stats.sim_s += r.elapsed.as_secs_f64();
        }
        stats.records += n as u64;
        stats.call_ns.push(ns);
        left -= n;
    }
    Ok(stats)
}

/// What a lap leaves behind for the counters that are read once, after the
/// last lap.
struct LapEnd {
    world: World,
    clients: Clients,
    scanner: Session,
    steps: Vec<StepTimes>,
    /// Counters of the partitions the scale-in removed.
    retired: MetricsSnapshot,
    load: LoadStats,
    query_wall_s: f64,
    query_sim_s: f64,
    /// Entries the scan pair returned.
    scanned: u64,
}

/// One lap: the whole experiment once, on a freshly built cluster.
fn lap(
    spec: &Spec,
    seed: u64,
    tracer: &mut Tracer,
    tally: &mut Tally,
    laps: &mut Laps,
) -> Result<LapEnd, String> {
    // ---- set-up, and on `ingest_heavy` the timed ingest phase on top.
    let (built, ns) = tracer.span("phase.setup", 1, |t| {
        World::build(spec.data, spec.max_bucket_bytes, seed, t)
    });
    let (mut world, mut load) = built?;
    laps.setup_s.push(ns / 1e9);
    tally.record_many("load", load.records, true);
    if spec.ingest_records > 0 {
        load = tracer
            .span("phase.ingest", 0, |t| {
                ingest_phase(spec, seed, &mut world, t, tally)
            })
            .0?;
    }
    for ns in &load.call_ns {
        laps.ingest.record(*ns);
    }

    let mut clients = Clients::open(&world, spec, seed ^ 0x0b5)?;
    let mut scanner = world
        .cluster
        .session(world.ops_dataset)
        .map_err(|e| e.to_string())?;

    // ---- scans: one unordered and one ordered full scan per pass.
    let mut scanned = 0;
    for _ in 0..spec.read_passes {
        let ((entries, ok), _) = tracer.span("phase.scans", 0, |t| {
            scan_pair(&world, &mut scanner, &mut laps.scan, t)
        });
        laps.scan.end_pass();
        tally.record_many("scan", 2, ok);
        scanned = entries;
    }

    // ---- query suite on the cluster as loaded.
    let (mut query_wall_s, mut query_sim_s) = (0.0, 0.0);
    for _ in 0..spec.read_passes {
        let ((wall_s, sim_s, ok), _) = tracer.span("phase.queries", 0, |t| {
            query_pass(&mut world, &mut laps.query, t)
        });
        laps.query.end_pass();
        tally.record("query suite", ok);
        (query_wall_s, query_sim_s) = (wall_s, sim_s);
    }

    // ---- one rebalance cycle: a step away from four nodes, the query suite
    // on the rebalanced cluster, and the step back. Operations in flight (if
    // the workload has them) are this lap's latency samples.
    let mut steps = Vec::new();
    let mut retired = MetricsSnapshot::default();
    for half in 0..2 {
        let grow = (half == 0) == spec.scale_out_first;
        let victim = NodeId(world.cluster.topology().num_nodes() as u32 - 1);
        let target = if grow {
            let (added, _) = tracer.span("cluster.add_node", 1, |_| world.cluster.add_node());
            tally.record("add node", added.is_ok());
            world.cluster.topology().clone()
        } else {
            world.cluster.topology_without(victim)
        };
        let (step, _) = tracer.span("phase.rebalance", 0, |t| {
            rebalance_to(&mut world, &target, spec, &mut clients, laps, tally, t)
        });
        steps.push(step);
        if !grow {
            let leaving = world.cluster.topology().partitions_of_node(victim);
            add_storage_totals(&mut world.cluster, &leaving, &mut retired);
            let (gone, _) = tracer.span("cluster.decommission", 1, |_| {
                world.cluster.decommission_node(victim)
            });
            tally.record("decommission", gone.is_ok());
        }
        if half == 0 {
            // Deferred secondary-index rebuilds are paid here, so the pass
            // below times a warmed, rebalanced cluster.
            for ds in world.datasets.clone() {
                let (warmed, _) = tracer.span("cluster.warm_indexes", 1, |_| {
                    world.cluster.admin().warm_indexes(ds)
                });
                tally.record("warm indexes", warmed.is_ok());
            }
            for _ in 0..spec.read_passes {
                let ((_, _, ok), _) = tracer.span("phase.queries_rebalanced", 0, |t| {
                    query_pass(&mut world, &mut laps.query_rebalanced, t)
                });
                laps.query_rebalanced.end_pass();
                tally.record("query suite, rebalanced", ok);
            }
        }
    }
    // Part of no metric: after the cycle every record must sit where its key
    // routes, with directories and the metadata log in agreement.
    let (ok, _) = tracer.span("cluster.consistency_check", 1, |_| {
        steps.last().is_some_and(|s| {
            s.jobs
                .iter()
                .all(|(ds, id)| world.cluster.check_rebalance_integrity(*ds, *id).is_ok())
        })
    });
    tally.record("integrity check", ok);

    // ---- point operations on the cluster the cycle left behind.
    if spec.point_ops > 0 {
        tracer.span("phase.point_ops", 0, |t| {
            clients.run(&mut world, spec.point_ops, &mut laps.ops, tally, t)
        });
    }
    // ---- every live record, in its current version.
    let ok = scanner
        .scan(&world.cluster, ScanOrder::Unordered)
        .map(|parts| {
            let all: Vec<Entry> = parts.into_iter().flat_map(|(_, e)| e).collect();
            world.check_scan(&all)
        })
        .unwrap_or(false);
    tally.record("final scan", ok);

    // ---- a lap that ran other steps than the first is no replica of it.
    let replica = laps.series().into_iter().fold(true, |same, (_, series)| {
        series.end_pass();
        same && !series.diverged()
    });
    tally.record("lap replays the first", replica);

    Ok(LapEnd {
        world,
        clients,
        scanner,
        steps,
        retired,
        load,
        query_wall_s,
        query_sim_s,
        scanned,
    })
}

fn run_phases(
    spec: &Spec,
    seed: u64,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut laps = Laps::default();
    let mut last: Option<LapEnd> = None;
    let mut first_span_of_last_lap = 0;
    for _ in 0..spec.laps {
        // Free the previous cluster first, so that laps do not add up in
        // peak_rss_mb.
        drop(last.take());
        first_span_of_last_lap = tracer.spans().len();
        last = Some(lap(spec, seed, tracer, &mut out.tally, &mut laps)?);
    }
    let LapEnd {
        mut world,
        clients,
        scanner,
        steps,
        retired,
        load,
        query_wall_s,
        query_sim_s,
        scanned,
    } = last.ok_or("no lap ran")?;

    // ---- every metric from the least time each of its steps took in any
    // pass (set-up: the median lap). Throughputs are totals over a lap's whole
    // stream, because flush and merge cost is amortised over it.
    let per_s = |count: u64, series: &Series| count as f64 / (series.least_total_ns() / 1e9);
    let (gets, puts) = (laps.ops.get.len(), laps.ops.put.len());
    for (name, value) in [
        ("setup_s", median(&laps.setup_s)),
        ("ingest_records_per_s", per_s(load.records, &laps.ingest)),
        ("scan_records_per_s", per_s(scanned, &laps.scan)),
        ("get_ops_per_s", per_s(gets as u64, &laps.ops.get)),
        ("query_suite_s", laps.query.least_total_ns() / 1e9),
        (
            "query_suite_rebalanced_s",
            laps.query_rebalanced.least_total_ns() / 1e9,
        ),
        ("rebalance_cycle_s", laps.job.least_total_ns() / 1e9),
        (
            "write_blocked_ms",
            laps.blocked.least_total_ns() / steps.len() as f64 / 1e6,
        ),
        ("get_p50_us", laps.ops.get.percentile_us(0.50)),
        ("get_p99_us", laps.ops.get.percentile_us(0.99)),
        ("put_p50_us", laps.ops.put.percentile_us(0.50)),
        ("put_p99_us", laps.ops.put.percentile_us(0.99)),
    ] {
        out.end_to_end.insert(name, value);
    }
    let moved: Vec<f64> = steps.iter().map(|s| s.moved_fraction).collect();
    out.end_to_end.insert("moved_fraction", mean(&moved));
    out.layer
        .insert("lsm.put_stall_p999_us", laps.ops.put.percentile_us(0.999));
    out.notes.push(format!(
        "{} laps; per lap: {} records ingested, {gets} gets and {puts} puts ({} and {} samples beyond p99){}",
        spec.laps,
        load.records,
        gets / 100,
        puts / 100,
        if spec.in_flight_ops > 0 {
            ", all issued while a rebalance was in flight"
        } else {
            ""
        }
    ));
    let listed = |values: &[f64]| -> String {
        let v: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
        v.join(" ")
    };
    out.notes
        .push(format!("set-up, s per lap: {}", listed(&laps.setup_s)));
    for (what, series) in laps.series() {
        let pass_s: Vec<f64> = series.pass_totals_ns().iter().map(|ns| ns / 1e9).collect();
        out.notes.push(format!(
            "{what}: {} steps, least times sum to {:.4} s; s per pass: {}",
            series.len(),
            series.least_total_ns() / 1e9,
            listed(&pass_s)
        ));
        if (2..=QUERY_SPANS.len()).contains(&series.len()) {
            let ms: Vec<f64> = series.least_ns().iter().map(|ns| ns / 1e6).collect();
            out.notes
                .push(format!("{what}: least ms per step: {}", listed(&ms)));
        }
    }

    // ---- amplification and the other counters, read once from the last lap
    // (every lap replays the same operations, so they agree).
    let live_partitions = world.cluster.topology().partitions();
    let mut totals = retired;
    add_storage_totals(&mut world.cluster, &live_partitions, &mut totals);
    let (storage_bytes, components_per_tree) = storage_shape(&mut world.cluster, world.ops_dataset);
    let (written, live) = match &world.data {
        Data::Kv(m) => (m.user_bytes_written, m.live_user_bytes()),
        Data::Tpch(m) => {
            let live = scanned_user_bytes(&world);
            (live + m.user_bytes_written, live)
        }
    };
    out.end_to_end.insert(
        "write_amp",
        (totals.bytes_flushed + totals.bytes_merged) as f64 / written as f64,
    );
    out.end_to_end
        .insert("space_amp", storage_bytes as f64 / live as f64);

    let (mut redirects, mut deltas, mut fulls) = (0u64, 0u64, 0u64);
    for s in clients.sessions.iter().chain([&scanner]) {
        let m = s.metrics();
        redirects += m.redirects;
        deltas += m.delta_refreshes;
        fulls += m.full_refreshes;
    }
    let step_count = steps.len().max(1) as f64;
    let job_wall_s: f64 = steps.iter().map(|s| s.job_ns).sum::<f64>() / 1e9;
    let wave_s: f64 = steps.iter().map(|s| s.wave_ns).sum::<f64>() / 1e9;
    let bytes_shipped: u64 = steps.iter().map(|s| s.bytes_shipped).sum();
    let batch_ms: Vec<f64> = tracer.spans()[first_span_of_last_lap..]
        .iter()
        .filter(|s| s.name == "cluster.session_ingest")
        .map(|s| s.dur_ns as f64 / 1e6)
        .collect();
    for (name, v) in [
        ("lsm.flush_count", totals.flush_count as f64),
        ("lsm.merge_count", totals.merge_count as f64),
        ("lsm.split_count", totals.split_count as f64),
        ("lsm.bytes_flushed", totals.bytes_flushed as f64),
        ("lsm.bytes_merged", totals.bytes_merged as f64),
        (
            "lsm.bytes_rebalance_shipped",
            totals.bytes_rebalance_shipped as f64,
        ),
        ("lsm.components_shipped", totals.components_shipped as f64),
        ("lsm.components_per_tree", components_per_tree),
        ("cluster.ingest_batch_p50_ms", median(&batch_ms)),
        (
            "cluster.ingest_batch_max_ms",
            batch_ms.iter().copied().fold(0.0, f64::max),
        ),
        ("cluster.session_redirects", redirects as f64),
        ("cluster.session_delta_refreshes", deltas as f64),
        ("cluster.session_full_refreshes", fulls as f64),
        (
            "cluster.job_waves",
            steps.iter().map(|s| s.waves).sum::<u64>() as f64 / step_count,
        ),
        (
            "cluster.job_bytes_shipped",
            bytes_shipped as f64 / step_count,
        ),
        ("cluster.ship_mb_per_s", bytes_shipped as f64 / 1e6 / wave_s),
        ("cluster.rebalance_tables_s", job_wall_s / step_count),
        ("cluster.sim_over_wall_ingest", load.sim_s / load.ingest_s()),
        (
            "cluster.sim_over_wall_rebalance",
            steps.iter().map(|s| s.sim_s).sum::<f64>() / job_wall_s,
        ),
        ("cluster.sim_over_wall_query", query_sim_s / query_wall_s),
    ] {
        out.layer.insert(name, v);
    }
    if matches!(world.data, Data::Tpch(_)) {
        out.layer
            .insert("tpch.load_records_per_s", per_s(load.records, &laps.ingest));
    }

    out.phases_s = tracer.now_s();
    if tracer.enabled() {
        crate::probe::run(&mut world, spec, seed, tracer, out);
    }
    out.end_to_end.insert("peak_rss_mb", peak_rss_mb());
    Ok(())
}
