//! Declarative scenario scripts and the seeded soak driver.
//!
//! A [`Scenario`] is a list of [`ScenarioOp`]s — Zipfian-skewed ingest
//! bursts, mixed point/range/index query batches, node churn (add/remove
//! under sustained session-driven feeds, with crash injection between
//! rebalance waves), churn storms, and index warming — executed against a
//! multi-dataset cluster by a deterministic, seeded runner. The runner keeps
//! a `BTreeMap` model of every dataset and checks invariants *continuously*
//! between ops:
//!
//! * the CC directory covers the hash space and agrees with itself
//!   ([`Admin::check_directory_invariants`], cheap enough for every step);
//! * sampled reads through long-lived, possibly-stale sessions match the
//!   model (the redirect protocol must converge them transparently);
//! * a fresh session never sees a redirect;
//!
//! and, at every churn boundary and at the end of the run, the heavyweight
//! passes: `check_rebalance_integrity` for every finished job,
//! `check_dataset_consistency`, exact live-record counts, bounded redirect
//! counts for the stale sessions, and a byte-for-byte scan-vs-model
//! comparison. Any violation stops the run; the [`SoakReport`] carries the
//! seed and the executed op trace so the exact failure is replayable —
//! `run_soak` with the same [`SoakConfig`] regenerates the same script and
//! the same interleaving.
//!
//! [`Admin::check_directory_invariants`]: dynahash_cluster::Admin::check_directory_invariants

use std::collections::BTreeMap;

use dynahash_cluster::{
    Cluster, ClusterConfig, ClusterError, ControlConfig, ControlDecision, ControlPlane, CostModel,
    DatasetSpec, Event, Fault, FaultSchedule, RebalanceJob, SecondaryIndexDef, Session, StepPoint,
};
use dynahash_core::{NodeId, RebalanceOutcome, Scheme};
use dynahash_lsm::entry::Key;
use dynahash_lsm::rng::{scramble, SplitMix64, Zipfian};
use dynahash_lsm::Bytes;

// ------------------------------------------------------------ key shaping

/// Distribution of key *ranks* over the key universe.
#[derive(Debug, Clone, Copy)]
pub enum KeyDist {
    /// Every key equally likely.
    Uniform,
    /// Zipfian with exponent `s` (rank 1 is the hottest key).
    Zipfian {
        /// Skew exponent; the paper-style skewed workloads use ≈ 1.1.
        s: f64,
    },
}

/// Draws keys from a bounded universe under a configurable rank
/// distribution, optionally scrambling ranks through the SplitMix64
/// finalizer so hot keys spread over the whole hash space instead of
/// clustering in low buckets.
#[derive(Debug)]
pub struct KeyGen {
    universe: u64,
    zipf: Option<Zipfian>,
    scrambled: bool,
}

impl KeyGen {
    /// A generator over `universe` distinct keys.
    pub fn new(universe: u64, dist: KeyDist, scrambled: bool) -> Self {
        let zipf = match dist {
            KeyDist::Uniform => None,
            KeyDist::Zipfian { s } => Some(Zipfian::new(universe, s)),
        };
        KeyGen {
            universe,
            zipf,
            scrambled,
        }
    }

    /// Draws one key. The mapping from rank to key is fixed, so the hot set
    /// is stable across the whole run.
    pub fn draw(&self, rng: &mut SplitMix64) -> u64 {
        let rank = match &self.zipf {
            Some(z) => z.sample(rng) - 1,
            None => rng.gen_range(0..self.universe),
        };
        if self.scrambled {
            scramble(rank)
        } else {
            rank
        }
    }
}

// -------------------------------------------------------------- scenarios

/// One declarative step of a scenario script.
#[derive(Debug, Clone)]
pub enum ScenarioOp {
    /// Ingest `records` freshly drawn keys into dataset `dataset` through
    /// its long-lived session (overwrites bump the record version).
    Ingest {
        /// Index into the runner's dataset list.
        dataset: usize,
        /// Records to ingest.
        records: u64,
    },
    /// A batch of mixed operations against dataset `dataset`: point reads
    /// checked against the model, single puts with read-your-writes,
    /// deletes, and bounded secondary-index range scans.
    Queries {
        /// Index into the runner's dataset list.
        dataset: usize,
        /// Operations in the batch.
        ops: u64,
    },
    /// One churn event: grow when at/below the configured base size, shrink
    /// otherwise. Every dataset is rebalanced by its own concurrent
    /// [`RebalanceJob`], waves interleaved round-robin, with session-driven
    /// feeds of `feed` records per dataset between waves and a seeded
    /// [`FaultSchedule`] injected mid-movement (a crash + recovery, or — in
    /// chaos mode on grow events — the permanent loss of the node just
    /// added, re-planned onto the survivors).
    Churn {
        /// Max concurrent bucket moves per rebalance wave.
        max_moves: usize,
        /// Records fed per dataset between waves (plain `Session::ingest`).
        feed: u64,
    },
    /// `rounds` back-to-back [`ScenarioOp::Churn`] events.
    ChurnStorm {
        /// Consecutive churn events.
        rounds: usize,
        /// Max concurrent bucket moves per rebalance wave.
        max_moves: usize,
        /// Records fed per dataset between waves of each event.
        feed: u64,
    },
    /// Explicit grow step for hand-written scripts; skipped (and traced as
    /// skipped) when the cluster is already at the configured ceiling.
    AddNode {
        /// Max concurrent bucket moves per rebalance wave.
        max_moves: usize,
    },
    /// Explicit shrink step; skipped at the two-node floor.
    RemoveNode {
        /// Max concurrent bucket moves per rebalance wave.
        max_moves: usize,
    },
    /// Materialize every deferred secondary rebuild of the indexed dataset
    /// ([`Admin::warm_indexes`](dynahash_cluster::Admin::warm_indexes)).
    WarmIndexes,
    /// Crash a seeded-random node, verify it is down, then
    /// `recover_all_nodes` and check reads still match the model.
    CrashRecover,
    /// A sustained hotspot: `rounds` rounds of `ops` Zipfian-hot point
    /// queries against a tiny fixed key set (so the heat lands on a few
    /// buckets), each round followed by one armed-[`ControlPlane`] tick.
    /// The plane is then ticked until it goes idle, so every auto-triggered
    /// split and migration finishes — and is integrity-checked — before the
    /// script moves on. A no-op when [`SoakConfig::control`] is off.
    Hotspot {
        /// Index into the runner's dataset list.
        dataset: usize,
        /// Hot queries per round.
        ops: u64,
        /// Query rounds (each followed by a control tick).
        rounds: u64,
    },
}

/// A named, declarative scenario script.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Name used in traces and reports.
    pub name: String,
    /// The ops, executed in order with continuous invariant checks between
    /// them.
    pub ops: Vec<ScenarioOp>,
}

impl Scenario {
    /// Creates a named script.
    pub fn new(name: impl Into<String>, ops: Vec<ScenarioOp>) -> Self {
        Scenario {
            name: name.into(),
            ops,
        }
    }
}

// ------------------------------------------------------------------ config

/// Knobs of a soak run. Everything — script generation and execution — is a
/// pure function of this struct, so a failing run is replayed by rerunning
/// with the same config.
#[derive(Debug, Clone, Copy)]
pub struct SoakConfig {
    /// Master seed; drives script generation and every random choice of the
    /// runner.
    pub seed: u64,
    /// Starting (and churn-equilibrium) node count.
    pub nodes: u32,
    /// Hard ceiling on nodes during churn storms.
    pub max_nodes: u32,
    /// Storage partitions per node.
    pub partitions_per_node: u32,
    /// Number of datasets (dataset 0 carries a secondary index).
    pub datasets: usize,
    /// Distinct keys in the generator's universe.
    pub key_universe: u64,
    /// Total records ingested across the run (spread over the ingest ops).
    pub target_ingest: u64,
    /// Zipfian exponent of the ingest workload.
    pub zipf_s: f64,
    /// Script length in ops.
    pub steps: usize,
    /// Churn events placed (evenly spaced) in the script. Churn never
    /// skips, so this is also a lower bound on events executed.
    pub churn_events: usize,
    /// Value payload size in bytes (min 16: key + version header).
    pub value_bytes: usize,
    /// Operations per [`ScenarioOp::Queries`] batch.
    pub queries_per_step: u64,
    /// Sampled model reads in each continuous check.
    pub sample_reads: usize,
    /// Max concurrent bucket moves per rebalance wave.
    pub max_moves: usize,
    /// DynaHash max bucket size in bytes.
    pub max_bucket_bytes: u64,
    /// Chaos mode: every churn event additionally injects seeded transient
    /// ship failures (absorbed by retry) and a seeded slow node (absorbed by
    /// straggler speculation), and grow events permanently lose a node
    /// mid-movement — alternating between the node just added (a pure
    /// destination, re-planned with zero data loss) and an **established**
    /// data-holding node, whose sole bucket copies die with it: the dataset
    /// serves degraded (typed errors, never silent emptiness) until the
    /// runner repairs it from its model snapshot — through the armed
    /// [`ControlPlane`]'s registered repair feed when [`SoakConfig::control`]
    /// is on, directly otherwise. Fault decisions come from the scenario
    /// rng, so `seed` replays them exactly.
    pub chaos: bool,
    /// Arms heat tracking and a [`ControlPlane`], and places
    /// [`ScenarioOp::Hotspot`] events in the script: Zipfian query heat on
    /// a few buckets must auto-trigger splits and migrations that converge
    /// before the script moves on.
    pub control: bool,
}

impl SoakConfig {
    /// The CI quick profile: ≥ 1M records over a million-key universe on 12
    /// nodes, Zipfian s = 1.1, 4 churn events. Runs in seconds in release.
    pub fn quick(seed: u64) -> Self {
        SoakConfig {
            seed,
            nodes: 12,
            max_nodes: 15,
            partitions_per_node: 2,
            datasets: 2,
            key_universe: 1 << 20,
            target_ingest: 1_050_000,
            zipf_s: 1.1,
            steps: 36,
            churn_events: 4,
            value_bytes: 16,
            queries_per_step: 300,
            sample_reads: 16,
            max_moves: 8,
            max_bucket_bytes: 64 * 1024,
            chaos: false,
            control: true,
        }
    }

    /// A bounded profile for integration tests (debug builds).
    pub fn smoke(seed: u64) -> Self {
        SoakConfig {
            seed,
            nodes: 4,
            max_nodes: 6,
            partitions_per_node: 2,
            datasets: 2,
            key_universe: 1 << 14,
            target_ingest: 24_000,
            zipf_s: 1.1,
            steps: 10,
            churn_events: 2,
            value_bytes: 16,
            queries_per_step: 120,
            sample_reads: 8,
            max_moves: 4,
            max_bucket_bytes: 32 * 1024,
            chaos: false,
            control: false,
        }
    }

    /// The full nightly profile: a larger fleet and several million
    /// records. Not wired into CI's required path — run manually via
    /// `cargo run --release --bin soak -- --full`.
    pub fn full(seed: u64) -> Self {
        SoakConfig {
            seed,
            nodes: 16,
            max_nodes: 20,
            partitions_per_node: 4,
            datasets: 3,
            key_universe: 1 << 22,
            target_ingest: 4_000_000,
            zipf_s: 1.1,
            steps: 80,
            churn_events: 10,
            value_bytes: 32,
            queries_per_step: 1_000,
            sample_reads: 32,
            max_moves: 12,
            max_bucket_bytes: 256 * 1024,
            chaos: false,
            control: true,
        }
    }

    fn value_len(&self) -> usize {
        self.value_bytes.max(16)
    }
}

// ------------------------------------------------------------------ report

/// Outcome of a soak run.
#[derive(Debug, Default)]
pub struct SoakReport {
    /// The seed the run (and its generated script) derives from.
    pub seed: u64,
    /// Ops executed before the run ended (== script length on success).
    pub steps_run: usize,
    /// Records ingested across all datasets (ingest ops + churn feeds).
    pub records_ingested: u64,
    /// Live records at the end of the run, summed over datasets.
    pub live_records: u64,
    /// Point/put/delete/index operations executed by query batches.
    pub queries_run: u64,
    /// Deletes applied (subset of `queries_run`).
    pub deletes: u64,
    /// Churn events executed (each rebalances every dataset concurrently).
    pub churn_events: usize,
    /// Rebalance jobs committed (churn events × datasets).
    pub rebalances: usize,
    /// Node crashes injected (all recovered).
    pub crashes: usize,
    /// Transient ship failures injected by the fault plane (chaos mode).
    pub transient_faults: u64,
    /// Transfer attempts retried after a transient failure (every injected
    /// transient must be absorbed by a retry, never an abort).
    pub fault_retries: u64,
    /// Bucket moves rerouted or canceled by `replan_wave` after a loss.
    pub reroutes: u64,
    /// Buckets re-shipped from live sources after losing their first
    /// destination.
    pub reshipped: u64,
    /// Nodes permanently lost (and re-planned around) during the run.
    pub lost_nodes: usize,
    /// Established (data-holding) nodes among the losses: each one degraded
    /// a dataset until its repair.
    pub established_losses: usize,
    /// Transfers speculatively re-executed as stragglers under a slow-node
    /// fault.
    pub speculated: u64,
    /// Speculative backups that beat their original attempt.
    pub speculation_wins: u64,
    /// Repair jobs committed (one per dataset degraded by an established
    /// loss).
    pub repairs: u64,
    /// Lost buckets restored from model-snapshot repair feeds.
    pub repaired_buckets: u64,
    /// Reads that hit a lost bucket during a degraded window and got the
    /// typed error (never silently-empty data).
    pub degraded_reads: u64,
    /// Writes refused because they routed to a lost bucket (kept out of the
    /// model, so the repair feed stays byte-exact).
    pub degraded_writes: u64,
    /// Buckets still degraded at the end of the run, one line per dataset
    /// (`dataset N: [ids]`). Empty on a clean run — every loss repaired.
    pub degraded: Vec<String>,
    /// Total redirects absorbed by the long-lived sessions.
    pub redirects: u64,
    /// Node count at the end of the run.
    pub final_nodes: u32,
    /// Rebalances auto-triggered by the armed control plane.
    pub auto_triggers: u64,
    /// Auto-triggered rebalances that committed.
    pub auto_commits: u64,
    /// Hot buckets split by the control plane's heat budget.
    pub hot_splits: u64,
    /// Control-plane decisions suppressed by hysteresis or cooldown.
    pub suppressed: u64,
    /// Every control-plane decision of the run, oldest first (empty when
    /// the plane is disarmed).
    pub control_decisions: Vec<String>,
    /// The jobs still in flight at the end of the run (a clean run drives
    /// every job to finalize, so this is normally empty; on failure it shows
    /// exactly how far the interrupted job got).
    pub jobs: Vec<String>,
    /// Executed-op trace (one line per op), for failure replay.
    pub trace: Vec<String>,
    /// Invariant violations; empty on a clean run. The first entry carries
    /// the failing step's context.
    pub violations: Vec<String>,
}

impl SoakReport {
    /// True when the run completed with zero invariant violations.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// A replay banner: the seed plus the executed op trace.
    pub fn failure_banner(&self) -> String {
        let mut out = format!("soak seed {:#x} — executed ops:\n", self.seed);
        for line in &self.trace {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
        for j in &self.jobs {
            out.push_str("job in flight: ");
            out.push_str(j);
            out.push('\n');
        }
        for d in &self.control_decisions {
            out.push_str("control: ");
            out.push_str(d);
            out.push('\n');
        }
        for d in &self.degraded {
            out.push_str("still degraded: ");
            out.push_str(d);
            out.push('\n');
        }
        for v in &self.violations {
            out.push_str("violation: ");
            out.push_str(v);
            out.push('\n');
        }
        out
    }
}

// ------------------------------------------------------- script generation

/// Generates the seeded soak script for `cfg`: one warm-up ingest per
/// dataset, churn events evenly spaced (one of them a two-round storm),
/// and the remaining slots filled with ingest bursts, query batches, index
/// warming, and crash/recover drills. The total ingest volume is spread so
/// the run lands on `cfg.target_ingest`.
pub fn generate_scenario(cfg: &SoakConfig) -> Scenario {
    let mut rng = SplitMix64::seed_from_u64(cfg.seed ^ 0x5ce2_a210);
    let mut ops: Vec<ScenarioOp> = Vec::new();
    let steps = cfg.steps.max(cfg.datasets + cfg.churn_events + 2);

    // Churn positions: evenly spaced through the body of the script,
    // leaving room for the warm-up ingests in front.
    let first = cfg.datasets + 1;
    let span = steps.saturating_sub(first).max(1);
    let mut churn_at: Vec<usize> = (0..cfg.churn_events)
        .map(|j| first + j * span / cfg.churn_events.max(1))
        .collect();
    churn_at.dedup();

    for d in 0..cfg.datasets {
        ops.push(ScenarioOp::Ingest {
            dataset: d,
            records: 0, // sized below
        });
    }
    while ops.len() < steps {
        let i = ops.len();
        if let Some(j) = churn_at.iter().position(|&p| p == i) {
            // one event in the middle of the run is a storm
            if j == cfg.churn_events / 2 && cfg.churn_events > 1 {
                ops.push(ScenarioOp::ChurnStorm {
                    rounds: 2,
                    max_moves: cfg.max_moves,
                    feed: cfg.target_ingest / (steps as u64 * 8).max(1),
                });
            } else {
                ops.push(ScenarioOp::Churn {
                    max_moves: cfg.max_moves,
                    feed: cfg.target_ingest / (steps as u64 * 8).max(1),
                });
            }
            continue;
        }
        let d = rng.gen_range(0..cfg.datasets as u64) as usize;
        match rng.gen_range(0..10) {
            0..=4 => ops.push(ScenarioOp::Ingest {
                dataset: d,
                records: 0,
            }),
            5..=7 => ops.push(ScenarioOp::Queries {
                dataset: d,
                ops: cfg.queries_per_step,
            }),
            8 => ops.push(ScenarioOp::WarmIndexes),
            _ => ops.push(ScenarioOp::CrashRecover),
        }
    }

    // Collapsed churn positions (possible on very short scripts) are made
    // up at the tail so the configured event count always executes.
    let scripted: usize = ops
        .iter()
        .map(|op| match op {
            ScenarioOp::Churn { .. } => 1,
            ScenarioOp::ChurnStorm { rounds, .. } => *rounds,
            _ => 0,
        })
        .sum();
    for _ in scripted..cfg.churn_events {
        ops.push(ScenarioOp::Churn {
            max_moves: cfg.max_moves,
            feed: 0,
        });
    }

    // Spread the ingest target over the ingest slots (churn feeds are
    // bonus volume on top).
    let slots: Vec<usize> = ops
        .iter()
        .enumerate()
        .filter_map(|(i, op)| matches!(op, ScenarioOp::Ingest { .. }).then_some(i))
        .collect();
    let per = cfg.target_ingest / slots.len() as u64;
    let mut rem = cfg.target_ingest - per * slots.len() as u64;
    for i in slots {
        if let ScenarioOp::Ingest { records, .. } = &mut ops[i] {
            *records = per + rem;
            rem = 0;
        }
    }

    // Hotspot events are spliced in at fixed fractions of the finished
    // script *after* the rng-driven body is generated, so flipping
    // `cfg.control` never perturbs which ops the seed draws — the control
    // run is the base run plus hotspots, nothing reshuffled.
    if cfg.control {
        let rounds = 8;
        let per_round = (cfg.queries_per_step * 8).max(256);
        for (i, frac) in [(1usize, 3usize), (2, 3)].iter().enumerate() {
            let at = (ops.len() * frac.0 / frac.1).max(cfg.datasets + 1) + i;
            let at = at.min(ops.len());
            ops.insert(
                at,
                ScenarioOp::Hotspot {
                    dataset: 0,
                    ops: per_round,
                    rounds,
                },
            );
        }
    }

    Scenario::new(format!("soak-{:#x}", cfg.seed), ops)
}

// ---------------------------------------------------------------- runner

struct DatasetState {
    id: u32,
    /// key → latest version written; the ground truth every read is
    /// checked against.
    model: BTreeMap<u64, u64>,
}

struct Runner<'a> {
    cfg: &'a SoakConfig,
    cluster: Cluster,
    datasets: Vec<DatasetState>,
    /// One long-lived session per dataset; only ever refreshed by the
    /// redirect protocol itself, so it goes stale across every churn event.
    sessions: Vec<Session>,
    keygen: KeyGen,
    rng: SplitMix64,
    version: u64,
    ingested: u64,
    queries: u64,
    deletes: u64,
    churn: usize,
    rebalances: usize,
    crashes: usize,
    /// Chaos grow events seen so far; the loss alternates deterministically
    /// between the freshly added node (even counts) and an established
    /// data-holding node (odd counts).
    chaos_grows: usize,
    established_losses: usize,
    repairs: u64,
    degraded_reads: u64,
    degraded_writes: u64,
    /// The armed control plane (None when `cfg.control` is off). Only
    /// ticked inside [`ScenarioOp::Hotspot`] and the post-loss repair
    /// drain, so auto-triggered jobs never overlap the churn events'
    /// hand-driven ones.
    plane: Option<ControlPlane>,
}

/// The secondary index of dataset 0: record version, big-endian, taken from
/// the value header.
const VERSION_INDEX: &str = "by_version";

fn value_for(key: u64, version: u64, len: usize) -> Bytes {
    let mut v = Vec::with_capacity(len);
    v.extend_from_slice(&key.to_be_bytes());
    v.extend_from_slice(&version.to_be_bytes());
    v.resize(len, (key % 251) as u8);
    Bytes::from(v)
}

fn version_key(version: u64) -> Key {
    Key::from_slice(&version.to_be_bytes())
}

type StepResult = Result<(), String>;

impl<'a> Runner<'a> {
    fn new(cfg: &'a SoakConfig) -> Result<Self, String> {
        let mut cluster = Cluster::with_config(
            cfg.nodes,
            ClusterConfig {
                partitions_per_node: cfg.partitions_per_node,
                cost_model: CostModel::default(),
            },
        );
        let partitions = cfg.nodes * cfg.partitions_per_node;
        let mut datasets = Vec::new();
        let mut sessions = Vec::new();
        for d in 0..cfg.datasets {
            let mut spec = DatasetSpec::new(
                format!("soak_{d}"),
                Scheme::dynahash(cfg.max_bucket_bytes, partitions),
            );
            if d == 0 {
                spec = spec.with_secondary_index(SecondaryIndexDef::new(VERSION_INDEX, |v| {
                    v.get(8..16).map(Key::from_slice)
                }));
            }
            let id = cluster
                .create_dataset(spec)
                .map_err(|e| format!("create_dataset {d}: {e}"))?;
            sessions.push(
                cluster
                    .session(id)
                    .map_err(|e| format!("session {d}: {e}"))?,
            );
            datasets.push(DatasetState {
                id,
                model: BTreeMap::new(),
            });
        }
        let plane = if cfg.control {
            cluster.set_heat_tracking(true);
            // Reads weigh heavily so a query hotspot trips the threshold
            // even on partitions already carrying real data.
            Some(ControlPlane::new(ControlConfig {
                imbalance_threshold: 0.10,
                op_weight_bytes: 4096,
                hot_bucket_ops: 256,
                ..ControlConfig::default()
            }))
        } else {
            None
        };
        Ok(Runner {
            keygen: KeyGen::new(cfg.key_universe, KeyDist::Zipfian { s: cfg.zipf_s }, true),
            rng: SplitMix64::seed_from_u64(cfg.seed ^ 0x50a4_0001),
            cfg,
            cluster,
            datasets,
            sessions,
            version: 0,
            ingested: 0,
            queries: 0,
            deletes: 0,
            churn: 0,
            rebalances: 0,
            crashes: 0,
            chaos_grows: 0,
            established_losses: 0,
            repairs: 0,
            degraded_reads: 0,
            degraded_writes: 0,
            plane,
        })
    }

    // ------------------------------------------------------------- ops

    fn exec(&mut self, op: &ScenarioOp) -> StepResult {
        match op {
            ScenarioOp::Ingest { dataset, records } => self.op_ingest(*dataset, *records),
            ScenarioOp::Queries { dataset, ops } => self.op_queries(*dataset, *ops),
            ScenarioOp::Churn { max_moves, feed } => self.churn_event(None, *max_moves, *feed),
            ScenarioOp::ChurnStorm {
                rounds,
                max_moves,
                feed,
            } => {
                for _ in 0..*rounds {
                    self.churn_event(None, *max_moves, *feed)?;
                }
                Ok(())
            }
            ScenarioOp::AddNode { max_moves } => {
                if self.cluster.topology().num_nodes() >= self.cfg.max_nodes as usize {
                    return Ok(());
                }
                self.churn_event(Some(true), *max_moves, 0)
            }
            ScenarioOp::RemoveNode { max_moves } => {
                if self.cluster.topology().num_nodes() <= 2 {
                    return Ok(());
                }
                self.churn_event(Some(false), *max_moves, 0)
            }
            ScenarioOp::WarmIndexes => {
                let ds = self.datasets[0].id;
                self.cluster
                    .admin()
                    .warm_indexes(ds)
                    .map(|_| ())
                    .map_err(|e| format!("warm_indexes: {e}"))
            }
            ScenarioOp::CrashRecover => self.op_crash_recover(),
            ScenarioOp::Hotspot {
                dataset,
                ops,
                rounds,
            } => self.op_hotspot(*dataset, *ops, *rounds),
        }
    }

    fn op_ingest(&mut self, d: usize, n: u64) -> StepResult {
        let len = self.cfg.value_len();
        let mut batch = Vec::with_capacity(n as usize);
        let mut staged = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let key = self.keygen.draw(&mut self.rng);
            self.version += 1;
            batch.push((Key::from_u64(key), value_for(key, self.version, len)));
            staged.push((key, self.version));
        }
        match self.sessions[d].ingest(&mut self.cluster, batch) {
            Ok(_) => {
                self.datasets[d].model.extend(staged);
                self.ingested += n;
                Ok(())
            }
            Err(e) if self.write_unavailable(d, &e) => {
                // The atomic batch was refused because some records route to
                // buckets a dead node took down — lost ones (typed degraded
                // error) or ones still awaiting relocation off the corpse
                // (NodeDown until the re-planned rebalance commits). Retry
                // record by record so each put's own verdict decides, and
                // keep every refused record out of the model — that
                // exclusion is what keeps the model snapshot byte-exact as
                // a repair feed.
                for (key, version) in staged {
                    let v = value_for(key, version, len);
                    match self.sessions[d].put(&mut self.cluster, Key::from_u64(key), v) {
                        Ok(_) => {
                            self.datasets[d].model.insert(key, version);
                            self.ingested += 1;
                        }
                        Err(e) if self.write_unavailable(d, &e) => self.degraded_writes += 1,
                        Err(e) => {
                            return Err(format!("degraded-window put {key} into dataset {d}: {e}"))
                        }
                    }
                }
                Ok(())
            }
            Err(e) => Err(format!("ingest of {n} into dataset {d}: {e}")),
        }
    }

    /// True when `e` is a refusal writes may legitimately hit while a dead
    /// node's buckets are in flight: the typed degraded error for a lost
    /// bucket, or NodeDown/NodeLost for a bucket still awaiting relocation
    /// off the corpse — and only while some node genuinely is dead.
    /// Anything else stays a violation.
    fn write_unavailable(&self, d: usize, e: &ClusterError) -> bool {
        if self.degraded_hit(d, e) {
            return true;
        }
        let some_node_dead = self
            .cluster
            .topology()
            .nodes()
            .iter()
            .any(|n| !self.cluster.node_is_alive(*n));
        some_node_dead && matches!(e, ClusterError::NodeDown(_) | ClusterError::NodeLost(_))
    }

    /// True when `e` is the typed degraded error for a bucket the fault
    /// stats actually track as lost on dataset `d` — anything else stays a
    /// violation.
    fn degraded_hit(&self, d: usize, e: &ClusterError) -> bool {
        match e {
            ClusterError::BucketDegraded { dataset, bucket } => {
                *dataset == self.datasets[d].id
                    && self
                        .cluster
                        .fault_stats()
                        .degraded_buckets(*dataset)
                        .contains(bucket)
            }
            _ => false,
        }
    }

    fn op_queries(&mut self, d: usize, ops: u64) -> StepResult {
        let len = self.cfg.value_len();
        for _ in 0..ops {
            self.queries += 1;
            match self.rng.gen_range(0..8) {
                // point read, present or absent, against the model; a typed
                // degraded answer for a genuinely lost bucket is correct
                // service, not a violation
                0..=4 => {
                    let key = self.keygen.draw(&mut self.rng);
                    let got = match self.sessions[d].get(&self.cluster, &Key::from_u64(key)) {
                        Ok(got) => got,
                        Err(e) if self.degraded_hit(d, &e) => {
                            self.degraded_reads += 1;
                            continue;
                        }
                        Err(e) => return Err(format!("get {key} on dataset {d}: {e}")),
                    };
                    let want = self.datasets[d]
                        .model
                        .get(&key)
                        .map(|v| value_for(key, *v, len));
                    if got != want {
                        return Err(format!(
                            "dataset {d} key {key}: read {got:?}, model says {want:?}"
                        ));
                    }
                }
                // single put with read-your-writes; a refused degraded write
                // leaves the model untouched so the repair feed stays exact
                5 => {
                    let key = self.keygen.draw(&mut self.rng);
                    self.version += 1;
                    let v = value_for(key, self.version, len);
                    match self.sessions[d].put(&mut self.cluster, Key::from_u64(key), v.clone()) {
                        Ok(_) => {}
                        Err(e) if self.degraded_hit(d, &e) => {
                            self.degraded_writes += 1;
                            continue;
                        }
                        Err(e) => return Err(format!("put {key} on dataset {d}: {e}")),
                    }
                    self.datasets[d].model.insert(key, self.version);
                    self.ingested += 1;
                    let got = self.sessions[d]
                        .get(&self.cluster, &Key::from_u64(key))
                        .map_err(|e| format!("read-back {key} on dataset {d}: {e}"))?;
                    if got.as_ref() != Some(&v) {
                        return Err(format!("dataset {d} lost its own write of key {key}"));
                    }
                }
                // delete, checked against the model; the model entry only
                // goes once the delete actually lands
                6 => {
                    let key = self.keygen.draw(&mut self.rng);
                    let was = self.datasets[d].model.get(&key).copied();
                    let hit = match self.sessions[d].delete(&mut self.cluster, &Key::from_u64(key))
                    {
                        Ok(hit) => hit,
                        Err(e) if self.degraded_hit(d, &e) => {
                            self.degraded_writes += 1;
                            continue;
                        }
                        Err(e) => return Err(format!("delete {key} on dataset {d}: {e}")),
                    };
                    if hit != was.is_some() {
                        return Err(format!(
                            "dataset {d} delete of key {key}: hit={hit}, model had {was:?}"
                        ));
                    }
                    if was.is_some() {
                        self.datasets[d].model.remove(&key);
                        self.deletes += 1;
                    }
                }
                // bounded secondary range scan on the indexed dataset
                _ => {
                    let lo = self.rng.gen_range(0..self.version.max(1));
                    let hi = lo + self.rng.gen_range(1..1_000);
                    let (lo_k, hi_k) = (version_key(lo), version_key(hi));
                    let ds0 = &mut self.sessions[0];
                    let hits = ds0
                        .index_scan(&mut self.cluster, VERSION_INDEX, Some(&lo_k), Some(&hi_k))
                        .map_err(|e| format!("index_scan [{lo},{hi}]: {e}"))?;
                    for (p, entries) in hits {
                        for e in entries {
                            if e.secondary < lo_k || e.secondary > hi_k {
                                return Err(format!(
                                    "index_scan [{lo},{hi}] on {p} returned out-of-range \
                                     secondary {:?}",
                                    e.secondary
                                ));
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn op_crash_recover(&mut self) -> StepResult {
        let nodes = self.cluster.topology().nodes();
        let victim = nodes[self.rng.gen_range(0..nodes.len() as u64) as usize];
        self.cluster
            .crash_node(victim)
            .map_err(|e| format!("crash {victim}: {e}"))?;
        if self.cluster.node_is_alive(victim) {
            return Err(format!("{victim} still alive after crash"));
        }
        self.cluster.recover_all_nodes();
        self.crashes += 1;
        self.sampled_session_reads("after crash/recover")
    }

    /// A sustained query hotspot with the control plane watching: each round
    /// hammers a tiny fixed key set (concentrating read heat on a few
    /// buckets) and then ticks the plane once, so the imbalance is sustained
    /// across the hysteresis window and the plane auto-triggers splits and a
    /// heat-aware migration. Afterwards the plane is ticked until idle and
    /// every auto-committed rebalance is integrity-checked.
    fn op_hotspot(&mut self, d: usize, ops: u64, rounds: u64) -> StepResult {
        let Some(mut plane) = self.plane.take() else {
            return Ok(());
        };
        let since = self.cluster.events(0).len();
        let result = self.drive_hotspot(&mut plane, d, ops, rounds);
        self.plane = Some(plane);
        result?;
        self.check_auto_commits(since, "after hotspot")?;
        self.sampled_reads_on(d, "after hotspot")?;
        self.deep_checks("after hotspot event")
    }

    /// Runs the integrity battery the churn events' hand-driven jobs pass on
    /// every rebalance the plane committed since event `since`.
    fn check_auto_commits(&self, since: usize, when: &str) -> StepResult {
        for event in self.cluster.events(since) {
            if let Some(ControlDecision::Committed {
                dataset, rebalance, ..
            }) = event.decision()
            {
                self.cluster
                    .check_rebalance_integrity(*dataset, *rebalance)
                    .map_err(|e| format!("{when}: integrity of auto rebalance {rebalance}: {e}"))?;
            }
        }
        Ok(())
    }

    fn drive_hotspot(
        &mut self,
        plane: &mut ControlPlane,
        d: usize,
        ops: u64,
        rounds: u64,
    ) -> StepResult {
        let len = self.cfg.value_len();
        // Three fixed keys: hot enough to stand out, few enough that the
        // heat lands on at most three buckets.
        let hot: Vec<u64> = (0..3).map(|_| self.keygen.draw(&mut self.rng)).collect();
        for round in 0..rounds {
            for i in 0..ops {
                self.queries += 1;
                let key = hot[(i % hot.len() as u64) as usize];
                let got = self.sessions[d]
                    .get(&self.cluster, &Key::from_u64(key))
                    .map_err(|e| format!("hot get {key} on dataset {d}: {e}"))?;
                let want = self.datasets[d]
                    .model
                    .get(&key)
                    .map(|v| value_for(key, *v, len));
                if got != want {
                    return Err(format!(
                        "hotspot round {round}: dataset {d} key {key}: read {got:?}, \
                         model says {want:?}"
                    ));
                }
            }
            plane
                .tick(&mut self.cluster)
                .map_err(|e| format!("control tick in hotspot round {round}: {e}"))?;
        }
        // The queries stop; the plane must finish what it started within a
        // bounded tail.
        self.settle_plane(plane, "after a hotspot")
    }

    /// Ticks the plane until no job is in flight and nothing *actionable*
    /// happened this tick — suppression chatter about a residual byte
    /// imbalance the planner already found unimprovable may continue
    /// indefinitely by design, and does not block the script.
    fn settle_plane(&mut self, plane: &mut ControlPlane, when: &str) -> StepResult {
        for _ in 0..100 {
            let since = self.cluster.events(0).len();
            plane
                .tick(&mut self.cluster)
                .map_err(|e| format!("control tick settling {when}: {e}"))?;
            let mut decisions = self
                .cluster
                .events(since)
                .iter()
                .filter_map(Event::decision);
            let busy = plane.job_in_flight()
                || decisions.any(|dec| {
                    !matches!(
                        dec,
                        ControlDecision::SuppressedByHysteresis { .. }
                            | ControlDecision::SuppressedByCooldown { .. }
                            | ControlDecision::NoImprovement { .. }
                    )
                });
            if !busy {
                return Ok(());
            }
        }
        Err(format!(
            "control plane failed to settle within 100 ticks {when}"
        ))
    }

    /// Restores every dataset the event's loss degraded, from its model
    /// snapshot — exact ground truth, because writes to lost buckets are
    /// refused and so the lost content cannot drift. With an armed control
    /// plane the snapshot is registered as the dataset's repair feed and
    /// the plane's health tick auto-triggers the repair; without one the
    /// admin one-shot runs directly. Returns the number of buckets
    /// restored.
    fn repair_degraded(&mut self, when: &str) -> Result<u64, String> {
        let since = self.cluster.events(0).len();
        let mut plane = self.plane.take();
        let result = self.repair_degraded_inner(plane.as_mut(), when);
        self.plane = plane;
        let repaired = result?;
        self.check_auto_commits(since, when)?;
        Ok(repaired)
    }

    fn repair_degraded_inner(
        &mut self,
        mut plane: Option<&mut ControlPlane>,
        when: &str,
    ) -> Result<u64, String> {
        let len = self.cfg.value_len();
        let before = self.cluster.fault_stats().repaired_buckets;
        for i in 0..self.datasets.len() {
            let id = self.datasets[i].id;
            if self.cluster.fault_stats().degraded_buckets(id).is_empty() {
                continue;
            }
            let feed: Vec<(Key, Bytes)> = self.datasets[i]
                .model
                .iter()
                .map(|(k, v)| (Key::from_u64(*k), value_for(*k, *v, len)))
                .collect();
            match plane.as_deref_mut() {
                Some(plane) => {
                    plane.set_repair_feed(id, feed);
                    for _ in 0..10 {
                        if self.cluster.fault_stats().degraded_buckets(id).is_empty() {
                            break;
                        }
                        plane.tick(&mut self.cluster).map_err(|e| {
                            format!("{when}: control tick repairing dataset {id}: {e}")
                        })?;
                    }
                    plane.clear_repair_feed(id);
                    if !self.cluster.fault_stats().degraded_buckets(id).is_empty() {
                        return Err(format!(
                            "{when}: the armed plane left dataset {id} degraded"
                        ));
                    }
                }
                None => {
                    let report = self
                        .cluster
                        .admin()
                        .repair_dataset(id, &feed)
                        .map_err(|e| format!("{when}: repair of dataset {id}: {e}"))?;
                    if report.is_none() {
                        return Err(format!(
                            "{when}: repair of degraded dataset {id} was a no-op"
                        ));
                    }
                }
            }
            self.repairs += 1;
        }
        // The repair ticks may also have let the plane start a heat-driven
        // migration; drain it so the event ends with no job in flight.
        if let Some(plane) = plane {
            self.settle_plane(plane, when)?;
        }
        Ok(self.cluster.fault_stats().repaired_buckets - before)
    }

    // ----------------------------------------------------------- churn

    /// One churn event: grow or shrink (deciding by current size when
    /// `direction` is None), rebalancing every dataset with its own
    /// concurrent job, waves interleaved, feeds and a seeded fault schedule
    /// mid-movement, then the full invariant battery.
    fn churn_event(&mut self, direction: Option<bool>, max_moves: usize, feed: u64) -> StepResult {
        let grow = direction
            .unwrap_or_else(|| self.cluster.topology().num_nodes() <= self.cfg.nodes as usize);
        let (target, victim, new_node) = if grow {
            let n = self
                .cluster
                .add_node()
                .map_err(|e| format!("add_node: {e}"))?;
            (self.cluster.topology().clone(), None, Some(n))
        } else {
            let victim = *self
                .cluster
                .topology()
                .nodes()
                .last()
                .ok_or("empty topology")?;
            (self.cluster.topology_without(victim), Some(victim), None)
        };

        // One concurrent job per dataset.
        let mut jobs: Vec<RebalanceJob> = Vec::new();
        for d in &self.datasets {
            let mut job = RebalanceJob::plan(&mut self.cluster, d.id, &target, max_moves)
                .map_err(|e| format!("plan dataset {}: {e}", d.id))?;
            job.init(&mut self.cluster)
                .map_err(|e| format!("init dataset {}: {e}", d.id))?;
            jobs.push(job);
        }

        // The fault schedule for this event. Every decision is drawn from
        // the scenario rng, so the same seed replays the same faults at the
        // same wave boundaries. Chaos mode layers transient ship failures
        // (capped below the retry budget, so always absorbed) and one slow
        // node (absorbed by straggler speculation) on top, and turns the
        // grow-side crash into a permanent loss: even-numbered chaos grows
        // lose the node just added — a pure destination, which re-planning
        // cancels back to the live sources with zero data loss — while
        // odd-numbered grows lose an established node, taking the sole
        // copies of its resident buckets with it and opening the degraded
        // window the repair plane exists for.
        let mut schedule = FaultSchedule::seeded(self.rng.next_u64());
        let mut to_lose: Option<NodeId> = None;
        let mut lost: Option<NodeId> = None;
        if self.cfg.chaos {
            schedule = schedule.with_transient(150, 2);
            let nodes = self.cluster.topology().nodes();
            let slow = nodes[self.rng.gen_range(0..nodes.len() as u64) as usize];
            schedule = schedule.with_slow_node(slow, 8);
        }
        match new_node {
            Some(n) if self.cfg.chaos => {
                // Always after the first round: every rebalance with moves
                // runs at least one, so the loss is guaranteed to fire.
                let victim = if self.chaos_grows % 2 == 1 {
                    let established: Vec<NodeId> = self
                        .cluster
                        .topology()
                        .nodes()
                        .into_iter()
                        .filter(|m| *m != n)
                        .collect();
                    established[self.rng.gen_range(0..established.len() as u64) as usize]
                } else {
                    n
                };
                self.chaos_grows += 1;
                schedule = schedule.with_fault(StepPoint::AfterWave(0), Fault::LoseNode(victim));
                to_lose = Some(victim);
            }
            _ => {
                if self.rng.gen_range(0..2) == 0 {
                    let nodes = self.cluster.topology().nodes();
                    let n = nodes[self.rng.gen_range(0..nodes.len() as u64) as usize];
                    let round = self.rng.gen_range(0..2) as usize;
                    schedule =
                        schedule.with_fault(StepPoint::AfterWave(round), Fault::RestartNode(n));
                }
            }
        }
        self.cluster.set_fault_plane(schedule);

        // Interleave the jobs' waves round-robin; after each round, fire
        // the fault scheduled for it (a loss re-plans every job at once,
        // before any feed can replicate into the dead node), then keep the
        // session-driven feeds flowing. The event schedules at most one
        // fault: a loss of `to_lose`, or else a node restart.
        let mut round = 0usize;
        loop {
            let mut progressed = false;
            for (i, job) in jobs.iter_mut().enumerate() {
                if !job.has_remaining_waves() {
                    continue;
                }
                progressed = true;
                job.run_wave(&mut self.cluster)
                    .map_err(|e| format!("wave on dataset {i}: {e}"))?;
            }
            if !progressed {
                break;
            }
            let fired = self
                .cluster
                .fire_faults(StepPoint::AfterWave(round), &mut jobs)
                .map_err(|e| format!("mid-rebalance fault after round {round}: {e}"))?;
            if fired > 0 {
                lost = to_lose;
                match to_lose {
                    Some(n) if Some(n) != new_node => self.established_losses += 1,
                    Some(_) => {}
                    None => self.crashes += 1,
                }
            }
            if feed > 0 {
                for d in 0..self.datasets.len() {
                    self.op_ingest(d, feed)?;
                }
            }
            round += 1;
        }
        self.cluster.clear_fault_plane();

        let mut buckets_moved = 0usize;
        let mut finished = Vec::new();
        for mut job in jobs {
            let ds = job.dataset();
            let report = job
                .drive(&mut self.cluster)
                .map_err(|e| format!("finish rebalance of dataset {ds}: {e}"))?;
            if report.outcome != RebalanceOutcome::Committed {
                return Err(format!("dataset {ds} rebalance did not commit"));
            }
            buckets_moved += report.buckets_moved;
            finished.push((ds, report.rebalance_id));
            self.rebalances += 1;
        }
        // A lost node must leave the topology before the integrity battery
        // runs: its orphaned partitions would otherwise double-count the
        // buckets the re-plan moved to survivors.
        if let Some(n) = lost {
            self.cluster
                .remove_lost_node(n)
                .map_err(|e| format!("remove lost {n}: {e}"))?;
        }
        for (ds, rebalance_id) in finished {
            self.cluster
                .check_rebalance_integrity(ds, rebalance_id)
                .map_err(|e| format!("integrity after rebalance of dataset {ds}: {e}"))?;
        }
        // The emptied node leaves before the armed plane ticks again: a
        // settle tick that still saw it in the topology would read its zero
        // load as imbalance and migrate buckets straight back onto it.
        if let Some(victim) = victim {
            self.cluster
                .decommission_node(victim)
                .map_err(|e| format!("decommission {victim}: {e}"))?;
        }
        // If the loss took established buckets down with it, repair every
        // degraded dataset before the event ends: the soak's contract is
        // that degraded windows are transient.
        let repaired = self.repair_degraded("after churn event")?;
        self.churn += 1;

        // Convergence: the stale sessions must absorb the move within the
        // redirect bound while answering correctly. A repair installs its
        // own directory, so each repaired bucket widens the bound by one.
        let bound = (buckets_moved as u64).max(1) + 1 + repaired;
        for d in 0..self.datasets.len() {
            let before = self.sessions[d].metrics().redirects;
            self.sampled_reads_on(d, "post-churn convergence")?;
            let took = self.sessions[d].metrics().redirects - before;
            if took > bound {
                return Err(format!(
                    "session {d} took {took} redirects converging (bound {bound}, \
                     {buckets_moved} buckets moved)"
                ));
            }
        }
        self.deep_checks("after churn event")
    }

    // ------------------------------------------------------ invariants

    /// The cheap battery, run between every pair of script ops: directory
    /// self-consistency per dataset, sampled stale-session reads vs the
    /// model, and the fresh-session zero-redirect guarantee.
    fn continuous_checks(&mut self, when: &str) -> StepResult {
        for d in 0..self.datasets.len() {
            let id = self.datasets[d].id;
            self.cluster
                .admin()
                .check_directory_invariants(id)
                .map_err(|e| format!("{when}: directory of dataset {id}: {e}"))?;
        }
        self.sampled_session_reads(when)?;
        let ds0 = self.datasets[0].id;
        let mut fresh = self
            .cluster
            .session(ds0)
            .map_err(|e| format!("{when}: fresh session: {e}"))?;
        for _ in 0..4 {
            let key = self.keygen.draw(&mut self.rng);
            fresh
                .get(&self.cluster, &Key::from_u64(key))
                .map_err(|e| format!("{when}: fresh get {key}: {e}"))?;
        }
        if fresh.metrics().redirects != 0 {
            return Err(format!("{when}: a fresh session redirected"));
        }
        Ok(())
    }

    fn sampled_session_reads(&mut self, when: &str) -> StepResult {
        for d in 0..self.datasets.len() {
            self.sampled_reads_on(d, when)?;
        }
        Ok(())
    }

    fn sampled_reads_on(&mut self, d: usize, when: &str) -> StepResult {
        let len = self.cfg.value_len();
        for _ in 0..self.cfg.sample_reads {
            let key = self.keygen.draw(&mut self.rng);
            let got = match self.sessions[d].get(&self.cluster, &Key::from_u64(key)) {
                Ok(got) => got,
                Err(e) if self.degraded_hit(d, &e) => {
                    self.degraded_reads += 1;
                    continue;
                }
                Err(e) => return Err(format!("{when}: get {key} on dataset {d}: {e}")),
            };
            let want = self.datasets[d]
                .model
                .get(&key)
                .map(|v| value_for(key, *v, len));
            if got != want {
                return Err(format!(
                    "{when}: dataset {d} key {key}: read {got:?}, model says {want:?}"
                ));
            }
        }
        Ok(())
    }

    /// The heavyweight battery, run at churn boundaries and at the end:
    /// route-every-record consistency and exact live counts.
    fn deep_checks(&mut self, when: &str) -> StepResult {
        for d in &self.datasets {
            // Degraded windows are transient by contract: every churn event
            // repairs its own loss, so nothing may still be degraded here.
            let lost = self.cluster.fault_stats().degraded_buckets(d.id);
            if !lost.is_empty() {
                return Err(format!(
                    "{when}: dataset {} still degraded (lost buckets {lost:?})",
                    d.id
                ));
            }
            self.cluster
                .check_dataset_consistency(d.id)
                .map_err(|e| format!("{when}: consistency of dataset {}: {e}", d.id))?;
            let live = self
                .cluster
                .dataset_len(d.id)
                .map_err(|e| format!("{when}: len of dataset {}: {e}", d.id))?;
            if live != d.model.len() {
                return Err(format!(
                    "{when}: dataset {} holds {live} records, model says {}",
                    d.id,
                    d.model.len()
                ));
            }
        }
        Ok(())
    }

    /// Byte-for-byte scan-vs-model comparison through each stale session.
    fn final_scan_check(&mut self) -> StepResult {
        let len = self.cfg.value_len();
        for d in 0..self.datasets.len() {
            let (contents, raw) = self.sessions[d]
                .collect_records(&self.cluster)
                .map_err(|e| format!("final scan of dataset {d}: {e}"))?;
            if raw != contents.len() {
                return Err(format!(
                    "final scan of dataset {d}: {raw} raw records for {} keys \
                     (a key is visible twice)",
                    contents.len()
                ));
            }
            let model = &self.datasets[d].model;
            if contents.len() != model.len() {
                return Err(format!(
                    "final scan of dataset {d}: {} records, model says {}",
                    contents.len(),
                    model.len()
                ));
            }
            for (k, v) in model {
                if contents.get(&Key::from_u64(*k)) != Some(&value_for(*k, *v, len)) {
                    return Err(format!("final scan of dataset {d}: key {k} diverges"));
                }
            }
        }
        Ok(())
    }
}

// ------------------------------------------------------------------ entry

/// How many control decisions in `cluster`'s event log `pred` accepts.
fn count_decisions(cluster: &Cluster, pred: fn(&ControlDecision) -> bool) -> u64 {
    let decisions = cluster.events(0).iter().filter_map(Event::decision);
    decisions.filter(|d| pred(d)).count() as u64
}

/// Executes a scenario script under `cfg`, checking the continuous
/// invariants between every pair of ops and the deep battery at the end.
/// Never panics on an invariant violation — the report carries the trace
/// and violations instead (a panic escaping the cluster is converted too).
pub fn run_scenario(cfg: &SoakConfig, scenario: &Scenario) -> SoakReport {
    let mut trace = Vec::new();
    let mut violations = Vec::new();
    let mut steps_run = 0usize;

    let mut runner = match Runner::new(cfg) {
        Ok(r) => r,
        Err(v) => {
            return SoakReport {
                seed: cfg.seed,
                trace,
                violations: vec![v],
                ..SoakReport::default()
            };
        }
    };

    for (i, op) in scenario.ops.iter().enumerate() {
        trace.push(format!("step {i}: {op:?}"));
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            runner.exec(op).and_then(|()| {
                runner.continuous_checks(&format!("continuous checks after step {i}"))
            })
        }));
        match outcome {
            Ok(Ok(())) => steps_run += 1,
            Ok(Err(v)) => {
                violations.push(format!("step {i} ({op:?}): {v}"));
                break;
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("<non-string panic>");
                violations.push(format!("step {i} ({op:?}) panicked: {msg}"));
                break;
            }
        }
    }
    if violations.is_empty() {
        if let Err(v) = runner.deep_checks("end of run") {
            violations.push(v);
        }
    }
    if violations.is_empty() {
        if let Err(v) = runner.final_scan_check() {
            violations.push(v);
        }
    }

    let live = runner.datasets.iter().map(|d| d.model.len() as u64).sum();
    let redirects = runner.sessions.iter().map(|s| s.metrics().redirects).sum();
    let faults = runner.cluster.fault_stats();
    let jobs = runner.cluster.admin().health().jobs;
    let count = |pred| count_decisions(&runner.cluster, pred);
    let decisions = runner.cluster.events(0).iter().filter_map(Event::decision);
    SoakReport {
        seed: cfg.seed,
        steps_run,
        records_ingested: runner.ingested,
        live_records: live,
        queries_run: runner.queries,
        deletes: runner.deletes,
        churn_events: runner.churn,
        rebalances: runner.rebalances,
        crashes: runner.crashes,
        transient_faults: faults.transient_faults,
        fault_retries: faults.retries,
        reroutes: faults.reroutes,
        reshipped: faults.reshipped,
        lost_nodes: faults.lost_nodes.len(),
        established_losses: runner.established_losses,
        speculated: faults.speculated,
        speculation_wins: faults.speculation_wins,
        repairs: runner.repairs,
        repaired_buckets: faults.repaired_buckets,
        degraded_reads: runner.degraded_reads,
        degraded_writes: runner.degraded_writes,
        degraded: faults
            .lost_buckets
            .iter()
            .filter(|(_, b)| !b.is_empty())
            .map(|(ds, b)| format!("dataset {ds}: {b:?}"))
            .collect(),
        redirects,
        final_nodes: runner.cluster.topology().num_nodes() as u32,
        auto_triggers: count(|d| matches!(d, ControlDecision::Triggered { .. })),
        auto_commits: count(|d| matches!(d, ControlDecision::Committed { .. })),
        hot_splits: count(|d| matches!(d, ControlDecision::HotSplit { .. })),
        suppressed: count(|d| {
            matches!(
                d,
                ControlDecision::SuppressedByHysteresis { .. }
                    | ControlDecision::SuppressedByCooldown { .. }
            )
        }),
        control_decisions: decisions.map(|d| format!("{d:?}")).collect(),
        jobs: jobs.iter().map(|j| format!("{j:?}")).collect(),
        trace,
        violations,
    }
}

/// Generates the seeded script for `cfg` and runs it.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    run_scenario(cfg, &generate_scenario(cfg))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipfian_keygen_is_skewed_and_stable() {
        let keygen = KeyGen::new(1 << 16, KeyDist::Zipfian { s: 1.1 }, true);
        let mut rng = SplitMix64::seed_from_u64(7);
        let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
        for _ in 0..20_000 {
            *counts.entry(keygen.draw(&mut rng)).or_insert(0) += 1;
        }
        let max = counts.values().max().copied().unwrap_or(0);
        // the hottest key must dominate a uniform draw by a wide margin
        assert!(max > 1_000, "hottest key drawn {max} times");
        // scrambling must not lose distinctness for the hot ranks
        assert!(counts.len() > 1_000, "only {} distinct keys", counts.len());
    }

    #[test]
    fn generated_script_hits_the_ingest_target_and_churn_count() {
        let cfg = SoakConfig::smoke(42);
        let s = generate_scenario(&cfg);
        let ingest: u64 = s
            .ops
            .iter()
            .map(|op| match op {
                ScenarioOp::Ingest { records, .. } => *records,
                _ => 0,
            })
            .sum();
        assert_eq!(ingest, cfg.target_ingest);
        let churn: usize = s
            .ops
            .iter()
            .map(|op| match op {
                ScenarioOp::Churn { .. } => 1,
                ScenarioOp::ChurnStorm { rounds, .. } => *rounds,
                _ => 0,
            })
            .sum();
        assert!(churn >= cfg.churn_events, "{churn} churn events scripted");
        // the script is a pure function of the config
        let again = generate_scenario(&cfg);
        assert_eq!(format!("{:?}", s.ops), format!("{:?}", again.ops));
    }

    #[test]
    fn chaos_smoke_soak_replans_losses_and_stays_clean() {
        let mut cfg = SoakConfig::smoke(0x50a6_0002);
        cfg.chaos = true;
        // The stock smoke profile is too small to split buckets, so churn
        // plans no moves and the mid-movement faults have nothing to hit;
        // shrink the bucket cap until rebalances actually transfer data.
        cfg.max_bucket_bytes = 4 * 1024;
        let report = run_soak(&cfg);
        assert!(report.passed(), "{}", report.failure_banner());
        assert!(report.lost_nodes >= 1, "chaos run must lose a node");
        assert!(report.reroutes >= 1, "a loss must be re-planned");
        assert_eq!(
            report.transient_faults, report.fault_retries,
            "every injected transient must be absorbed by a retry"
        );
        assert!(
            report.degraded.is_empty(),
            "no dataset may end the run degraded: {:?}",
            report.degraded
        );
        if report.established_losses > 0 {
            assert!(
                report.repaired_buckets > 0,
                "an established-node loss must force a repair"
            );
        }
        // identical seed without chaos: the fault counters stay zero
        let mut quiet = cfg;
        quiet.chaos = false;
        let baseline = run_soak(&quiet);
        assert!(baseline.passed(), "{}", baseline.failure_banner());
        assert_eq!(baseline.transient_faults, 0);
        assert_eq!(baseline.lost_nodes, 0);
    }

    #[test]
    fn chaos_soak_loses_established_nodes_and_auto_repairs() {
        let mut cfg = SoakConfig::smoke(0x50a6_0004);
        cfg.chaos = true;
        cfg.control = true;
        cfg.max_bucket_bytes = 4 * 1024;
        // A hand-written script with two explicit grows: chaos alternates
        // the mid-rebalance loss, so the first grow loses the node just
        // added (zero data loss) and the second loses an established
        // data-holding node — the degraded window the armed control plane
        // must auto-repair from the runner's registered model snapshot.
        let script = Scenario {
            name: "established-loss-auto-repair".into(),
            ops: vec![
                ScenarioOp::Ingest {
                    dataset: 0,
                    records: 6_000,
                },
                ScenarioOp::Ingest {
                    dataset: 1,
                    records: 6_000,
                },
                ScenarioOp::AddNode { max_moves: 4 },
                ScenarioOp::Queries {
                    dataset: 0,
                    ops: 120,
                },
                ScenarioOp::AddNode { max_moves: 4 },
                ScenarioOp::Queries {
                    dataset: 1,
                    ops: 120,
                },
            ],
        };
        let report = run_scenario(&cfg, &script);
        assert!(report.passed(), "{}", report.failure_banner());
        assert!(
            report.established_losses >= 1,
            "the second chaos grow must lose an established node"
        );
        assert!(
            report.repaired_buckets > 0,
            "losing an established node must degrade buckets that repair restores"
        );
        assert!(
            report.repairs >= 1,
            "the armed plane must have run at least one repair"
        );
        assert!(
            report.degraded.is_empty(),
            "no dataset may end the run degraded: {:?}",
            report.degraded
        );
        // a clean run leaves no job half-done
        assert!(report.jobs.is_empty(), "{:?}", report.jobs);
    }

    #[test]
    fn hotspot_soak_auto_triggers_and_converges() {
        let mut cfg = SoakConfig::smoke(0x50a6_0003);
        cfg.control = true;
        // Small buckets so the auto-planned migration has real moves to make.
        cfg.max_bucket_bytes = 4 * 1024;
        let report = run_soak(&cfg);
        assert!(report.passed(), "{}", report.failure_banner());
        assert!(
            report.auto_triggers >= 1,
            "the sustained hotspot must auto-trigger a rebalance\n{}",
            report.failure_banner()
        );
        assert!(
            report.auto_commits >= 1,
            "an auto-triggered rebalance must commit\n{}",
            report.failure_banner()
        );
        assert!(
            report.suppressed >= 1,
            "hysteresis must hold the first imbalanced ticks back\n{}",
            report.failure_banner()
        );
        // a clean run leaves no job half-done
        assert!(report.jobs.is_empty(), "{:?}", report.jobs);
    }

    #[test]
    fn smoke_soak_passes_cleanly() {
        let report = run_soak(&SoakConfig::smoke(0x50a6_0001));
        assert!(report.passed(), "{}", report.failure_banner());
        assert_eq!(
            report.steps_run,
            generate_scenario(&SoakConfig::smoke(0x50a6_0001)).ops.len()
        );
        assert!(report.records_ingested >= 24_000);
        assert!(report.churn_events >= 2);
        assert!(report.rebalances >= report.churn_events * 2);
        assert!(report.live_records > 0);
    }
}
