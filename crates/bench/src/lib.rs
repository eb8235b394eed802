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
//! * [`rebalance_wave_scaling`] — the step-driven job's wave parallelism;
//! * the storage-option and balance-quality ablations.
//!
//! Every row type declares its columns once ([`table_row!`]), every study is
//! one entry of the [`FIGURES`] registry, and [`run_figures`] runs the
//! selected figures and hands back the [`Table`]s that markdown and JSON
//! are rendered from. It checks nothing: properties —
//! that every scheme answers every query alike (`dynahash-tpch`'s
//! `answers_pinned` test), routing, faults, control and recovery — are
//! integration-test assertions.
//!
//! Absolute numbers are simulated time produced by the cost model of
//! `dynahash-cluster`; only the relative comparisons are meaningful.

pub mod json;
pub mod scenario;
pub mod table;
pub mod timing;

use std::collections::BTreeMap;

use dynahash_cluster::{
    Cluster, ClusterConfig, DatasetId, RebalanceJob, RebalanceOptions, SimDuration,
};
use dynahash_core::balance::{balance_assignment, load_balance_factor, BalanceInput, BucketLoad};
use dynahash_core::{BucketId, ClusterTopology, NodeId, PartitionId, Scheme};
use dynahash_lsm::{BucketedConfig, BucketedLsmTree, Bytes, LsmConfig, LsmTree, StorageMetrics};
use dynahash_tpch::loader::lineitem_records;
use dynahash_tpch::{
    generator, load_tpch, query_traits, run_query, TpchScale, TpchTables, NUM_QUERIES,
};

use crate::json::Json;
use crate::table::Table;

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

// ------------------------------------------------------- registry and driver

/// One entry of the figure registry.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The name `--figure` selects (matched case-insensitively).
    pub name: &'static str,
    /// The markdown heading.
    pub title: &'static str,
    /// Runs the study at the given scale and returns its tables, in output
    /// order.
    pub run: fn(&ExperimentConfig) -> Vec<Table>,
}

/// Every figure `experiments` can regenerate, in output order.
pub const FIGURES: &[Figure] = &[
    Figure {
        name: "6",
        title: "Figure 6 — Ingestion time",
        run: |cfg| vec![Table::of("fig6_ingestion", &fig6_ingestion(cfg))],
    },
    Figure {
        name: "7a",
        title: "Figure 7a — Rebalance time, removing one node",
        run: |cfg| {
            let rows = fig7_rebalance(cfg, RebalanceDirection::RemoveNode);
            vec![Table::of("fig7a_remove_node", &rows)]
        },
    },
    Figure {
        name: "7b",
        title: "Figure 7b — Rebalance time, adding one node",
        run: |cfg| {
            let rows = fig7_rebalance(cfg, RebalanceDirection::AddNode);
            vec![Table::of("fig7b_add_node", &rows)]
        },
    },
    Figure {
        name: "7c",
        title: "Figure 7c — Rebalance time under concurrent ingestion (DynaHash, 4 -> 3 nodes)",
        run: |cfg| {
            let rows = fig7c_concurrent_writes(cfg, &[0.0, 10.0, 20.0, 30.0, 40.0]);
            vec![Table::of("fig7c_concurrent_writes", &rows)]
        },
    },
    Figure {
        name: "waves",
        title: "Wave parallelism — step-driven rebalance (DynaHash, 4 -> 3 nodes)",
        run: |cfg| {
            let rows = rebalance_wave_scaling(cfg, &[1, 2, 4, 8]);
            vec![Table::of("waves", &rows)]
        },
    },
    Figure {
        name: "8",
        title: "Figure 8 — TPC-H query time on the original cluster",
        run: |cfg| vec![Table::of("fig8_queries", &fig8_queries(cfg))],
    },
    Figure {
        name: "9",
        title: "Figure 9 — TPC-H query time on the downsized cluster (N -> N-1 nodes)",
        run: |cfg| vec![Table::of("fig9_queries", &fig9_queries(cfg))],
    },
    Figure {
        name: "ablations",
        title: "Ablations — primary-index storage options; Algorithm 2 vs round-robin balance",
        run: |_| {
            vec![
                Table::of("ablation_storage_options", &ablation_storage_options(5000)),
                Table::of(
                    "ablation_balance_quality",
                    &ablation_balance_quality(&[1, 2, 4, 8, 16]),
                ),
            ]
        },
    },
];

/// The registry's figure names, comma-separated (for `--help` and the
/// unknown-figure error).
pub fn figure_names(registry: &[Figure]) -> String {
    let names: Vec<&str> = registry.iter().map(|f| f.name).collect();
    names.join(", ")
}

/// The one driver: runs every figure of `registry` — or the one `select`
/// names — prints each as markdown, and returns every table produced.
/// `None` when `select` names no figure: nothing runs, and the valid names
/// go to stderr.
pub fn run_figures(
    registry: &[Figure],
    select: Option<&str>,
    cfg: &ExperimentConfig,
) -> Option<Vec<Table>> {
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
        return None;
    }
    println!("# DynaHash experiment results\n");
    println!(
        "configuration: {} orders/node, {} partitions/node, node counts {:?} (simulated time)\n",
        cfg.orders_per_node, cfg.partitions_per_node, cfg.node_counts
    );
    let mut all = Vec::new();
    for figure in selected {
        println!("## {}\n", figure.title);
        let tables = (figure.run)(cfg);
        for table in &tables {
            println!("`{}`\n\n{}", table.key, table.markdown());
        }
        all.extend(tables);
    }
    Some(all)
}

/// The machine-readable document of a run: the configuration and every
/// table under its key. Every cell is simulated, so the document is
/// byte-identical from run to run.
pub fn json_document(cfg: &ExperimentConfig, quick: bool, tables: &[Table]) -> Json {
    let node_counts = cfg.node_counts.iter().map(|&n| Json::Int(n as u64));
    let partitions = cfg.partitions_per_node as u64;
    let config = Json::obj([
        ("orders_per_node", Json::Int(cfg.orders_per_node as u64)),
        ("partitions_per_node", Json::Int(partitions)),
        ("quick", Json::Bool(quick)),
        ("node_counts", Json::Arr(node_counts.collect())),
    ]);
    let figures = tables.iter().map(|t| (t.key.to_string(), t.json()));
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
}
