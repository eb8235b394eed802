//! The metric catalogue: every name the benchmark reports, with its unit,
//! its direction, and — for end-to-end metrics — the bound by which it may
//! worsen before a change counts as a regression. `BENCHMARK.json` repeats
//! the names, units, directions and bounds; the workloads and this file are
//! where they are computed.

use std::collections::BTreeMap;

use crate::trace::LayerRow;

/// An end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Whether one seed must reproduce the value exactly.
    pub deterministic: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    deterministic: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        deterministic,
    }
}

/// The 16 end-to-end metrics. Every workload reports every one of them.
pub const END_TO_END: [EndToEnd; 16] = [
    e2e("setup_s", "s", "lower", 0.25, false),
    e2e("ingest_records_per_s", "1/s", "higher", 0.25, false),
    e2e("get_ops_per_s", "1/s", "higher", 0.25, false),
    e2e("get_p50_us", "us", "lower", 0.25, false),
    e2e("get_p99_us", "us", "lower", 0.25, false),
    e2e("put_p50_us", "us", "lower", 0.25, false),
    e2e("put_p99_us", "us", "lower", 0.25, false),
    e2e("scan_records_per_s", "1/s", "higher", 0.25, false),
    e2e("rebalance_cycle_s", "s", "lower", 0.25, false),
    e2e("write_blocked_ms", "ms", "lower", 0.25, false),
    e2e("moved_fraction", "ratio", "lower", 0.10, true),
    e2e("query_suite_s", "s", "lower", 0.25, false),
    e2e("query_suite_rebalanced_s", "s", "lower", 0.25, false),
    e2e("write_amp", "ratio", "lower", 0.05, true),
    e2e("space_amp", "ratio", "lower", 0.05, true),
    e2e("peak_rss_mb", "MB", "lower", 0.10, false),
];

/// Where a per-layer value comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// Mean duration of the named span, in units of `per` nanoseconds.
    SpanMean(&'static str, f64),
    /// Total duration of the named spans over the sum of their counts, in
    /// units of `per` nanoseconds.
    PerCount(&'static str, f64),
    /// A count or ratio the run computed (`Outcome::layer`).
    Value,
}

/// A per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name; the part before the dot is the layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Where the value comes from.
    pub source: Source,
    /// The end-to-end metric(s) it should move, and on which workloads.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: Source,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        source,
        moves,
    }
}

const NS: f64 = 1.0;
const US: f64 = 1e3;
const MS: f64 = 1e6;
const S: f64 = 1e9;

const WRITE: &str = "ingest_records_per_s, put_p50_us on ingest_heavy";
const AMORTISED: &str =
    "ingest_records_per_s, put_p99_us, write_amp on ingest_heavy; traded against get_*, scan_records_per_s, space_amp";
const READ: &str =
    "get_p50_us, get_ops_per_s on kv_read_zipf (merged trees) and ingest_heavy (fragmented trees)";
const SCAN: &str = "scan_records_per_s everywhere; query_suite_s on tpch_queries";
const SHIP: &str = "rebalance_cycle_s on rebalance_online";
const ROUTE: &str =
    "get_p50_us on kv_read_zipf; get_p99_us, put_p99_us on rebalance_online (redirects)";
const PLAN: &str = "rebalance_cycle_s, moved_fraction on rebalance_online";
const JOB: &str =
    "rebalance_cycle_s on rebalance_online; prepare + decide + commit are write_blocked_ms";
const QUERY: &str = "query_suite_s, query_suite_rebalanced_s on tpch_queries";
const NONE: &str = "none today; kept for a later control-plane, soak or sim-calibration claim";

/// The per-layer metrics of a traced run.
#[rustfmt::skip] // one metric per line
pub const PER_LAYER: [Layer; 85] = [
    layer("lsm.memtable_put_ns", "ns", "lower", Source::PerCount("lsm.memtable_put", NS), WRITE),
    layer("lsm.wal_append_ns", "ns", "lower", Source::PerCount("lsm.wal_append", NS), WRITE),
    layer("lsm.bucketed_insert_ns", "ns", "lower", Source::PerCount("lsm.bucketed_insert", NS), WRITE),
    layer("lsm.secondary_insert_ns", "ns", "lower", Source::PerCount("lsm.secondary_insert", NS), WRITE),
    layer("lsm.flush_ns_per_record", "ns", "lower", Source::PerCount("lsm.flush", NS), AMORTISED),
    layer("lsm.merge_ns_per_record", "ns", "lower", Source::PerCount("lsm.merge", NS), AMORTISED),
    layer("lsm.split_bucket_us", "us", "lower", Source::SpanMean("lsm.split_bucket", US), AMORTISED),
    layer("lsm.flush_count", "count", "lower", Source::Value, AMORTISED),
    layer("lsm.merge_count", "count", "lower", Source::Value, AMORTISED),
    layer("lsm.split_count", "count", "lower", Source::Value, AMORTISED),
    layer("lsm.bytes_flushed", "bytes", "lower", Source::Value, AMORTISED),
    layer("lsm.bytes_merged", "bytes", "lower", Source::Value, AMORTISED),
    layer("lsm.put_stall_p999_us", "us", "lower", Source::Value, AMORTISED),
    layer("cluster.ingest_batch_p50_ms", "ms", "lower", Source::Value, AMORTISED),
    layer("cluster.ingest_batch_max_ms", "ms", "lower", Source::Value, AMORTISED),
    layer("lsm.bloom_probe_ns", "ns", "lower", Source::PerCount("lsm.bloom_probe", NS), READ),
    layer("lsm.bloom_fp_rate", "ratio", "lower", Source::Value, READ),
    layer("lsm.tree_get_hit_ns", "ns", "lower", Source::PerCount("lsm.tree_get_hit", NS), READ),
    layer("lsm.tree_get_miss_ns", "ns", "lower", Source::PerCount("lsm.tree_get_miss", NS), READ),
    layer("lsm.components_per_tree", "count", "lower", Source::Value, READ),
    layer("lsm.scan_ns_per_record", "ns", "lower", Source::PerCount("lsm.scan", NS), SCAN),
    layer("lsm.kmerge_ns_per_record", "ns", "lower", Source::PerCount("lsm.kmerge", NS), SCAN),
    layer("lsm.ship_bucket_us", "us", "lower", Source::SpanMean("lsm.ship_bucket", US), SHIP),
    layer("lsm.install_shipped_us", "us", "lower", Source::SpanMean("lsm.install_shipped", US), SHIP),
    layer("lsm.bytes_rebalance_shipped", "bytes", "lower", Source::Value, SHIP),
    layer("lsm.components_shipped", "count", "lower", Source::Value, SHIP),
    layer("core.directory_lookup_ns", "ns", "lower", Source::PerCount("core.directory_lookup", NS), ROUTE),
    layer("core.delta_apply_us", "us", "lower", Source::SpanMean("core.delta_apply", US), ROUTE),
    layer("core.plan_compute_us", "us", "lower", Source::SpanMean("core.plan_compute", US), PLAN),
    layer("core.schedule_waves_us", "us", "lower", Source::SpanMean("core.schedule_waves", US), PLAN),
    layer("core.plan_moves", "count", "lower", Source::Value, PLAN),
    layer("core.plan_bytes", "bytes", "lower", Source::Value, PLAN),
    layer("cluster.session_get_ns", "ns", "lower", Source::PerCount("cluster.session_get_probe", NS), ROUTE),
    layer("cluster.partition_get_ns", "ns", "lower", Source::PerCount("cluster.partition_get", NS), ROUTE),
    layer("cluster.session_overhead_ratio", "ratio", "lower", Source::Value, ROUTE),
    layer("cluster.session_redirects", "count", "lower", Source::Value, ROUTE),
    layer("cluster.session_delta_refreshes", "count", "lower", Source::Value, ROUTE),
    layer("cluster.session_full_refreshes", "count", "lower", Source::Value, ROUTE),
    layer("cluster.job_plan_ms", "ms", "lower", Source::SpanMean("cluster.job_plan", MS), JOB),
    layer("cluster.job_init_ms", "ms", "lower", Source::SpanMean("cluster.job_init", MS), JOB),
    layer("cluster.job_wave_ms", "ms", "lower", Source::SpanMean("cluster.job_wave", MS), JOB),
    layer("cluster.job_prepare_ms", "ms", "lower", Source::SpanMean("cluster.job_prepare", MS), JOB),
    layer("cluster.job_decide_ms", "ms", "lower", Source::SpanMean("cluster.job_decide", MS), JOB),
    layer("cluster.job_commit_ms", "ms", "lower", Source::SpanMean("cluster.job_commit", MS), JOB),
    layer("cluster.job_finalize_ms", "ms", "lower", Source::SpanMean("cluster.job_finalize", MS), JOB),
    layer("cluster.job_waves", "count", "lower", Source::Value, JOB),
    layer("cluster.job_bytes_shipped", "bytes", "lower", Source::Value, JOB),
    layer("cluster.ship_mb_per_s", "MB/s", "higher", Source::Value, JOB),
    layer("cluster.add_node_ms", "ms", "lower", Source::SpanMean("cluster.add_node", MS), JOB),
    layer("cluster.decommission_ms", "ms", "lower", Source::SpanMean("cluster.decommission", MS), JOB),
    layer("cluster.scan_table_ns_per_record", "ns", "lower", Source::PerCount("cluster.scan_table", NS), QUERY),
    layer("cluster.index_scan_ns_per_result", "ns", "lower", Source::PerCount("cluster.index_scan", NS), QUERY),
    layer("cluster.fetch_ns", "ns", "lower", Source::PerCount("cluster.fetch", NS), QUERY),
    layer("cluster.warm_indexes_ms", "ms", "lower", Source::SpanMean("cluster.warm_indexes", MS), QUERY),
    layer("cluster.rebalance_tables_s", "s", "lower", Source::Value, QUERY),
    layer("cluster.control_tick_us", "us", "lower", Source::SpanMean("cluster.control_tick", US), NONE),
    layer("cluster.consistency_check_s", "s", "lower", Source::SpanMean("cluster.consistency_check", S), NONE),
    layer("cluster.sim_over_wall_ingest", "ratio", "lower", Source::Value, NONE),
    layer("cluster.sim_over_wall_rebalance", "ratio", "lower", Source::Value, NONE),
    layer("cluster.sim_over_wall_query", "ratio", "lower", Source::Value, NONE),
    layer("tpch.generate_s", "s", "lower", Source::SpanMean("tpch.generate", S), "setup_s on tpch_queries"),
    layer("tpch.load_records_per_s", "1/s", "higher", Source::Value, "setup_s, ingest_records_per_s on tpch_queries"),
    layer("tpch.q01_ms", "ms", "lower", Source::SpanMean("tpch.q01", MS), QUERY),
    layer("tpch.q02_ms", "ms", "lower", Source::SpanMean("tpch.q02", MS), QUERY),
    layer("tpch.q03_ms", "ms", "lower", Source::SpanMean("tpch.q03", MS), QUERY),
    layer("tpch.q04_ms", "ms", "lower", Source::SpanMean("tpch.q04", MS), QUERY),
    layer("tpch.q05_ms", "ms", "lower", Source::SpanMean("tpch.q05", MS), QUERY),
    layer("tpch.q06_ms", "ms", "lower", Source::SpanMean("tpch.q06", MS), QUERY),
    layer("tpch.q07_ms", "ms", "lower", Source::SpanMean("tpch.q07", MS), QUERY),
    layer("tpch.q08_ms", "ms", "lower", Source::SpanMean("tpch.q08", MS), QUERY),
    layer("tpch.q09_ms", "ms", "lower", Source::SpanMean("tpch.q09", MS), QUERY),
    layer("tpch.q10_ms", "ms", "lower", Source::SpanMean("tpch.q10", MS), QUERY),
    layer("tpch.q11_ms", "ms", "lower", Source::SpanMean("tpch.q11", MS), QUERY),
    layer("tpch.q12_ms", "ms", "lower", Source::SpanMean("tpch.q12", MS), QUERY),
    layer("tpch.q13_ms", "ms", "lower", Source::SpanMean("tpch.q13", MS), QUERY),
    layer("tpch.q14_ms", "ms", "lower", Source::SpanMean("tpch.q14", MS), QUERY),
    layer("tpch.q15_ms", "ms", "lower", Source::SpanMean("tpch.q15", MS), QUERY),
    layer("tpch.q16_ms", "ms", "lower", Source::SpanMean("tpch.q16", MS), QUERY),
    layer("tpch.q17_ms", "ms", "lower", Source::SpanMean("tpch.q17", MS), QUERY),
    layer("tpch.q18_ms", "ms", "lower", Source::SpanMean("tpch.q18", MS), QUERY),
    layer("tpch.q19_ms", "ms", "lower", Source::SpanMean("tpch.q19", MS), QUERY),
    layer("tpch.q20_ms", "ms", "lower", Source::SpanMean("tpch.q20", MS), QUERY),
    layer("tpch.q21_ms", "ms", "lower", Source::SpanMean("tpch.q21", MS), QUERY),
    layer("tpch.q22_ms", "ms", "lower", Source::SpanMean("tpch.q22", MS), QUERY),
    layer("trace_overhead_ratio", "ratio", "lower", Source::Value, "none: traced seconds over untraced seconds of the same phases"),
];

/// The value of a per-layer metric in one traced run: 0 when the workload
/// never made the call (a TPC-H query on a key-value workload, say).
pub fn layer_value(
    m: &Layer,
    spans: &BTreeMap<&'static str, LayerRow>,
    values: &BTreeMap<&'static str, f64>,
) -> f64 {
    let v = match m.source {
        Source::SpanMean(span, per) => spans
            .get(span)
            .map_or(0.0, |r| r.total_ns / r.spans.max(1) as f64 / per),
        Source::PerCount(span, per) => spans
            .get(span)
            .map_or(0.0, |r| r.total_ns / r.count.max(1) as f64 / per),
        Source::Value => values.get(m.name).copied().unwrap_or(0.0),
    };
    if v.is_finite() {
        v
    } else {
        0.0
    }
}
