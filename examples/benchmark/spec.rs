//! The four workloads and how `--seconds` sizes them.

use crate::world::{DataKind, KeyDist};

/// `--seconds` value at which a run's timed phases last about that long on
/// the reference host (2 vCPU, see `README.md`).
pub const REFERENCE_SECONDS: u64 = 24;

/// Fewest laps a run makes, whatever `--seconds` says.
const MIN_LAPS: usize = 5;

/// One workload: a dataset, a traffic mix, and sizes. Every field is fixed
/// by the workload name, `--seconds` and `--smoke`; nothing is measured and
/// fed back, so one seed always produces the same operations.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Why the workload exists (one line, repeated in `BENCHMARK.json`).
    pub why: &'static str,
    /// The dataset loaded during set-up.
    pub data: DataKind,
    /// Size at which a DynaHash bucket splits. The issue's design point is
    /// 1 M records in 1 MiB buckets, 128 buckets in all; workloads that load
    /// half the records use half the bucket size, which keeps the 128.
    pub max_bucket_bytes: u64,
    /// Records of the timed ingest phase that follows set-up (0: the load
    /// itself is the ingest).
    pub ingest_records: usize,
    /// Updates of existing keys per thousand records of the ingest phase.
    pub ingest_update_per_mille: u32,
    /// Key distribution of point operations.
    pub dist: KeyDist,
    /// Reads per thousand point operations.
    pub get_per_mille: u32,
    /// Client sessions, used round-robin.
    pub sessions: usize,
    /// How often a lap runs each of its read-only phases (the scan pair and
    /// the two query suites) back to back. The first pass after a load or a
    /// rebalance runs on cold caches and costs 10–30 % more, by an amount
    /// that differs from lap to lap.
    pub read_passes: usize,
    /// Point operations at the end of a lap.
    pub point_ops: usize,
    /// Point operations issued after every rebalance wave.
    pub in_flight_ops: usize,
    /// Laps: how often the whole experiment runs, each time on a fresh
    /// cluster.
    pub laps: usize,
    /// Records the layer probe of a traced run rebuilds.
    pub probe_records: usize,
    /// Whether a rebalance cycle grows the cluster first (4→5→4) or shrinks
    /// it first (4→3→4).
    pub scale_out_first: bool,
}

/// The workloads, sized for `seconds` of timed work (or at 1/50 of the
/// reference size with two laps when `smoke`).
pub fn workloads(seconds: u64, smoke: bool) -> Vec<Spec> {
    let div = if smoke { 50 } else { 1 };
    // Only the number of laps grows with --seconds. Dataset sizes and the
    // work per lap do not, so per-operation costs stay comparable between
    // run lengths.
    let laps = |at_reference: usize| -> usize {
        if smoke {
            2
        } else {
            let scaled =
                (at_reference as u64 * seconds + REFERENCE_SECONDS / 2) / REFERENCE_SECONDS;
            (scaled as usize).max(MIN_LAPS)
        }
    };
    vec![
        Spec {
            name: "kv_read_zipf",
            why: "95% reads with Zipfian keys over merged trees: the session, directory and LSM read path; the hot set fits the CPU cache",
            data: DataKind::Kv {
                records: 400_000 / div,
                secondary: false,
            },
            max_bucket_bytes: 512 * 1024,
            ingest_records: 0,
            ingest_update_per_mille: 0,
            dist: KeyDist::Zipf(0.99),
            get_per_mille: 950,
            sessions: 1,
            read_passes: 2,
            point_ops: 500_000 / div,
            in_flight_ops: 0,
            laps: laps(6),
            probe_records: 100_000 / div,
            scale_out_first: true,
        },
        Spec {
            name: "ingest_heavy",
            why: "Batched ingest with a secondary index, then per-record puts and uniform reads over fragmented trees: the write path and what it costs reads; the working set exceeds the CPU cache",
            data: DataKind::Kv {
                records: 100_000 / div,
                secondary: true,
            },
            max_bucket_bytes: 512 * 1024,
            ingest_records: 300_000 / div,
            ingest_update_per_mille: 200,
            dist: KeyDist::Uniform,
            get_per_mille: 500,
            sessions: 1,
            read_passes: 2,
            point_ops: 100_000 / div,
            in_flight_ops: 0,
            laps: laps(6),
            probe_records: 100_000 / div,
            scale_out_first: true,
        },
        Spec {
            name: "rebalance_online",
            why: "4-5-4 node cycles with three stale sessions issuing reads and writes after every wave: movement cost, the write-blocked window and foreground latency while buckets are in flight",
            data: DataKind::Kv {
                records: 400_000 / div,
                secondary: false,
            },
            max_bucket_bytes: 512 * 1024,
            ingest_records: 0,
            ingest_update_per_mille: 0,
            dist: KeyDist::Uniform,
            get_per_mille: 800,
            sessions: 3,
            read_passes: 2,
            point_ops: 0,
            in_flight_ops: 10_000 / div.min(10),
            laps: laps(6),
            probe_records: 100_000 / div,
            scale_out_first: true,
        },
        Spec {
            name: "tpch_queries",
            why: "The 22 TPC-H queries before and after a 4-to-3 node scale-in of all eight tables: scans, index scans, fetches and merge iterators; point and ingest paths stay minor",
            data: DataKind::Tpch {
                orders_per_node: 8_000 / div,
            },
            max_bucket_bytes: 512 * 1024,
            ingest_records: 0,
            ingest_update_per_mille: 0,
            dist: KeyDist::Uniform,
            get_per_mille: 900,
            sessions: 1,
            read_passes: 1,
            point_ops: 200_000 / div,
            in_flight_ops: 0,
            laps: laps(7),
            probe_records: 100_000 / div,
            scale_out_first: false,
        },
    ]
}
