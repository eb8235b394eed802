//! The system under test plus the benchmark's own model of what it holds.
//!
//! A [`World`] is a 4-node cluster loaded either with one key-value dataset
//! (records generated from the seed) or with the eight TPC-H tables. Every
//! point operation, scan and query is checked against the model kept here,
//! so a wrong answer counts as a failed operation.

use dynahash_cluster::{Cluster, DatasetId, DatasetSpec, SecondaryIndexDef};
use dynahash_core::Scheme;
use dynahash_lsm::entry::Key;
use dynahash_lsm::rng::{scramble, SplitMix64, Zipfian};
use dynahash_lsm::{Bytes, Entry};
use dynahash_tpch::loader::LINEITEM_INDEX;
use dynahash_tpch::schema::field_u64;
use dynahash_tpch::{load_tpch, TpchData, TpchScale, TpchTables};

use crate::trace::Tracer;

/// Nodes every workload starts with.
pub const NODES: u32 = 4;
/// Records per `Session::ingest` call.
pub const BATCH: usize = 10_000;
/// Bytes of one key-value payload.
pub const VALUE_LEN: usize = 96;
/// Name of the secondary index of the `ingest_heavy` dataset.
pub const KV_INDEX: &str = "idx_kv_group";
/// Distinct values of the indexed field.
pub const KV_GROUPS: u64 = 4096;

const VERSION_AT: usize = 0;
const RANK_AT: usize = 4;
const GROUP_AT: usize = 12;
const FILLER_AT: usize = 20;
const FILLER_POOL: usize = 4096;

/// How point operations choose their keys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDist {
    /// Zipfian with the given exponent over scrambled ranks.
    Zipf(f64),
    /// Uniform over the loaded ranks.
    Uniform,
}

/// Seeded stream of `(rank, is_get)` point operations.
#[derive(Debug)]
pub struct OpGen {
    rng: SplitMix64,
    zipf: Option<Zipfian>,
    n: u64,
    get_per_mille: u32,
}

impl OpGen {
    /// A stream over ranks `0..n` with `get_per_mille` reads per thousand.
    pub fn new(seed: u64, dist: KeyDist, n: u64, get_per_mille: u32) -> Self {
        OpGen {
            rng: SplitMix64::seed_from_u64(seed),
            zipf: match dist {
                KeyDist::Zipf(s) => Some(Zipfian::new(n, s)),
                KeyDist::Uniform => None,
            },
            n,
            get_per_mille,
        }
    }

    /// The next operation.
    pub fn next_op(&mut self) -> (u64, bool) {
        let rank = match &self.zipf {
            Some(z) => z.sample(&mut self.rng) - 1,
            None => self.rng.gen_range(0..self.n),
        };
        (rank, self.rng.gen_ratio(self.get_per_mille, 1000))
    }
}

/// Model of the key-value dataset: the current version of every rank.
#[derive(Debug)]
pub struct KvModel {
    salt: u64,
    versions: Vec<u32>,
    filler: Vec<u8>,
    /// Key plus payload bytes handed to the system so far.
    pub user_bytes_written: u64,
}

impl KvModel {
    fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0x5eed_f111);
        KvModel {
            // Distinct seeds get disjoint key sets: `scramble` is a bijection
            // and the salts are 2^32 apart.
            salt: seed << 32,
            versions: Vec::new(),
            filler: (0..FILLER_POOL).map(|_| rng.next_u64() as u8).collect(),
            user_bytes_written: 0,
        }
    }

    /// Ranks that hold a record.
    pub fn len(&self) -> u64 {
        self.versions.len() as u64
    }

    /// The key of a rank.
    pub fn key(&self, rank: u64) -> Key {
        Key::from_u64(scramble(self.salt.wrapping_add(rank)))
    }

    fn payload(&self, rank: u64, version: u32) -> Bytes {
        let mut v = Vec::with_capacity(VALUE_LEN);
        v.extend_from_slice(&version.to_be_bytes());
        v.extend_from_slice(&rank.to_be_bytes());
        v.extend_from_slice(&(scramble(rank) % KV_GROUPS).to_be_bytes());
        let at = (rank as usize * 7 + version as usize * 13) % (FILLER_POOL - VALUE_LEN);
        v.extend_from_slice(&self.filler[at..at + VALUE_LEN - FILLER_AT]);
        Bytes::from(v)
    }

    /// The next write of `rank` (an insert when `rank == len()`): bumps the
    /// model's version and returns the record to hand to the system.
    pub fn next_put(&mut self, rank: u64) -> (Key, Bytes) {
        if rank == self.len() {
            self.versions.push(0);
        }
        let v = &mut self.versions[rank as usize];
        *v += 1;
        let version = *v;
        let record = (self.key(rank), self.payload(rank, version));
        self.user_bytes_written += (record.0.len() + record.1.len()) as u64;
        record
    }

    /// Whether `got` is what a read of `rank` must return.
    pub fn check_get(&self, rank: u64, got: Option<&Bytes>) -> bool {
        match (self.versions.get(rank as usize), got) {
            (Some(&version), Some(value)) => decode(value) == Some((version, rank)),
            (None, None) => true,
            _ => false,
        }
    }

    /// Whether a scanned entry is the current version of its rank.
    pub fn check_entry(&self, entry: &Entry) -> bool {
        let Some((version, rank)) = entry.op.value().and_then(decode) else {
            return false;
        };
        self.versions.get(rank as usize) == Some(&version) && self.key(rank) == entry.key
    }

    /// Records whose indexed field is below `hi`.
    pub fn group_count(&self, hi: u64) -> usize {
        (0..self.len())
            .filter(|rank| scramble(*rank) % KV_GROUPS < hi)
            .count()
    }

    /// Key plus payload bytes of the live records.
    pub fn live_user_bytes(&self) -> u64 {
        self.len() * (8 + VALUE_LEN) as u64
    }
}

fn decode(value: &Bytes) -> Option<(u32, u64)> {
    let bytes: &[u8] = value.as_ref();
    let version = u32::from_be_bytes(bytes.get(VERSION_AT..RANK_AT)?.try_into().ok()?);
    let rank = u64::from_be_bytes(bytes.get(RANK_AT..GROUP_AT)?.try_into().ok()?);
    Some((version, rank))
}

/// The indexed field of a key-value payload.
pub fn kv_group(payload: &[u8]) -> Option<u64> {
    Some(u64::from_be_bytes(
        payload.get(GROUP_AT..FILLER_AT)?.try_into().ok()?,
    ))
}

/// Model of the TPC-H tables: the generated rows and the reference answers.
#[derive(Debug)]
pub struct TpchModel {
    /// Dataset ids of the eight tables.
    pub tables: TpchTables,
    /// The generated rows.
    pub data: TpchData,
    /// Answer of each query on the freshly loaded cluster (filled by the
    /// first query pass; later passes must reproduce it).
    pub answers: Vec<f64>,
    /// Key plus payload bytes handed to the system after the load.
    pub user_bytes_written: u64,
}

/// What the cluster holds.
#[derive(Debug)]
pub enum Data {
    /// One key-value dataset.
    Kv(KvModel),
    /// The eight TPC-H tables.
    Tpch(Box<TpchModel>),
}

/// Which dataset a workload loads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DataKind {
    /// `records` key-value records; optionally a secondary index on the
    /// group field.
    Kv {
        /// Records loaded during set-up.
        records: usize,
        /// Whether the dataset carries the secondary index.
        secondary: bool,
    },
    /// TPC-H with this many orders per node.
    Tpch {
        /// Orders per node (`TpchScale::per_node`).
        orders_per_node: usize,
    },
}

/// The TPC-H scale of a workload: `orders_per_node` on every node, data
/// generated from `seed`.
pub fn tpch_scale(orders_per_node: usize, seed: u64) -> TpchScale {
    TpchScale {
        seed,
        ..TpchScale::per_node(orders_per_node, NODES as usize)
    }
}

/// A loaded cluster and its model.
#[derive(Debug)]
pub struct World {
    /// The system under test.
    pub cluster: Cluster,
    /// Every dataset, in the order a rebalance moves them.
    pub datasets: Vec<DatasetId>,
    /// The dataset point operations and scans address.
    pub ops_dataset: DatasetId,
    /// The secondary index of that dataset, if it has one.
    pub index: Option<&'static str>,
    /// The benchmark's model of the contents.
    pub data: Data,
}

/// What one set-up reported.
#[derive(Debug, Clone, Default)]
pub struct LoadStats {
    /// Records ingested.
    pub records: u64,
    /// Wall nanoseconds of each ingest call, in order.
    pub call_ns: Vec<f64>,
    /// Simulated seconds the ingest reports charged.
    pub sim_s: f64,
}

impl LoadStats {
    /// Wall seconds inside the ingest calls.
    pub fn ingest_s(&self) -> f64 {
        self.call_ns.iter().sum::<f64>() / 1e9
    }
}

impl World {
    /// Builds a fresh cluster and loads it. Every call into the system is
    /// timed through `tracer`, so the caller reads set-up time off its clock.
    pub fn build(
        kind: DataKind,
        max_bucket_bytes: u64,
        seed: u64,
        tracer: &mut Tracer,
    ) -> Result<(World, LoadStats), String> {
        let scheme = Scheme::dynahash(max_bucket_bytes, NODES * 4);
        let (mut cluster, _) = tracer.span("cluster.new", 1, |_| Cluster::new(NODES));
        match kind {
            DataKind::Kv { records, secondary } => {
                let mut spec = DatasetSpec::new("kv", scheme);
                if secondary {
                    spec = spec.with_secondary_index(SecondaryIndexDef::new(KV_INDEX, |p| {
                        kv_group(p).map(Key::from_u64)
                    }));
                }
                let (ds, _) = tracer.span("cluster.create_dataset", 1, |_| {
                    cluster.create_dataset(spec)
                });
                let ds = ds.map_err(|e| e.to_string())?;
                let mut world = World {
                    cluster,
                    datasets: vec![ds],
                    ops_dataset: ds,
                    index: secondary.then_some(KV_INDEX),
                    data: Data::Kv(KvModel::new(seed)),
                };
                let stats = world.ingest_new(records, tracer)?;
                Ok((world, stats))
            }
            DataKind::Tpch { orders_per_node } => {
                let scale = tpch_scale(orders_per_node, seed);
                let (loaded, ns) =
                    tracer.span("tpch.load", 1, |_| load_tpch(&mut cluster, scheme, scale));
                let (tables, data, report) = loaded.map_err(|e| e.to_string())?;
                let stats = LoadStats {
                    records: data.total_rows() as u64,
                    call_ns: vec![ns],
                    sim_s: report.elapsed.as_secs_f64(),
                };
                let datasets = vec![
                    tables.lineitem,
                    tables.orders,
                    tables.customer,
                    tables.part,
                    tables.supplier,
                    tables.partsupp,
                    tables.nation,
                    tables.region,
                ];
                let model = TpchModel {
                    tables,
                    data,
                    answers: Vec::new(),
                    user_bytes_written: 0,
                };
                Ok((
                    World {
                        cluster,
                        datasets,
                        ops_dataset: tables.lineitem,
                        index: Some(LINEITEM_INDEX),
                        data: Data::Tpch(Box::new(model)),
                    },
                    stats,
                ))
            }
        }
    }

    /// Ingests `count` new key-value records (the next ranks) through one
    /// session in batches of [`BATCH`].
    pub fn ingest_new(&mut self, count: usize, tracer: &mut Tracer) -> Result<LoadStats, String> {
        let Data::Kv(model) = &mut self.data else {
            return Err("ingest_new needs a key-value world".to_string());
        };
        let mut session = self
            .cluster
            .session(self.ops_dataset)
            .map_err(|e| e.to_string())?;
        let mut stats = LoadStats::default();
        let mut left = count;
        while left > 0 {
            let n = left.min(BATCH);
            let batch: Vec<(Key, Bytes)> = (0..n).map(|_| model.next_put(model.len())).collect();
            let (report, ns) = tracer.span("cluster.session_ingest", n as u64, |_| {
                session.ingest(&mut self.cluster, batch)
            });
            let report = report.map_err(|e| e.to_string())?;
            stats.records += n as u64;
            stats.call_ns.push(ns);
            stats.sim_s += report.elapsed.as_secs_f64();
            left -= n;
        }
        Ok(stats)
    }

    /// Ranks a point operation may address.
    pub fn ranks(&self) -> u64 {
        match &self.data {
            Data::Kv(m) => m.len(),
            Data::Tpch(m) => m.data.lineitem.len() as u64,
        }
    }

    /// The first `n` records as the system holds them now: the probe's
    /// input.
    pub fn probe_records(&self, n: usize) -> Vec<(Key, Bytes)> {
        match &self.data {
            Data::Kv(m) => (0..m.len().min(n as u64))
                .map(|rank| (m.key(rank), m.payload(rank, m.versions[rank as usize])))
                .collect(),
            Data::Tpch(m) => m
                .data
                .lineitem
                .iter()
                .take(n)
                .map(|r| (r.primary_key(), r.encode()))
                .collect(),
        }
    }

    /// The key a read of `rank` looks up.
    pub fn key(&self, rank: u64) -> Key {
        match &self.data {
            Data::Kv(m) => m.key(rank),
            Data::Tpch(m) => m.data.lineitem[rank as usize].primary_key(),
        }
    }

    /// The record a write of `rank` stores (updates the model).
    pub fn next_put(&mut self, rank: u64) -> (Key, Bytes) {
        match &mut self.data {
            Data::Kv(m) => m.next_put(rank),
            // TPC-H rows are rewritten unchanged, so query answers hold.
            Data::Tpch(m) => {
                let row = &m.data.lineitem[rank as usize];
                let record = (row.primary_key(), row.encode());
                m.user_bytes_written += (record.0.len() + record.1.len()) as u64;
                record
            }
        }
    }

    /// Whether `got` is the right answer to a read of `rank`.
    pub fn check_get(&self, rank: u64, got: Option<&Bytes>) -> bool {
        match &self.data {
            Data::Kv(m) => m.check_get(rank, got),
            Data::Tpch(m) => got == Some(&m.data.lineitem[rank as usize].encode()),
        }
    }

    /// Whether a scan of the operations dataset returned exactly the live
    /// records, each in its current version.
    pub fn check_scan(&self, entries: &[Entry]) -> bool {
        match &self.data {
            Data::Kv(m) => {
                entries.len() as u64 == m.len() && entries.iter().all(|e| m.check_entry(e))
            }
            Data::Tpch(m) => {
                entries.len() == m.data.lineitem.len()
                    && entries.iter().all(|e| {
                        e.op.value().is_some_and(|v| {
                            (field_u64(v.as_ref(), 0), field_u64(v.as_ref(), 1))
                                == (Some(e.key.as_pair().0), Some(e.key.as_pair().1))
                        })
                    })
            }
        }
    }
}
