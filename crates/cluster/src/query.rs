//! Query execution primitives.
//!
//! AsterixDB compiles each query into a Hyracks job that runs on every
//! partition in parallel; the query time is bounded by the slowest node.
//! The simulation mirrors that structure: a [`QueryExecutor`] hands the
//! caller per-partition data (parallel scans, secondary-index searches,
//! point fetches) and charges each partition's node for the work, plus
//! serial coordinator work for final aggregation. TPC-H query programs in
//! `dynahash-tpch` are written against this API.
//!
//! The operators are push-based: [`QueryExecutor::scan_fold`] and
//! [`QueryExecutor::index_fetch_fold`] hand every record, still borrowed from
//! the component that holds it, to the caller's fold, partition after
//! partition; [`KeyTable`] is the build/probe table joins and group-bys on
//! integer keys use. Each operator charges the nodes for what it read;
//! [`QueryExecutor::scan_table`], [`QueryExecutor::index_scan`] and
//! [`QueryExecutor::fetch`] are the materialising forms of the same passes.
//!
//! The executor holds the cluster for the whole query, so nothing can change
//! the routing state under it: it dispatches each pass to the partition list
//! the CC holds and copies no routing state. The passes themselves (`scan_pass`
//! and `index_pass`) run over any partition list; a
//! [`crate::session::Session`] — the one client that outlives the call that
//! made it, and so the one holder of a routing copy — runs them over its
//! cached list. Open an executor with [`crate::cluster::Cluster::query`].

use std::hash::{BuildHasherDefault, Hasher};

use dynahash_core::{NodeId, PartitionId};
use dynahash_lsm::entry::{Entry, Key, Op};
use dynahash_lsm::{scramble, BucketedLsmTree, ScanOrder, SecondaryEntry};

use crate::cluster::Cluster;
use crate::dataset::{DatasetId, SecondaryIndexDef};
use crate::sim::{self, NodeTimeline, SimDuration};
use crate::{ClusterError, Result};

/// The cost summary of one query execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryReport {
    /// Simulated elapsed time (slowest node + coordinator).
    pub elapsed: SimDuration,
    /// Per-node busy time.
    pub per_node: Vec<(NodeId, SimDuration)>,
    /// Serial coordinator time.
    pub coordinator: SimDuration,
}

/// The build/probe table of joins and group-bys whose key is an integer (a
/// TPC-H surrogate key, or two of them packed): a hash map that mixes the key
/// with [`scramble`] instead of running SipHash over its bytes. The keys come
/// from the datasets, never from outside the program. Iteration order is a
/// function of the insertion history alone, so it repeats run to run — but it
/// is not key order: sort before folding floats out of one.
#[expect(
    clippy::disallowed_types,
    reason = "KeyMixer hashes deterministically, so iteration repeats run to run"
)]
pub type KeyTable<V> = std::collections::HashMap<u64, V, BuildHasherDefault<KeyMixer>>;

/// A table's entries in key order: what a float reduction iterates, so that
/// its result does not depend on where the rows were stored.
pub fn in_key_order<V>(table: KeyTable<V>) -> Vec<(u64, V)> {
    let mut entries: Vec<(u64, V)> = table.into_iter().collect();
    entries.sort_unstable_by_key(|e| e.0);
    entries
}

/// The [`Hasher`] of a [`KeyTable`]: one `u64` in, its [`scramble`] out.
#[derive(Debug, Default, Clone, Copy)]
pub struct KeyMixer(u64);

impl Hasher for KeyMixer {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = scramble(key);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = scramble(self.0 ^ b as u64);
        }
    }
}

/// What a partition pass read on one partition: the counts the executor
/// charges the partition's node from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PassCounts {
    /// Records a scan read, or entries an index pass read (hits plus the
    /// obsolete ones validated away).
    pub(crate) records: u64,
    /// Bytes read.
    pub(crate) bytes: u64,
    /// Buckets a scan reconciles (at least one; none for an index pass).
    pub(crate) buckets: u64,
    /// Records a deferred rebuild warmed before an index pass.
    pub(crate) warmed: u64,
}

/// One pass over `dataset`'s primary index on each of `partitions` that holds
/// it: each record is touched once, by `visit`, and the same pass counts
/// what the partition read. `init` is told how many entries the partition's
/// scan looks at (an upper bound on what it visits). A partition whose node
/// is down refuses the pass ([`Cluster::require_up`]).
pub(crate) fn scan_pass<A>(
    cluster: &Cluster,
    dataset: DatasetId,
    partitions: &[PartitionId],
    order: ScanOrder,
    mut init: impl FnMut(usize) -> A,
    mut visit: impl FnMut(&mut A, &Key, &Op),
) -> Result<Vec<(PartitionId, A, PassCounts)>> {
    let mut out = Vec::with_capacity(partitions.len());
    for &p in partitions {
        cluster.require_up_at(p)?;
        let ds = match cluster.store(p, dataset) {
            Err(ClusterError::UnknownDataset(_)) => continue,
            stored => stored?,
        };
        let primary = &ds.primary;
        let mut acc = init(primary.visible_len());
        let mut records = 0u64;
        let bytes = primary.scan_with(None, None, order, |key, op| {
            records += 1;
            visit(&mut acc, key, op);
        });
        let counts = PassCounts {
            records,
            bytes,
            buckets: primary.num_buckets().max(1) as u64,
            warmed: 0,
        };
        out.push((p, acc, counts));
    }
    Ok(out)
}

/// One pass over `index` in `[lo, hi)` on each of `partitions` that holds
/// `dataset`, after warming any deferred rebuild there: each live entry is
/// handed to `visit` as `(secondary, primary)` key bytes borrowed from the
/// index, together with the partition's primary index and the index's
/// definition. Obsolete entries of moved buckets are validated away but
/// still counted as read, at `sim::INDEX_ENTRY_BYTES` an entry. A partition whose node is
/// down refuses the pass.
pub(crate) fn index_pass<A>(
    cluster: &mut Cluster,
    dataset: DatasetId,
    partitions: &[PartitionId],
    (index, lo, hi): (&str, Option<&Key>, Option<&Key>),
    mut init: impl FnMut() -> A,
    mut visit: impl FnMut(&mut A, &BucketedLsmTree, &SecondaryIndexDef, &[u8], &[u8]),
) -> Result<Vec<(PartitionId, A, PassCounts)>> {
    let mut out = Vec::with_capacity(partitions.len());
    for &p in partitions {
        cluster.require_up_at(p)?;
        let ds = match cluster.store_mut(p, dataset) {
            Err(ClusterError::UnknownDataset(_)) => continue,
            stored => stored?,
        };
        let (warmed, at) = ds.open_index(index)?;
        let (primary, def, idx) = (&ds.primary, &ds.defs[at], &mut ds.secondaries[at]);
        let skipped_before = idx.obsolete_entries_skipped();
        let mut acc = init();
        let mut hits = 0u64;
        idx.visit_range(lo, hi, |secondary, primary_key| {
            hits += 1;
            visit(&mut acc, primary, def, secondary, primary_key);
        });
        let records = hits + idx.obsolete_entries_skipped() - skipped_before;
        let counts = PassCounts {
            records,
            bytes: records * sim::INDEX_ENTRY_BYTES,
            buckets: 0,
            warmed,
        };
        out.push((p, acc, counts));
    }
    Ok(out)
}

/// Executes one query against the cluster, accumulating simulated cost.
pub struct QueryExecutor<'a> {
    cluster: &'a mut Cluster,
    timeline: NodeTimeline,
}

impl Cluster {
    /// Opens a query coordinator: the sanctioned entry point for analytics.
    /// The executor dispatches all per-partition work to the partition list
    /// the CC holds.
    pub fn query(&mut self) -> QueryExecutor<'_> {
        QueryExecutor::new(self)
    }
}

impl<'a> QueryExecutor<'a> {
    /// Starts a query. The job-compilation/dispatch overhead is charged to
    /// the coordinator immediately. Equivalent to
    /// [`crate::cluster::Cluster::query`].
    pub fn new(cluster: &'a mut Cluster) -> Self {
        let mut timeline = NodeTimeline::new();
        timeline.charge_coordinator(sim::JOB_OVERHEAD);
        QueryExecutor { cluster, timeline }
    }

    /// Immutable access to the cluster (for routing metadata etc.).
    pub fn cluster(&self) -> &Cluster {
        self.cluster
    }

    /// Scans an entire dataset on every partition in parallel.
    ///
    /// `ordered` requests primary-key-ordered output, which on bucketed
    /// primary indexes requires a per-partition merge-sort across buckets —
    /// the overhead the paper observes on TPC-H q18.
    pub fn scan_table(
        &mut self,
        dataset: DatasetId,
        ordered: bool,
    ) -> Result<Vec<(PartitionId, Vec<Entry>)>> {
        self.scan_map(dataset, ordered, |key, op| Some(Entry::from_parts(key, op)))
    }

    /// [`QueryExecutor::scan_table`] without the copy: every live record is
    /// handed to `map` still borrowed from its component, and what `map`
    /// keeps is the partition's output.
    pub fn scan_map<T>(
        &mut self,
        dataset: DatasetId,
        ordered: bool,
        mut map: impl FnMut(&Key, &Op) -> Option<T>,
    ) -> Result<Vec<(PartitionId, Vec<T>)>> {
        self.scan_partitions(dataset, ordered, Vec::with_capacity, |rows, key, op| {
            rows.extend(map(key, op))
        })
    }

    /// The streaming scan: every live record of the dataset is handed to
    /// `fold`, still borrowed from its component, partition after partition
    /// in partition order and in scan order within each. Reads and charges
    /// exactly what [`QueryExecutor::scan_table`] does and materialises
    /// nothing.
    pub fn scan_fold(
        &mut self,
        dataset: DatasetId,
        ordered: bool,
        mut fold: impl FnMut(&Key, &[u8]),
    ) -> Result<()> {
        let visit = |_: &mut (), key: &Key, op: &Op| {
            if let Op::Put(payload) = op {
                fold(key, payload);
            }
        };
        self.scan_partitions(dataset, ordered, |_| (), visit)?;
        Ok(())
    }

    /// `scan_pass` over the dataset's partitions, charging each partition's
    /// node for the records and bytes it read.
    fn scan_partitions<A>(
        &mut self,
        dataset: DatasetId,
        ordered: bool,
        init: impl FnMut(usize) -> A,
        visit: impl FnMut(&mut A, &Key, &Op),
    ) -> Result<Vec<(PartitionId, A)>> {
        let order = if ordered {
            ScanOrder::Ordered
        } else {
            ScanOrder::Unordered
        };
        let partitions = &self.cluster.controller.dataset(dataset)?.partitions;
        let passes = scan_pass(self.cluster, dataset, partitions, order, init, visit)?;
        let mut out = Vec::with_capacity(passes.len());
        for (p, acc, read) in passes {
            let mut cost =
                sim::disk_read(read.bytes) + sim::query_cpu(read.records, sim::SCAN_WEIGHT);
            if ordered {
                // Merge-sort across the partition's bucket scans: cost grows
                // with the number of buckets that must be reconciled.
                let ways = (read.buckets as f64).log2().ceil().max(1.0) as u64;
                cost += sim::merge_sort_cpu(read.records * ways);
            }
            self.timeline
                .charge(self.cluster.node_of_partition(p)?, cost);
            out.push((p, acc));
        }
        Ok(out)
    }

    /// Searches a secondary index on every partition in parallel, returning
    /// the candidate (secondary, primary) pairs: an update that changed the
    /// indexed field leaves its old entry behind, so a pair may name a
    /// record whose field no longer matches (the fold validates; see
    /// [`QueryExecutor::index_fetch_fold`]). Obsolete entries of moved
    /// buckets are validated away (lazy cleanup) but still cost read time.
    ///
    /// Buckets installed with a deferred secondary rebuild are warmed first:
    /// the first index scan after a rebalance pays the rebuild CPU the
    /// commit path skipped (charged to the partition's node), and every scan
    /// after that runs at full speed.
    pub fn index_scan(
        &mut self,
        dataset: DatasetId,
        index: &str,
        lo: Option<&Key>,
        hi: Option<&Key>,
    ) -> Result<Vec<(PartitionId, Vec<SecondaryEntry>)>> {
        self.index_partitions(
            dataset,
            (index, lo, hi),
            Vec::new,
            |hits, _, _, secondary, primary| {
                hits.push(SecondaryEntry::from_slices(secondary, primary))
            },
        )
    }

    /// The index-then-fetch plan as one operator: every entry of `index` in
    /// `[lo, hi)` is looked up in the primary index of the partition that
    /// listed it, and each record found is handed to `fold`, key and payload
    /// still borrowed, partition after partition. An entry is a candidate,
    /// validated against the record it names (Luo & Carey, PVLDB 2019): one
    /// whose record the partition no longer holds, or whose record's indexed
    /// field no longer equals the entry's secondary key, folds nothing.
    /// Reads and charges exactly what [`QueryExecutor::index_scan`] followed
    /// by a [`QueryExecutor::fetch`] per partition does, with no key, entry
    /// or record vector in between.
    pub fn index_fetch_fold(
        &mut self,
        dataset: DatasetId,
        index: &str,
        lo: Option<&Key>,
        hi: Option<&Key>,
        mut fold: impl FnMut(&Key, &[u8]),
    ) -> Result<()> {
        let fetched = self.index_partitions(
            dataset,
            (index, lo, hi),
            || (0u64, 0u64),
            |(candidates, bytes), primary_index, def, secondary, primary| {
                *candidates += 1;
                let key = Key::from_slice(primary);
                if let Some(payload) = primary_index.get_ref(&key) {
                    *bytes += (key.len() + payload.len()) as u64;
                    if (def.extractor)(payload).is_some_and(|k| k.as_slice() == secondary) {
                        fold(&key, payload);
                    }
                }
            },
        )?;
        for (p, (candidates, bytes)) in fetched {
            self.charge_fetch(p, candidates, bytes)?;
        }
        Ok(())
    }

    /// `index_pass` over the dataset's partitions, charging each partition's
    /// node for any deferred rebuild it warmed and for the entries it read.
    fn index_partitions<A>(
        &mut self,
        dataset: DatasetId,
        range: (&str, Option<&Key>, Option<&Key>),
        init: impl FnMut() -> A,
        visit: impl FnMut(&mut A, &BucketedLsmTree, &SecondaryIndexDef, &[u8], &[u8]),
    ) -> Result<Vec<(PartitionId, A)>> {
        let partitions = self.cluster.controller.dataset(dataset)?.partitions.clone();
        let passes = index_pass(self.cluster, dataset, &partitions, range, init, visit)?;
        let mut out = Vec::with_capacity(passes.len());
        for (p, acc, read) in passes {
            let node = self.cluster.node_of_partition(p)?;
            if read.warmed > 0 {
                self.timeline
                    .charge(node, sim::index_rebuild_cpu(read.warmed));
            }
            let cost =
                sim::disk_read(read.bytes) + sim::query_cpu(read.records, sim::INDEX_PROBE_WEIGHT);
            self.timeline.charge(node, cost);
            out.push((p, acc));
        }
        Ok(out)
    }

    /// Fetches full records by primary key from a specific partition
    /// (the "fetch records from the bucketed primary index" half of an
    /// index-then-fetch plan). A partition whose node is down refuses with
    /// [`ClusterError::NodeDown`] or [`ClusterError::NodeLost`].
    pub fn fetch(
        &mut self,
        dataset: DatasetId,
        partition: PartitionId,
        keys: &[Key],
    ) -> Result<Vec<Entry>> {
        let primary = &self.cluster.store(partition, dataset)?.primary;
        self.cluster.require_up_at(partition)?;
        let mut out = Vec::with_capacity(keys.len());
        let mut bytes = 0u64;
        for k in keys {
            if let Some(v) = primary.get_ref(k) {
                bytes += (k.len() + v.len()) as u64;
                out.push(Entry::put(k.clone(), v.clone()));
            }
        }
        self.charge_fetch(partition, keys.len() as u64, bytes)?;
        Ok(out)
    }

    /// Charges `partition`'s node for the fetch half of an index-then-fetch
    /// plan: a primary lookup per candidate key, and a read of the key and
    /// payload bytes of the records found.
    fn charge_fetch(&mut self, partition: PartitionId, candidates: u64, bytes: u64) -> Result<()> {
        let cost = sim::disk_read(bytes) + sim::query_cpu(candidates, sim::FETCH_WEIGHT);
        self.timeline
            .charge(self.cluster.node_of_partition(partition)?, cost);
        Ok(())
    }

    /// Charges per-partition compute (joins, grouping, expensive expressions)
    /// over `records` records with a relative `weight`, spread evenly across
    /// all partitions: after the scan the engine re-partitions the data for
    /// joins and group-bys, so this work does not inherit the scan-side
    /// imbalance.
    pub fn charge_balanced(&mut self, records: u64, weight: f64) -> Result<()> {
        let partitions = self.cluster.topology().partitions();
        let per = records / partitions.len().max(1) as u64;
        let cost = sim::query_cpu(per, weight);
        for p in partitions {
            self.timeline
                .charge(self.cluster.node_of_partition(p)?, cost);
        }
        Ok(())
    }

    /// Charges serial coordinator-side compute (final merges, top-k, output).
    pub fn charge_coordinator(&mut self, records: u64, weight: f64) {
        let cost = sim::query_cpu(records, weight);
        self.timeline.charge_coordinator(cost);
    }

    /// Finishes the query and returns its cost report.
    pub fn finish(self) -> QueryReport {
        QueryReport {
            elapsed: self.timeline.elapsed(),
            per_node: self.timeline.breakdown(),
            coordinator: self.timeline.coordinator_time(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetSpec, SecondaryIndexDef};
    use dynahash_core::Scheme;
    use dynahash_lsm::Bytes;

    fn setup() -> (Cluster, DatasetId) {
        let mut cluster = Cluster::new(2);
        let spec = DatasetSpec::new("orders", Scheme::StaticHash { num_buckets: 16 })
            .with_secondary_index(SecondaryIndexDef::new("idx_date", |payload| {
                if payload.len() >= 8 {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(&payload[..8]);
                    Some(Key::from_u64(u64::from_be_bytes(b)))
                } else {
                    None
                }
            }));
        let ds = cluster.create_dataset(spec).unwrap();
        let records: Vec<(Key, Bytes)> = (0..2000u64)
            .map(|i| {
                let mut payload = (i % 30).to_be_bytes().to_vec();
                payload.extend_from_slice(&[1u8; 56]);
                (Key::from_u64(i), Bytes::from(payload))
            })
            .collect();
        cluster.ingest(ds, records).unwrap();
        (cluster, ds)
    }

    #[test]
    fn scan_table_returns_all_records_and_charges_nodes() {
        let (mut cluster, ds) = setup();
        let mut q = QueryExecutor::new(&mut cluster);
        let scans = q.scan_table(ds, false).unwrap();
        let total: usize = scans.iter().map(|(_, v)| v.len()).sum();
        assert_eq!(total, 2000);
        let report = q.finish();
        assert!(report.elapsed > SimDuration::ZERO);
        assert_eq!(report.per_node.len(), 2);
    }

    #[test]
    fn ordered_scan_costs_more_than_unordered() {
        let (mut cluster, ds) = setup();
        let unordered = {
            let mut q = QueryExecutor::new(&mut cluster);
            q.scan_table(ds, false).unwrap();
            q.finish().elapsed
        };
        let ordered = {
            let mut q = QueryExecutor::new(&mut cluster);
            let scans = q.scan_table(ds, true).unwrap();
            // ordered scans really are ordered per partition
            for (_, entries) in &scans {
                assert!(entries.windows(2).all(|w| w[0].key <= w[1].key));
            }
            q.finish().elapsed
        };
        assert!(ordered > unordered);
    }

    #[test]
    fn collect_records_dedupes_nothing_on_a_consistent_cluster() {
        let (cluster, ds) = setup();
        let mut session = cluster.session(ds).unwrap();
        let (map, raw) = session.collect_records(&cluster).unwrap();
        assert_eq!(map.len(), 2000);
        assert_eq!(raw, 2000, "no key may be visible on two partitions");
        assert!(map.contains_key(&Key::from_u64(0)));
    }

    #[test]
    fn index_scan_filters_by_secondary_range() {
        let (mut cluster, ds) = setup();
        let mut q = QueryExecutor::new(&mut cluster);
        let lo = Key::from_u64(5);
        let hi = Key::from_u64(10);
        let hits = q.index_scan(ds, "idx_date", Some(&lo), Some(&hi)).unwrap();
        let total: usize = hits.iter().map(|(_, v)| v.len()).sum();
        // secondary keys are i % 30 over 2000 records: 5 values x ~66.7 records
        assert!(total > 300 && total < 350, "unexpected hit count {total}");
        assert!(q.index_scan(ds, "no_such_index", None, None).is_err());
        let report = q.finish();
        assert!(report.elapsed > SimDuration::ZERO);
    }

    #[test]
    fn fetch_returns_records_for_existing_keys() {
        let (mut cluster, ds) = setup();
        // find which partition holds key 7
        let p = cluster.route_key(ds, &Key::from_u64(7)).unwrap();
        let mut q = QueryExecutor::new(&mut cluster);
        let got = q
            .fetch(ds, p, &[Key::from_u64(7), Key::from_u64(999_999)])
            .unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].key.as_u64(), 7);
    }

    #[test]
    fn scan_and_compute_charges_accumulate() {
        let (mut cluster, ds) = setup();
        let mut q = QueryExecutor::new(&mut cluster);
        q.scan_table(ds, false).unwrap();
        let before = q.timeline.elapsed();
        q.charge_balanced(10_000, 2.0).unwrap();
        q.charge_coordinator(1000, 1.0);
        let report = q.finish();
        assert!(report.elapsed > before);
        assert!(report.coordinator > SimDuration::ZERO);
    }
}
