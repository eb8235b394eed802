//! The one-shot rebalance entry point (Section V).
//!
//! [`Cluster::rebalance`] moves a dataset onto a target topology. For
//! bucketed schemes (StaticHash / DynaHash) it plans a [`RebalanceJob`] and
//! hands it to the engine's own driver, [`RebalanceJob::drive_with`] in
//! [`crate::job`]. All this module adds at the [`StepPoint`] boundaries the
//! driver passes is what [`RebalanceOptions`] and the cluster's
//! [`FaultSchedule`](crate::fault::FaultSchedule) ask for: the scenario's
//! concurrent writes spread over the waves, and whatever faults are
//! scheduled at the boundary ([`Cluster::fire_faults`]). A scenario that
//! wants more at a boundary plans the job itself and passes its own callback
//! to `drive_with`. For the Hashing baseline it performs AsterixDB's
//! original global rebalancing: a brand-new hash-partitioned copy of the
//! dataset is built on the target partitions and swapped in, which moves
//! nearly every record.

use std::collections::BTreeMap;

use dynahash_core::{ClusterTopology, NodeId, PartitionId, RebalanceOutcome};
use dynahash_lsm::entry::{Key, Op, Value};
use dynahash_lsm::wal::RebalanceId;

use crate::cluster::{Cluster, Write};
use crate::dataset::DatasetId;
use crate::feed::split_into_batches;
use crate::job::{RebalanceJob, StepPoint};
use crate::sim::{self, NodeTimeline, SimDuration};
use crate::{ClusterError, Result};

/// Options controlling a rebalance operation, built fluently:
///
/// ```ignore
/// RebalanceOptions::none()
///     .with_max_concurrent_moves(4)
///     .with_concurrent_writes(writes)
/// ```
#[derive(Debug, Default)]
pub struct RebalanceOptions {
    /// Records that arrive (through a data feed) while the rebalance is
    /// running. The driver spreads them across the job's waves; records
    /// hitting an already-shipped bucket are replicated to its destination.
    /// Only supported by bucketed schemes.
    pub concurrent_writes: Vec<(Key, Value)>,
    /// How many bucket moves each wave runs in parallel (clamped to >= 1).
    /// 1 — the default — is the most conservative cost model: buckets move
    /// strictly one at a time and every wave is charged its slowest node.
    /// Wider waves overlap moves across nodes and finish measurably faster
    /// (the figure experiments use 4, matching AsterixDB's single Hyracks
    /// job shipping from all partitions concurrently). Ignored by the
    /// Hashing scheme.
    pub max_concurrent_moves: usize,
}

impl RebalanceOptions {
    /// No concurrent writes, serial bucket movement.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds concurrent writes to the scenario.
    pub fn with_concurrent_writes(mut self, writes: Vec<(Key, Value)>) -> Self {
        self.concurrent_writes = writes;
        self
    }

    /// Sets how many bucket moves each wave runs in parallel.
    pub fn with_max_concurrent_moves(mut self, moves: usize) -> Self {
        self.max_concurrent_moves = moves;
        self
    }
}

/// Per-phase simulated times of a rebalance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTimes {
    /// Initialization: directory refresh, planning, snapshot flushes.
    pub initialization: SimDuration,
    /// Data movement: the sum of the waves' makespans plus concurrent write
    /// replication.
    pub data_movement: SimDuration,
    /// Finalization: prepare + commit (or abort and cleanup).
    pub finalization: SimDuration,
}

/// The result of a rebalance operation.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceReport {
    /// The rebalance operation id.
    pub rebalance_id: RebalanceId,
    /// Committed or aborted.
    pub outcome: RebalanceOutcome,
    /// Total simulated elapsed time.
    pub elapsed: SimDuration,
    /// Per-phase breakdown.
    pub phases: PhaseTimes,
    /// Bytes of primary-index data scanned and shipped.
    pub bytes_moved: u64,
    /// Entries moved. Exact for the Hashing scheme, which moves records one
    /// by one, and for a feed-staged bucket, which holds one entry per key.
    /// A bucket shipped as components counts the entries visible through
    /// its handles: an upper bound on its live records, since shadowed
    /// versions and tombstones in older components count too.
    pub entries_moved: u64,
    /// Buckets moved (0 for the Hashing scheme, which has no buckets).
    pub buckets_moved: usize,
    /// Fraction of the dataset's primary bytes that moved.
    pub moved_fraction: f64,
    /// Per-node busy time.
    pub per_node: Vec<(NodeId, SimDuration)>,
    /// Concurrent writes applied during the rebalance.
    pub concurrent_writes_applied: u64,
    /// Transfer attempts retried after a transient fault (0 without an
    /// installed fault schedule).
    pub retries: u64,
    /// Moves rerouted to survivors by re-planning around lost nodes.
    pub reroutes: u64,
}

impl RebalanceReport {
    /// The report of an operation that moved `bytes_moved` in `entries_moved`
    /// of a dataset holding `total_bytes`: elapsed time is the three phases
    /// back to back, per-node busy time is `busy`'s. The fields only a
    /// bucketed job has — buckets, concurrent writes, retries, reroutes —
    /// start at zero.
    pub(crate) fn new(
        rebalance_id: RebalanceId,
        outcome: RebalanceOutcome,
        phases: PhaseTimes,
        busy: &NodeTimeline,
        bytes_moved: u64,
        entries_moved: u64,
        total_bytes: u64,
    ) -> Self {
        RebalanceReport {
            rebalance_id,
            outcome,
            elapsed: phases.initialization + phases.data_movement + phases.finalization,
            phases,
            bytes_moved,
            entries_moved,
            buckets_moved: 0,
            moved_fraction: if total_bytes == 0 {
                0.0
            } else {
                bytes_moved as f64 / total_bytes as f64
            },
            per_node: busy.breakdown(),
            concurrent_writes_applied: 0,
            retries: 0,
            reroutes: 0,
        }
    }
}

impl Cluster {
    /// Rebalances a dataset onto the target topology.
    pub fn rebalance(
        &mut self,
        dataset: DatasetId,
        target: &ClusterTopology,
        options: RebalanceOptions,
    ) -> Result<RebalanceReport> {
        if target.is_empty() {
            return Err(ClusterError::Core(dynahash_core::CoreError::EmptyTopology));
        }
        let scheme = self.scheme_of(dataset)?;
        if scheme.is_bucketed() {
            self.rebalance_bucketed(dataset, target, options)
        } else {
            self.rebalance_hashing(dataset, target, options)
        }
    }

    // =================================================== bucketed schemes ===

    /// The one-shot entry point: plan, then [`RebalanceJob::drive_with`] the
    /// scenario's writes and the scheduled faults applied at the boundaries.
    fn rebalance_bucketed(
        &mut self,
        dataset: DatasetId,
        target: &ClusterTopology,
        options: RebalanceOptions,
    ) -> Result<RebalanceReport> {
        let mut job = RebalanceJob::plan(self, dataset, target, options.max_concurrent_moves)?;
        // Spread the scenario's concurrent writes across the waves; the
        // remainder (or everything, for a no-op plan) lands before prepare.
        let waves = job.num_waves().max(1);
        let mut batches = split_into_batches(options.concurrent_writes, waves).into_iter();
        job.drive_with(self, |cluster, job, point| {
            match point {
                StepPoint::AfterWave(_) => {
                    if let Some(batch) = batches.next().filter(|b| !b.is_empty()) {
                        job.apply_feed_batch(cluster, batch)?;
                    }
                }
                StepPoint::BeforePrepare => {
                    for batch in batches.by_ref().filter(|b| !b.is_empty()) {
                        job.apply_feed_batch(cluster, batch)?;
                    }
                }
                _ => {}
            }
            cluster.fire_faults(point, std::slice::from_mut(job))?;
            Ok(())
        })
    }

    // ================================================= Hashing (global) ====

    /// Global rebalancing, all in one call: there is no step boundary for a
    /// scheduled fault to fire at, so the baseline ignores step faults
    /// exactly as it ignores transient ones. Every node
    /// holding the dataset and every node of the target must be up
    /// ([`Cluster::require_up`]): the refusal comes before BEGIN is logged
    /// and before any storage is dropped.
    ///
    /// The scan becomes one write group, each key hashed once. The old
    /// storage is dropped, the new routing metadata swapped in, and the
    /// group written through the one write door ([`Cluster::write_group`]),
    /// which routes it by that metadata — so, when heat tracking is armed,
    /// the rebuild's writes note heat as every Hashing write group does.
    fn rebalance_hashing(
        &mut self,
        dataset: DatasetId,
        target: &ClusterTopology,
        options: RebalanceOptions,
    ) -> Result<RebalanceReport> {
        if !options.concurrent_writes.is_empty() {
            return Err(ClusterError::RebalanceAborted(
                "the Hashing scheme rebuilds the dataset and does not support concurrent writes"
                    .to_string(),
            ));
        }
        let old_partitions = self.controller.dataset(dataset)?.partitions.clone();
        for p in &old_partitions {
            self.require_up_at(*p)?;
        }
        for node in target.nodes() {
            self.require_up(node)?;
        }
        let rebalance_id = self.controller.log_begin(dataset);
        let mut tl = NodeTimeline::new();
        tl.charge_coordinator(sim::JOB_OVERHEAD);

        let spec = self.controller.dataset(dataset)?.spec.clone();
        let new_partitions = target.partitions();
        let total_bytes = self.dataset_primary_bytes(dataset)?;

        // Scan every partition into one write group, routing every record
        // to its new partition to price what each one loads.
        let mut writes = Vec::new();
        let mut loads: BTreeMap<PartitionId, (u64, u64)> =
            new_partitions.iter().map(|p| (*p, (0, 0))).collect();
        let mut bytes_moved = 0u64;
        // Cross-node traffic is shipped in batches (Hyracks frames); charge
        // the network per (source partition, destination node) batch.
        let mut inbound_bytes: BTreeMap<NodeId, u64> = BTreeMap::new();
        for p in &old_partitions {
            let src_node = self.node_of_partition(*p)?;
            let ds = match self.store(*p, dataset) {
                Err(ClusterError::UnknownDataset(_)) => continue,
                stored => stored?,
            };
            let entries = ds.primary.scan(dynahash_lsm::ScanOrder::Unordered);
            let scan_bytes: u64 = entries.iter().map(|e| e.size_bytes() as u64).sum();
            tl.charge(src_node, sim::disk_read(scan_bytes));
            for e in entries {
                let record_bytes = e.size_bytes() as u64;
                let Op::Put(value) = e.op else {
                    continue;
                };
                let load_bytes = (e.key.len() + value.len()) as u64;
                let write = Write::new(e.key, Some(value));
                let dst = dynahash_core::Scheme::modulo_partition(write.hash, &new_partitions);
                let dst_node = target
                    .node_of(dst)
                    .ok_or(ClusterError::UnknownPartition(dst))?;
                bytes_moved += record_bytes;
                if dst_node != src_node {
                    *inbound_bytes.entry(dst_node).or_default() += record_bytes;
                }
                let load = loads.entry(dst).or_default();
                load.0 += load_bytes;
                load.1 += 1;
                writes.push(write);
            }
        }
        for (node, bytes) in &inbound_bytes {
            tl.charge(*node, sim::network(*bytes));
        }
        for (p, (load_bytes, n_records)) in loads {
            let dst_node = target.node_of(p).ok_or(ClusterError::UnknownPartition(p))?;
            // The Hashing baseline re-inserts every record through the full
            // ingestion pipeline of the new dataset (parse, primary and
            // secondary index maintenance), which is what makes global
            // rebalancing so much more expensive than shipping sealed bucket
            // components.
            tl.charge(
                dst_node,
                sim::disk_write(load_bytes) + sim::ingest_cpu(n_records),
            );
        }

        // Drop the old storage, create the new hash-partitioned dataset and
        // swap the routing metadata: the version bump tells cached sessions
        // their modulo routes are void, the dataset being rebuilt wholesale
        // on the new partition list. Then write the group through it.
        for p in self.topology().partitions() {
            self.partition_mut(p)?.drop_dataset(dataset);
        }
        for p in &new_partitions {
            self.partition_mut(*p)?.create_dataset(
                dataset,
                &spec,
                vec![dynahash_lsm::BucketId::root()],
            );
        }
        {
            let meta = self.controller.dataset_mut(dataset)?;
            meta.partitions = new_partitions;
            meta.directory = None;
            meta.bump_partitions_version();
        }
        let entries_moved = writes.len() as u64;
        self.write_group(dataset, &mut writes, None, |_, _, _| {})?;
        self.controller
            .log_outcome(rebalance_id, RebalanceOutcome::Committed);
        self.controller.log_done(rebalance_id);

        // The baseline has no phases, buckets, retries or re-plans to report:
        // everything it does is one data-movement pass.
        let phases = PhaseTimes {
            data_movement: tl.elapsed(),
            ..Default::default()
        };
        let mut report = RebalanceReport::new(
            rebalance_id,
            RebalanceOutcome::Committed,
            phases,
            &tl,
            bytes_moved,
            entries_moved,
            total_bytes,
        );
        report.moved_fraction = report.moved_fraction.min(1.0);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetSpec, SecondaryIndexDef};
    use dynahash_core::Scheme;
    use dynahash_lsm::wal::LogRecordBody;
    use dynahash_lsm::Bytes;

    /// Live records of `dataset` stored on `node`'s partitions.
    fn live_on_node(cluster: &Cluster, dataset: DatasetId, node: NodeId) -> usize {
        let live = cluster.dataset_distribution(dataset).unwrap_or_default();
        let partitions = cluster.topology().partitions_of_node(node);
        partitions.iter().filter_map(|p| live.get(p)).sum()
    }

    fn payload(tag: u64) -> Bytes {
        let mut v = tag.to_be_bytes().to_vec();
        v.extend_from_slice(&[9u8; 56]);
        Bytes::from(v)
    }

    fn records(n: u64) -> Vec<(Key, Value)> {
        (0..n)
            .map(|i| (Key::from_u64(i), payload(i % 50)))
            .collect()
    }

    fn spec(scheme: Scheme) -> DatasetSpec {
        DatasetSpec::new("orders", scheme).with_secondary_index(SecondaryIndexDef::new(
            "idx_tag",
            |p: &[u8]| {
                if p.len() >= 8 {
                    let mut b = [0u8; 8];
                    b.copy_from_slice(&p[..8]);
                    Some(Key::from_u64(u64::from_be_bytes(b)))
                } else {
                    None
                }
            },
        ))
    }

    fn loaded_cluster(nodes: u32, scheme: Scheme, n_records: u64) -> (Cluster, DatasetId) {
        let mut cluster = Cluster::with_config(
            nodes,
            crate::ClusterConfig {
                partitions_per_node: 2,
            },
        );
        let ds = cluster.create_dataset(spec(scheme)).unwrap();
        cluster.ingest(ds, records(n_records)).unwrap();
        (cluster, ds)
    }

    #[test]
    fn bucketed_scale_out_moves_a_fraction_and_stays_consistent() {
        let (mut cluster, ds) = loaded_cluster(2, Scheme::StaticHash { num_buckets: 32 }, 3000);
        let before = cluster.dataset_len(ds).unwrap();
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        let report = cluster
            .rebalance(ds, &target, RebalanceOptions::none())
            .unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        assert!(report.buckets_moved > 0);
        assert!(
            report.moved_fraction < 0.6,
            "moved {}",
            report.moved_fraction
        );
        assert_eq!(cluster.dataset_len(ds).unwrap(), before);
        cluster.check_dataset_consistency(ds).unwrap();
        // the new node now holds data
        assert!(live_on_node(&cluster, ds, NodeId(2)) > 0);
    }

    #[test]
    fn hashing_rebalance_moves_nearly_everything() {
        let (mut cluster, ds) = loaded_cluster(2, Scheme::Hashing, 2000);
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        let report = cluster
            .rebalance(ds, &target, RebalanceOptions::none())
            .unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        assert!(
            report.moved_fraction > 0.8,
            "global rebalancing must move most data"
        );
        assert_eq!(cluster.dataset_len(ds).unwrap(), 2000);
        cluster.check_dataset_consistency(ds).unwrap();
        // the rebuilt index holds exactly one entry per record, its tag
        let hits = (cluster.query().index_scan(ds, "idx_tag", None, None)).unwrap();
        let mut entries: Vec<(u64, u64)> = (hits.into_iter().flat_map(|(_, hits)| hits))
            .map(|e| (e.primary.as_u64(), e.secondary.as_u64()))
            .collect();
        entries.sort_unstable();
        let expected: Vec<(u64, u64)> = (0..2000).map(|i| (i, i % 50)).collect();
        assert_eq!(entries, expected);
    }

    /// The Hashing rebuild writes to every target node and reads every node
    /// holding the dataset, so a crashed or lost one refuses it before BEGIN
    /// is logged: nothing is dropped, rebuilt or re-routed.
    #[test]
    fn a_hashing_rebuild_refuses_a_node_that_is_not_up() {
        for lost in [false, true] {
            let (mut cluster, ds) = loaded_cluster(3, Scheme::Hashing, 2000);
            let target = cluster.topology_without(NodeId(2));
            match lost {
                false => cluster.crash_node(NodeId(1)).unwrap(),
                true => cluster.lose_node(NodeId(1)).unwrap(),
            }
            let version = cluster.controller.routing_version(ds).unwrap();
            let logged = cluster.controller.metadata_log.records().len();
            let err = cluster
                .rebalance(ds, &target, RebalanceOptions::none())
                .unwrap_err();
            match lost {
                false => assert!(matches!(err, ClusterError::NodeDown(NodeId(1))), "{err}"),
                true => assert!(matches!(err, ClusterError::NodeLost(NodeId(1))), "{err}"),
            }
            assert_eq!(cluster.dataset_len(ds).unwrap(), 2000);
            assert_eq!(cluster.controller.routing_version(ds).unwrap(), version);
            let records = &cluster.controller.metadata_log.records()[logged..];
            assert!(!records
                .iter()
                .any(|r| matches!(r.body, LogRecordBody::RebalanceBegin { .. })));
        }
    }

    #[test]
    fn bucketed_rebalance_is_cheaper_than_hashing() {
        let (mut c1, d1) = loaded_cluster(2, Scheme::StaticHash { num_buckets: 32 }, 2000);
        c1.add_node().unwrap();
        let t1 = c1.topology().clone();
        let r1 = c1.rebalance(d1, &t1, RebalanceOptions::none()).unwrap();

        let (mut c2, d2) = loaded_cluster(2, Scheme::Hashing, 2000);
        c2.add_node().unwrap();
        let t2 = c2.topology().clone();
        let r2 = c2.rebalance(d2, &t2, RebalanceOptions::none()).unwrap();

        assert!(r1.bytes_moved < r2.bytes_moved);
        assert!(r1.elapsed < r2.elapsed, "bucketed rebalance must be faster");
    }

    #[test]
    fn concurrent_writes_are_preserved_and_replicated() {
        let (mut cluster, ds) = loaded_cluster(2, Scheme::StaticHash { num_buckets: 16 }, 1500);
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        // new records arriving during the rebalance (keys beyond the loaded range)
        let concurrent: Vec<(Key, Value)> = (10_000..10_300u64)
            .map(|i| (Key::from_u64(i), payload(i % 50)))
            .collect();
        let report = cluster
            .rebalance(
                ds,
                &target,
                RebalanceOptions::none().with_concurrent_writes(concurrent.clone()),
            )
            .unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        assert_eq!(report.concurrent_writes_applied, 300);
        assert_eq!(cluster.dataset_len(ds).unwrap(), 1500 + 300);
        cluster.check_dataset_consistency(ds).unwrap();
        // every concurrent write is readable after the rebalance
        for (k, _) in &concurrent {
            let p = cluster.route_key(ds, k).unwrap();
            assert!(cluster.store(p, ds).unwrap().get(k).is_some());
        }
    }

    #[test]
    fn noop_rebalance_commits_without_moving() {
        let (mut cluster, ds) = loaded_cluster(2, Scheme::StaticHash { num_buckets: 16 }, 500);
        let target = cluster.topology().clone();
        let report = cluster
            .rebalance(ds, &target, RebalanceOptions::none())
            .unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        assert_eq!(report.buckets_moved, 0);
        assert_eq!(report.bytes_moved, 0);
        cluster.check_dataset_consistency(ds).unwrap();
    }

    #[test]
    fn parallel_waves_finish_strictly_faster_than_serial() {
        // Same scale-in rebalance, once serial and once with 4-wide waves:
        // the wave makespan model must make the parallel run strictly
        // faster while moving exactly the same buckets.
        let run = |max_moves: usize| {
            let (mut cluster, ds) = loaded_cluster(4, Scheme::StaticHash { num_buckets: 32 }, 4000);
            let target = cluster.topology_without(NodeId(3));
            let report = cluster
                .rebalance(
                    ds,
                    &target,
                    RebalanceOptions::none().with_max_concurrent_moves(max_moves),
                )
                .unwrap();
            assert_eq!(report.outcome, RebalanceOutcome::Committed);
            cluster.decommission_node(NodeId(3)).unwrap();
            cluster.check_dataset_consistency(ds).unwrap();
            assert_eq!(cluster.dataset_len(ds).unwrap(), 4000);
            report
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.buckets_moved, parallel.buckets_moved);
        assert_eq!(serial.bytes_moved, parallel.bytes_moved);
        assert!(
            parallel.phases.data_movement < serial.phases.data_movement,
            "parallel {:?} !< serial {:?}",
            parallel.phases.data_movement,
            serial.phases.data_movement
        );
        assert!(parallel.elapsed < serial.elapsed);
    }

    #[test]
    fn options_builder_chains() {
        let opts = RebalanceOptions::none()
            .with_max_concurrent_moves(8)
            .with_concurrent_writes(vec![(Key::from_u64(1), payload(1))]);
        assert_eq!(opts.max_concurrent_moves, 8);
        assert_eq!(opts.concurrent_writes.len(), 1);
        let dbg = format!("{opts:?}");
        assert!(dbg.contains("max_concurrent_moves"));
    }

    /// A scale-out of a loaded 2-node cluster, planned and ready to drive.
    fn planned_scale_out(n_records: u64) -> (Cluster, DatasetId, ClusterTopology, RebalanceJob) {
        let (mut cluster, ds) =
            loaded_cluster(2, Scheme::StaticHash { num_buckets: 16 }, n_records);
        cluster.add_node().unwrap();
        let target = cluster.topology().clone();
        let job = RebalanceJob::plan(&mut cluster, ds, &target, 1).unwrap();
        (cluster, ds, target, job)
    }

    fn refuse_at(
        at: StepPoint,
    ) -> impl FnMut(&mut Cluster, &mut RebalanceJob, StepPoint) -> Result<()> {
        move |_, _, point| match point == at {
            true => Err(ClusterError::RebalanceAborted("scenario failure".into())),
            false => Ok(()),
        }
    }

    #[test]
    fn callback_failure_after_commit_log_still_finishes_the_commit() {
        // Once COMMIT is durable the outcome is decided: a scenario failure
        // after that point must not leave pending buckets or disabled
        // splits behind — the cleanup path finishes the commit instead.
        let (mut cluster, ds, target, mut job) = planned_scale_out(1200);
        let err = job.drive_with(&mut cluster, refuse_at(StepPoint::AfterCommitLog));
        assert!(err.is_err());
        // the commit was completed by the cleanup path: data moved, no
        // pending state, terminal WAL status
        assert_eq!(cluster.dataset_len(ds).unwrap(), 1200);
        cluster.check_rebalance_integrity(ds, 1).unwrap();
        let on_new = live_on_node(&cluster, ds, NodeId(2));
        assert!(on_new > 0, "the durable commit decision must be applied");
        // and the dataset remains fully rebalance-able
        let report = cluster
            .rebalance(ds, &target, RebalanceOptions::none())
            .unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
    }

    #[test]
    fn callbacks_run_between_steps_and_errors_abort_cleanly() {
        let (mut cluster, _, _, mut job) = planned_scale_out(1000);
        let mut events = Vec::new();
        let report = job
            .drive_with(&mut cluster, |cluster, job, point| {
                match point {
                    StepPoint::AfterInit => events.push(format!("init:{}", job.num_waves())),
                    StepPoint::AfterWave(wave) => events.push(format!(
                        "wave:{wave}:{}",
                        cluster.dataset_len(job.dataset()).unwrap()
                    )),
                    _ => {}
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        assert!(events[0].starts_with("init:"));
        assert!(events.len() > 1, "wave callbacks must run: {events:?}");

        // a failing callback aborts the rebalance and leaves the dataset usable
        let (mut cluster, ds, target, mut job) = planned_scale_out(1000);
        let err = job.drive_with(&mut cluster, refuse_at(StepPoint::AfterWave(0)));
        assert!(err.is_err());
        assert_eq!(cluster.dataset_len(ds).unwrap(), 1000);
        cluster.check_dataset_consistency(ds).unwrap();
        // a follow-up rebalance succeeds (splits were re-enabled, no pending
        // state was left behind)
        let report = cluster
            .rebalance(ds, &target, RebalanceOptions::none())
            .unwrap();
        assert_eq!(report.outcome, RebalanceOutcome::Committed);
        cluster
            .check_rebalance_integrity(ds, report.rebalance_id)
            .unwrap();
    }
}
