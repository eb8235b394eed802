//! The layer probe of a traced run.
//!
//! After the workload's own phases, the probe takes a sample of the same
//! records, rebuilds them in stand-alone `lsm` and `core` structures and
//! times their public functions directly, one span per call (or per batch of
//! like calls, with the batch size as the span's count). It then times the
//! `cluster` read paths on the workload's own cluster. Nothing here feeds an
//! end-to-end metric.

use std::collections::BTreeMap;
use std::sync::Arc;

use dynahash_cluster::{ControlConfig, ControlPlane};
use dynahash_core::RebalancePlan;
use dynahash_lsm::entry::Key;
use dynahash_lsm::wal::LogRecordBody;
use dynahash_lsm::{
    kmerge_disjoint, BloomFilter, BucketId, BucketedConfig, BucketedLsmTree, Bytes, LsmConfig,
    LsmTree, MemTable, SecondaryIndex, StorageMetrics, TransactionLog,
};
use dynahash_tpch::TpchData;

use crate::phases::Outcome;
use crate::spec::Spec;
use crate::trace::{timed, Tracer};
use crate::world::{tpch_scale, DataKind, World};

/// Components the probe's stand-alone tree is flushed into before it is
/// read and merged.
const PROBE_COMPONENTS: usize = 4;

/// A key the dataset cannot hold: keys are 8 or 16 bytes long.
fn absent_key(i: u64) -> Key {
    let mut bytes = i.to_be_bytes().to_vec();
    bytes.push(0xff);
    Key::from_bytes(bytes)
}

/// Runs the probe over `spec.probe_records` records of `world`.
pub fn run(world: &mut World, spec: &Spec, seed: u64, tracer: &mut Tracer, out: &mut Outcome) {
    tracer.span("phase.layer_probe", 0, |t| {
        let records = world.probe_records(spec.probe_records);
        probe_lsm(&records, t, out);
        probe_core(world, &records, t, out);
        probe_cluster(world, &records, t, out);
        if let DataKind::Tpch { orders_per_node } = spec.data {
            t.span("tpch.generate", 1, |_| {
                TpchData::generate(tpch_scale(orders_per_node, seed))
            });
        }
    });
}

fn probe_lsm(records: &[(Key, Bytes)], t: &mut Tracer, out: &mut Outcome) {
    let n = records.len() as u64;
    let metrics = StorageMetrics::new_shared();
    // No automatic flush or merge: each is called, and timed, explicitly.
    let manual = LsmConfig {
        memtable_budget_bytes: usize::MAX,
        auto_flush: false,
        auto_merge: false,
        ..LsmConfig::default()
    };

    let input = records.to_vec();
    let mut memtable = MemTable::new();
    t.span("lsm.memtable_put", n, |_| {
        for (k, v) in input {
            memtable.put(k, v);
        }
    });

    let bodies: Vec<LogRecordBody> = records
        .iter()
        .map(|(k, v)| LogRecordBody::Insert {
            dataset: 0,
            key: k.as_slice().to_vec(),
            value: v.to_vec(),
        })
        .collect();
    let mut log = TransactionLog::new();
    t.span("lsm.wal_append", n, |_| {
        for body in bodies {
            log.append(body);
        }
    });

    // The cluster's write path: a bucketed tree that flushes, merges and
    // splits on its own while records arrive.
    let input = records.to_vec();
    let mut bucketed = BucketedLsmTree::new(
        BucketedConfig {
            lsm: LsmConfig::with_memtable_budget(64 * 1024),
            max_bucket_size_bytes: Some(1 << 20),
            ..BucketedConfig::default()
        },
        [BucketId::root()],
        Arc::clone(&metrics),
    );
    t.span("lsm.bucketed_insert", n, |_| {
        for (k, v) in input {
            let _ = bucketed.insert(k, v);
        }
    });

    let pairs: Vec<(Key, Key)> = records
        .iter()
        .enumerate()
        .map(|(i, (k, _))| (Key::from_u64(i as u64 % 4096), k.clone()))
        .collect();
    let mut secondary = SecondaryIndex::new("probe", LsmConfig::default(), Arc::clone(&metrics));
    t.span("lsm.secondary_insert", n, |_| {
        for (s, p) in pairs {
            secondary.insert(s, p);
        }
    });

    // A tree of PROBE_COMPONENTS flushed components: the fragmented shape
    // reads see between merges.
    let mut tree = LsmTree::new(manual.clone(), Arc::clone(&metrics));
    for chunk in records.chunks(records.len().div_ceil(PROBE_COMPONENTS).max(1)) {
        for (k, v) in chunk {
            tree.put(k.clone(), v.clone());
        }
        t.span("lsm.flush", chunk.len() as u64, |_| tree.flush());
    }

    let mut bloom = BloomFilter::with_capacity(records.len());
    for (k, _) in records {
        bloom.insert(k);
    }
    let absent: Vec<Key> = (0..n).map(absent_key).collect();
    let mut false_positives = 0u64;
    t.span("lsm.bloom_probe", 2 * n, |_| {
        for (k, _) in records {
            std::hint::black_box(bloom.may_contain(k));
        }
        for k in &absent {
            false_positives += u64::from(bloom.may_contain(k));
        }
    });
    out.layer.insert(
        "lsm.bloom_fp_rate",
        false_positives as f64 / n.max(1) as f64,
    );

    t.span("lsm.tree_get_hit", n, |_| {
        for (k, _) in records {
            std::hint::black_box(tree.get(k));
        }
    });
    t.span("lsm.tree_get_miss", n, |_| {
        for k in &absent {
            std::hint::black_box(tree.get(k));
        }
    });
    t.span("lsm.scan", n, |_| std::hint::black_box(tree.scan_all()));
    t.span("lsm.merge", n, |_| tree.force_merge_all());

    // Per-bucket scans are disjoint sorted runs; an ordered scan merges them.
    let runs: Vec<Vec<_>> = bucketed
        .bucket_ids()
        .iter()
        .filter_map(|b| bucketed.scan_bucket(*b).ok())
        .collect();
    let merged: u64 = runs.iter().map(|r| r.len() as u64).sum();
    t.span("lsm.kmerge", merged, |_| {
        std::hint::black_box(kmerge_disjoint(
            runs.into_iter().map(Vec::into_iter).collect(),
        ))
    });

    // Ship every bucket of the bucketed tree into a second, empty tree.
    let mut dest = BucketedLsmTree::new(
        BucketedConfig::default(),
        std::iter::empty::<BucketId>(),
        Arc::clone(&metrics),
    );
    for bucket in bucketed.bucket_ids() {
        let (comps, _) = t.span("lsm.ship_bucket", 1, |_| bucketed.ship_bucket(bucket));
        if let (Ok(comps), Ok(())) = (comps, dest.create_pending_bucket(bucket)) {
            t.span("lsm.install_shipped", 1, |_| {
                let _ = dest.install_shipped(bucket, comps);
            });
        }
    }

    // One split of a bucket that holds every record.
    let input = records.to_vec();
    let mut whole = BucketedLsmTree::new(
        BucketedConfig {
            lsm: manual,
            ..BucketedConfig::default()
        },
        [BucketId::root()],
        metrics,
    );
    for (k, v) in input {
        let _ = whole.insert(k, v);
    }
    whole.flush_all();
    t.span("lsm.split_bucket", 1, |_| {
        let _ = whole.split_bucket(BucketId::root());
    });
}

fn probe_core(world: &mut World, records: &[(Key, Bytes)], t: &mut Tracer, out: &mut Outcome) {
    let ds = world.ops_dataset;
    let Some(directory) = world
        .cluster
        .controller
        .dataset(ds)
        .ok()
        .and_then(|m| m.directory.clone())
    else {
        return;
    };
    t.span("core.directory_lookup", records.len() as u64, |_| {
        for (k, _) in records {
            std::hint::black_box(directory.lookup_key(k));
        }
    });

    // A stale cache catching up with a rebalance that moved every fifth
    // bucket.
    let mut stale = directory.clone();
    let mut current = directory.clone();
    let partitions = current.partitions();
    let moved: Vec<(BucketId, _)> = current.iter().step_by(5).collect();
    for (bucket, p) in moved {
        let at = partitions.iter().position(|q| *q == p).unwrap_or(0);
        current.reassign(bucket, partitions[(at + 1) % partitions.len()]);
    }
    t.span("core.delta_apply", 1, |_| {
        if let Some(delta) = current.delta_since(stale.version()) {
            let _ = stale.apply_delta(&delta);
        }
    });

    let sizes: BTreeMap<BucketId, u64> = world
        .cluster
        .dataset_bucket_sizes(ds)
        .map(|s| s.into_iter().collect())
        .unwrap_or_default();
    let target = world
        .cluster
        .topology()
        .with_added_node(world.cluster.config().partitions_per_node);
    let (plan, _) = t.span("core.plan_compute", 1, |_| {
        RebalancePlan::compute(0, &directory, &sizes, &target)
    });
    if let Ok(plan) = plan {
        let topology = world.cluster.topology().clone();
        t.span("core.schedule_waves", 1, |_| {
            std::hint::black_box(plan.schedule_waves(4, |p| topology.node_of(p)))
        });
        out.layer.insert("core.plan_moves", plan.num_moves() as f64);
        out.layer
            .insert("core.plan_bytes", plan.total_bytes_moved() as f64);
    }
}

fn probe_cluster(world: &mut World, records: &[(Key, Bytes)], t: &mut Tracer, out: &mut Outcome) {
    let ds = world.ops_dataset;
    let n = records.len() as u64;

    // The same keys through a session and straight from their partition.
    if let Ok(mut session) = world.cluster.session(ds) {
        let mut total = 0.0;
        for (k, _) in records {
            total += timed(|| std::hint::black_box(session.get(&world.cluster, k).is_ok())).1;
        }
        t.batch("cluster.session_get_probe", n, total);
        let mut direct = 0.0;
        for (k, _) in records {
            let admin = world.cluster.admin();
            let part = admin.route_key(ds, k).and_then(|p| admin.partition(p));
            if let Ok(data) = part.and_then(|p| p.dataset(ds)) {
                direct += timed(|| std::hint::black_box(data.get(k).is_some())).1;
            }
        }
        t.batch("cluster.partition_get", n, direct);
        if direct > 0.0 {
            out.layer
                .insert("cluster.session_overhead_ratio", total / direct);
        }
    }

    // The query executor's three primitives.
    let mut by_partition: BTreeMap<_, Vec<Key>> = BTreeMap::new();
    for (k, _) in records {
        if let Ok(p) = world.cluster.admin().route_key(ds, k) {
            by_partition.entry(p).or_default().push(k.clone());
        }
    }
    let index = world.index;
    let mut exec = world.cluster.query();
    let (scanned, ns) = timed(|| exec.scan_table(ds, false));
    let rows: u64 = scanned
        .map(|parts| parts.iter().map(|(_, e)| e.len() as u64).sum())
        .unwrap_or(0);
    t.batch("cluster.scan_table", rows, ns);
    if let Some(index) = index {
        let (hits, ns) = timed(|| exec.index_scan(ds, index, None, None));
        if let Ok(parts) = hits {
            let results = parts.iter().map(|(_, e)| e.len() as u64).sum();
            t.batch("cluster.index_scan", results, ns);
        }
    }
    for (p, keys) in by_partition {
        t.span("cluster.fetch", keys.len() as u64, |_| {
            std::hint::black_box(exec.fetch(ds, p, &keys).map_or(0, |e| e.len()))
        });
    }
    drop(exec);

    // An armed control plane with nothing to do. The threshold is out of
    // reach so that a tick can only observe.
    let mut plane = ControlPlane::new(ControlConfig {
        imbalance_threshold: f64::MAX,
        hot_bucket_ops: u64::MAX,
        ..ControlConfig::default()
    });
    world.cluster.set_heat_tracking(true);
    for _ in 0..4 {
        t.span("cluster.control_tick", 1, |_| {
            let _ = plane.tick(&mut world.cluster);
        });
    }
    world.cluster.set_heat_tracking(false);
}
