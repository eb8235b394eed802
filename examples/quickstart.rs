//! Quickstart: create a DynaHash-partitioned dataset, talk to it through a
//! client `Session`, scale the cluster out, and watch the session ride
//! through the rebalance via the stale-directory redirect protocol.
//!
//! Run with `cargo run --example quickstart`.

use dynahash::cluster::{Cluster, DatasetSpec, RebalanceOptions, SecondaryIndexDef};
use dynahash::core::Scheme;
use dynahash::lsm::entry::Key;
use dynahash::lsm::Bytes;

fn main() {
    // A 2-node cluster (4 storage partitions per node by default).
    let mut cluster = Cluster::new(2);
    println!(
        "created a cluster with {} nodes / {} partitions",
        cluster.topology().num_nodes(),
        cluster.topology().num_partitions()
    );

    // A dataset partitioned with DynaHash: buckets split automatically once
    // they exceed 64 KiB, and rebalancing moves whole buckets.
    let spec = DatasetSpec::new("events", Scheme::dynahash(64 * 1024, 8)).with_secondary_index(
        SecondaryIndexDef::new("idx_events_kind", |payload| {
            payload.first().map(|&b| Key::from_u64(b as u64))
        }),
    );
    let events = cluster.create_dataset(spec).expect("create dataset");

    // All reads and writes go through a client session, which caches a
    // versioned snapshot of the global directory and routes from it.
    let mut session = cluster.session(events).expect("open session");
    println!(
        "opened a session at directory version {}",
        session.cached_version()
    );

    // Ingest 20,000 small records through the session (the data-feed path).
    let records = (0..20_000u64).map(|i| {
        let mut payload = vec![(i % 8) as u8];
        payload.extend_from_slice(&i.to_be_bytes());
        payload.extend_from_slice(&[0u8; 55]);
        (Key::from_u64(i), Bytes::from(payload))
    });
    let ingest = session.ingest(&mut cluster, records).expect("ingest");
    println!(
        "ingested {} records in {:.2} simulated seconds ({:.0} rec/s)",
        ingest.records,
        ingest.elapsed.as_secs_f64(),
        ingest.records_per_sec()
    );
    println!(
        "dataset distribution across partitions: {:?}",
        cluster.dataset_distribution(events).unwrap()
    );

    // Point lookups route from the session's cached directory.
    let key = Key::from_u64(1234);
    let value = session
        .get(&cluster, &key)
        .expect("routed read")
        .expect("record present");
    println!("key 1234 read through the session ({} bytes)", value.len());

    // Scale out: add a node, then rebalance the dataset onto it online.
    // The session is NOT told about any of this.
    cluster.add_node().expect("add node");
    let target = cluster.topology().clone();
    let report = cluster
        .rebalance(events, &target, RebalanceOptions::none())
        .expect("rebalance");
    println!(
        "rebalance {:?}: moved {} buckets / {} entries ({:.1}% of the data) in {:.2} simulated seconds",
        report.outcome,
        report.buckets_moved,
        report.entries_moved,
        report.moved_fraction * 100.0,
        report.elapsed.as_secs_f64()
    );

    // The session's cached directory is now stale. Its next read of a moved
    // bucket is rejected by the old owner, the session refreshes (a cheap
    // directory delta) and retries — all transparent to the caller.
    let value = session
        .get(&cluster, &key)
        .expect("redirected read")
        .expect("record still present");
    let m = session.metrics();
    println!(
        "stale read served after {} redirect(s) and {} refresh(es) \
         (now at directory version {}, {} bytes)",
        m.redirects,
        m.refreshes(),
        session.cached_version(),
        value.len()
    );

    // The dataset stays complete and correctly routed.
    cluster
        .check_dataset_consistency(events)
        .expect("consistent");
    assert_eq!(cluster.dataset_len(events).unwrap(), 20_000);
    println!("consistency check passed: all 20000 records remain reachable");
}
