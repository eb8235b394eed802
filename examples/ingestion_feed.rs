//! Concurrent-ingestion scenario: rebalance the LineItem table while a data
//! feed keeps inserting new records at a controlled rate (the paper's
//! Figure 7c experiment in miniature).
//!
//! Run with `cargo run --example ingestion_feed --release`.

use dynahash::cluster::{Cluster, RebalanceOptions};
use dynahash::core::{NodeId, Scheme};
use dynahash::tpch::generator::extra_lineitems;
use dynahash::tpch::loader::lineitem_records;
use dynahash::tpch::{load_tpch, TpchScale};

fn main() {
    println!("rebalancing LineItem from 4 to 3 nodes under a concurrent write feed\n");

    // Baseline: no concurrent writes.
    let baseline_secs = run_with_rate(0.0);
    println!(
        "{:>6} krec/s  -> {:>7.2} simulated seconds (baseline)",
        0, baseline_secs
    );

    for rate in [5.0, 10.0, 20.0] {
        let secs = run_with_rate(rate);
        println!(
            "{:>6} krec/s  -> {:>7.2} simulated seconds ({:+.0}% vs baseline)",
            rate,
            secs,
            (secs / baseline_secs - 1.0) * 100.0
        );
    }
    println!("\nthe rebalance slows down under heavier concurrent ingestion but still");
    println!("completes, and every concurrent write survives the bucket moves.");
}

fn run_with_rate(krecords_per_sec: f64) -> f64 {
    let mut cluster = Cluster::new(4);
    let scheme = Scheme::dynahash(128 * 1024, 16);
    let (tables, data, _) =
        load_tpch(&mut cluster, scheme, TpchScale::per_node(150, 4)).expect("load");
    let lineitem_count = cluster.dataset_len(tables.lineitem).unwrap();

    // Size the concurrent workload from the feed rate and an estimate of the
    // rebalance duration (we use 2 simulated seconds as the reference window).
    let concurrent = (krecords_per_sec * 1000.0 * 2.0) as usize;
    let extra = extra_lineitems(data.orders.len() as u64 + 1, concurrent, 99);
    let writes = lineitem_records(&extra);
    let expected_new = writes.len();

    let target = cluster.topology_without(NodeId(3));
    let report = cluster
        .rebalance(
            tables.lineitem,
            &target,
            RebalanceOptions::none().with_concurrent_writes(writes),
        )
        .expect("rebalance");

    cluster
        .check_dataset_consistency(tables.lineitem)
        .expect("consistent");
    assert_eq!(
        cluster.dataset_len(tables.lineitem).unwrap(),
        lineitem_count + expected_new,
        "every concurrent write must survive the rebalance"
    );
    report.elapsed.as_secs_f64()
}
