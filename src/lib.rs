//! # DynaHash
//!
//! A from-scratch Rust reproduction of *"DynaHash: Efficient Data Rebalancing
//! in Apache AsterixDB"* (Luo & Carey, ICDE 2022). This umbrella crate
//! re-exports the workspace's public API:
//!
//! * [`lsm`] — the LSM-tree storage substrate (bucketed primary indexes,
//!   secondary indexes with lazy cleanup, the metadata log);
//! * [`core`] — extendible hashing, the global directory, the greedy
//!   balancing algorithm, rebalancing schemes, and the rebalance protocol;
//! * [`cluster`] — the simulated shared-nothing cluster (Cluster Controller,
//!   Node Controllers, partitions, feeds, queries, the step-driven
//!   [`cluster::RebalanceJob`] executor, fault injection);
//! * [`tpch`] — the TPC-H-like workload used by the paper's evaluation;
//! * [`bench`] — the experiment harness (the paper's figures) and the
//!   scenario fleet: declarative workload scripts plus the seeded
//!   soak driver ([`bench::scenario`]).
//!
//! ## Quick start
//!
//! ```
//! use dynahash::cluster::{Cluster, DatasetSpec, RebalanceOptions};
//! use dynahash::core::Scheme;
//! use dynahash::lsm::entry::Key;
//! use dynahash::lsm::Bytes;
//!
//! // A 2-node cluster with a DynaHash-partitioned dataset.
//! let mut cluster = Cluster::new(2);
//! let ds = cluster
//!     .create_dataset(DatasetSpec::new("events", Scheme::dynahash(64 * 1024, 8)))
//!     .unwrap();
//!
//! // All data I/O goes through a client session, which caches a versioned
//! // snapshot of the routing directory.
//! let mut session = cluster.session(ds).unwrap();
//! let records = (0..1000u64).map(|i| (Key::from_u64(i), Bytes::from(vec![0u8; 64])));
//! session.ingest(&mut cluster, records).unwrap();
//!
//! // Scale out and rebalance online.
//! cluster.add_node().unwrap();
//! let target = cluster.topology().clone();
//! let report = cluster.rebalance(ds, &target, RebalanceOptions::none()).unwrap();
//! assert!(report.moved_fraction < 0.5); // local rebalancing, not a full reshuffle
//!
//! // The session is now stale; its next read of a moved bucket redirects,
//! // refreshes its cached directory, and retries — transparently.
//! assert!(session.get(&cluster, &Key::from_u64(123)).unwrap().is_some());
//! cluster.check_dataset_consistency(ds).unwrap();
//! ```

pub use dynahash_bench as bench;
pub use dynahash_cluster as cluster;
pub use dynahash_core as core;
pub use dynahash_lsm as lsm;
pub use dynahash_tpch as tpch;
