//! `dhlint` — in-tree static analysis for the DynaHash workspace.
//!
//! The repository's correctness story rests on invariants that, before this
//! crate, were enforced only by convention. `dhlint` turns each one into a
//! mechanical, CI-gated check:
//!
//! * **layering** — `lsm ← core ← cluster ← {tpch, bench}`, verified from
//!   both `Cargo.toml` path dependencies and `dynahash_*` references in
//!   source, plus a hard error on any registry dependency (the workspace is
//!   zero-dependency/offline by construction);
//! * **session discipline** — outside `crates/cluster`, the demoted raw
//!   accessors (`partition`, `partition_mut`, `route_key`, raw `ingest`)
//!   must be reached through the `cluster.admin()` escape hatch;
//! * **panic audit** — `unwrap()` / `expect()` / `panic!` / `unreachable!`
//!   in the production crates (`core`, `cluster`, `lsm`) must carry a
//!   waiver naming the invariant that makes the site unreachable;
//! * **determinism** — wall-clock reads (`SystemTime`, `Instant`) are
//!   confined to `dynahash_bench::timing`, and the files feeding the
//!   deterministic wave scheduler must not iterate `HashMap`/`HashSet`;
//! * **lock-order readiness** — every `Mutex`/`RwLock`/`RefCell` must be
//!   registered with an acquisition rank in `LOCK_ORDER.md`, and every
//!   write-once cell (`OnceLock`/`OnceCell`) listed there with the rule its
//!   init closure keeps, so the upcoming real-thread runtime inherits a
//!   machine-checked lock hierarchy from day one;
//! * **dead-pub** — every `pub` / `pub(…)` `fn`, `struct`, `enum`, `type`,
//!   `const` and `trait` of `crates/{lsm,core,cluster,tpch,bench}/src` must
//!   be named by code somewhere in the tree other than its own definition,
//!   other `fn` definitions of the same name, and `#[cfg(test)]` items of
//!   `crates/*/src` files: what only an in-file unit test reaches, no figure,
//!   soak, benchmark, example or integration test does. Name-based and
//!   cross-file like the lock-order check, so it never flags a used item;
//!   its blind spots are listed on [`rules::dead_pub`].
//!
//! Findings are waived inline with
//! `// dhlint: allow(<rule>) — <reason>` and the number of used waivers per
//! rule is pinned by the committed `LINT_BUDGET.toml`, which only ratchets
//! down. Run it as:
//!
//! ```text
//! cargo run --release -p dynahash-lint -- --check .
//! ```
//!
//! Like everything else in the workspace, the crate has zero external
//! dependencies: the lexer, rule engine, TOML subset reader, and JSON
//! writer are all in-tree.

pub mod engine;
pub mod lexer;
pub mod manifest;
pub mod report;
pub mod rules;
pub mod waivers;

pub use engine::{check_root, check_source, BUDGET_FILE, LOCK_ORDER_FILE};
pub use report::{Finding, Report, Rule};
