//! The one wall-clock read of the workspace.
//!
//! The repository builds with zero external dependencies and the simulation
//! runs on the sim clock alone; what is measured on the wall clock — the two
//! timing arms of the `routing` and `lookup` figures, and every span of the
//! stand-alone benchmark under `examples/benchmark` — goes through
//! [`ns_per_op`].
//!
//! Absolute numbers depend on the host; only relative comparisons are
//! meaningful.

use std::time::Instant;

/// Times one execution of `f` and returns nanoseconds per operation,
/// dividing the elapsed wall-clock time by `ops`.
///
/// All wall-clock reads in the workspace are confined to this module so the
/// determinism lint can scope its `Instant`/`SystemTime` ban; measurement
/// loops elsewhere must call through here.
pub fn ns_per_op(ops: u64, f: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}
