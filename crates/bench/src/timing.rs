//! The one wall-clock read of the workspace.
//!
//! The repository builds with zero external dependencies and the simulation
//! runs on the sim clock alone; what is measured on the wall clock — every
//! span of the stand-alone benchmark under `examples/benchmark` — goes
//! through [`ns_per_op`].
//!
//! Absolute numbers depend on the host; only relative comparisons are
//! meaningful.

/// Times one execution of `f` and returns nanoseconds per operation,
/// dividing the elapsed wall-clock time by `ops`.
///
/// This is the workspace's one wall-clock read: clippy.toml bans `Instant`
/// and `SystemTime` everywhere, and the `#[expect]` below is the one waiver.
/// Measurement loops elsewhere must call through here.
#[expect(
    clippy::disallowed_types,
    reason = "the benchmark measures wall-clock time by design"
)]
pub fn ns_per_op(ops: u64, f: &mut impl FnMut()) -> f64 {
    let start = std::time::Instant::now();
    f();
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}
