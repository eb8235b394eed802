//! The benchmark's clock and span recorder.
//!
//! Every wall-clock read goes through `dynahash_bench::timing::ns_per_op`,
//! the one read `dhlint` allows. The [`Tracer`] keeps a running sum of timed
//! durations as its notion of "now" — the program is one thread with one
//! operation in flight, so the sum is the position on that thread's
//! timeline — and, when tracing is on, one in-memory span per timed call
//! into a layer. Spans are only written out after the run.

use std::collections::BTreeMap;
use std::io::Write;

use dynahash_bench::timing::ns_per_op;

/// Times one call and returns its result and the elapsed nanoseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let mut f = Some(f);
    let mut out = None;
    let ns = ns_per_op(1, &mut || {
        if let Some(f) = f.take() {
            out = Some(f());
        }
    });
    match out {
        Some(r) => (r, ns),
        None => unreachable!("ns_per_op runs its closure exactly once"),
    }
}

/// Parent id of a root span.
const NO_PARENT: u32 = u32::MAX;

/// One timed call (or one aggregated batch of `count` like calls).
#[derive(Debug, Clone)]
pub struct Span {
    /// Position in the span list.
    pub id: u32,
    /// The enclosing span, or `u32::MAX` for a root.
    pub parent: u32,
    /// `layer.call` name; the part before the first dot is the layer.
    pub name: &'static str,
    /// Running sum of timed durations when the call started.
    pub start_ns: u64,
    /// Duration of the call.
    pub dur_ns: u64,
    /// Operations covered (1 for a single call, n for an aggregated batch,
    /// or the records a bulk call handled).
    pub count: u64,
}

/// Count, total time and self time (total minus child spans) of one name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerRow {
    /// Spans recorded under the name.
    pub spans: u64,
    /// Sum of their `count` fields.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: f64,
    /// Total minus the time their direct children cover.
    pub self_ns: f64,
}

/// Clock plus optional span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    now_ns: u64,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer that records spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            now_ns: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Seconds of timed work so far.
    pub fn now_s(&self) -> f64 {
        self.now_ns as f64 / 1e9
    }

    /// Times `f` as one span named `name` covering `count` operations.
    /// Calls to the tracer made inside `f` become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        count: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> (R, f64) {
        let start_ns = self.now_ns;
        let id = self.open(name, count);
        let (out, ns) = timed(|| f(self));
        self.now_ns = start_ns + ns as u64;
        if let Some(id) = id {
            self.spans[id as usize].dur_ns = ns as u64;
            self.stack.pop();
        }
        (out, ns)
    }

    /// Records `count` like calls that were timed one by one and took
    /// `total_ns` together, as one aggregated span: a span per point
    /// operation would cost more memory than the operations themselves.
    pub fn batch(&mut self, name: &'static str, count: u64, total_ns: f64) {
        if let Some(id) = self.open(name, count) {
            self.spans[id as usize].dur_ns = total_ns as u64;
            self.stack.pop();
        }
        self.now_ns += total_ns as u64;
    }

    fn open(&mut self, name: &'static str, count: u64) -> Option<u32> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            name,
            start_ns: self.now_ns,
            dur_ns: 0,
            count,
        });
        self.stack.push(id);
        Some(id)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals with self time, ordered by name.
    pub fn layer_table(&self) -> BTreeMap<&'static str, LayerRow> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.dur_ns;
            }
        }
        let mut table: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
        for s in &self.spans {
            let row = table.entry(s.name).or_default();
            row.spans += 1;
            row.count += s.count;
            row.total_ns += s.dur_ns as f64;
            row.self_ns += s.dur_ns.saturating_sub(child_ns[s.id as usize]) as f64;
        }
        table
    }

    /// Writes the spans as tab-separated `id parent name start_ns dur_ns
    /// count` lines (parent −1 for a root).
    pub fn dump(&self, path: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tdur_ns\tcount")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, parent, s.name, s.start_ns, s.dur_ns, s.count
            )?;
        }
        out.flush()
    }
}
