//! Order statistics for the benchmark: medians, the quartile rule the noise
//! check uses, and the series of step times laps are reduced through.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// First quartile, median and third quartile by the exclusive method, the
/// rule of Python's `statistics.quantiles(values, n=4)`, so the spreads
/// printed here are the ones the acceptance check computes.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(0.0);
        return [only; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The times of a sequence of steps that the run goes through several times,
/// in nanoseconds. Every pass replays the same steps from the same state, so
/// step `i` of one pass is a replica of step `i` of every other; the series
/// keeps the least time each step took in any pass so far.
#[derive(Debug, Default, Clone)]
pub struct Series {
    least_ns: Vec<f64>,
    at: usize,
    pass_ns: f64,
    pass_totals_ns: Vec<f64>,
    diverged: bool,
}

impl Series {
    /// Records the next step of the current pass.
    pub fn record(&mut self, ns: f64) {
        match self.least_ns.get_mut(self.at) {
            Some(least) => *least = least.min(ns),
            None => {
                self.diverged |= !self.pass_totals_ns.is_empty();
                self.least_ns.push(ns);
            }
        }
        self.at += 1;
        self.pass_ns += ns;
    }

    /// Ends the current pass, if it recorded a step.
    pub fn end_pass(&mut self) {
        if self.at == 0 {
            return;
        }
        self.diverged |= self.at != self.least_ns.len();
        self.at = 0;
        self.pass_totals_ns.push(std::mem::take(&mut self.pass_ns));
    }

    /// Steps recorded so far in the current pass.
    pub fn pass_len(&self) -> usize {
        self.at
    }

    /// Nanoseconds recorded so far in the current pass.
    pub fn pass_ns(&self) -> f64 {
        self.pass_ns
    }

    /// Steps of a pass.
    pub fn len(&self) -> usize {
        self.least_ns.len()
    }

    /// Whether some pass ran other steps than the first.
    pub fn diverged(&self) -> bool {
        self.diverged
    }

    /// What each finished pass took as it ran, in nanoseconds.
    pub fn pass_totals_ns(&self) -> &[f64] {
        &self.pass_totals_ns
    }

    /// The least time each step took in any pass, in nanoseconds.
    pub fn least_ns(&self) -> &[f64] {
        &self.least_ns
    }

    /// Sum over the steps of the least time each took, in nanoseconds.
    pub fn least_total_ns(&self) -> f64 {
        self.least_ns.iter().sum()
    }

    /// The `p`-quantile (0 < p < 1, nearest-rank) over the steps of the least
    /// time each took, in microseconds; 0 for an empty series.
    pub fn percentile_us(&self, p: f64) -> f64 {
        if self.least_ns.is_empty() {
            return 0.0;
        }
        let mut v = self.least_ns.clone();
        let rank = ((v.len() as f64 * p).ceil() as usize).clamp(1, v.len()) - 1;
        let (_, nth, _) = v.select_nth_unstable_by(rank, f64::total_cmp);
        *nth / 1000.0
    }
}
