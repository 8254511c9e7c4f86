//! Order statistics and a log-bucketed histogram for per-call samples.

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_GRID: [f64; 7] = [99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0];

fn leaves_ten(p: f64, n: usize) -> bool {
    (1.0 - p / 100.0) * n as f64 >= 10.0
}

/// The tail percentile to report over `n` samples: `preferred` when it
/// leaves at least ten samples beyond it, else the highest percentile of
/// [`TAIL_GRID`] that does (p50 when none does). A workload prefers one
/// fixed percentile so that runs measuring slightly different sample
/// counts still report the same statistic.
pub fn tail_percentile(preferred: f64, n: usize) -> f64 {
    if leaves_ten(preferred, n) {
        return preferred;
    }
    TAIL_GRID
        .into_iter()
        .find(|&p| leaves_ten(p, n))
        .unwrap_or(50.0)
}

/// Log-bucketed histogram of nanosecond durations: 32 buckets per
/// doubling (about 2.2% resolution), constant memory however many
/// `decide()` calls a pass makes.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
}

const PER_OCTAVE: f64 = 32.0;
const BUCKETS: usize = 48 * 32;

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        let idx = ((ns.max(1) as f64).log2() * PER_OCTAVE) as usize;
        self.buckets[idx.min(BUCKETS - 1)] += 1;
        self.count += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
    }

    /// The `q`-quantile, as the geometric centre of its bucket; 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return ((idx as f64 + 0.5) / PER_OCTAVE).exp2();
            }
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(99.9, 270), 95.0);
        assert_eq!(tail_percentile(99.9, 3240), 99.5);
        assert_eq!(tail_percentile(99.0, 3240), 99.0);
        assert_eq!(tail_percentile(99.0, 19), 50.0);
    }

    #[test]
    fn histogram_quantiles_are_within_a_bucket() {
        let mut h = Histogram::new();
        for ns in 1..=1000u64 {
            h.record(ns * 100);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 / 50_000.0 - 1.0).abs() < 0.03, "{p50}");
    }
}
