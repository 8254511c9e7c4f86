//! Host-speed normalization of measured times.
//!
//! The shared VM this benchmark was tuned on changes speed by up to
//! 2-3x, in spells lasting from a fraction of a second to minutes. The
//! process's CPU time slows exactly as much as its wall time, so neither
//! clock gives steady figures, and neither does taking the fastest of
//! several runs once a whole run falls into a slow spell.
//!
//! [`HostClock`] therefore times a fixed calibration kernel every
//! [`CADENCE_S`] of measuring, and scales every measured interval by
//! [`REFERENCE_KERNEL_MS`] over the kernel's median time around that
//! interval. Figures read as milliseconds (or seconds) at the speed at
//! which the kernel takes [`REFERENCE_KERNEL_MS`]: about the speed of
//! the tuning host in its fast spells. The kernel mixes the work the
//! program does (ordered-map churn, small vector allocations, float math,
//! float formatting and parsing), because the host's slow spells slow
//! memory-bound and compute-bound code by different factors; a
//! program-like kernel tracks the program's own slowdown best. It is
//! benchmark code, so a change to the program cannot move it.
//!
//! Changing the kernel, [`REFERENCE_KERNEL_MS`] or the window makes
//! earlier figures incomparable.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// The kernel's time at the reference speed.
pub const REFERENCE_KERNEL_MS: f64 = 0.5;
/// Measuring time between two kernel samples.
const CADENCE_S: f64 = 0.010;
/// Samples this close before or after an interval calibrate it.
const WINDOW_S: f64 = 0.05;

/// The calibration kernel: a fixed, deterministic mix of ordered-map
/// churn, small allocations, float math and float text round trips.
fn kernel() -> u64 {
    let mut map: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    let mut x = 12_345u64;
    let mut acc = 0u64;
    let mut text = String::new();
    for i in 0..1_500u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 10_007, vec![i as f64; (x % 7) as usize]);
        if map.len() > 64 {
            if let Some((_, v)) = map.pop_first() {
                acc += v.len() as u64;
            }
        }
        let f = ((x % 1_000_000) as f64 + 1.0).sqrt().ln() * 1.5e-3;
        text.clear();
        let _ = write!(text, "{f}");
        acc ^= text.parse::<f64>().map_or(0, f64::to_bits);
    }
    acc
}

/// A measured interval, in seconds since the clock started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    start: f64,
    end: f64,
}

impl Span {
    pub fn raw_ms(self) -> f64 {
        (self.end - self.start) * 1e3
    }
}

pub struct HostClock {
    start: Instant,
    /// (time the sample ended, kernel ms), in time order.
    samples: Vec<(f64, f64)>,
}

impl HostClock {
    /// A clock with one kernel sample taken.
    pub fn new() -> Self {
        let mut clock = HostClock {
            start: Instant::now(),
            samples: Vec::new(),
        };
        clock.sample();
        clock
    }

    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Times the kernel once.
    pub fn sample(&mut self) {
        let t = Instant::now();
        black_box(kernel());
        let ms = t.elapsed().as_secs_f64() * 1e3;
        self.samples.push((self.now(), ms));
    }

    /// Times the kernel when the last sample is older than the cadence.
    pub fn tick(&mut self) {
        if self.samples.last().map_or(true, |&(t, _)| self.now() - t >= CADENCE_S) {
            self.sample();
        }
    }

    /// Runs `f` and returns its result with the interval it took.
    pub fn span<T>(&self, f: impl FnOnce() -> T) -> (T, Span) {
        let start = self.now();
        let out = f();
        (
            out,
            Span {
                start,
                end: self.now(),
            },
        )
    }

    /// The kernel's median time over the samples within [`WINDOW_S`] of
    /// `span`, always including the last sample before it and the first
    /// after it. Call once measuring is over, so that the samples after
    /// every span exist.
    fn kernel_ms_near(&self, span: Span) -> f64 {
        let first = self
            .samples
            .partition_point(|&(t, _)| t < span.start - WINDOW_S)
            .min(self.samples.partition_point(|&(t, _)| t <= span.start).saturating_sub(1));
        let last = self
            .samples
            .partition_point(|&(t, _)| t <= span.end + WINDOW_S)
            .max(self.samples.partition_point(|&(t, _)| t < span.end) + 1)
            .min(self.samples.len());
        let near: Vec<f64> = self.samples[first..last].iter().map(|&(_, ms)| ms).collect();
        median(&near)
    }

    /// `span` in milliseconds at the reference speed.
    pub fn scaled_ms(&self, span: Span) -> f64 {
        span.raw_ms() * REFERENCE_KERNEL_MS / self.kernel_ms_near(span)
    }

    /// The factor that scales a time measured anywhere in the run to the
    /// reference speed: coarser than [`HostClock::scaled_ms`], for totals
    /// gathered over the whole run.
    pub fn run_scale(&self) -> f64 {
        let ms: Vec<f64> = self.samples.iter().map(|&(_, ms)| ms).collect();
        REFERENCE_KERNEL_MS / median(&ms)
    }

    /// One line on the host's speed over the run, for the output.
    pub fn describe(&self) -> String {
        let ms: Vec<f64> = self.samples.iter().map(|&(_, ms)| ms).collect();
        format!(
            "host speed: {} calibration samples, kernel ms min {:.4} median {:.4} max {:.4} \
             (reference {REFERENCE_KERNEL_MS}); reported times are scaled to the reference speed",
            ms.len(),
            ms.iter().copied().fold(f64::INFINITY, f64::min),
            median(&ms),
            ms.iter().copied().fold(0.0, f64::max),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_calibrated_by_the_samples_around_them() {
        let clock = HostClock {
            start: Instant::now(),
            samples: vec![(0.0, 9.0), (1.0, 1.0), (1.02, 2.0), (1.04, 3.0), (2.0, 9.0)],
        };
        let span = Span {
            start: 1.01,
            end: 1.03,
        };
        assert_eq!(clock.kernel_ms_near(span), 2.0);
        let want = 20.0 * REFERENCE_KERNEL_MS / 2.0;
        assert!((clock.scaled_ms(span) - want).abs() < 1e-9);
        // Far from any sample: the neighbours on both sides still count.
        let gap = Span {
            start: 1.5,
            end: 1.6,
        };
        assert_eq!(clock.kernel_ms_near(gap), 6.0);
    }
}
