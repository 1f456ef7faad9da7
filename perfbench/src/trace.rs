//! Timing samples, percentiles and the benchmark-side tracer.
//!
//! Spans are recorded from the benchmark's own code around each call
//! into a layer; the program itself is not instrumented. Spans of one
//! trace never nest, so a span's self time is its duration and the
//! unattributed remainder of a traced section is its wall time minus
//! the sum of its spans.

use std::time::{Duration, Instant};

/// Nearest-rank percentile (`p` in `0..=100`) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("non-finite sample"));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One traced stage: its span durations in nanoseconds.
struct Stage {
    name: &'static str,
    samples: Vec<u32>,
    total_ns: u64,
}

/// Flat span recorder with a fixed set of named stages.
pub struct Tracer {
    stages: Vec<Stage>,
    /// Wall time of the traced sections the spans must account for.
    wall_ns: u64,
}

impl Tracer {
    /// A tracer over the given stage names (indexed in that order).
    pub fn new(names: &[&'static str]) -> Self {
        Self {
            stages: names
                .iter()
                .map(|&name| Stage {
                    name,
                    samples: Vec::new(),
                    total_ns: 0,
                })
                .collect(),
            wall_ns: 0,
        }
    }

    /// Runs `f` as one span of stage `stage`.
    #[inline]
    pub fn span<R>(&mut self, stage: usize, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        let s = &mut self.stages[stage];
        s.samples.push(ns.min(u32::MAX as u64) as u32);
        s.total_ns += ns;
        out
    }

    /// Runs `f` as one traced section, adding its wall time to the time
    /// the spans inside it must add up to.
    pub fn section<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let start = Instant::now();
        let out = f(self);
        self.wall_ns += start.elapsed().as_nanos() as u64;
        out
    }

    fn stage(&self, name: &str) -> &Stage {
        self.stages
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("unknown stage {name}"))
    }

    /// Percentile of one stage's spans, in microseconds.
    pub fn us(&self, name: &str, p: f64) -> f64 {
        let samples: Vec<f64> = self
            .stage(name)
            .samples
            .iter()
            .map(|&n| n as f64 / 1e3)
            .collect();
        percentile(&samples, p)
    }

    /// Duration of the latest span of stage `stage`, in microseconds.
    pub fn last_us(&self, stage: usize) -> f64 {
        self.stages[stage]
            .samples
            .last()
            .map_or(0.0, |&n| n as f64 / 1e3)
    }

    /// Number of spans recorded for one stage.
    pub fn calls(&self, name: &str) -> usize {
        self.stage(name).samples.len()
    }

    /// Total traced wall time in seconds.
    pub fn wall_s(&self) -> f64 {
        self.wall_ns as f64 / 1e9
    }

    /// `1 − Σ stage self-time ÷ traced wall`.
    pub fn unattributed_frac(&self) -> f64 {
        let spans: u64 = self.stages.iter().map(|s| s.total_ns).sum();
        1.0 - spans as f64 / self.wall_ns.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn spans_inside_a_section_account_for_its_wall() {
        let mut t = Tracer::new(&["a", "b"]);
        t.section(|t| {
            t.span(0, || std::thread::sleep(Duration::from_millis(5)));
            t.span(1, || std::thread::sleep(Duration::from_millis(5)));
        });
        assert_eq!(t.calls("a"), 1);
        assert!(t.unattributed_frac() < 0.2);
        assert!(t.us("b", 50.0) >= 5e3);
    }
}
