//! Seeded randomness and order statistics.

use std::time::Instant;

/// splitmix64: every generated input is a pure function of its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from neighbouring seeds by
    /// `stream` (one stream per input family).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A zipf-distributed rank in `0..n` with exponent `s` (rank 0 is
    /// the most popular).
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        let total: f64 = (1..=n).map(|r| (r as f64).powf(-s)).sum();
        let mut x = self.unit() * total;
        for r in 0..n {
            x -= ((r + 1) as f64).powf(-s);
            if x < 0.0 {
                return r;
            }
        }
        n - 1
    }
}

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// The nearest-rank `p`-th percentile (`p` in `0..=100`) of `sorted`;
/// 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (any order); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The arithmetic mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest of the usual tail percentiles that still has at least
/// ten samples beyond it, or `None` when there are too few samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
}

/// A latency sample set, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Latencies(Vec<f64>);

impl Latencies {
    /// Record one sample of `ns` nanoseconds.
    pub fn push_ns(&mut self, ns: u64) {
        self.0.push(ns as f64 / 1e6);
    }

    /// The samples, in the order recorded.
    pub fn samples(&self) -> &[f64] {
        &self.0
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// No samples yet?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Sorted copy of the samples.
    pub fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// A one-line summary: median, the guide's tail percentile and the
    /// sample count.
    pub fn summary(&self) -> String {
        let s = self.sorted();
        match tail_percentile(s.len()) {
            Some(p) => format!(
                "p50 {:.4} ms, p{p} {:.4} ms, n={}",
                percentile(&s, 50.0),
                percentile(&s, p),
                s.len()
            ),
            None => format!("p50 {:.4} ms, n={}", percentile(&s, 50.0), s.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), None);
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(20_000), Some(99.9));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut r = Rng::new(7, 1);
        let picks: Vec<usize> = (0..2000).map(|_| r.zipf(10, 1.0)).collect();
        let first = picks.iter().filter(|&&p| p == 0).count();
        let last = picks.iter().filter(|&&p| p == 9).count();
        assert!(first > 3 * last, "rank 0: {first}, rank 9: {last}");
    }
}
