//! Host-speed calibration.
//!
//! On a shared host the speed of a core switches between regimes a
//! third apart every ten-odd seconds with the load of other tenants, and
//! every timing of a run moves with it. The benchmark times a fixed unit of its own work — random reads
//! over a 2 MiB table allocated once at start-up, the cache-bound access
//! pattern of the analysis stack's hash tables, in code that does not
//! belong to it and allocates nothing — before the set-ups and after
//! every set-up and measured unit. The mean of the two calibration times
//! on either side of a unit says how fast the host ran during it; the
//! unit's end-to-end timings are scaled by it to a host on which the
//! calibration takes [`NOMINAL_S`]. The program under test can reach
//! the calibration only through the cache state it leaves behind.

use std::hint::black_box;
use std::time::Instant;

/// Calibration time of the reference host, in seconds.
pub const NOMINAL_S: f64 = 0.007;

/// Entries of the table (4 bytes each).
const TABLE_LEN: usize = 1 << 19;
/// Reads per calibration unit.
const READS: usize = 2_000_000;

/// The calibration table and the times measured so far.
#[derive(Debug, Clone)]
pub struct Calibration {
    table: Vec<u32>,
    /// Wall time of every calibration unit run, seconds.
    pub samples: Vec<f64>,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::new()
    }
}

impl Calibration {
    /// Allocate and fill the table; no unit has run yet.
    pub fn new() -> Calibration {
        let mut x: u32 = 0x9E37_79B9;
        let table = (0..TABLE_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            })
            .collect();
        Calibration {
            table,
            samples: Vec::new(),
        }
    }

    /// Run the calibration unit once and record its wall time.
    pub fn sample(&mut self) {
        let t = Instant::now();
        // Fixed indices: the same reads, in the same order, every time.
        let mut x: u64 = 7;
        let mut sum: u64 = 0;
        for _ in 0..READS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            sum = sum.wrapping_add(u64::from(self.table[x as usize % TABLE_LEN]));
        }
        black_box(sum);
        self.samples.push(t.elapsed().as_secs_f64());
    }

    /// How much slower than nominal the host ran around the last unit:
    /// the mean of the last two calibration times over [`NOMINAL_S`].
    /// Divide the unit's times by it, multiply its rates by it.
    pub fn last_factor(&self) -> f64 {
        let last = &self.samples[self.samples.len().saturating_sub(2)..];
        last.iter().sum::<f64>() / last.len() as f64 / NOMINAL_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_the_mean_of_the_last_two_over_nominal() {
        let mut c = Calibration::new();
        c.samples = vec![5.0 * NOMINAL_S, NOMINAL_S, 3.0 * NOMINAL_S];
        assert_eq!(c.last_factor(), 2.0);
        c.sample();
        assert_eq!(c.samples.len(), 4);
    }
}
