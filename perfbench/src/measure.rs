//! Sample sets, percentiles and the seeded input generator.

use std::time::Duration;

/// Latencies of one kind of operation, in milliseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, value: Duration) {
        self.values.push(value.as_secs_f64() * 1e3);
    }

    pub fn push_ms(&mut self, ms: f64) {
        self.values.push(ms);
    }

    pub fn extend(&mut self, other: Samples) {
        self.values.extend(other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Nearest-rank percentile `p` (0–100), with the number of samples
    /// strictly beyond it. `None` when the set is empty.
    pub fn percentile(&self, p: f64) -> Option<Percentile> {
        if self.values.is_empty() {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
        let rank = rank.min(n);
        Some(Percentile {
            value: sorted[rank - 1],
            samples: n,
            beyond: n - rank,
        })
    }
}

/// One percentile of a [`Samples`] set.
#[derive(Debug, Clone, Copy)]
pub struct Percentile {
    pub value: f64,
    pub samples: usize,
    pub beyond: usize,
}

/// The median of a non-empty list of seconds (or any unit).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// SplitMix64: the workload seed's only source of randomness, so a seed
/// names one input sequence on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_counts_samples_beyond() {
        let mut s = Samples::default();
        for i in 1..=100 {
            s.push_ms(i as f64);
        }
        let p90 = s.percentile(90.0).unwrap();
        assert_eq!((p90.value, p90.beyond), (90.0, 10));
        let p50 = s.percentile(50.0).unwrap();
        assert_eq!((p50.value, p50.beyond), (50.0, 50));
    }

    #[test]
    fn seeds_name_sequences() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        let mut r = Rng::new(7, 1);
        assert_eq!(a[0], r.next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }
}
