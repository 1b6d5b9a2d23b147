//! Small helpers shared by every workload: a seeded generator, order
//! statistics and peak memory.

/// SplitMix64: the benchmark's only source of randomness, so the inputs a
/// workload generates depend on `--seed` and nothing else.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// `n` draws from `[lo, hi)`, one from each of `n` equal strata, in
    /// shuffled order. Stratifying keeps the spread of a generated corpus
    /// the same from seed to seed while every value stays seed-dependent.
    pub fn stratified(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        let mut values: Vec<f64> = (0..n)
            .map(|i| lo + (hi - lo) * (i as f64 + self.unit()) / n as f64)
            .collect();
        self.shuffle(&mut values);
        values
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The analysis seed of pass `pass` for a job whose pass-0 seed is `seed`,
/// for a workload whose passes search afresh: a run with the same `--seed`
/// repeats the same sequence.
pub fn pass_seed(seed: u64, pass: u64) -> u64 {
    if pass == 0 {
        seed
    } else {
        Rng::new(seed ^ pass.wrapping_mul(0xA24B_AED4_963E_E407)).next_u64() >> 20
    }
}

/// Folds the bit patterns of `values` into the running hash `h`, so a
/// determinism check can compare a whole answer (a model, a suite) as one
/// counter.
pub fn fingerprint(h: u64, values: &[f64]) -> u64 {
    values.iter().fold(h, |h, v| {
        Rng::new(h ^ v.to_bits().rotate_left(17)).next_u64()
    })
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// order statistics; `NaN` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn stratified_covers_every_stratum() {
        let mut rng = Rng::new(7);
        let mut v = rng.stratified(10, 0.0, 10.0);
        v.sort_by(f64::total_cmp);
        for (i, x) in v.iter().enumerate() {
            assert!(*x >= i as f64 && *x < i as f64 + 1.0);
        }
    }
}
