//! The benchmark's own seeded randomness: a SplitMix64 stream, a Zipf
//! sampler and an exponential-gap arrival schedule.
//!
//! Inputs must be a pure function of `--seed`, and must not move when the
//! repository swaps its `rand` shim, so nothing here depends on it.

/// SplitMix64: tiny, fast, and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        (self.next_f64() * n as f64) as u64
    }

    /// Log-uniform real in `[lo, hi]`.
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        (lo.ln() + self.next_f64() * (hi.ln() - lo.ln())).exp()
    }

    /// An independent stream for a named sub-purpose of the same seed.
    pub fn fork(&self, tag: u64) -> SplitMix64 {
        let mut s = SplitMix64(self.0 ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        s.next_u64();
        s
    }
}

/// Zipf(`s`) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += (rank as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draw one rank in `0..n` (rank 0 is the most popular).
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Scheduled send offsets (seconds from the start of the measured phase)
/// of `n` requests arriving as a Poisson process of `rate` per second.
pub fn exponential_schedule(rng: &mut SplitMix64, rate: f64, n: usize) -> Vec<f64> {
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            // 1 - u is in (0, 1], so the logarithm is finite.
            t += -(1.0 - rng.next_f64()).ln() / rate;
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_golden_values() {
        // Reference outputs of SplitMix64 seeded with 1234567.
        let mut r = SplitMix64::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
        assert_eq!(r.next_u64(), 9817491932198370423);
    }

    #[test]
    fn zipf_is_seeded_and_skewed() {
        let z = Zipf::new(512, 1.1);
        let mut r = SplitMix64::new(1802);
        let draws: Vec<usize> = (0..8).map(|_| z.sample(&mut r)).collect();
        let mut again = SplitMix64::new(1802);
        let repeat: Vec<usize> = (0..8).map(|_| z.sample(&mut again)).collect();
        assert_eq!(draws, repeat, "same seed, same draws");
        assert_eq!(draws, vec![1, 5, 10, 36, 11, 26, 29, 234], "golden draws");

        let mut counts = vec![0u32; 512];
        for _ in 0..100_000 {
            counts[z.sample(&mut r)] += 1;
        }
        // P(rank 0) = 1 / H(512, 1.1); rank 1 is 2^-1.1 of that.
        let harmonic: f64 = (1..=512).map(|r| (r as f64).powf(-1.1)).sum();
        let p0 = counts[0] as f64 / 100_000.0;
        let p1 = counts[1] as f64 / 100_000.0;
        assert!((p0 - 1.0 / harmonic).abs() < 0.005, "p0 = {p0}");
        assert!((p1 / p0 - 0.4665).abs() < 0.03, "p1/p0 = {}", p1 / p0);
        assert!(counts.iter().all(|&c| c < counts[0] + 1));
    }

    #[test]
    fn zipf_never_leaves_its_range() {
        let z = Zipf::new(3, 0.7);
        let mut r = SplitMix64::new(9);
        assert!((0..10_000).all(|_| z.sample(&mut r) < 3));
    }

    #[test]
    fn exponential_schedule_is_seeded_monotone_and_on_rate() {
        let mut r = SplitMix64::new(1802);
        let s = exponential_schedule(&mut r, 100.0, 4);
        let golden = [
            0.003_198_815_634_299_341_6,
            0.008_759_624_803_800_367,
            0.016_068_850_643_191_995,
            0.027_885_679_927_608_164,
        ];
        for (got, want) in s.iter().zip(golden) {
            assert!((got - want).abs() < 1e-15, "{got} vs {want}");
        }
        let long = exponential_schedule(&mut SplitMix64::new(7), 100.0, 20_000);
        assert!(long.windows(2).all(|w| w[1] > w[0]));
        let mean_gap = long.last().unwrap() / long.len() as f64;
        assert!((mean_gap - 0.01).abs() < 0.0003, "mean gap {mean_gap}");
    }
}
