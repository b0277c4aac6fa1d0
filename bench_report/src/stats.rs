//! Sample arithmetic shared by every workload: nearest-rank
//! percentiles, paired per-round ratios, tolerance compares, and the
//! two tiny deterministic generators (xorshift, FNV-1a) the benchmark
//! uses so that nothing here depends on a crate that a later PR may
//! change.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it. Exact (no
/// interpolation), so a reported p90 is always a latency that occurred.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Percentile of an unsorted sample.
pub fn pct(samples: &[f64], q: f64) -> f64 {
    percentile(&sorted(samples), q)
}

pub fn median(samples: &[f64]) -> f64 {
    pct(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Interquartile range as a share of the median (nearest-rank
/// quartiles): the benchmark's own steadiness figure for a sample.
pub fn iqr_frac(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    (percentile(&s, 0.75) - percentile(&s, 0.25)) / percentile(&s, 0.5)
}

/// Element-wise `num[i] / den[i]`: the per-round pairing that makes a
/// ratio immune to drift slower than one round. Both sides must come
/// from the same rounds.
pub fn paired_ratios(num: &[f64], den: &[f64]) -> Vec<f64> {
    assert_eq!(num.len(), den.len(), "paired samples must come from the same rounds");
    num.iter().zip(den).map(|(n, d)| n / d).collect()
}

/// `a ≈ b` within `rel` of the larger magnitude (floored at 1, so
/// values near zero compare absolutely).
pub fn close(a: f64, b: f64, rel: f64) -> bool {
    if a == b {
        return true; // also covers equal infinities
    }
    (a - b).abs() <= rel * a.abs().max(b.abs()).max(1.0)
}

/// By how much of `base` the reading `new` is *worse*, given the
/// metric's direction; negative when it is better.
pub fn worse_by(base: f64, new: f64, lower_is_better: bool) -> f64 {
    let delta = if lower_is_better { new - base } else { base - new };
    delta / base.abs().max(f64::MIN_POSITIVE)
}

/// xorshift64: the benchmark's only random source (inputs of the
/// calibration kernel, query-mix draws, derived generator seeds).
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    pub fn new(seed: u64) -> Self {
        // splitmix64 scramble so that nearby seeds give unrelated
        // streams and a zero seed is legal
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift((z ^ (z >> 31)) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// Uniform in `0..n` (modulo bias is irrelevant at these `n`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Streaming 64-bit FNV-1a.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.9), 9.0);
        assert_eq!(percentile(&s, 0.91), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        // 150 samples leave 15 beyond the p90
        let s: Vec<f64> = (0..150).map(f64::from).collect();
        assert_eq!(s.iter().filter(|x| **x > percentile(&s, 0.9)).count(), 15);
    }

    #[test]
    fn unsorted_helpers_sort_first() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(pct(&[9.0, 1.0, 5.0, 7.0], 0.75), 7.0);
        assert!((iqr_frac(&[1.0, 2.0, 3.0, 4.0]) - 1.0).abs() < 1e-12);
        assert!((mean(&[1.0, 2.0, 6.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn paired_ratio_cancels_common_drift() {
        // both sides slow down 40% over the run; the ratio does not move
        let drift = [1.0, 1.1, 1.2, 1.3, 1.4];
        let op: Vec<f64> = drift.iter().map(|d| 8.0 * d).collect();
        let calib: Vec<f64> = drift.iter().map(|d| 2.0 * d).collect();
        let r = paired_ratios(&op, &calib);
        assert!(r.iter().all(|x| (x - 4.0).abs() < 1e-12));
        // while the unpaired ratio of medians against a fixed yardstick would
        assert!(median(&op) / calib[0] > 4.7);
    }

    #[test]
    #[should_panic(expected = "same rounds")]
    fn paired_ratio_rejects_ragged_samples() {
        let _ = paired_ratios(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    fn tolerance_compare() {
        assert!(close(1.0, 1.0 + 5e-10, 1e-9));
        assert!(!close(1.0, 1.0 + 5e-9, 1e-9));
        assert!(close(1e12, 1e12 + 100.0, 1e-9));
        assert!(!close(1e12, 1e12 + 10_000.0, 1e-9));
        assert!(close(0.0, 5e-10, 1e-9), "absolute near zero");
        assert!(close(f64::INFINITY, f64::INFINITY, 1e-9));
        assert!(!close(f64::NAN, f64::NAN, 1e-9), "NaN never passes a gate");
    }

    #[test]
    fn worse_by_respects_direction() {
        assert!((worse_by(10.0, 11.0, true) - 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 11.0, false) + 0.1).abs() < 1e-12);
        assert!((worse_by(10.0, 9.0, false) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn digest_and_generator_are_stable() {
        // published FNV-1a test vectors
        let mut h = Fnv::default();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
        // the generator is part of the frozen calibration kernel: pin it
        let mut g = XorShift::new(20_260_928);
        let first: Vec<u64> = (0..3).map(|_| g.next_u64()).collect();
        let mut again = XorShift::new(20_260_928);
        assert_eq!(first, (0..3).map(|_| again.next_u64()).collect::<Vec<_>>());
        assert_ne!(XorShift::new(1).next_u64(), XorShift::new(2).next_u64());
        assert_ne!(XorShift::new(0).next_u64(), 0);
        assert!((0..100).all(|_| g.below(7) < 7));
    }
}
