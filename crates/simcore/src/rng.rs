//! Deterministic random number generation.
//!
//! Every stochastic choice in the reproduction (packet nonces, upgrade
//! authorizations, on-off phases, RED decisions) flows through [`DetRng`], a
//! SplitMix64 generator implemented here so results do not depend on the
//! algorithmic details of any external crate version. A scenario seed fully
//! determines an experiment; [`DetRng::fork`] derives independent streams for
//! sub-components so adding a new consumer does not perturb existing ones.

/// A deterministic pseudo-random number generator (SplitMix64).
///
/// SplitMix64 passes BigCrush, has a full 2^64 period over its state, and is
/// trivially seedable — more than sufficient for simulation purposes. It is
/// *not* a cryptographic generator; the security arguments of DELTA rely on
/// key *width* (the paper's `b` parameter), not on the nonce source, and the
/// paper's own evaluation uses 16-bit keys.
#[derive(Clone, Debug)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // Avoid the all-zero fixed point by mixing the seed once.
        DetRng {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Derive an independent child stream.
    ///
    /// The child is seeded from this generator's next output mixed with
    /// `stream`, so distinct `stream` tags give distinct sequences even when
    /// forked back-to-back.
    pub fn fork(&mut self, stream: u64) -> DetRng {
        let s = self.next_u64() ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        DetRng::new(s)
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 bits of mantissa.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, n)`. `n` must be positive.
    ///
    /// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let lo = m as u64;
            if lo >= n || lo >= (n.wrapping_neg() % n) {
                return (m >> 64) as u64;
            }
        }
    }

    /// A uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "inverted range");
        lo + self.next_f64() * (hi - lo)
    }

    /// A Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// An exponentially distributed duration with the given mean.
    ///
    /// Used for Poisson traffic models; the mean is expressed in seconds and
    /// the result returned in seconds.
    pub fn exponential_secs(&mut self, mean_secs: f64) -> f64 {
        assert!(mean_secs > 0.0, "mean must be positive");
        // Inverse-CDF sampling; `1 - u` avoids ln(0).
        -mean_secs * (1.0 - self.next_f64()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_independent_streams() {
        let mut parent = DetRng::new(7);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let overlap = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(overlap, 0);
    }

    #[test]
    fn fork_streams_distinct_even_same_tag_position() {
        // Forking with the same tag from different parent positions differs.
        let mut p = DetRng::new(9);
        let mut a = p.fork(5);
        let mut b = p.fork(5);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = DetRng::new(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = r.below(10) as usize;
            assert!(x < 10);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues should appear");
    }

    #[test]
    fn f64_in_unit_interval_and_roughly_uniform() {
        let mut r = DetRng::new(11);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(13);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2000..3000).contains(&hits), "hits={hits}");
    }

    #[test]
    fn exponential_has_right_mean() {
        let mut r = DetRng::new(17);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exponential_secs(2.0)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn range_bounds() {
        let mut r = DetRng::new(29);
        for _ in 0..100 {
            let y = r.range_f64(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&y));
        }
    }
}
