//! DELTA instantiation for threshold-based protocols (paper §3.1.2,
//! "Congested state") using Shamir's `(k, n)` secret sharing.
//!
//! Protocols like RLM, MLDA and WEBRC tolerate losses up to a per-level
//! threshold (RLM's default is 25 %). DELTA supports them by splitting the
//! level key `γ` into `n` shares — one per packet of the level — such that
//! any `k` shares reconstruct the key by Lagrange interpolation while `k-1`
//! reveal *nothing* (information-theoretic security of Shamir's scheme). A
//! receiver whose loss rate stays within the threshold collects ≥ `k`
//! packets and stays; a receiver losing more cannot rebuild the key.
//!
//! Arithmetic is over the prime field GF(65521), the largest prime below
//! 2^16 — matching the paper's 16-bit keys.

use mcc_simcore::DetRng;

/// The prime modulus: largest prime < 2^16.
pub(crate) const P: u32 = 65521;

/// Field element arithmetic over GF(P).
pub(crate) mod field {
    use super::P;

    /// Addition mod P.
    pub(crate) fn add(a: u32, b: u32) -> u32 {
        (a + b) % P
    }

    /// Subtraction mod P.
    pub(crate) fn sub(a: u32, b: u32) -> u32 {
        (a + P - b % P) % P
    }

    /// Multiplication mod P.
    pub(crate) fn mul(a: u32, b: u32) -> u32 {
        ((a as u64 * b as u64) % P as u64) as u32
    }

    /// Modular exponentiation.
    pub(crate) fn pow(mut base: u32, mut exp: u32) -> u32 {
        let mut acc = 1u32;
        base %= P;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = mul(acc, base);
            }
            base = mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Multiplicative inverse via Fermat's little theorem (`a != 0`).
    pub(crate) fn inv(a: u32) -> u32 {
        assert!(!a.is_multiple_of(P), "zero has no inverse");
        pow(a, P - 2)
    }
}

/// One share: the pair `(p, q(p))` placed into packet `p` (paper Eq. 8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Share {
    /// Evaluation point (the packet index, 1-based; never 0 — `q(0)` *is*
    /// the secret).
    pub x: u32,
    /// Polynomial value at `x`.
    pub y: u32,
}

/// Split `secret` into `n` shares, any `k` of which reconstruct it.
///
/// Picks a uniform polynomial `q(x) = secret + a₁x + … + a_{k−1}x^{k−1}`
/// (paper Eq. 7) and evaluates it at `x = 1..=n` (paper Eq. 8).
pub fn split(secret: u32, k: u32, n: u32, rng: &mut DetRng) -> Vec<Share> {
    assert!(k >= 1, "threshold must be at least 1");
    assert!(n >= k, "need at least k shares");
    assert!((n as u64) < P as u64, "more shares than field points");
    let secret = secret % P;
    let coeffs: Vec<u32> = std::iter::once(secret)
        .chain((1..k).map(|_| (rng.below(P as u64)) as u32))
        .collect();
    (1..=n)
        .map(|x| {
            // Horner evaluation.
            let mut y = 0u32;
            for &c in coeffs.iter().rev() {
                y = field::add(field::mul(y, x), c);
            }
            Share { x, y }
        })
        .collect()
}

/// Reconstruct the secret `q(0)` from at least `k` distinct shares of a
/// degree-`k-1` polynomial (paper Eq. 9). With fewer than `k` shares the
/// result is garbage — exactly the property DELTA relies on.
pub fn reconstruct(shares: &[Share]) -> u32 {
    assert!(!shares.is_empty(), "no shares");
    // Lagrange interpolation at x = 0:
    //   q(0) = Σ_i y_i · Π_{j≠i} x_j / (x_j − x_i)
    let mut acc = 0u32;
    for (i, si) in shares.iter().enumerate() {
        let mut num = 1u32;
        let mut den = 1u32;
        for (j, sj) in shares.iter().enumerate() {
            if i == j {
                continue;
            }
            num = field::mul(num, sj.x);
            den = field::mul(den, field::sub(sj.x, si.x));
        }
        acc = field::add(acc, field::mul(si.y, field::mul(num, field::inv(den))));
    }
    acc
}

/// The `k` for a level transmitting `n` packets with loss threshold `θ`:
/// a receiver is eligible iff it kept at least a `1-θ` fraction.
pub fn threshold_k(n: u32, theta: f64) -> u32 {
    assert!((0.0..1.0).contains(&theta), "θ must be in [0,1)");
    (((n as f64) * (1.0 - theta)).ceil() as u32).clamp(1, n)
}

/// Per-level key schedule for one slot of a threshold protocol.
#[derive(Clone, Debug)]
pub struct ThresholdLevelKeys {
    /// The level key `γ` (a field element; 16-bit scale as in the paper).
    pub secret: u32,
    /// One share per packet of the level, in transmission order.
    pub shares: Vec<Share>,
}

impl ThresholdLevelKeys {
    /// Generate a key and its shares for a level transmitting `n` packets
    /// under loss threshold `theta`.
    pub fn generate(n: u32, theta: f64, rng: &mut DetRng) -> Self {
        let secret = rng.below(P as u64) as u32;
        let k = threshold_k(n, theta);
        let shares = split(secret, k, n, rng);
        ThresholdLevelKeys { secret, shares }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> DetRng {
        DetRng::new(1234)
    }

    #[test]
    fn field_axioms_spot_checks() {
        assert_eq!(field::add(P - 1, 1), 0);
        assert_eq!(field::sub(0, 1), P - 1);
        assert_eq!(field::mul(P - 1, P - 1), 1); // (-1)² = 1
        for a in [1u32, 2, 500, P - 2] {
            assert_eq!(field::mul(a, field::inv(a)), 1, "a={a}");
        }
    }

    #[test]
    fn exact_k_shares_reconstruct() {
        let mut r = rng();
        let shares = split(4242, 3, 10, &mut r);
        assert_eq!(reconstruct(&shares[0..3]), 4242);
        assert_eq!(reconstruct(&shares[4..7]), 4242);
        // Non-contiguous subset.
        let subset = [shares[0], shares[5], shares[9]];
        assert_eq!(reconstruct(&subset), 4242);
    }

    #[test]
    fn more_than_k_shares_also_reconstruct() {
        let mut r = rng();
        let shares = split(7, 4, 12, &mut r);
        assert_eq!(reconstruct(&shares), 7);
    }

    #[test]
    fn fewer_than_k_shares_give_garbage() {
        let mut r = rng();
        let secret = 31337 % P;
        let shares = split(secret, 5, 10, &mut r);
        // With k-1 shares the interpolation of a lower-degree polynomial
        // almost surely misses; run over several subsets.
        let hits = (0..6)
            .filter(|&s| reconstruct(&shares[s..s + 4]) == secret)
            .count();
        assert_eq!(hits, 0, "4 of 5 required shares must not reveal the key");
    }

    #[test]
    fn k_equals_one_is_plain_replication() {
        let mut r = rng();
        let shares = split(99, 1, 5, &mut r);
        for s in &shares {
            assert_eq!(reconstruct(&[*s]), 99);
        }
    }

    #[test]
    fn threshold_k_matches_rlm_default() {
        // RLM's 25 % threshold over 20 packets: need 15.
        assert_eq!(threshold_k(20, 0.25), 15);
        assert_eq!(threshold_k(4, 0.25), 3);
        // Degenerate cases clamp sensibly.
        assert_eq!(threshold_k(1, 0.9), 1);
        assert_eq!(threshold_k(10, 0.0), 10);
    }

    #[test]
    fn schedule_respects_threshold_semantics() {
        let mut r = rng();
        let lvl = ThresholdLevelKeys::generate(20, 0.25, &mut r);
        assert_eq!(lvl.shares.len(), 20);
        // The threshold is k = 15: a receiver losing exactly 25 %
        // (5 packets) still reconstructs.
        assert_eq!(reconstruct(&lvl.shares[0..15]), lvl.secret);
        // A receiver losing 30 % cannot.
        assert_ne!(reconstruct(&lvl.shares[0..14]), lvl.secret);
    }

    #[test]
    fn shares_never_use_x_zero() {
        let mut r = rng();
        for s in split(1, 2, 30, &mut r) {
            assert!(s.x >= 1);
        }
    }
}
