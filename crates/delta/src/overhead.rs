//! Communication-overhead model (paper §5.4).
//!
//! The paper derives closed forms for the overhead of DELTA (in-band fields
//! on data packets) and SIGMA (special key-distribution packets), quantified
//! with the evaluation parameters `R = 4 Mbps`, `r = 100 Kbps`, `s = 4000`
//! data bits/packet, `b = 16`-bit keys, `l = 8`-bit slot numbers, FEC
//! overcoming 50 % loss. Figure 9 plots both against the group count `N`
//! and the slot duration `t`; the harness in `mcc-bench` evaluates these
//! formulas with *measured* `f_g`, `z` and `h` recorded from simulation,
//! exactly as the paper does.

/// Parameters of the overhead model.
#[derive(Clone, Copy, Debug)]
pub struct OverheadParams {
    /// Number of groups `N` in the session.
    pub n_groups: u32,
    /// Data bits per packet, `s`.
    pub data_bits_per_packet: u32,
    /// Key/component width `b` in bits.
    pub key_bits: u32,
    /// Slot-number width `l` in bits.
    pub slot_number_bits: u32,
    /// Base-group rate `r` in bits per second.
    pub base_rate_bps: f64,
    /// Cumulative session rate `R` in bits per second.
    pub session_rate_bps: f64,
    /// Slot duration `t` in seconds.
    pub slot_secs: f64,
}

impl OverheadParams {
    /// The paper's evaluation settings for a given `N` and `t`.
    pub fn paper(n_groups: u32, slot_secs: f64) -> Self {
        OverheadParams {
            n_groups,
            data_bits_per_packet: 4000,
            key_bits: 16,
            slot_number_bits: 8,
            base_rate_bps: 100_000.0,
            session_rate_bps: 4_000_000.0,
            slot_secs,
        }
    }

    /// The multiplicative cumulative-rate factor `m` implied by Eq. 10:
    /// `R = r · m^{N-1}`.
    pub fn rate_factor(&self) -> f64 {
        if self.n_groups <= 1 {
            return 1.0;
        }
        (self.session_rate_bps / self.base_rate_bps).powf(1.0 / (self.n_groups as f64 - 1.0))
    }
}

/// DELTA overhead: the ratio of DELTA bits to data bits,
/// `O_Δ = (2 − 1/m^{N−1}) · b/s` (paper §5.4).
///
/// Every packet carries a `b`-bit component field, and every packet of
/// groups 2..N also carries a `b`-bit decrease field; group 1's share of
/// the packets is `1/m^{N-1}`.
pub fn delta_overhead(p: &OverheadParams) -> f64 {
    let m_pow = p.session_rate_bps / p.base_rate_bps; // m^{N-1}
    (2.0 - 1.0 / m_pow) * p.key_bits as f64 / p.data_bits_per_packet as f64
}

/// SIGMA overhead: the ratio of SIGMA special-packet bits to data bits
/// (paper §5.4):
///
/// ```text
/// O_Σ = [ (l + 32N + b(2N − 1 + Σ_g f_g)) · z + h ] / (r · t · m^{N−1})
/// ```
///
/// * `sum_fg` — measured average number of upgrade authorizations per slot
///   summed over groups 2..N,
/// * `fec_expansion` — the measured FEC bit-expansion factor `z`,
/// * `header_bits` — total special-packet header bits per slot, `h`.
pub fn sigma_overhead(
    p: &OverheadParams,
    sum_fg: f64,
    fec_expansion: f64,
    header_bits: f64,
) -> f64 {
    let n = p.n_groups as f64;
    let b = p.key_bits as f64;
    let l = p.slot_number_bits as f64;
    let payload = l + 32.0 * n + b * (2.0 * n - 1.0 + sum_fg);
    let bits_per_slot = payload * fec_expansion + header_bits;
    let data_bits_per_slot = p.base_rate_bps * p.slot_secs * (p.session_rate_bps / p.base_rate_bps);
    bits_per_slot / data_bits_per_slot
}

/// Overhead of the *naive* field layout the paper rejects in §3.1.1:
/// defining every key independently, so each packet of group `j` carries
/// one component for every key `k_g` with `g ≥ j` — `N − j + 1` fields —
/// instead of the single shared component of the real design (and the
/// same again for increase keys, here counted once as the paper does for
/// the lower bound of the argument).
///
/// Used by the ablation bench to quantify how much the component-sharing
/// telescope buys.
pub fn naive_delta_overhead(p: &OverheadParams) -> f64 {
    let n = p.n_groups;
    let m = p.rate_factor();
    let r = p.base_rate_bps;
    let total = p.session_rate_bps;
    // Incremental rate of group j (share of the packet population).
    let inc = |j: u32| -> f64 {
        if j == 1 {
            r
        } else {
            r * m.powi(j as i32 - 1) - r * m.powi(j as i32 - 2)
        }
    };
    let mut component_fields = 0.0;
    for j in 1..=n {
        component_fields += inc(j) / total * (n - j + 1) as f64;
    }
    // One decrease field on groups 2..N, as in the real design.
    let decrease_fields = 1.0 - inc(1) / total;
    (component_fields + decrease_fields) * p.key_bits as f64 / p.data_bits_per_packet as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_overhead_matches_paper_magnitude() {
        // b=16, s=4000, m^{N-1}=40 ⇒ (2 − 1/40)·16/4000 ≈ 0.79 %.
        let p = OverheadParams::paper(10, 0.25);
        let o = delta_overhead(&p);
        assert!((o - 0.0079).abs() < 0.0002, "O_Δ = {o}");
    }

    #[test]
    fn delta_overhead_is_insensitive_to_n() {
        // The paper's Figure 9a: ~0.8 % across N — because R is fixed, the
        // m^{N-1} product stays 40 and only the formula's constant matters.
        let o2 = delta_overhead(&OverheadParams::paper(2, 0.25));
        let o20 = delta_overhead(&OverheadParams::paper(20, 0.25));
        assert!((o2 - o20).abs() < 1e-12);
    }

    #[test]
    fn sigma_overhead_under_paper_bound() {
        // Figure 9: SIGMA stays under 0.6 % for N ∈ [2, 20], t = 250 ms.
        for n in 2..=20 {
            let p = OverheadParams::paper(n, 0.25);
            // Generous measured values: one authorization per group per
            // slot, z = 2 (FEC vs 50 % loss), three 256-bit headers.
            let o = sigma_overhead(&p, (n - 1) as f64, 2.0, 3.0 * 256.0);
            assert!(o < 0.006, "N={n}: O_Σ = {o}");
            assert!(o > 0.0);
        }
    }

    #[test]
    fn sigma_overhead_falls_with_slot_duration() {
        let short = sigma_overhead(&OverheadParams::paper(10, 0.2), 4.5, 2.0, 512.0);
        let long = sigma_overhead(&OverheadParams::paper(10, 1.0), 4.5, 2.0, 512.0);
        assert!(long < short, "amortized over more data");
        assert!((short / long - 5.0).abs() < 1e-9, "inverse-linear in t");
    }

    #[test]
    fn component_sharing_beats_the_naive_layout() {
        // §3.1.1: "the communication overhead of the key distribution
        // becomes high" without sharing. Quantified: roughly double at
        // N = 10 (packets concentrate in high groups, which carry few
        // extra fields), and growing with N.
        let p = OverheadParams::paper(10, 0.25);
        let shared = delta_overhead(&p);
        let naive = naive_delta_overhead(&p);
        assert!(naive > 1.8 * shared, "naive {naive} vs shared {shared}");
        // And it grows with N while the shared design stays flat.
        let naive20 = naive_delta_overhead(&OverheadParams::paper(20, 0.25));
        assert!(naive20 > naive);
    }

    #[test]
    fn rate_factor_solves_eq_10() {
        let p = OverheadParams::paper(10, 0.25);
        let m = p.rate_factor();
        // r · m^{N-1} = R.
        let r_back = p.base_rate_bps * m.powi(9);
        assert!((r_back - p.session_rate_bps).abs() < 1.0);
    }
}
