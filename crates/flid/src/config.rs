//! Session configuration shared by FLID senders and receivers.

use mcc_netsim::{FlowId, GroupAddr, DATA_PACKET_BYTES};
use mcc_simcore::SimDuration;

/// FEC repetition factor for SIGMA's special packets: every announcement
/// packet goes out twice, enough to overcome 50 % loss (paper §5.4).
pub(crate) const FEC_REPEAT: u32 = 2;

/// Per-slot probability of authorizing an upgrade to group 2; higher
/// groups decay geometrically by [`UPGRADE_DECAY`].
pub(crate) const UPGRADE_P0: f64 = 0.6;

/// Geometric decay of the upgrade-authorization probability per group
/// (`p_g = p0 · decay^{g-2}`), emulating FLID-DL's less-frequent increase
/// signals at higher layers.
pub(crate) const UPGRADE_DECAY: f64 = 0.75;

/// Loss threshold θ of the RLM-style threshold sessions: a receiver
/// keeping at least a `1-θ` fraction of a slot's packets reconstructs its
/// group key (RLM's default, paper §3.1.2).
pub const THRESHOLD_THETA: f64 = 0.25;

/// Configuration of one FLID-DL / FLID-DS session.
///
/// Defaults mirror the paper's evaluation settings (§5.1): 10 groups, the
/// minimal group at 100 Kbps, cumulative rate growing ×1.5 per group,
/// 576-byte packets, slot 500 ms for FLID-DL and 250 ms for FLID-DS (the
/// halved slot compensates for SIGMA's two-slot access granularity).
#[derive(Clone, Debug)]
pub struct FlidConfig {
    /// Group addresses in layer order (`groups[0]` = minimal group).
    pub groups: Vec<GroupAddr>,
    /// Control group carrying SIGMA's special key packets.
    pub control_group: GroupAddr,
    /// Flow tag of the session's data (and control) packets.
    pub flow: FlowId,
    /// Cumulative rate of the minimal subscription level, `r`, in bit/s.
    pub base_rate_bps: f64,
    /// Multiplicative growth of the cumulative rate per group, `m`.
    pub rate_factor: f64,
    /// Time-slot duration.
    pub slot: SimDuration,
    /// Wire size of a data packet in bits.
    pub packet_bits: u64,
    /// True for FLID-DS (DELTA + SIGMA protection), false for plain
    /// FLID-DL.
    pub protected: bool,
    /// Mark data packets ECN-capable: congestion is then signalled by RED
    /// marking instead of loss, and edge routers scramble marked
    /// components (paper §3.1.2, "Congestion notification").
    pub ecn: bool,
}

impl FlidConfig {
    /// Paper-default session over the given addresses. `groups.len()` sets
    /// `N`; `protected` selects FLID-DS (250 ms slots) or FLID-DL (500 ms).
    pub fn paper(
        groups: Vec<GroupAddr>,
        control_group: GroupAddr,
        flow: FlowId,
        protected: bool,
    ) -> Self {
        assert!(!groups.is_empty() && groups.len() <= 32);
        FlidConfig {
            groups,
            control_group,
            flow,
            base_rate_bps: 100_000.0,
            rate_factor: 1.5,
            slot: if protected {
                SimDuration::from_millis(250)
            } else {
                SimDuration::from_millis(500)
            },
            packet_bits: DATA_PACKET_BYTES * 8,
            protected,
            ecn: false,
        }
    }

    /// Number of groups `N`.
    pub fn n(&self) -> u32 {
        self.groups.len() as u32
    }

    /// Cumulative rate of subscription level `level` (1-based), bit/s.
    pub fn cumulative_rate(&self, level: u32) -> f64 {
        assert!((1..=self.n()).contains(&level));
        self.base_rate_bps * self.rate_factor.powi(level as i32 - 1)
    }

    /// Incremental rate of group `g`: what group `g` itself transmits.
    pub(crate) fn incremental_rate(&self, g: u32) -> f64 {
        assert!((1..=self.n()).contains(&g));
        if g == 1 {
            self.base_rate_bps
        } else {
            self.cumulative_rate(g) - self.cumulative_rate(g - 1)
        }
    }

    /// Per-slot probability of authorizing an upgrade *to* group `g`.
    pub(crate) fn upgrade_probability(&self, g: u32) -> f64 {
        assert!((2..=self.n().max(2)).contains(&g));
        (UPGRADE_P0 * UPGRADE_DECAY.powi(g as i32 - 2)).clamp(0.0, 1.0)
    }

    /// The subscription level whose cumulative rate best fits `rate_bps`
    /// (useful for oracle comparisons in tests).
    #[cfg(test)]
    pub(crate) fn fair_level(&self, rate_bps: f64) -> u32 {
        let mut best = 1;
        for level in 1..=self.n() {
            if self.cumulative_rate(level) <= rate_bps {
                best = level;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: u32, protected: bool) -> FlidConfig {
        FlidConfig::paper(
            (1..=n).map(GroupAddr).collect(),
            GroupAddr(0),
            FlowId(1),
            protected,
        )
    }

    #[test]
    fn paper_rates() {
        let c = cfg(10, false);
        assert_eq!(c.cumulative_rate(1), 100_000.0);
        assert_eq!(c.cumulative_rate(2), 150_000.0);
        // Level 10 ≈ 3.84 Mbps (100k · 1.5⁹).
        assert!((c.cumulative_rate(10) - 3_844_335.937_5).abs() < 1.0);
        assert_eq!(c.incremental_rate(1), 100_000.0);
        assert_eq!(c.incremental_rate(2), 50_000.0);
        assert!((c.incremental_rate(3) - 75_000.0).abs() < 1e-6);
    }

    #[test]
    fn incremental_rates_sum_to_cumulative() {
        let c = cfg(10, true);
        let sum: f64 = (1..=10).map(|g| c.incremental_rate(g)).sum();
        assert!((sum - c.cumulative_rate(10)).abs() < 1e-6);
    }

    #[test]
    fn slots_follow_protection_mode() {
        assert_eq!(cfg(10, false).slot, SimDuration::from_millis(500));
        assert_eq!(cfg(10, true).slot, SimDuration::from_millis(250));
    }

    #[test]
    fn upgrade_probability_decays() {
        let c = cfg(10, false);
        assert!(c.upgrade_probability(2) > c.upgrade_probability(5));
        assert!(c.upgrade_probability(10) > 0.0);
    }

    /// The paper's parameter table (DESIGN.md "Paper parameters"), read
    /// from each value's one home.
    #[test]
    fn paper_parameter_table() {
        let (dl, ds) = (cfg(10, false), cfg(10, true));
        assert_eq!((dl.base_rate_bps, dl.rate_factor), (100_000.0, 1.5));
        assert_eq!(dl.packet_bits, 576 * 8);
        assert_eq!(dl.slot, SimDuration::from_millis(500));
        assert_eq!(ds.slot, SimDuration::from_millis(250));
        assert_eq!(FEC_REPEAT, 2);
        assert_eq!((UPGRADE_P0, UPGRADE_DECAY), (0.6, 0.75));
        assert_eq!(dl.upgrade_probability(2), 0.6);
        assert_eq!(dl.upgrade_probability(3), 0.6 * 0.75);
        assert_eq!(dl.upgrade_probability(4), 0.6 * 0.5625);
        assert_eq!(THRESHOLD_THETA, 0.25);
        assert_eq!(mcc_delta::KEY_LEAD, 2);
    }

    #[test]
    fn fair_level_matches_paper_setting() {
        let c = cfg(10, false);
        // 250 Kbps fair share ⇒ level 3 (225 Kbps) is the largest fit.
        assert_eq!(c.fair_level(250_000.0), 3);
        assert_eq!(c.fair_level(90_000.0), 1, "clamps at the minimal level");
        assert_eq!(c.fair_level(10_000_000.0), 10);
    }
}
