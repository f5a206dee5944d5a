//! The straw-man single-key scheme and why it cannot work (paper §3.1.1).
//!
//! The paper first tries guarding each group `g` with a *single* key
//! `k_g = F(components of groups 1..g)` and shows the design corner: the
//! decrease condition forces handing `k_{g-1}` to congested receivers, and
//! the increase condition forces `k_g = H(components of groups 1..g-1)`;
//! both `F` and `H` must then be one-way, and no practical algorithm
//! resolves two one-way functions to the same value. If instead `F` is
//! *invertible* (XOR), a congested receiver can cheat.
//!
//! This module implements the insecure XOR variant so a test can
//! demonstrate the forgery concretely — the repo's executable version of
//! the paper's impossibility argument, and the motivation for the
//! three-key design in [`crate::layered`].

use crate::key::{xor_all, Key};
use mcc_simcore::DetRng;

/// The insecure design: one key per group, `k_g = ⊕` of all components of
/// groups `1..=g`, with decrease handled by handing `k_{g-1}` out directly.
#[derive(Clone, Debug)]
pub(crate) struct NaiveSingleKeyScheme {
    /// Per-group component lists for the slot (index `g-1`).
    pub(crate) components: Vec<Vec<Key>>,
}

impl NaiveSingleKeyScheme {
    /// Generate components for `n` groups sending `counts[g-1]` packets.
    pub(crate) fn generate(rng: &mut DetRng, counts: &[u32]) -> Self {
        let components = counts
            .iter()
            .map(|&c| (0..c).map(|_| Key::nonce(rng)).collect())
            .collect();
        NaiveSingleKeyScheme { components }
    }

    /// The single key for group `g`: XOR of all components of groups 1..=g.
    pub(crate) fn key(&self, g: u32) -> Key {
        xor_all(
            self.components
                .iter()
                .take(g as usize)
                .flat_map(|v| v.iter().copied()),
        )
    }

    /// What the decrease rule must hand a congested receiver of `g` groups.
    pub(crate) fn decrease_handout(&self, g: u32) -> Key {
        assert!(g >= 2);
        self.key(g - 1)
    }
}

/// The forgery: a receiver of `g` groups that lost packets **only in groups
/// `1..g`** (group `g` itself clean) combines the handed-out `k_{g-1}` with
/// the group-`g` components it received and obtains `k_g` — a key it is not
/// eligible for. Works because XOR is invertible: `k_g = k_{g-1} ⊕ C_g`.
pub(crate) fn forge_top_key(handout_k_prev: Key, received_group_g: &[Key]) -> Key {
    handout_k_prev ^ xor_all(received_group_g.iter().copied())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn congested_receiver_forges_the_key_it_was_denied() {
        let mut rng = DetRng::new(2003);
        let scheme = NaiveSingleKeyScheme::generate(&mut rng, &[4, 4, 4]);
        // Receiver of 3 groups loses a packet of group 2 (congested!) but
        // receives all of group 3.
        let k2_handout = scheme.decrease_handout(3);
        let group3 = scheme.components[2].clone();
        let forged = forge_top_key(k2_handout, &group3);
        assert_eq!(
            forged,
            scheme.key(3),
            "the XOR straw-man lets a congested receiver keep its level"
        );
    }

    #[test]
    fn secure_scheme_resists_the_same_attack() {
        use crate::fields::UpgradeMask;
        use crate::layered::LayeredKeySchedule;
        let mut rng = DetRng::new(2004);
        let sched = LayeredKeySchedule::generate(&mut rng, 3, UpgradeMask::NONE);
        // In the three-key design, the congested receiver is handed δ-keys,
        // which are *independent nonces*: XORing them with anything the
        // receiver holds cannot produce γ_3.
        let d1 = sched.decrease_key(1).unwrap();
        let d2 = sched.decrease_key(2).unwrap();
        // Simulate full knowledge of group 3's aggregate C_3 = γ_3 ⊕ γ_2.
        let c3 = sched.top_key(3) ^ sched.top_key(2);
        for candidate in [d1 ^ c3, d2 ^ c3, d1 ^ d2 ^ c3, d2 ^ d1] {
            assert_ne!(candidate, sched.top_key(3));
        }
    }
}
