//! Per-packet DELTA fields.
//!
//! The sender adds a *component field* to every multicast data packet and a
//! *decrease field* to every packet of groups 2..N (paper §3.1.1). Both are
//! `b`-bit values; the simulation carries them as [`Key`]s plus the slot
//! bookkeeping a receiver needs to decide completeness:
//!
//! * `seq_in_slot` / `last_in_slot` / `count_in_slot` let a receiver detect
//!   whether it obtained *every* packet of a group during a slot (the
//!   uncongested condition), including loss of the final packet,
//! * `upgrades` carries the protocol's upgrade-authorization signal for the
//!   key set being distributed (the keys of slot `slot + 2`).

use crate::key::Key;

/// Bitmask of groups the protocol authorizes an upgrade *to*, for the slot
/// whose keys are being distributed. Bit `g-1` set ⇔ upgrade to group `g`
/// (1-based) authorized.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct UpgradeMask(pub u32);

impl UpgradeMask {
    /// No upgrades authorized.
    pub const NONE: UpgradeMask = UpgradeMask(0);

    /// Build from a slice of authorized (1-based) group indices.
    pub fn from_groups(groups: &[u32]) -> Self {
        let mut m = 0u32;
        for &g in groups {
            assert!((1..=32).contains(&g), "group index out of range");
            m |= 1 << (g - 1);
        }
        UpgradeMask(m)
    }

    /// Is an upgrade to (1-based) group `g` authorized?
    pub fn authorized(&self, g: u32) -> bool {
        (1..=32).contains(&g) && self.0 & (1 << (g - 1)) != 0
    }
}

/// DELTA fields carried by one multicast data packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeltaFields {
    /// The slot this packet was transmitted in. The keys its fields encode
    /// control access during `slot + 2` (paper Figure 2).
    pub slot: u64,
    /// 1-based index of the packet's group within its session.
    pub group: u32,
    /// 0-based sequence number of this packet within (group, slot).
    pub seq_in_slot: u32,
    /// True for the slot's final packet of this group (carries the
    /// accumulated component, closing the XOR telescope).
    pub last_in_slot: bool,
    /// Total packets the group transmits this slot; only meaningful when
    /// `last_in_slot` (a real header would carry it there).
    pub count_in_slot: u32,
    /// The component field `c_{g,p}`.
    pub component: Key,
    /// The decrease field `d_g` (absent on the minimal group).
    pub decrease: Option<Key>,
    /// Upgrade authorizations for the distributed key set.
    pub upgrades: UpgradeMask,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_round_trip() {
        let m = UpgradeMask::from_groups(&[2, 5, 32]);
        assert!(m.authorized(2));
        assert!(m.authorized(5));
        assert!(m.authorized(32));
        assert!(!m.authorized(1));
        assert!(!m.authorized(3));
    }

    #[test]
    fn empty_mask() {
        assert!(!UpgradeMask::NONE.authorized(1));
        // Out-of-range queries are simply false.
        assert!(!UpgradeMask::NONE.authorized(0));
        assert!(!UpgradeMask::NONE.authorized(33));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn mask_rejects_group_zero() {
        UpgradeMask::from_groups(&[0]);
    }
}
