//! Per-slot key tuples held by edge routers.
//!
//! SIGMA's special packets bind each group address to the keys opening it
//! during one slot (paper §3.2.1). Tuples are *labeled* — top, decrease,
//! optional increase — because the collusion-guard extension (§4.2) needs
//! to know which perturbation applies to which key; plain validation just
//! checks membership.

use mcc_delta::Key;
use mcc_netsim::GroupAddr;
use mcc_simcore::FxHashMap;

/// The keys opening one group during one slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KeyTuple {
    /// Top key `γ_g`.
    pub top: Key,
    /// Decrease key `δ_g` (absent for the maximal group).
    pub decrease: Option<Key>,
    /// Increase key `ι_g` (present only for authorized upgrades).
    pub increase: Option<Key>,
}

impl KeyTuple {
    /// Does `key` open the group this slot?
    pub(crate) fn matches(&self, key: Key) -> bool {
        key == self.top || self.decrease == Some(key) || self.increase == Some(key)
    }

    /// Number of keys in the tuple (for overhead accounting).
    pub(crate) fn key_count(&self) -> u32 {
        1 + self.decrease.is_some() as u32 + self.increase.is_some() as u32
    }
}

/// Slot-indexed key store with a bounded retention window.
#[derive(Debug, Default)]
pub struct KeyTable {
    entries: FxHashMap<(GroupAddr, u64), KeyTuple>,
}

impl KeyTable {
    /// An empty table.
    pub fn new() -> Self {
        KeyTable::default()
    }

    /// Install the tuple for `(group, slot)`, replacing any previous one
    /// (retransmitted FEC chunks carry identical tuples).
    pub fn insert(&mut self, group: GroupAddr, slot: u64, tuple: KeyTuple) {
        self.entries.insert((group, slot), tuple);
    }

    /// The tuple for `(group, slot)`, if known.
    pub(crate) fn get(&self, group: GroupAddr, slot: u64) -> Option<&KeyTuple> {
        self.entries.get(&(group, slot))
    }

    /// Validate a submitted key.
    pub fn validate(&self, group: GroupAddr, slot: u64, key: Key) -> bool {
        self.get(group, slot).is_some_and(|t| t.matches(key))
    }

    /// Drop tuples for slots older than `min_slot` (bounded state at the
    /// router; old keys are useless by construction).
    pub(crate) fn gc(&mut self, min_slot: u64) {
        #[expect(
            clippy::disallowed_methods,
            reason = "retain with a pure per-key predicate; order-independent"
        )]
        self.entries.retain(|&(_, s), _| s >= min_slot);
    }

    /// Number of stored tuples.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple() -> KeyTuple {
        KeyTuple {
            top: Key(10),
            decrease: Some(Key(20)),
            increase: None,
        }
    }

    #[test]
    fn matches_any_listed_key() {
        let t = tuple();
        assert!(t.matches(Key(10)));
        assert!(t.matches(Key(20)));
        assert!(!t.matches(Key(30)));
        assert_eq!(t.key_count(), 2);
    }

    #[test]
    fn validate_requires_group_slot_and_key() {
        let mut kt = KeyTable::new();
        kt.insert(GroupAddr(1), 5, tuple());
        assert!(kt.validate(GroupAddr(1), 5, Key(10)));
        assert!(!kt.validate(GroupAddr(1), 6, Key(10)), "wrong slot");
        assert!(!kt.validate(GroupAddr(2), 5, Key(10)), "wrong group");
        assert!(!kt.validate(GroupAddr(1), 5, Key(99)), "wrong key");
    }

    #[test]
    fn gc_drops_stale_slots() {
        let mut kt = KeyTable::new();
        for s in 0..10 {
            kt.insert(GroupAddr(1), s, tuple());
        }
        kt.gc(7);
        assert_eq!(kt.len(), 3);
        assert!(kt.get(GroupAddr(1), 6).is_none());
        assert!(kt.get(GroupAddr(1), 7).is_some());
    }

    #[test]
    fn insert_replaces() {
        let mut kt = KeyTable::new();
        kt.insert(GroupAddr(1), 1, tuple());
        let mut t2 = tuple();
        t2.top = Key(99);
        kt.insert(GroupAddr(1), 1, t2);
        assert!(kt.validate(GroupAddr(1), 1, Key(99)));
        assert_eq!(kt.len(), 1);
    }
}
