//! Interned grant tables: the per-receiver axis of SIGMA state, shared.
//!
//! An edge router keeps one [`KeyTable`](crate::keytable::KeyTable) per
//! *session* — that is already O(1) in the receiver population. What grows
//! with receivers is the per-interface grant state: which `(group, slot)`
//! pairs each host-facing interface has proven keys for. Synchronized
//! receivers subscribe identically, so across N interfaces those tables
//! are overwhelmingly *equal* — the million-receiver sweep has thousands
//! of interfaces holding one of a handful of distinct layer-set tables.
//!
//! [`GrantSlab`] exploits that: each interface points to an immutable,
//! reference-counted [`GrantTable`]; tables are interned by content, so
//! equal tables are stored once. Mutation is copy-on-write — the content
//! is copied, changed, and re-interned, which either finds the table
//! another interface already produced (the synchronized case: everyone
//! converges onto the same new table, paying one allocation per *distinct*
//! state, not per interface) or creates a fresh one (the diverged case).
//! Memory is O(distinct layer-sets): synchronized receivers on many
//! interfaces cost the router one table between them.
//!
//! Layout: interfaces index a dense `Vec` by [`LinkId::index`], and a
//! table is two sorted `Vec`s, so a lookup is an array index plus a binary
//! search and a copy-on-write copies two flat vectors. A subscription
//! message granting several groups pays one copy for all of them
//! (`GrantSlab::insert_all`).
//!
//! Determinism: the intern index is a hash set probed by content and never
//! iterated for a result; every enumeration walks the dense interface
//! vector, so it comes out in `LinkId` order.

use mcc_netsim::prelude::{GroupAddr, LinkId};
use mcc_simcore::{FxHashMap, FxHashSet};
use std::sync::Arc;

/// One interface's granted slots per group. A group may be present with no
/// slot: "the interface is known for this group but currently has no live
/// slot" is distinct from "the group was never granted" (the prune logic in
/// the router relies on the difference while a grace is live).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub(crate) struct GrantTable {
    /// Groups present, ascending.
    groups: Vec<GroupAddr>,
    /// Granted `(group, slot)` pairs, ascending; every group is in `groups`.
    slots: Vec<(GroupAddr, u64)>,
}

impl GrantTable {
    /// Groups present in this table, in address order.
    pub(crate) fn groups(&self) -> impl Iterator<Item = GroupAddr> + '_ {
        self.groups.iter().copied()
    }

    fn has_group(&self, group: GroupAddr) -> bool {
        self.groups.binary_search(&group).is_ok()
    }

    fn contains(&self, group: GroupAddr, slot: u64) -> bool {
        self.slots.binary_search(&(group, slot)).is_ok()
    }

    /// `group`'s slots, ascending.
    fn slots_of(&self, group: GroupAddr) -> &[(GroupAddr, u64)] {
        let lo = self.slots.partition_point(|&(g, _)| g < group);
        let hi = lo + self.slots[lo..].partition_point(|&(g, _)| g == group);
        &self.slots[lo..hi]
    }

    fn insert(&mut self, group: GroupAddr, slot: u64) {
        if let Err(i) = self.groups.binary_search(&group) {
            self.groups.insert(i, group);
        }
        if let Err(i) = self.slots.binary_search(&(group, slot)) {
            self.slots.insert(i, (group, slot));
        }
    }
}

/// Content-interned, copy-on-write grant storage for all host-facing
/// interfaces of one edge router.
#[derive(Debug, Default)]
pub struct GrantSlab {
    /// What each interface currently holds, indexed by [`LinkId::index`];
    /// `None` for an interface with no group.
    tables: Vec<Option<Arc<GrantTable>>>,
    /// Intern index: every live table, probed by content.
    index: FxHashSet<Arc<GrantTable>>,
}

impl GrantSlab {
    /// An empty slab.
    pub fn new() -> Self {
        GrantSlab::default()
    }

    fn table(&self, iface: LinkId) -> Option<&GrantTable> {
        self.tables.get(iface.index())?.as_deref()
    }

    /// Does `iface` hold a grant for `(group, slot)`?
    pub fn contains(&self, iface: LinkId, group: GroupAddr, slot: u64) -> bool {
        self.table(iface).is_some_and(|t| t.contains(group, slot))
    }

    /// Is `group` present for `iface` (even with no slot)?
    pub(crate) fn has_group(&self, iface: LinkId, group: GroupAddr) -> bool {
        self.table(iface).is_some_and(|t| t.has_group(group))
    }

    /// Does `iface` hold at least one granted slot for `group`?
    pub(crate) fn has_slots(&self, iface: LinkId, group: GroupAddr) -> bool {
        self.table(iface)
            .is_some_and(|t| !t.slots_of(group).is_empty())
    }

    /// The highest granted slot for `(iface, group)`.
    pub(crate) fn max_slot(&self, iface: LinkId, group: GroupAddr) -> Option<u64> {
        self.table(iface)?.slots_of(group).last().map(|&(_, s)| s)
    }

    /// Every `(iface, group)` pair currently present, **sorted** — safe to
    /// drive event emission directly.
    pub(crate) fn entries(&self) -> Vec<(LinkId, GroupAddr)> {
        self.iter()
            .flat_map(|(iface, t)| t.groups().map(move |g| (iface, g)))
            .collect()
    }

    /// Interfaces → distinct tables: the interning win. `(N, distinct)`
    /// with `distinct ≤ N`; synchronized populations keep `distinct` tiny.
    pub(crate) fn interning(&self) -> (usize, usize) {
        let mut seen: Vec<*const GrantTable> = self.iter().map(|(_, t)| Arc::as_ptr(t)).collect();
        let ifaces = seen.len();
        seen.sort_unstable();
        seen.dedup();
        (ifaces, seen.len())
    }

    /// Grant `(group, slot)` to `iface`.
    pub fn insert(&mut self, iface: LinkId, group: GroupAddr, slot: u64) {
        self.insert_all(iface, &[group], slot);
    }

    /// Grant `(group, slot)` to `iface` for every group in `groups`, with
    /// one copy-on-write for the lot.
    pub(crate) fn insert_all(&mut self, iface: LinkId, groups: &[GroupAddr], slot: u64) {
        let old = self.table(iface);
        if groups
            .iter()
            .all(|&g| old.is_some_and(|t| t.contains(g, slot)))
        {
            return;
        }
        let mut content = old.cloned().unwrap_or_default();
        for &g in groups {
            content.insert(g, slot);
        }
        self.set(iface, content);
    }

    /// Drop `group` from `iface` entirely (unsubscription / prune).
    pub(crate) fn remove_group(&mut self, iface: LinkId, group: GroupAddr) {
        let Some(old) = self.table(iface).filter(|t| t.has_group(group)) else {
            return;
        };
        let mut content = old.clone();
        content.groups.retain(|&g| g != group);
        content.slots.retain(|&(g, _)| g != group);
        self.set(iface, content);
    }

    /// Garbage-collect: drop every granted slot below `min_keep`. Each
    /// *distinct* table is transformed once; all interfaces sharing it are
    /// remapped to the shared result.
    pub fn sweep(&mut self, min_keep: u64) {
        let mut remap: FxHashMap<*const GrantTable, Arc<GrantTable>> = FxHashMap::default();
        for i in 0..self.tables.len() {
            let Some(old) = self.tables[i].clone() else {
                continue;
            };
            let ptr = Arc::as_ptr(&old);
            let new = match remap.get(&ptr) {
                Some(a) => a.clone(),
                None => {
                    let mut content = (*old).clone();
                    content.slots.retain(|&(_, s)| s >= min_keep);
                    let interned = self.intern(content);
                    remap.insert(ptr, interned.clone());
                    interned
                }
            };
            self.tables[i] = Some(new);
        }
        self.vacuum();
    }

    /// Occupied interfaces with their tables, in `LinkId` order.
    fn iter(&self) -> impl Iterator<Item = (LinkId, &Arc<GrantTable>)> + '_ {
        self.tables
            .iter()
            .enumerate()
            .filter_map(|(i, t)| Some((LinkId(i as u32), t.as_ref()?)))
    }

    /// Point `iface` at the interned `content`, or clear it when empty.
    fn set(&mut self, iface: LinkId, content: GrantTable) {
        let i = iface.index();
        if content.groups.is_empty() {
            if let Some(entry) = self.tables.get_mut(i) {
                *entry = None;
            }
            return;
        }
        let interned = self.intern(content);
        if i >= self.tables.len() {
            self.tables.resize(i + 1, None);
        }
        self.tables[i] = Some(interned);
    }

    fn intern(&mut self, content: GrantTable) -> Arc<GrantTable> {
        if let Some(existing) = self.index.get(&content) {
            return existing.clone();
        }
        let arc = Arc::new(content);
        self.index.insert(arc.clone());
        arc
    }

    /// Drop interned tables no interface references any more.
    fn vacuum(&mut self) {
        #[expect(
            clippy::disallowed_methods,
            reason = "retain with a pure per-entry predicate"
        )]
        self.index.retain(|a| Arc::strong_count(a) > 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

    const G1: GroupAddr = GroupAddr(1);
    const G2: GroupAddr = GroupAddr(2);

    #[test]
    fn identical_tables_are_stored_once() {
        let mut slab = GrantSlab::new();
        for i in 0..100 {
            slab.insert(LinkId(i), G1, 5);
            slab.insert(LinkId(i), G1, 6);
            slab.insert(LinkId(i), G2, 6);
        }
        let (ifaces, distinct) = slab.interning();
        assert_eq!(ifaces, 100);
        assert_eq!(distinct, 1, "synchronized interfaces share one table");
        assert!(slab.contains(LinkId(42), G2, 6));
        assert!(!slab.contains(LinkId(42), G2, 5));
    }

    #[test]
    fn divergence_costs_exactly_one_table() {
        let mut slab = GrantSlab::new();
        for i in 0..10 {
            slab.insert(LinkId(i), G1, 5);
        }
        slab.insert(LinkId(3), G2, 5); // one interface diverges
        let (ifaces, distinct) = slab.interning();
        assert_eq!((ifaces, distinct), (10, 2));
        // ...and re-converges when the divergence is removed.
        slab.remove_group(LinkId(3), G2);
        let (_, distinct) = slab.interning();
        assert_eq!(distinct, 1);
    }

    #[test]
    fn sweep_processes_shared_tables_once_and_remaps() {
        let mut slab = GrantSlab::new();
        for i in 0..50 {
            slab.insert(LinkId(i), G1, 3);
            slab.insert(LinkId(i), G1, 9);
        }
        slab.sweep(5);
        for i in 0..50 {
            assert!(!slab.contains(LinkId(i), G1, 3), "swept below min_keep");
            assert!(slab.contains(LinkId(i), G1, 9));
        }
        let (_, distinct) = slab.interning();
        assert_eq!(distinct, 1);
        // The slotless group survives the sweep: "known but no live slot"
        // must remain distinguishable from "never granted".
        slab.sweep(100);
        assert!(slab.has_group(LinkId(7), G1));
        assert!(!slab.has_slots(LinkId(7), G1));
    }

    #[test]
    fn removing_the_last_group_clears_the_interface() {
        let mut slab = GrantSlab::new();
        slab.insert(LinkId(0), G1, 1);
        slab.remove_group(LinkId(0), G1);
        assert!(!slab.has_group(LinkId(0), G1));
        assert_eq!(slab.entries(), vec![]);
        let (ifaces, _) = slab.interning();
        assert_eq!(ifaces, 0);
    }

    #[test]
    fn entries_are_sorted() {
        let mut slab = GrantSlab::new();
        slab.insert(LinkId(9), G1, 1);
        slab.insert(LinkId(2), G2, 1);
        slab.insert(LinkId(2), G1, 1);
        assert_eq!(
            slab.entries(),
            vec![(LinkId(2), G1), (LinkId(2), G2), (LinkId(9), G1)]
        );
    }

    /// Sparse interface ids, the large ones forcing the dense vector to grow.
    const LINKS: [u32; 8] = [0, 1, 2, 5, 63, 64, 1_000, 40_000];
    const GROUPS: u32 = 6;
    const SLOTS: u64 = 20;

    type Reference = BTreeMap<LinkId, BTreeMap<GroupAddr, BTreeSet<u64>>>;

    fn check(slab: &GrantSlab, reference: &Reference) {
        for &l in &LINKS {
            let iface = LinkId(l);
            let table = reference.get(&iface);
            for g in (0..GROUPS).map(GroupAddr) {
                let slots = table.and_then(|t| t.get(&g));
                assert_eq!(slab.has_group(iface, g), slots.is_some());
                assert_eq!(
                    slab.has_slots(iface, g),
                    slots.is_some_and(|s| !s.is_empty())
                );
                assert_eq!(
                    slab.max_slot(iface, g),
                    slots.and_then(|s| s.last().copied())
                );
                for s in 0..SLOTS {
                    assert_eq!(
                        slab.contains(iface, g, s),
                        slots.is_some_and(|set| set.contains(&s))
                    );
                }
            }
        }
        let entries: Vec<(LinkId, GroupAddr)> = reference
            .iter()
            .flat_map(|(&i, t)| t.keys().map(move |&g| (i, g)))
            .collect();
        assert_eq!(slab.entries(), entries);
        let distinct: BTreeSet<&BTreeMap<GroupAddr, BTreeSet<u64>>> = reference.values().collect();
        assert_eq!(slab.interning(), (reference.len(), distinct.len()));
    }

    proptest! {
        /// Random `insert` / `insert_all` / `remove_group` / `sweep`
        /// sequences agree with a plain nested-`BTreeMap` reference after
        /// every operation, and interning stores each distinct table once.
        #[test]
        fn grant_slab_matches_reference(
            ops in prop::collection::vec(0u64..u64::MAX, 1..120),
        ) {
            let mut slab = GrantSlab::new();
            let mut reference = Reference::new();
            for op in ops {
                // Decode one op from the word's bit fields.
                let iface = LinkId(LINKS[(op >> 8) as usize % LINKS.len()]);
                let group = GroupAddr((op >> 16) as u32 % GROUPS);
                let slot = (op >> 24) % SLOTS;
                match op % 8 {
                    0..=2 => {
                        slab.insert(iface, group, slot);
                        reference.entry(iface).or_default().entry(group).or_default().insert(slot);
                    }
                    3 | 4 => {
                        // Up to four groups, duplicates allowed.
                        let n = (op >> 32) % 5;
                        let groups: Vec<GroupAddr> = (0..n)
                            .map(|k| GroupAddr((op >> (36 + 3 * k)) as u32 % GROUPS))
                            .collect();
                        slab.insert_all(iface, &groups, slot);
                        for g in groups {
                            reference.entry(iface).or_default().entry(g).or_default().insert(slot);
                        }
                    }
                    5 | 6 => {
                        slab.remove_group(iface, group);
                        if let Some(t) = reference.get_mut(&iface) {
                            t.remove(&group);
                            if t.is_empty() {
                                reference.remove(&iface);
                            }
                        }
                    }
                    _ => {
                        slab.sweep(slot);
                        for t in reference.values_mut() {
                            for s in t.values_mut() {
                                s.retain(|&x| x >= slot);
                            }
                        }
                    }
                }
                check(&slab, &reference);
            }
        }
    }
}
