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
//! is cloned, changed, and re-interned, which either finds the table
//! another interface already produced (the synchronized case: everyone
//! converges onto the same new table, paying one allocation per *distinct*
//! state, not per interface) or creates a fresh one (the diverged case).
//! Memory is O(distinct layer-sets), exactly the cohort argument of
//! `mcc-flid` applied to router state.
//!
//! Determinism: interning is keyed by an FNV-1a content digest with an
//! equality-checked collision bucket. No iteration order of the internal
//! hash maps ever reaches a caller — enumeration endpoints return sorted
//! or caller-sorted data, and the garbage-collect sweep visits each
//! distinct table once with a pure per-table transform.

use mcc_netsim::prelude::{GroupAddr, LinkId};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// One interface's granted slots per group. An entry may hold an empty
/// slot set: "the interface is known for this group but currently has no
/// live slot" is distinct from "the group was never granted" (the prune
/// logic in the router relies on the difference while a grace is live).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct GrantTable {
    slots: BTreeMap<GroupAddr, BTreeSet<u64>>,
}

impl GrantTable {
    /// Granted slots for `group`, if the group is present at all.
    pub fn group(&self, group: GroupAddr) -> Option<&BTreeSet<u64>> {
        self.slots.get(&group)
    }

    /// Groups present in this table, in address order.
    pub fn groups(&self) -> impl Iterator<Item = GroupAddr> + '_ {
        self.slots.keys().copied()
    }

    fn digest(&self) -> u64 {
        // FNV-1a over the canonical (group, slot) sequence; BTreeMap order
        // makes the byte stream deterministic.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        for (g, slots) in &self.slots {
            eat(g.0 as u64);
            eat(slots.len() as u64);
            for &s in slots {
                eat(s);
            }
        }
        h
    }
}

/// Content-interned, copy-on-write grant storage for all host-facing
/// interfaces of one edge router.
#[derive(Debug, Default)]
pub struct GrantSlab {
    /// What each interface currently holds.
    tables: HashMap<LinkId, Arc<GrantTable>>,
    /// Intern index: content digest → tables with that digest.
    index: HashMap<u64, Vec<Arc<GrantTable>>>,
}

impl GrantSlab {
    /// An empty slab.
    pub fn new() -> Self {
        GrantSlab::default()
    }

    /// Does `iface` hold a grant for `(group, slot)`?
    pub fn contains(&self, iface: LinkId, group: GroupAddr, slot: u64) -> bool {
        self.tables
            .get(&iface)
            .and_then(|t| t.slots.get(&group))
            .is_some_and(|s| s.contains(&slot))
    }

    /// Is `group` present for `iface` (even with an empty slot set)?
    pub fn has_group(&self, iface: LinkId, group: GroupAddr) -> bool {
        self.tables
            .get(&iface)
            .is_some_and(|t| t.slots.contains_key(&group))
    }

    /// Does `iface` hold at least one granted slot for `group`?
    pub fn has_slots(&self, iface: LinkId, group: GroupAddr) -> bool {
        self.tables
            .get(&iface)
            .and_then(|t| t.slots.get(&group))
            .is_some_and(|s| !s.is_empty())
    }

    /// The highest granted slot for `(iface, group)`.
    pub fn max_slot(&self, iface: LinkId, group: GroupAddr) -> Option<u64> {
        self.tables
            .get(&iface)?
            .slots
            .get(&group)?
            .iter()
            .next_back()
            .copied()
    }

    /// Every `(iface, group)` pair currently present, **sorted** — safe to
    /// drive event emission directly.
    pub fn entries(&self) -> Vec<(LinkId, GroupAddr)> {
        #[expect(
            clippy::disallowed_methods,
            reason = "collected into `out` and sorted before return"
        )]
        let mut out: Vec<(LinkId, GroupAddr)> = self
            .tables
            .iter()
            .flat_map(|(&iface, t)| t.slots.keys().map(move |&g| (iface, g)))
            .collect();
        out.sort_unstable();
        out
    }

    /// Interfaces → distinct tables: the interning win. `(N, distinct)`
    /// with `distinct ≤ N`; synchronized populations keep `distinct` tiny.
    pub fn interning(&self) -> (usize, usize) {
        #[expect(
            clippy::disallowed_methods,
            reason = "pointer identity only feeds a dedup count"
        )]
        let mut seen: Vec<*const GrantTable> = self.tables.values().map(Arc::as_ptr).collect();
        seen.sort_unstable();
        seen.dedup();
        (self.tables.len(), seen.len())
    }

    /// Grant `(group, slot)` to `iface`.
    pub fn insert(&mut self, iface: LinkId, group: GroupAddr, slot: u64) {
        self.mutate(iface, |t| {
            t.slots.entry(group).or_default().insert(slot);
        });
    }

    /// Drop `group` from `iface` entirely (unsubscription / prune).
    pub fn remove_group(&mut self, iface: LinkId, group: GroupAddr) {
        if !self.has_group(iface, group) {
            return;
        }
        self.mutate(iface, |t| {
            t.slots.remove(&group);
        });
    }

    /// Garbage-collect: drop every granted slot below `min_keep`. Each
    /// *distinct* table is transformed once; all interfaces sharing it are
    /// remapped to the shared result.
    pub fn sweep(&mut self, min_keep: u64) {
        let mut remap: HashMap<*const GrantTable, Arc<GrantTable>> = HashMap::new();
        #[expect(
            clippy::disallowed_methods,
            reason = "collected and sorted on the next line; the sweep visits interfaces in LinkId order"
        )]
        let mut ifaces: Vec<LinkId> = self.tables.keys().copied().collect();
        ifaces.sort_unstable();
        for iface in ifaces {
            let old = self.tables[&iface].clone();
            let ptr = Arc::as_ptr(&old);
            let new = match remap.get(&ptr) {
                Some(a) => a.clone(),
                None => {
                    let mut content = (*old).clone();
                    for slots in content.slots.values_mut() {
                        slots.retain(|&s| s >= min_keep);
                    }
                    let interned = self.intern(content);
                    remap.insert(ptr, interned.clone());
                    interned
                }
            };
            self.tables.insert(iface, new);
        }
        self.vacuum();
    }

    fn mutate(&mut self, iface: LinkId, f: impl FnOnce(&mut GrantTable)) {
        let mut content = self
            .tables
            .get(&iface)
            .map(|a| (**a).clone())
            .unwrap_or_default();
        f(&mut content);
        if content.slots.is_empty() {
            self.tables.remove(&iface);
        } else {
            let interned = self.intern(content);
            self.tables.insert(iface, interned);
        }
    }

    fn intern(&mut self, content: GrantTable) -> Arc<GrantTable> {
        let d = content.digest();
        let bucket = self.index.entry(d).or_default();
        if let Some(existing) = bucket.iter().find(|a| ***a == content) {
            return existing.clone();
        }
        let arc = Arc::new(content);
        bucket.push(arc.clone());
        arc
    }

    /// Drop interned tables no interface references any more.
    fn vacuum(&mut self) {
        #[expect(
            clippy::disallowed_methods,
            reason = "retain with a pure per-entry predicate"
        )]
        self.index.retain(|_, bucket| {
            bucket.retain(|a| Arc::strong_count(a) > 1);
            !bucket.is_empty()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // The empty-set entry survives the sweep: "known but no live slot"
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
}
