//! Collusion-resistant interface keys (paper §4.2).
//!
//! The base DELTA instantiations are vulnerable to receivers *colluding*:
//! a capable receiver reconstructs keys and passes them to a less capable
//! one behind a different interface. The paper sketches the defence this
//! module implements: the edge router randomly alters the component (and
//! decrease) fields it forwards on each interface, so every interface sees
//! a different, interface-specific view of the key stream. The router then
//! accepts a submitted key only when it matches the *lower key* — the
//! SIGMA-provided key XOR-folded with the perturbations applied on that
//! very interface. A key smuggled from another interface fails.
//!
//! As the paper notes, this guard is **protocol-specific**: translating a
//! perturbation on packets into a perturbation on keys requires knowing
//! which groups compose each key (the cumulative layering). The guard is
//! therefore configured with the session's ordered group list and is an
//! optional add-on to the otherwise generic router.

use crate::keytable::KeyTable;
use mcc_delta::{DeltaFields, Key, KEY_LEAD};
use mcc_netsim::{GroupAddr, LinkId};
use mcc_simcore::{DetRng, FxHashMap};

/// Deterministic per-(interface, slot, group) decrease-field perturbation.
///
/// The decrease field carries the *same* nonce on every packet of a group,
/// and a receiver may read it from any one of them — so its perturbation
/// must be constant across the slot, hence a PRF rather than fresh
/// randomness.
fn decrease_perturbation(secret: u64, slot: u64, group: GroupAddr) -> Key {
    let mut z = secret ^ slot.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (group.0 as u64) << 32;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    Key(z ^ (z >> 31))
}

/// The collusion guard state for one edge router.
#[derive(Debug)]
pub struct CollusionGuard {
    /// Session groups in cumulative-layer order (index 0 = minimal group);
    /// a handful of entries, so lookups scan it.
    groups: Vec<GroupAddr>,
    /// Per (iface, data-slot): accumulated component perturbations per
    /// layer index (XOR of all `h` values applied).
    comp_accum: FxHashMap<(LinkId, u64), Vec<Key>>,
    /// Per-interface PRF secrets, lazily drawn.
    secrets: FxHashMap<LinkId, u64>,
}

impl CollusionGuard {
    /// Build a guard for a session whose groups, in layer order, are
    /// `groups`.
    pub fn new(groups: Vec<GroupAddr>) -> Self {
        CollusionGuard {
            groups,
            comp_accum: FxHashMap::default(),
            secrets: FxHashMap::default(),
        }
    }

    /// The 1-based layer index of `group`, if it belongs to the session.
    pub(crate) fn layer_of(&self, group: GroupAddr) -> Option<u32> {
        let i = self.groups.iter().position(|&g| g == group)?;
        Some(i as u32 + 1)
    }

    /// Whether `group` belongs to the session this guard was configured
    /// with (foreign groups must fall back to plain validation).
    pub(crate) fn covers(&self, group: GroupAddr) -> bool {
        self.groups.contains(&group)
    }

    fn secret_for(&mut self, iface: LinkId, rng: &mut DetRng) -> u64 {
        *self.secrets.entry(iface).or_insert_with(|| rng.next_u64())
    }

    /// Perturb a data packet's DELTA fields as it is forwarded onto
    /// `iface`; records the perturbation so validation can reproduce it.
    pub fn perturb(
        &mut self,
        iface: LinkId,
        group: GroupAddr,
        fields: &mut DeltaFields,
        rng: &mut DetRng,
    ) {
        let Some(layer) = self.layer_of(group) else {
            return; // Foreign group: leave untouched.
        };
        let slot = fields.slot;
        let n = self.groups.len();
        // Fresh random perturbation of the component field.
        let h = Key::nonce(rng);
        fields.component = fields.component ^ h;
        let acc = self
            .comp_accum
            .entry((iface, slot))
            .or_insert_with(|| vec![Key::ZERO; n]);
        acc[(layer - 1) as usize] = acc[(layer - 1) as usize] ^ h;
        // Constant perturbation of the decrease field.
        if let Some(d) = fields.decrease {
            let secret = self.secret_for(iface, rng);
            fields.decrease = Some(d ^ decrease_perturbation(secret, slot, group));
        }
    }

    /// Accumulated perturbation of the top key `γ_layer` on `iface` for
    /// keys distributed during `data_slot`.
    fn top_perturbation(&self, iface: LinkId, data_slot: u64, layer: u32) -> Key {
        match self.comp_accum.get(&(iface, data_slot)) {
            None => Key::ZERO,
            Some(acc) => acc
                .iter()
                .take(layer as usize)
                .fold(Key::ZERO, |a, &k| a ^ k),
        }
    }

    /// Validate a key submitted from `iface` for `(group, sub_slot)`
    /// against the interface-specific lower keys. `table` holds the upper
    /// (SIGMA-distributed) keys; keys for `sub_slot` were distributed in
    /// data slot `sub_slot - 2`.
    pub fn validate(
        &mut self,
        iface: LinkId,
        group: GroupAddr,
        sub_slot: u64,
        submitted: Key,
        table: &KeyTable,
        rng: &mut DetRng,
    ) -> bool {
        let Some(tuple) = table.get(group, sub_slot) else {
            return false;
        };
        let Some(layer) = self.layer_of(group) else {
            return false;
        };
        let Some(data_slot) = sub_slot.checked_sub(KEY_LEAD) else {
            return false;
        };
        // Lower top key: γ ⊕ accumulated component perturbations 1..=layer.
        if submitted == tuple.top ^ self.top_perturbation(iface, data_slot, layer) {
            return true;
        }
        // Lower decrease key: δ_g rides group g+1's decrease fields.
        if let Some(dec) = tuple.decrease {
            if layer < self.groups.len() as u32 {
                let carrier = self.groups[layer as usize];
                let secret = self.secret_for(iface, rng);
                if submitted == dec ^ decrease_perturbation(secret, data_slot, carrier) {
                    return true;
                }
            }
        }
        // Lower increase key: ι_g = γ_{g-1}.
        if let Some(inc) = tuple.increase {
            if layer >= 2 && submitted == inc ^ self.top_perturbation(iface, data_slot, layer - 1) {
                return true;
            }
        }
        false
    }

    /// Drop accumulators for data slots older than `min_slot`.
    pub fn gc(&mut self, min_slot: u64) {
        #[expect(
            clippy::disallowed_methods,
            reason = "retain with a pure per-key predicate; order-independent"
        )]
        self.comp_accum.retain(|&(_, s), _| s >= min_slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keytable::KeyTuple;
    use mcc_delta::{LayeredKeySchedule, SlotObservation, UpgradeMask};

    /// Full end-to-end: sender emits a slot, router perturbs per iface,
    /// receivers reconstruct; own-iface keys validate, smuggled keys fail.
    #[test]
    fn own_interface_key_validates_foreign_key_fails() {
        let mut rng = DetRng::new(61);
        let n = 3u32;
        let addrs: Vec<GroupAddr> = (1..=n).map(GroupAddr).collect();
        let sched = LayeredKeySchedule::generate(&mut rng, n, UpgradeMask::NONE);
        let mut guard = CollusionGuard::new(addrs.clone());
        let mut table = KeyTable::new();
        let data_slot = 4u64;
        let sub_slot = data_slot + KEY_LEAD;
        for g in 1..=n {
            table.insert(
                addrs[(g - 1) as usize],
                sub_slot,
                KeyTuple {
                    top: sched.top_key(g),
                    decrease: sched.decrease_key(g),
                    increase: sched.increase_key(g),
                },
            );
        }

        let iface_a = LinkId(10);
        let iface_b = LinkId(11);
        let mut obs_a = SlotObservation::new(data_slot, n);
        let mut obs_b = SlotObservation::new(data_slot, n);
        for g in 1..=n {
            let mut stream = sched.component_stream(g);
            let count = 4;
            for p in 0..count {
                let is_last = p + 1 == count;
                let fields = DeltaFields {
                    slot: data_slot,
                    group: g,
                    seq_in_slot: p,
                    last_in_slot: is_last,
                    count_in_slot: if is_last { count } else { 0 },
                    component: stream.next(&mut rng, is_last),
                    decrease: sched.decrease_field(g),
                    upgrades: UpgradeMask::NONE,
                };
                // The router forwards a separately perturbed copy per iface.
                let mut fa = fields;
                guard.perturb(iface_a, addrs[(g - 1) as usize], &mut fa, &mut rng);
                obs_a.observe(&fa);
                let mut fb = fields;
                guard.perturb(iface_b, addrs[(g - 1) as usize], &mut fb, &mut rng);
                obs_b.observe(&fb);
            }
        }

        // Receiver A's perturbed top keys validate on interface A…
        for g in 1..=n {
            let lower_a = obs_a.top_key(g);
            assert!(
                guard.validate(
                    iface_a,
                    addrs[(g - 1) as usize],
                    sub_slot,
                    lower_a,
                    &table,
                    &mut rng
                ),
                "own-iface γ_{g}"
            );
            // …and are rejected when smuggled to interface B (collusion).
            assert!(
                !guard.validate(
                    iface_b,
                    addrs[(g - 1) as usize],
                    sub_slot,
                    lower_a,
                    &table,
                    &mut rng
                ),
                "smuggled γ_{g} must fail"
            );
            // The raw (upper) key alone is also rejected on either iface.
            assert!(
                !guard.validate(
                    iface_a,
                    addrs[(g - 1) as usize],
                    sub_slot,
                    sched.top_key(g),
                    &table,
                    &mut rng
                ),
                "raw γ_{g} must fail under the guard"
            );
        }

        // Perturbed decrease keys validate on their own interface only.
        let d1_a = obs_a.groups[1].decrease_field.unwrap(); // δ_1 from group 2
        assert!(guard.validate(iface_a, addrs[0], sub_slot, d1_a, &table, &mut rng));
        assert!(!guard.validate(iface_b, addrs[0], sub_slot, d1_a, &table, &mut rng));
    }

    #[test]
    fn unknown_group_or_slot_rejected() {
        let mut rng = DetRng::new(62);
        let mut guard = CollusionGuard::new(vec![GroupAddr(1)]);
        let table = KeyTable::new();
        assert!(!guard.validate(LinkId(0), GroupAddr(1), 2, Key(1), &table, &mut rng));
        assert!(!guard.validate(LinkId(0), GroupAddr(9), 2, Key(1), &table, &mut rng));
        // sub_slot < 2 cannot reference a data slot.
        assert!(!guard.validate(LinkId(0), GroupAddr(1), 1, Key(1), &table, &mut rng));
    }

    #[test]
    fn gc_bounds_accumulators() {
        let mut rng = DetRng::new(63);
        let mut guard = CollusionGuard::new(vec![GroupAddr(1)]);
        for slot in 0..10 {
            let mut f = DeltaFields {
                slot,
                group: 1,
                seq_in_slot: 0,
                last_in_slot: true,
                count_in_slot: 1,
                component: Key(7),
                decrease: None,
                upgrades: UpgradeMask::NONE,
            };
            guard.perturb(LinkId(0), GroupAddr(1), &mut f, &mut rng);
        }
        guard.gc(8);
        assert_eq!(guard.comp_accum.len(), 2);
    }
}
