//! DELTA instantiation for cumulative layered multicast where congestion is
//! a single packet loss (paper §3.1.1, Figure 4) — the FLID-DL/RLC case.
//!
//! Keys per group `g` of an `N`-group session (paper Figure 3):
//!
//! * **top key** `γ_g = ⊕_{j≤g} C_j` where `C_j` is the XOR of all component
//!   fields of group `j` in the slot — only a receiver holding *every*
//!   packet of groups `1..=g` can rebuild it;
//! * **decrease key** `δ_g = d_{g+1}` — a nonce carried in the decrease
//!   field of every packet of group `g+1` (absent for the maximal group);
//! * **increase key** `ι_g = γ_{g-1}` — defined only when the protocol
//!   authorizes an upgrade to `g` (absent for the minimal group).
//!
//! The sender *precomputes* all keys before the slot begins ([`
//! LayeredKeySchedule::generate`]) and then emits component fields in real
//! time ([`ComponentStream`]): every non-final packet carries a fresh nonce
//! folded into a running accumulator, and the final packet carries the
//! accumulator itself, so the XOR over the whole slot telescopes to the
//! precomputed `C_g`. This is what lets SIGMA ship the keys to edge routers
//! *ahead* of the data (paper Figure 2) without constraining the
//! transmission pattern (paper Requirement 4).

use crate::fields::{DeltaFields, UpgradeMask};
use crate::key::{xor_all, Key};
use mcc_simcore::DetRng;

/// All keys of one session for one time slot (sender/SIGMA view).
///
/// Both session structures share it: [`LayeredKeySchedule::generate`]
/// builds the cumulative layered key set, [`LayeredKeySchedule::replicated`]
/// the replicated one (paper Eq. 6). They make the same draws; only the
/// top keys differ.
#[derive(Clone, Debug)]
pub struct LayeredKeySchedule {
    n: u32,
    /// `C_g`: the precomputed XOR aggregate of group `g`'s components.
    group_nonces: Vec<Key>,
    /// `γ_g`: the prefix XOR of `C_1..C_g` (layered) or `C_g` itself
    /// (replicated).
    top: Vec<Key>,
    /// `δ_g` for `g = 1..N-1`.
    decrease: Vec<Key>,
    /// Upgrade authorizations in force for this key set.
    pub upgrades: UpgradeMask,
}

impl LayeredKeySchedule {
    /// Precompute the key set for one slot of an `n`-group session.
    pub fn generate(rng: &mut DetRng, n: u32, upgrades: UpgradeMask) -> Self {
        assert!((1..=32).contains(&n), "1..=32 groups supported");
        let group_nonces: Vec<Key> = (0..n).map(|_| Key::nonce(rng)).collect();
        let mut top = Vec::with_capacity(n as usize);
        let mut acc = Key::ZERO;
        for &c in &group_nonces {
            acc = acc ^ c;
            top.push(acc);
        }
        let decrease: Vec<Key> = (1..n).map(|_| Key::nonce(rng)).collect();
        LayeredKeySchedule {
            n,
            group_nonces,
            top,
            decrease,
            upgrades,
        }
    }

    /// Precompute the key set for one slot of an `n`-group *replicated*
    /// session, where every group carries the whole content and a receiver
    /// holds exactly one: the draws of [`LayeredKeySchedule::generate`],
    /// but each top key covers its own group's components only
    /// (`γ_g = C_g`), so the increase key `ι_g = γ_{g-1}` is the previous
    /// group's own key.
    pub fn replicated(rng: &mut DetRng, n: u32, upgrades: UpgradeMask) -> Self {
        let mut sched = Self::generate(rng, n, upgrades);
        sched.top.clone_from(&sched.group_nonces);
        sched
    }

    /// Number of groups in the session.
    pub fn n(&self) -> u32 {
        self.n
    }

    /// Top key `γ_g` (1-based `g`).
    pub fn top_key(&self, g: u32) -> Key {
        assert!((1..=self.n).contains(&g));
        self.top[(g - 1) as usize]
    }

    /// Decrease key `δ_g`; `None` for the maximal group.
    pub fn decrease_key(&self, g: u32) -> Option<Key> {
        assert!((1..=self.n).contains(&g));
        (g < self.n).then(|| self.decrease[(g - 1) as usize])
    }

    /// Increase key `ι_g = γ_{g-1}`; defined only for authorized upgrades
    /// to groups 2..=N.
    pub fn increase_key(&self, g: u32) -> Option<Key> {
        assert!((1..=self.n).contains(&g));
        (g >= 2 && self.upgrades.authorized(g)).then(|| self.top_key(g - 1))
    }

    /// Every key that opens group `g` this slot — the SIGMA tuple
    /// (paper §3.2.1).
    pub fn valid_keys(&self, g: u32) -> Vec<Key> {
        let mut v = vec![self.top_key(g)];
        if let Some(d) = self.decrease_key(g) {
            v.push(d);
        }
        if let Some(i) = self.increase_key(g) {
            v.push(i);
        }
        v
    }

    /// The decrease *field* `d_g` to stamp on packets of group `g`
    /// (`d_g = δ_{g-1}`; the minimal group carries none).
    pub fn decrease_field(&self, g: u32) -> Option<Key> {
        assert!((1..=self.n).contains(&g));
        (g >= 2).then(|| self.decrease[(g - 2) as usize])
    }

    /// Real-time component generator for group `g`.
    pub fn component_stream(&self, g: u32) -> ComponentStream {
        assert!((1..=self.n).contains(&g));
        ComponentStream {
            acc: self.group_nonces[(g - 1) as usize],
        }
    }
}

/// Emits the component fields of one group for one slot (paper Figure 4,
/// "real-time generation of component fields").
#[derive(Clone, Debug)]
pub struct ComponentStream {
    acc: Key,
}

impl ComponentStream {
    /// Produce the component for the next packet. Pass `is_last = true` for
    /// the slot's final packet of the group.
    pub fn next(&mut self, rng: &mut DetRng, is_last: bool) -> Key {
        if is_last {
            self.acc
        } else {
            let c = Key::nonce(rng);
            self.acc = self.acc ^ c;
            c
        }
    }
}

/// What a receiver saw of one group during one slot.
#[derive(Clone, Debug, Default)]
pub struct GroupObservation {
    /// XOR of the received component fields.
    pub xor: Key,
    /// Packets received.
    pub received: u32,
    /// Whether the final packet (with the closing component) arrived.
    pub saw_last: bool,
    /// Total packets the group transmitted (learned from the final packet).
    pub expected: u32,
    /// A decrease field seen on this group's packets, if any.
    pub decrease_field: Option<Key>,
    /// Whether any packet of the group arrived at all.
    pub any: bool,
}

impl GroupObservation {
    /// Fold one packet's fields in.
    pub fn observe(&mut self, f: &DeltaFields) {
        self.any = true;
        self.received += 1;
        self.xor = self.xor ^ f.component;
        if f.last_in_slot {
            self.saw_last = true;
            self.expected = f.count_in_slot;
        }
        if let Some(d) = f.decrease {
            self.decrease_field = Some(d);
        }
    }

    /// True when every packet of the group arrived this slot.
    pub fn complete(&self) -> bool {
        self.saw_last && self.received == self.expected
    }
}

/// Per-slot accumulator across the groups of one session (receiver side).
#[derive(Clone, Debug)]
pub struct SlotObservation {
    /// The slot being observed.
    pub slot: u64,
    /// Observation per group (index `g-1`).
    pub groups: Vec<GroupObservation>,
    /// Upgrade authorizations latched from packet headers.
    pub upgrades: UpgradeMask,
}

impl SlotObservation {
    /// Fresh accumulator for `slot` over an `n`-group session.
    pub fn new(slot: u64, n: u32) -> Self {
        SlotObservation {
            slot,
            groups: vec![GroupObservation::default(); n as usize],
            upgrades: UpgradeMask::NONE,
        }
    }

    /// Fold one data packet's DELTA fields in.
    pub fn observe(&mut self, f: &DeltaFields) {
        debug_assert_eq!(f.slot, self.slot, "fields from a different slot");
        let idx = (f.group - 1) as usize;
        if idx < self.groups.len() {
            self.groups[idx].observe(f);
            self.upgrades = UpgradeMask(self.upgrades.0 | f.upgrades.0);
        }
    }

    /// Largest `k` with groups `1..=k` all complete.
    pub fn complete_prefix(&self, upto: u32) -> u32 {
        let mut k = 0;
        for g in 1..=upto.min(self.groups.len() as u32) {
            if self.groups[(g - 1) as usize].complete() {
                k = g;
            } else {
                break;
            }
        }
        k
    }

    /// Prefix-XOR reconstruction of `γ_g` — only meaningful when groups
    /// `1..=g` are complete.
    pub fn top_key(&self, g: u32) -> Key {
        xor_all(self.groups.iter().take(g as usize).map(|o| o.xor))
    }
}

/// The outcome of the receiver-side algorithm (paper Figure 4, right).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Eligibility {
    /// Receiver holds keys for `level` groups during slot `s+2`; `keys` are
    /// `(group, key)` pairs ready for a SIGMA subscription message.
    Subscribe {
        /// The next subscription level (number of groups).
        level: u32,
        /// Address-key pairs to submit.
        keys: Vec<(u32, Key)>,
    },
    /// Congested at the minimal level (or decrease keys unavailable): the
    /// receiver leaves the session and may re-enter via SIGMA session-join.
    Rejoin,
}

/// Decide the next subscription level and reconstruct its keys.
///
/// Implements the three key-distribution conditions of §3.1.1 including the
/// contradiction resolution: when losses are confined to group `g` alone and
/// the protocol authorizes an upgrade *to* `g`, the receiver keeps `g` using
/// the increase key `ι_g = γ_{g-1}`.
pub fn decide_layered(obs: &SlotObservation, current: u32, n: u32) -> Eligibility {
    assert!(current >= 1 && current <= n, "level out of range");
    let prefix = obs.complete_prefix(current);
    let congested = prefix < current;

    if !congested {
        // Uncongested: top keys for every current group.
        let mut keys: Vec<(u32, Key)> = (1..=current).map(|g| (g, obs.top_key(g))).collect();
        let mut level = current;
        if current < n && obs.upgrades.authorized(current + 1) {
            // Authorized upgrade: ι_{g+1} = γ_g.
            level = current + 1;
            keys.push((level, obs.top_key(current)));
        }
        return Eligibility::Subscribe { level, keys };
    }

    // Congested, but losses confined to the top group with an authorized
    // upgrade to it: keep the level (synchronization resolution, §3.1.1).
    if prefix == current - 1 && obs.upgrades.authorized(current) {
        let mut keys: Vec<(u32, Key)> = (1..current).map(|g| (g, obs.top_key(g))).collect();
        keys.push((current, obs.top_key(current - 1)));
        return Eligibility::Subscribe {
            level: current,
            keys,
        };
    }

    // Plain decrease: δ_j comes from the decrease field of group j+1, so the
    // reachable level is bounded by the deepest run of groups 2..=k+1 that
    // delivered at least one packet ("if a group loses all its packets, the
    // receiver is forced to reduce its subscription by more than one group").
    let mut level = 0;
    let mut keys = Vec::new();
    for j in 1..current {
        let upper = &obs.groups[j as usize]; // group j+1, 0-indexed
        match upper.decrease_field {
            Some(d) if upper.any => {
                keys.push((j, d));
                level = j;
            }
            _ => break,
        }
    }
    if level == 0 {
        Eligibility::Rejoin
    } else {
        Eligibility::Subscribe { level, keys }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: u32 = 5;

    /// Simulate transmission of `counts[g-1]` packets per group, with the
    /// packets in `lose` (group, seq) dropped, and return the observation.
    fn transmit(
        sched: &LayeredKeySchedule,
        rng: &mut DetRng,
        counts: &[u32],
        lose: &[(u32, u32)],
    ) -> SlotObservation {
        let mut obs = SlotObservation::new(0, sched.n());
        for g in 1..=sched.n() {
            let mut stream = sched.component_stream(g);
            let count = counts[(g - 1) as usize];
            for p in 0..count {
                let is_last = p + 1 == count;
                let component = stream.next(rng, is_last);
                let fields = DeltaFields {
                    slot: 0,
                    group: g,
                    seq_in_slot: p,
                    last_in_slot: is_last,
                    count_in_slot: if is_last { count } else { 0 },
                    component,
                    decrease: sched.decrease_field(g),
                    upgrades: sched.upgrades,
                };
                if !lose.contains(&(g, p)) {
                    obs.observe(&fields);
                }
            }
        }
        obs
    }

    fn setup(upgrades: UpgradeMask) -> (LayeredKeySchedule, DetRng) {
        let mut rng = DetRng::new(99);
        let sched = LayeredKeySchedule::generate(&mut rng, N, upgrades);
        (sched, rng)
    }

    #[test]
    fn top_keys_are_prefix_xors() {
        let (sched, _) = setup(UpgradeMask::NONE);
        let g3 = sched.top_key(3);
        let g2 = sched.top_key(2);
        // γ_3 ⊕ γ_2 = C_3.
        assert_eq!(g3 ^ g2, sched.group_nonces[2]);
    }

    #[test]
    fn component_stream_telescopes_to_group_nonce() {
        let (sched, mut rng) = setup(UpgradeMask::NONE);
        for count in [1u32, 2, 7, 50] {
            let mut s = sched.component_stream(2);
            let mut acc = Key::ZERO;
            for p in 0..count {
                acc = acc ^ s.next(&mut rng, p + 1 == count);
            }
            assert_eq!(acc, sched.group_nonces[1], "count={count}");
        }
    }

    #[test]
    fn uncongested_receiver_rebuilds_all_top_keys() {
        let (sched, mut rng) = setup(UpgradeMask::NONE);
        let obs = transmit(&sched, &mut rng, &[3, 3, 3, 3, 3], &[]);
        for g in 1..=N {
            assert_eq!(obs.top_key(g), sched.top_key(g), "γ_{g}");
        }
        match decide_layered(&obs, 3, N) {
            Eligibility::Subscribe { level, keys } => {
                assert_eq!(level, 3);
                assert_eq!(keys.len(), 3);
                for (g, k) in keys {
                    assert_eq!(k, sched.top_key(g));
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn authorized_upgrade_yields_increase_key() {
        let (sched, mut rng) = setup(UpgradeMask::from_groups(&[4]));
        let obs = transmit(&sched, &mut rng, &[3, 3, 3, 3, 3], &[]);
        match decide_layered(&obs, 3, N) {
            Eligibility::Subscribe { level, keys } => {
                assert_eq!(level, 4);
                let (_, k4) = keys.iter().find(|(g, _)| *g == 4).unwrap();
                assert_eq!(*k4, sched.increase_key(4).unwrap());
                // The increase key really is γ_3.
                assert_eq!(*k4, sched.top_key(3));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn congested_receiver_cannot_rebuild_top_key() {
        let (sched, mut rng) = setup(UpgradeMask::NONE);
        // Lose one mid-slot packet of group 2.
        let obs = transmit(&sched, &mut rng, &[4, 4, 4, 4, 4], &[(2, 1)]);
        assert!(!obs.groups[1].complete());
        // The partial XOR does not equal any valid key for group 2 or above.
        assert_ne!(obs.top_key(2), sched.top_key(2));
        assert_ne!(obs.top_key(3), sched.top_key(3));
        match decide_layered(&obs, 3, N) {
            Eligibility::Subscribe { level, keys } => {
                assert_eq!(level, 2, "one-step decrease");
                for (g, k) in keys {
                    assert_eq!(k, sched.decrease_key(g).unwrap());
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lost_last_packet_counts_as_congestion() {
        let (sched, mut rng) = setup(UpgradeMask::NONE);
        let obs = transmit(&sched, &mut rng, &[4, 4, 4, 4, 4], &[(3, 3)]);
        assert!(!obs.groups[2].complete(), "missing last ⇒ incomplete");
        match decide_layered(&obs, 3, N) {
            Eligibility::Subscribe { level, .. } => assert_eq!(level, 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn loss_confined_to_top_group_with_upgrade_keeps_level() {
        // The paper's contradiction resolution: group 3 loses a packet but
        // upgrade to 3 is authorized and groups 1..2 are clean.
        let (sched, mut rng) = setup(UpgradeMask::from_groups(&[3]));
        let obs = transmit(&sched, &mut rng, &[4, 4, 4, 4, 4], &[(3, 1)]);
        match decide_layered(&obs, 3, N) {
            Eligibility::Subscribe { level, keys } => {
                assert_eq!(level, 3, "keeps the level via ι_3");
                let (_, k3) = keys.iter().find(|(g, _)| *g == 3).unwrap();
                assert_eq!(*k3, sched.increase_key(3).unwrap());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn total_loss_of_group_forces_multi_step_decrease() {
        let (sched, mut rng) = setup(UpgradeMask::NONE);
        // Group 3 loses everything, and group 4 also loses a packet: the
        // receiver of 4 groups cannot learn δ_2 (carried by group 3), so it
        // falls to level 1.
        let obs = transmit(
            &sched,
            &mut rng,
            &[4, 4, 2, 4, 4],
            &[(3, 0), (3, 1), (4, 2)],
        );
        match decide_layered(&obs, 4, N) {
            Eligibility::Subscribe { level, keys } => {
                assert_eq!(level, 1);
                assert_eq!(keys, vec![(1, sched.decrease_key(1).unwrap())]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn congested_minimal_receiver_must_rejoin() {
        let (sched, mut rng) = setup(UpgradeMask::NONE);
        let obs = transmit(&sched, &mut rng, &[4, 4, 4, 4, 4], &[(1, 2)]);
        assert_eq!(decide_layered(&obs, 1, N), Eligibility::Rejoin);
    }

    #[test]
    fn sigma_tuple_contents() {
        let (sched, _) = setup(UpgradeMask::from_groups(&[2]));
        // Group 1: top + decrease (no increase for the minimal group).
        assert_eq!(sched.valid_keys(1).len(), 2);
        // Group 2: top + decrease + authorized increase.
        assert_eq!(sched.valid_keys(2).len(), 3);
        // Group N: top only... plus increase if authorized (not here).
        assert_eq!(sched.valid_keys(N).len(), 1);
    }

    /// The replicated constructor draws what `generate` draws, in the same
    /// order, and differs only in the top keys: the layered `γ_g` is the
    /// XOR of the replicated per-group keys `1..=g`.
    #[test]
    fn replicated_constructor_shares_the_layered_draws() {
        let upgrades = UpgradeMask::from_groups(&[2, 4]);
        let (mut r1, mut r2) = (DetRng::new(11), DetRng::new(11));
        let layered = LayeredKeySchedule::generate(&mut r1, N, upgrades);
        let replicated = LayeredKeySchedule::replicated(&mut r2, N, upgrades);
        assert_eq!(r1.next_u64(), r2.next_u64(), "same number of draws");
        assert_eq!(layered.group_nonces, replicated.group_nonces);
        assert_eq!(layered.decrease, replicated.decrease);
        let mut prefix = Key::ZERO;
        for g in 1..=N {
            prefix = prefix ^ replicated.top_key(g);
            assert_eq!(layered.top_key(g), prefix, "γ_{g}");
            assert_eq!(
                replicated.top_key(g),
                replicated.group_nonces[(g - 1) as usize]
            );
            assert_eq!(layered.decrease_field(g), replicated.decrease_field(g));
        }
    }

    #[test]
    fn increase_key_absent_without_authorization() {
        let (sched, _) = setup(UpgradeMask::from_groups(&[3]));
        assert!(sched.increase_key(2).is_none());
        assert!(sched.increase_key(3).is_some());
    }
}
