//! The strategy library: every adversary of the paper's threat model as a
//! composable [`Adversary`] implementation.
//!
//! Primitive strategies — [`InflateTo`], [`IgnoreDecrease`], [`KeyGuess`],
//! [`Colluders`], [`JoinLeaveFlap`] — are active from the moment the
//! receiver starts; the [`Timed`] wrapper delays one and [`All`] composes
//! several.

use crate::{Adversary, AttackAction, AttackEnv};
use mcc_delta::{Key, KEY_LEAD};
use mcc_simcore::{OnOffGrid, SimDuration, SimTime};
use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Primitive strategies
// ---------------------------------------------------------------------------

/// The well-behaved receiver: every hook is a no-op.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Honest;

impl Adversary for Honest {
    fn label(&self) -> String {
        "honest".into()
    }
    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(*self)
    }
}

/// Inflated subscription (paper §2): grab every group up to `layer` and
/// keep claiming that level. Under SIGMA the strategy also hammers raw
/// IGMP joins every slot — which the router ignores, making the attack
/// visible but useless (Figure 7).
#[derive(Clone, Copy, Debug)]
pub struct InflateTo {
    /// Highest 1-based group to grab; `u32::MAX` = everything.
    pub(crate) layer: u32,
}

impl InflateTo {
    /// Inflate to the maximal subscription (the Figure-1 attacker).
    pub fn all() -> InflateTo {
        InflateTo { layer: u32::MAX }
    }
}

impl Adversary for InflateTo {
    fn label(&self) -> String {
        if self.layer == u32::MAX {
            "inflate".into()
        } else {
            format!("inflate({})", self.layer)
        }
    }
    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(*self)
    }
    fn on_activation(&mut self, _env: &AttackEnv) -> Vec<AttackAction> {
        vec![AttackAction::Inflate { layer: self.layer }]
    }
    fn on_slot(&mut self, env: &AttackEnv) -> Vec<AttackAction> {
        if env.protected {
            // SIGMA swallows raw joins; keep hammering anyway (§4.2).
            vec![AttackAction::RawJoins { layer: self.layer }]
        } else {
            // Classic IGMP: everything was joined at activation.
            Vec::new()
        }
    }
    // Deliberately NO congestion-signal veto: under classic IGMP the
    // inflated receiver already ignores everything (it grabbed the groups
    // and never leaves), while under SIGMA the rational attacker keeps
    // its honest machinery obeying forced decreases — that is all the
    // bandwidth its keys can open (the paper's F1 stays near fair share).
}

/// Refuse to lower the subscription when congested (paper §2's second
/// misbehaviour): the congestion-signal hook vetoes every decrease.
#[derive(Clone, Copy, Debug, Default)]
pub struct IgnoreDecrease;

impl Adversary for IgnoreDecrease {
    fn label(&self) -> String {
        "ignore_decrease".into()
    }
    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(*self)
    }
    fn on_congestion_signal(&mut self, _env: &AttackEnv) -> bool {
        true
    }
}

/// The §4.2 guessing attack: submit `rate` random keys per group per slot,
/// hoping one opens a group. Success probability is `rate/2^64` per slot;
/// the distinct-key tally at the router is the countermeasure.
#[derive(Clone, Copy, Debug)]
pub struct KeyGuess {
    /// Guessed keys per group per slot.
    pub rate: u32,
}

impl Adversary for KeyGuess {
    fn label(&self) -> String {
        format!("key_guess({})", self.rate)
    }
    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(*self)
    }
    fn on_slot(&mut self, _env: &AttackEnv) -> Vec<AttackAction> {
        vec![AttackAction::GuessKeys {
            per_group: self.rate,
            layer: u32::MAX,
        }]
    }
}

/// Join/leave churn: alternate between a full inflation and a drop back to
/// the minimal level every `period`, abusing graft/prune latency and
/// SIGMA's keyless grace windows. The attack is a thin wrapper over the
/// workload layer's pulse-churn primitive: [`OnOffGrid`] owns the grid
/// arithmetic and the phase, this strategy only maps the two phases onto
/// attack actions.
#[derive(Clone, Copy, Debug)]
pub struct JoinLeaveFlap {
    grid: OnOffGrid,
}

impl JoinLeaveFlap {
    /// Flap with the given half-cycle.
    pub fn new(period: SimDuration) -> JoinLeaveFlap {
        assert!(!period.is_zero(), "flap period");
        JoinLeaveFlap {
            grid: OnOffGrid::new(period),
        }
    }
}

impl Adversary for JoinLeaveFlap {
    fn label(&self) -> String {
        format!("flap({}ms)", self.grid.period().as_nanos() / 1_000_000)
    }
    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(*self)
    }
    fn next_activation(&self, after: SimTime) -> Option<SimTime> {
        Some(self.grid.next_after(after))
    }
    fn on_activation(&mut self, env: &AttackEnv) -> Vec<AttackAction> {
        // Self-gate to the flap grid: under a composite ([`All`]) the
        // receiver fires activations at the *union* of the members'
        // schedules, and a toggle at a sibling's instant would corrupt
        // the phase.
        if !self.grid.on_grid(env.now) {
            return Vec::new();
        }
        if self.grid.toggle() {
            vec![AttackAction::Inflate { layer: u32::MAX }]
        } else {
            vec![AttackAction::LeaveHigh]
        }
    }
    fn on_congestion_signal(&mut self, _env: &AttackEnv) -> bool {
        // While flapped up, congestion signals are ignored wholesale.
        self.grid.is_up()
    }
}

// ---------------------------------------------------------------------------
// Collusion
// ---------------------------------------------------------------------------

/// The out-of-band channel of a colluding clique: reconstructed per-slot
/// keys published by capable members and consumed by freeloaders (paper
/// §4.2, the attack the interface-specific [`CollusionGuard`] defeats).
///
/// Shared state is deterministic: the simulator is single-threaded, so
/// publish/consume order follows event order exactly.
///
/// [`CollusionGuard`]: mcc_sigma::CollusionGuard
#[derive(Clone, Debug, Default)]
pub struct CollusionSet(Arc<Mutex<Pool>>);

#[derive(Debug, Default)]
struct Pool {
    members: u32,
    /// `sub_slot → (publishing member, 1-based group, key)`.
    keys: BTreeMap<u64, Vec<(u32, u32, Key)>>,
}

impl CollusionSet {
    /// An empty clique.
    pub fn new() -> CollusionSet {
        CollusionSet::default()
    }

    fn register(&self) -> u32 {
        let mut pool = self.0.lock().expect("collusion pool");
        pool.members += 1;
        pool.members
    }

    fn publish(&self, member: u32, sub_slot: u64, pairs: &[(u32, Key)]) {
        let mut pool = self.0.lock().expect("collusion pool");
        let entry = pool.keys.entry(sub_slot).or_default();
        for &(g, k) in pairs {
            if !entry.iter().any(|&(_, eg, ek)| eg == g && ek == k) {
                entry.push((member, g, k));
            }
        }
    }

    /// Keys published by *other* members for `sub_slot`.
    fn keys_from_others(&self, member: u32, sub_slot: u64) -> Vec<(u32, Key)> {
        let pool = self.0.lock().expect("collusion pool");
        pool.keys
            .get(&sub_slot)
            .map(|entries| {
                entries
                    .iter()
                    .filter(|&&(m, _, _)| m != member)
                    .map(|&(_, g, k)| (g, k))
                    .collect()
            })
            .unwrap_or_default()
    }

    fn gc(&self, min_slot: u64) {
        let mut pool = self.0.lock().expect("collusion pool");
        pool.keys.retain(|&s, _| s >= min_slot);
    }

    /// Registered member count (diagnostics).
    #[cfg(test)]
    pub(crate) fn members(&self) -> u32 {
        self.0.lock().expect("collusion pool").members
    }
}

/// A member of a colluding clique: publishes every key tuple its honest
/// machinery reconstructs and submits fresh keys published by the other
/// members — so a freeloader inherits the most capable member's
/// subscription without ever earning it. Plain SIGMA accepts the smuggled
/// keys (the key is the credential); the interface-specific collusion
/// guard rejects them.
#[derive(Debug)]
pub struct Colluders {
    set: CollusionSet,
    member: u32,
    submitted: HashSet<(u64, u32)>,
}

impl Colluders {
    /// Join the clique behind `set`.
    pub fn new(set: CollusionSet) -> Colluders {
        let member = set.register();
        Colluders {
            set,
            member,
            submitted: HashSet::new(),
        }
    }
}

impl Adversary for Colluders {
    fn label(&self) -> String {
        "colluders".into()
    }
    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(Colluders::new(self.set.clone()))
    }
    fn on_slot(&mut self, env: &AttackEnv) -> Vec<AttackAction> {
        self.set.gc(env.slot.saturating_sub(2));
        let mut actions = Vec::new();
        for sub_slot in env.slot + 1..=env.slot + KEY_LEAD {
            let pairs: Vec<(u32, Key)> = self
                .set
                .keys_from_others(self.member, sub_slot)
                .into_iter()
                .filter(|&(g, _)| self.submitted.insert((sub_slot, g)))
                .collect();
            if !pairs.is_empty() {
                actions.push(AttackAction::SubmitKeys {
                    slot: sub_slot,
                    pairs,
                });
            }
        }
        actions
    }
    fn on_key_packet(&mut self, _env: &AttackEnv, sub_slot: u64, keys: &[(u32, Key)]) {
        self.set.publish(self.member, sub_slot, keys);
    }
}

// ---------------------------------------------------------------------------
// Schedulers
// ---------------------------------------------------------------------------

/// Delay a strategy until `at`: before that instant every hook is inert,
/// afterwards the inner strategy runs unchanged. `Timed` is how scenario
/// onsets are expressed (`Timed::at(50.secs(), InflateTo::all())`).
#[derive(Debug)]
pub struct Timed {
    at: SimTime,
    inner: Box<dyn Adversary>,
}

impl Timed {
    /// Activate `inner` at `at`.
    pub fn at(at: SimTime, inner: impl Adversary + 'static) -> Timed {
        Timed {
            at,
            inner: Box::new(inner),
        }
    }

    /// As [`Timed::at`], for an already-boxed strategy.
    pub fn boxed(at: SimTime, inner: Box<dyn Adversary>) -> Timed {
        Timed { at, inner }
    }

    fn active(&self, env: &AttackEnv) -> bool {
        env.now >= self.at
    }
}

impl Adversary for Timed {
    fn label(&self) -> String {
        format!("{}@{}s", self.inner.label(), self.at.as_secs_f64())
    }
    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(Timed {
            at: self.at,
            inner: self.inner.clone_box(),
        })
    }
    fn next_activation(&self, after: SimTime) -> Option<SimTime> {
        if after < self.at {
            Some(self.at)
        } else {
            self.inner.next_activation(after)
        }
    }
    fn on_activation(&mut self, env: &AttackEnv) -> Vec<AttackAction> {
        if self.active(env) {
            self.inner.on_activation(env)
        } else {
            Vec::new()
        }
    }
    fn on_slot(&mut self, env: &AttackEnv) -> Vec<AttackAction> {
        if self.active(env) {
            self.inner.on_slot(env)
        } else {
            Vec::new()
        }
    }
    fn on_key_packet(&mut self, env: &AttackEnv, sub_slot: u64, keys: &[(u32, Key)]) {
        if self.active(env) {
            self.inner.on_key_packet(env, sub_slot, keys);
        }
    }
    fn on_congestion_signal(&mut self, env: &AttackEnv) -> bool {
        self.active(env) && self.inner.on_congestion_signal(env)
    }
}

/// Run several strategies simultaneously: actions concatenate in order,
/// and a congestion signal is suppressed if *any* member suppresses it.
#[derive(Debug)]
pub struct All(Vec<Box<dyn Adversary>>);

impl All {
    /// Compose the given strategies.
    pub fn of(strategies: Vec<Box<dyn Adversary>>) -> All {
        All(strategies)
    }
}

impl Adversary for All {
    fn label(&self) -> String {
        self.0
            .iter()
            .map(|a| a.label())
            .collect::<Vec<_>>()
            .join("+")
    }
    fn clone_box(&self) -> Box<dyn Adversary> {
        Box::new(All(self.0.iter().map(|a| a.clone_box()).collect()))
    }
    fn next_activation(&self, after: SimTime) -> Option<SimTime> {
        self.0.iter().filter_map(|a| a.next_activation(after)).min()
    }
    fn on_activation(&mut self, env: &AttackEnv) -> Vec<AttackAction> {
        self.0
            .iter_mut()
            .flat_map(|a| a.on_activation(env))
            .collect()
    }
    fn on_slot(&mut self, env: &AttackEnv) -> Vec<AttackAction> {
        self.0.iter_mut().flat_map(|a| a.on_slot(env)).collect()
    }
    fn on_key_packet(&mut self, env: &AttackEnv, sub_slot: u64, keys: &[(u32, Key)]) {
        for a in &mut self.0 {
            a.on_key_packet(env, sub_slot, keys);
        }
    }
    fn on_congestion_signal(&mut self, env: &AttackEnv) -> bool {
        // Every member sees the signal (stateful strategies may track it);
        // any one of them may veto the decrease.
        let mut veto = false;
        for a in &mut self.0 {
            veto |= a.on_congestion_signal(env);
        }
        veto
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_at(now: SimTime, slot: u64) -> AttackEnv {
        AttackEnv {
            now,
            slot,
            n_groups: 10,
            level: 3,
            protected: true,
        }
    }

    #[test]
    fn timed_gates_every_hook_until_onset() {
        let mut t = Timed::at(SimTime::from_secs(10), InflateTo::all());
        let before = env_at(SimTime::from_secs(5), 20);
        let after = env_at(SimTime::from_secs(15), 60);
        assert!(t.on_activation(&before).is_empty());
        assert!(t.on_slot(&before).is_empty());
        assert!(!t.on_congestion_signal(&before));
        assert_eq!(
            t.on_activation(&after),
            vec![AttackAction::Inflate { layer: u32::MAX }]
        );
        assert_eq!(
            t.on_slot(&after),
            vec![AttackAction::RawJoins { layer: u32::MAX }]
        );
        let mut gated_veto = Timed::at(SimTime::from_secs(10), IgnoreDecrease);
        assert!(!gated_veto.on_congestion_signal(&before));
        assert!(gated_veto.on_congestion_signal(&after));
        // The activation schedule points at the onset, then stops.
        assert_eq!(
            t.next_activation(SimTime::ZERO),
            Some(SimTime::from_secs(10))
        );
        assert_eq!(t.next_activation(SimTime::from_secs(10)), None);
    }

    #[test]
    fn flap_alternates_inflate_and_leave_on_a_grid() {
        let mut f = JoinLeaveFlap::new(SimDuration::from_secs(4));
        assert_eq!(
            f.next_activation(SimTime::from_secs(1)),
            Some(SimTime::from_secs(4))
        );
        assert_eq!(
            f.next_activation(SimTime::from_secs(4)),
            Some(SimTime::from_secs(8))
        );
        let env = env_at(SimTime::from_secs(4), 16);
        assert_eq!(
            f.on_activation(&env),
            vec![AttackAction::Inflate { layer: u32::MAX }]
        );
        assert!(f.on_congestion_signal(&env), "up phase ignores signals");
        assert_eq!(f.on_activation(&env), vec![AttackAction::LeaveHigh]);
        assert!(!f.on_congestion_signal(&env), "down phase obeys them");
    }

    #[test]
    fn colluders_share_keys_but_never_their_own() {
        let set = CollusionSet::new();
        let mut feeder = Colluders::new(set.clone());
        let mut freeloader = Colluders::new(set.clone());
        assert_eq!(set.members(), 2);
        let env = env_at(SimTime::from_secs(3), 12);
        feeder.on_key_packet(&env, 14, &[(1, Key(11)), (2, Key(22))]);

        // The freeloader picks up the feeder's keys exactly once…
        let actions = freeloader.on_slot(&env);
        assert_eq!(
            actions,
            vec![AttackAction::SubmitKeys {
                slot: 14,
                pairs: vec![(1, Key(11)), (2, Key(22))],
            }]
        );
        assert!(freeloader.on_slot(&env).is_empty(), "deduplicated");
        // …while the feeder sees nothing new (its own keys are filtered).
        assert!(feeder.on_slot(&env).is_empty());
    }

    #[test]
    fn all_composes_actions_and_vetoes() {
        let mut a = All::of(vec![
            Box::new(InflateTo::all()),
            Box::new(KeyGuess { rate: 10 }),
            Box::new(IgnoreDecrease),
        ]);
        let env = env_at(SimTime::from_secs(1), 4);
        assert_eq!(
            a.on_slot(&env),
            vec![
                AttackAction::RawJoins { layer: u32::MAX },
                AttackAction::GuessKeys {
                    per_group: 10,
                    layer: u32::MAX
                },
            ]
        );
        assert!(a.on_congestion_signal(&env), "any member may veto");
        assert_eq!(a.label(), "inflate+key_guess(10)+ignore_decrease");
    }
}
