//! # mcc-attack — the pluggable adversary subsystem
//!
//! The paper's contribution is robustness against receivers that inflate
//! their subscription (§2), guess keys (§4.2), collude across interfaces
//! (§4.2) or abuse join/leave latency. This crate makes *attacker
//! composition* a first-class, enumerable axis:
//!
//! * [`Adversary`] — the trait every attack strategy implements, with three
//!   protocol hooks (per-slot, key-packet, congestion-signal) plus a
//!   timer-driven activation schedule,
//! * [`AttackAction`] — the primitive misbehaviours a protocol receiver
//!   knows how to execute (raw joins, guessed keys, inflation, churn,
//!   smuggled-key submission), so one strategy library drives *every*
//!   protocol variant (FLID, replicated, threshold),
//! * `strategies` — the library: [`InflateTo`], [`IgnoreDecrease`],
//!   [`KeyGuess`], [`Colluders`] (key sharing through a [`CollusionSet`]),
//!   [`JoinLeaveFlap`], and the composable [`Timed`] / [`All`]
//!   schedulers,
//! * [`AttackPlan`] — a cloneable handle used by scenario specs
//!   (`mcc_core::ReceiverSpec::adversary`) and handed to every receiver's
//!   `with_adversary` constructor. The paper's §4.2 attacker (Figures 1
//!   and 7, the matrix's "inflate" cell, the churn and tree experiments)
//!   is [`AttackPlan::inflate_at`]:
//!   `Timed(at, All[InflateTo::all(), KeyGuess { rate: 10 }])`.

pub(crate) mod strategies;

use strategies::Honest;
pub use strategies::{
    All, Colluders, CollusionSet, IgnoreDecrease, InflateTo, JoinLeaveFlap, KeyGuess, Timed,
};

use mcc_delta::Key;
use mcc_simcore::SimTime;

/// Snapshot of the attacking receiver's world, handed to every hook.
#[derive(Clone, Copy, Debug)]
pub struct AttackEnv {
    /// Current simulation time.
    pub now: SimTime,
    /// The protocol slot the hook refers to (the slot under evaluation for
    /// [`Adversary::on_slot`], the current slot for activations).
    pub slot: u64,
    /// Number of groups in the session.
    pub n_groups: u32,
    /// The receiver's current honest subscription level / group.
    pub level: u32,
    /// Whether the session runs under SIGMA protection.
    pub protected: bool,
}

/// A primitive misbehaviour a protocol receiver executes on the
/// adversary's behalf. Strategies return these from their hooks; each
/// receiver type (FLID, replicated, threshold) owns the execution.
#[derive(Clone, Debug, PartialEq)]
pub enum AttackAction {
    /// Inflate the subscription: join every group up to `layer` (clamped
    /// to the session size) and claim that level from now on.
    Inflate {
        /// Highest 1-based group to grab; `u32::MAX` means "everything".
        layer: u32,
    },
    /// Raw IGMP joins for groups `1..=layer` — the per-slot hammering of
    /// the §4.2 attacker (SIGMA ignores these; classic IGMP obeys them).
    RawJoins {
        /// Highest 1-based group to join.
        layer: u32,
    },
    /// Submit `per_group` random guessed keys for each group up to
    /// `layer` ("numerous random keys in a hope that one … is correct",
    /// paper §4.2). A no-op on unprotected sessions.
    GuessKeys {
        /// Guessed keys per group per submission.
        per_group: u32,
        /// Highest 1-based group to guess for.
        layer: u32,
    },
    /// Drop back to the minimal level: leave everything above group 1 and
    /// clear any inflation (the "down" phase of churn attacks).
    LeaveHigh,
    /// Submit keys obtained out-of-band (collusion): `(group, key)` pairs
    /// for subscription slot `slot`, with 1-based group indices. The
    /// executor also joins the groups so granted traffic is delivered.
    SubmitKeys {
        /// Subscription slot the keys unlock.
        slot: u64,
        /// `(1-based group index, key)` pairs.
        pairs: Vec<(u32, Key)>,
    },
}

/// An attack strategy: scheduling plus three protocol hooks.
///
/// Implementations must be deterministic — any randomness comes from the
/// receiver's own [`DetRng`](mcc_simcore::DetRng) during action execution,
/// never from the strategy itself — so runs replay bit for bit.
pub trait Adversary: std::fmt::Debug + Send {
    /// Short label for matrices and plots, e.g. `inflate(10)`.
    fn label(&self) -> String;

    /// A fresh boxed copy (strategies with shared state, e.g.
    /// [`Colluders`], register a new member per clone).
    fn clone_box(&self) -> Box<dyn Adversary>;

    /// The next activation instant strictly after `after`, if any. The
    /// receiver schedules a timer for it and calls
    /// [`Adversary::on_activation`] when it fires.
    fn next_activation(&self, after: SimTime) -> Option<SimTime> {
        let _ = after;
        None
    }

    /// Timer hook: actions to execute at an activation instant (also
    /// called once when the receiver starts). Under a composite
    /// ([`All`]) this fires at the *union* of the members' schedules, so
    /// strategies with their own time grid must self-gate on `env.now`.
    fn on_activation(&mut self, env: &AttackEnv) -> Vec<AttackAction> {
        let _ = env;
        Vec::new()
    }

    /// Per-slot hook: actions to execute after the receiver evaluated a
    /// protocol slot.
    fn on_slot(&mut self, env: &AttackEnv) -> Vec<AttackAction> {
        let _ = env;
        Vec::new()
    }

    /// Key hook: the receiver reconstructed `keys` (1-based group index,
    /// key) valid for subscription slot `sub_slot`. Colluders publish
    /// them out-of-band here.
    fn on_key_packet(&mut self, env: &AttackEnv, sub_slot: u64, keys: &[(u32, Key)]) {
        let _ = (env, sub_slot, keys);
    }

    /// Congestion-signal hook: return `true` to suppress the honest
    /// decrease the protocol is about to take. May be called more than
    /// once per slot (once per decision point).
    fn on_congestion_signal(&mut self, env: &AttackEnv) -> bool {
        let _ = env;
        false
    }
}

/// Where an attacking receiver attaches in a multi-router topology.
///
/// The paper's damage story is about *placement relative to shared
/// bottlenecks*: a receiver hanging off a leaf edge router only congests
/// its own branch, while one grafted onto an interior router of a
/// distribution tree shares every upstream link with a whole subtree.
/// Scenario builders resolve a placement against the topology's receiver
/// attachment points (`mcc_core::topology` owns the mapping); on the
/// single-edge dumbbell every placement degenerates to the edge router.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Placement {
    /// Round-robin over the topology's attachment points (the honest
    /// default: receivers tile the leaves).
    #[default]
    Auto,
    /// Attachment point `i` (leaf `i` of a tree, arm `i` of a star, hop
    /// `i` of a parking lot; wraps modulo the point count).
    Leaf(usize),
    /// The router at `depth` on the path from the tree root to leaf
    /// `leaf` (`depth` equal to the tree depth is the leaf router
    /// itself). Non-tree topologies clamp `depth` to their router chain.
    Interior {
        /// Distance from the root (0 = the root itself).
        depth: u32,
        /// Leaf whose root path is walked.
        leaf: usize,
    },
}

/// A cloneable adversary handle for scenario specs: what
/// `ReceiverSpec::adversary` stores and receivers instantiate from. The
/// plan also carries the attacker's [`Placement`], so a scenario spec can
/// target the attack at a specific point of the topology.
#[derive(Debug)]
pub struct AttackPlan {
    strategy: Box<dyn Adversary>,
    placement: Placement,
}

impl AttackPlan {
    /// Wrap a strategy (attached at the default [`Placement::Auto`]).
    pub fn new(strategy: impl Adversary + 'static) -> AttackPlan {
        AttackPlan {
            strategy: Box::new(strategy),
            placement: Placement::Auto,
        }
    }

    /// The well-behaved receiver.
    pub fn honest() -> AttackPlan {
        AttackPlan::new(Honest)
    }

    /// The paper's §4.2 attacker from `at` on: grab every group, keep
    /// hammering raw joins, and guess ten keys per group per slot.
    pub fn inflate_at(at: SimTime) -> AttackPlan {
        AttackPlan::new(Timed::boxed(
            at,
            Box::new(All::of(vec![
                Box::new(InflateTo::all()),
                Box::new(KeyGuess { rate: 10 }),
            ])),
        ))
    }

    /// Target the plan at a specific attachment point.
    pub fn at(mut self, placement: Placement) -> AttackPlan {
        self.placement = placement;
        self
    }

    /// Where the receiver running this plan attaches.
    pub fn placement(&self) -> Placement {
        self.placement
    }

    /// The strategy's display label.
    pub fn label(&self) -> String {
        self.strategy.label()
    }

    /// A fresh strategy instance for one receiver agent.
    pub fn build(&self) -> Box<dyn Adversary> {
        self.strategy.clone_box()
    }
}

impl Clone for AttackPlan {
    fn clone(&self) -> Self {
        AttackPlan {
            strategy: self.strategy.clone_box(),
            placement: self.placement,
        }
    }
}

impl Default for AttackPlan {
    fn default() -> Self {
        AttackPlan::honest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_simcore::SimDuration;

    #[test]
    fn honest_plan_is_inert() {
        let mut a = AttackPlan::honest().build();
        let env = AttackEnv {
            now: SimTime::ZERO,
            slot: 0,
            n_groups: 10,
            level: 1,
            protected: true,
        };
        assert!(a.next_activation(SimTime::ZERO).is_none());
        assert!(a.on_activation(&env).is_empty());
        assert!(a.on_slot(&env).is_empty());
        assert!(!a.on_congestion_signal(&env));
    }

    #[test]
    fn plans_carry_their_placement() {
        let plan = AttackPlan::new(InflateTo::all());
        assert_eq!(plan.placement(), Placement::Auto);
        let placed = plan.at(Placement::Interior { depth: 1, leaf: 0 });
        assert_eq!(
            placed.placement(),
            Placement::Interior { depth: 1, leaf: 0 }
        );
        assert_eq!(
            placed.clone().placement(),
            Placement::Interior { depth: 1, leaf: 0 },
            "clones keep the target"
        );
        assert_eq!(
            AttackPlan::honest().placement(),
            Placement::Auto,
            "honest receivers tile the leaves"
        );
    }

    #[test]
    fn plans_clone_into_independent_instances() {
        let plan = AttackPlan::new(Timed::at(
            SimTime::from_secs(5),
            JoinLeaveFlap::new(SimDuration::from_secs(2)),
        ));
        let a = plan.build();
        let b = plan.clone().build();
        assert_eq!(a.label(), b.label());
        assert_eq!(
            a.next_activation(SimTime::ZERO),
            Some(SimTime::from_secs(5))
        );
        assert_eq!(
            b.next_activation(SimTime::ZERO),
            Some(SimTime::from_secs(5))
        );
    }
}
