//! Shared execution of [`AttackAction`]s for the protocol variants.
//!
//! Every receiver speaks the same SIGMA control plane, so the
//! out-of-protocol halves of an attack — guessed-key floods and
//! smuggled-key submissions — are shell senders. [`RogueState`] is the
//! whole [`AttackAction`] executor of the single-group (replicated /
//! threshold) policies, plus the bookkeeping needed to undo raw grabs on
//! [`AttackAction::LeaveHigh`]; the layered policy has its own executor
//! (its actions move the claimed level) and reuses only the senders.

use crate::receiver::{Policy, Receiver};
use mcc_attack::AttackAction;
use mcc_delta::Key;
use mcc_netsim::prelude::*;
use mcc_sigma::Subscription;

impl<P: Policy> Receiver<P> {
    /// Send a guessed-key subscription: `per_group` random keys for every
    /// group up to `layer`, for subscription slot `slot + 2` — "numerous
    /// random keys in a hope that one of these keys is correct" (paper
    /// §4.2), which is what trips the router's tally. Returns `false` (no
    /// packet) when the session has no router.
    pub(crate) fn send_guesses(
        &self,
        ctx: &mut Ctx,
        per_group: u32,
        layer: u32,
        slot: u64,
    ) -> bool {
        if !self.protected() {
            return false;
        }
        let mut pairs: Vec<(GroupAddr, Key)> = Vec::new();
        for g in 1..=layer.min(self.cfg.n()) {
            for _ in 0..per_group {
                pairs.push((self.addr(g), Key(ctx.rng().next_u64())));
            }
        }
        let sub = Subscription {
            slot: slot + 2,
            pairs,
        };
        self.send_subscription(ctx, sub);
        true
    }

    /// Map smuggled `(1-based group, key)` pairs onto addresses and send
    /// them as a subscription for `slot`. Returns whether a packet went
    /// out.
    pub(crate) fn send_smuggled(&self, ctx: &mut Ctx, slot: u64, pairs: &[(u32, Key)]) -> bool {
        let mapped: Vec<(GroupAddr, Key)> = pairs
            .iter()
            .filter(|&&(g, _)| (1..=self.cfg.n()).contains(&g))
            .map(|&(g, k)| (self.addr(g), k))
            .collect();
        if !self.protected() || mapped.is_empty() {
            return false;
        }
        let sub = Subscription {
            slot,
            pairs: mapped,
        };
        self.send_subscription(ctx, sub);
        true
    }
}

/// Out-of-protocol attack state of a single-group (replicated/threshold)
/// receiver: which groups were grabbed, and what the grabbing cost.
#[derive(Debug, Default)]
pub struct RogueState {
    /// Groups grabbed out-of-protocol (1-based), for `LeaveHigh` undo.
    raw_joined: Vec<u32>,
    /// Guessed-key subscriptions sent (attack mode).
    pub guess_subscriptions: u64,
    /// Subscriptions sent with keys smuggled from colluders.
    pub colluder_submissions: u64,
}

impl RogueState {
    /// Grab group `g` out of protocol, remembering it for `LeaveHigh`.
    fn raw_join<P: Policy>(&mut self, rx: &mut Receiver<P>, ctx: &mut Ctx, g: u32) {
        if !self.raw_joined.contains(&g) {
            self.raw_joined.push(g);
        }
        rx.join(ctx, g);
    }

    /// Execute adversary actions for the receiver `rx`, whose honest
    /// subscription is the single group `rx.level()`. `slot` is the
    /// protocol slot the actions refer to.
    pub(crate) fn apply<P: Policy>(
        &mut self,
        rx: &mut Receiver<P>,
        ctx: &mut Ctx,
        slot: u64,
        actions: Vec<AttackAction>,
    ) {
        let n = rx.cfg.n();
        for action in actions {
            match action {
                AttackAction::Inflate { layer } | AttackAction::RawJoins { layer } => {
                    // A replicated/threshold receiver is entitled to
                    // exactly one group; grabbing several *is* inflation.
                    for g in 1..=layer.min(n) {
                        self.raw_join(rx, ctx, g);
                    }
                }
                AttackAction::GuessKeys { per_group, layer } => {
                    if rx.send_guesses(ctx, per_group, layer, slot) {
                        self.guess_subscriptions += 1;
                    }
                }
                AttackAction::LeaveHigh => {
                    for g in std::mem::take(&mut self.raw_joined) {
                        if g != rx.level() {
                            rx.leave(ctx, g);
                        }
                    }
                }
                AttackAction::SubmitKeys { slot, pairs } => {
                    if !rx.protected() {
                        continue; // Smuggled keys mean nothing to plain IGMP.
                    }
                    // Join first so the graft is in flight before the
                    // subscription reaches the router.
                    for &(g, _) in &pairs {
                        if (1..=n).contains(&g) {
                            self.raw_join(rx, ctx, g);
                        }
                    }
                    if rx.send_smuggled(ctx, slot, &pairs) {
                        self.colluder_submissions += 1;
                    }
                }
            }
        }
    }
}
