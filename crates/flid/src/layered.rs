//! The cumulative layered policy: FLID-DL / FLID-DS (paper Figure 4).
//!
//! At the end of every slot `s` the receiver examines what it saw of
//! groups `1..=level`:
//!
//! * **FLID-DL** (no protection): any loss ⇒ drop the top group (one-slot
//!   deaf period avoids over-reacting to a single congestion episode, as
//!   in the FLID-DL design); a clean slot whose increase signal authorizes
//!   `level+1` ⇒ join it. Nothing stops a receiver from ignoring these
//!   rules — that is the vulnerability of Figure 1.
//! * **FLID-DS**: the same decisions, but expressed through DELTA key
//!   reconstruction ([`mcc_delta::decide_layered`]) and SIGMA subscription
//!   messages for slot `s+2`; the edge router enforces them, so ignoring
//!   the rules is useless (Figure 7).
//!
//! Misbehaviour is pluggable: the shell runs an [`mcc_attack::Adversary`]
//! strategy through its hooks and executes the resulting actions; this
//! policy executes the two that move the claimed level against the layered
//! structure (an inflated receiver *claims* the grabbed level, so
//! [`mcc_attack::AttackAction::Inflate`] and `LeaveHigh` move `level` and
//! the trace).

use crate::config::FlidConfig;
use crate::receiver::{Policy, Receiver, SlotWindow};
use mcc_attack::AttackPlan;
use mcc_delta::{decide_layered, DeltaFields, Eligibility, Key, SlotObservation};
use mcc_netsim::prelude::*;
use mcc_netsim::TraceEvent;
use mcc_sigma::Subscription;

/// State of the layered key rule.
#[derive(Clone, Debug)]
pub struct Layered {
    /// Current subscription level (number of groups).
    level: u32,
    /// Per group (index `g-1`): the slot during which it was joined;
    /// `None` when not subscribed. A group only takes part in decisions
    /// from its first *complete* slot onward.
    joined_slot: Vec<Option<u64>>,
    /// Per-slot DELTA/loss observations.
    obs: SlotWindow<SlotObservation>,
    /// Slots before this one skip the decrease decision (FLID-DL deaf
    /// period).
    deaf_until: u64,
    /// Set by `AttackAction::Inflate`: the receiver has grabbed groups
    /// beyond its entitlement and ignores the well-behaved control law.
    inflated: bool,
    /// Slots in which a congestion-marked packet arrived (ECN variant).
    marked_slots: SlotWindow<()>,
    /// `(time, level)` trace for the convergence figures.
    pub level_trace: Vec<(f64, u32)>,
}

/// A FLID-DL / FLID-DS receiver agent.
pub type FlidReceiver = Receiver<Layered>;

impl Receiver<Layered> {
    /// Build a receiver running `plan`'s adversary strategy
    /// ([`AttackPlan::honest`] for a well-behaved receiver). `router` is
    /// the SIGMA edge router for FLID-DS; `None` runs plain FLID-DL over
    /// classic IGMP.
    pub fn with_adversary(cfg: FlidConfig, router: Option<NodeId>, plan: AttackPlan) -> Self {
        let policy = Layered {
            level: 1,
            joined_slot: vec![None; cfg.n() as usize],
            obs: SlotWindow::default(),
            deaf_until: 0,
            inflated: false,
            marked_slots: SlotWindow::default(),
            level_trace: Vec::new(),
        };
        Receiver::build(cfg, router, plan, policy)
    }

    fn trace(&mut self, ctx: &mut Ctx) {
        let level = self.policy.level;
        let from = self.policy.level_trace.last().map_or(u32::MAX, |&(_, l)| l);
        self.policy
            .level_trace
            .push((ctx.now().as_secs_f64(), level));
        // Flight-recorder event only on an actual layer transition (the
        // local `level_trace` keeps every sample for the figures).
        if level != from && ctx.trace_on() {
            ctx.trace(TraceEvent::FlidLayer {
                agent: ctx.agent.0,
                from_layer: from,
                to_layer: level,
                slot: self.slot_of(ctx.now()),
            });
        }
    }

    fn join_level(&mut self, ctx: &mut Ctx, g: u32) {
        self.join(ctx, g);
        // `u64::MAX` = joined, awaiting the first packet; the real slot is
        // latched on arrival. Counting from the *join* time would treat the
        // graft-latency head of the first slot as loss.
        self.policy.joined_slot[(g - 1) as usize] = Some(u64::MAX);
    }

    fn leave_level(&mut self, ctx: &mut Ctx, g: u32) {
        self.leave(ctx, g);
        self.policy.joined_slot[(g - 1) as usize] = None;
    }

    /// Leave every group above `to` and claim level `to`.
    fn drop_to(&mut self, ctx: &mut Ctx, to: u32) {
        for g in (to + 1)..=self.policy.level {
            self.leave_level(ctx, g);
        }
        self.policy.level = to;
    }

    /// One-level decrease with the FLID-DL deaf period, unless vetoed.
    fn decrease_dl(&mut self, ctx: &mut Ctx, s: u64) {
        if self.decrease_vetoed(ctx.now(), s) {
            return;
        }
        if s >= self.policy.deaf_until && self.policy.level > 1 {
            self.drop_to(ctx, self.policy.level - 1);
            self.policy.deaf_until = s + 2;
            self.stats.decreases += 1;
            self.trace(ctx);
        }
    }

    /// The keys no longer reach the current level: step down to `to`,
    /// unless vetoed (without keys the router stops the traffic anyway).
    fn forced_decrease(&mut self, ctx: &mut Ctx, s: u64, to: u32) {
        if !self.decrease_vetoed(ctx.now(), s) {
            self.drop_to(ctx, to);
            self.stats.decreases += 1;
            self.trace(ctx);
        }
    }

    /// Fall back to the minimal group and ask for keyless re-admission.
    fn rejoin(&mut self, ctx: &mut Ctx) {
        self.stats.rejoins += 1;
        self.policy.level = 1;
        self.session_join(ctx);
        self.trace(ctx);
    }

    /// ECN congestion response, FLID-DS side: the marked packets'
    /// components were scrambled at the edge, so top keys are
    /// unreachable by construction; step down with the (intact) decrease
    /// keys read from the decrease fields.
    fn ecn_decrease_ds(&mut self, ctx: &mut Ctx, s: u64, obs: &SlotObservation, dlevel: u32) {
        let mut keys: Vec<(GroupAddr, Key)> = Vec::new();
        let mut level = 0;
        for j in 1..dlevel {
            match obs.groups[j as usize].decrease_field {
                Some(d) => {
                    keys.push((self.addr(j), d));
                    level = j;
                }
                None => break,
            }
        }
        if level == 0 {
            self.rejoin(ctx);
            return;
        }
        let sub = Subscription {
            slot: s + 2,
            pairs: keys,
        };
        self.subscribe(ctx, sub, true);
        if level < self.policy.level {
            self.forced_decrease(ctx, s, level);
        }
    }

    fn handle_slot_dl(&mut self, ctx: &mut Ctx, s: u64, obs: &SlotObservation, dlevel: u32) {
        let level = self.policy.level;
        if obs.complete_prefix(dlevel) < dlevel {
            self.decrease_dl(ctx, s);
        } else if level == dlevel && level < self.cfg.n() && obs.upgrades.authorized(level + 1) {
            self.upgrade(ctx, level + 1);
        }
    }

    /// Join the freshly authorized group `next` before its packets flow.
    fn upgrade(&mut self, ctx: &mut Ctx, next: u32) {
        self.join_level(ctx, next);
        self.policy.level = next;
        self.stats.increases += 1;
        self.trace(ctx);
    }

    fn handle_slot_ds(&mut self, ctx: &mut Ctx, s: u64, obs: &SlotObservation, dlevel: u32) {
        match decide_layered(obs, dlevel, self.cfg.n()) {
            Eligibility::Subscribe { level: lvl, keys } => {
                // Colluders publish reconstructed keys out-of-band here.
                let env = self.attack_env(ctx.now(), s);
                self.adversary.on_key_packet(&env, s + 2, &keys);
                // More than the keys reach is impossible by construction.
                let pairs: Vec<(GroupAddr, Key)> = keys
                    .into_iter()
                    .filter(|&(g, _)| g <= lvl)
                    .map(|(g, k)| (self.addr(g), k))
                    .collect();
                self.subscribe(ctx, Subscription { slot: s + 2, pairs }, true);
                if lvl < dlevel {
                    self.forced_decrease(ctx, s, lvl);
                } else if lvl == dlevel + 1 && self.policy.level == dlevel {
                    self.upgrade(ctx, lvl);
                }
                // lvl == dlevel with a pending newer group: nothing to do —
                // the grace period covers it until its first full slot.
            }
            Eligibility::Rejoin => {
                // Paper Fig. 4: a congested minimal-level receiver has no
                // key to stay ("n ← null"); SIGMA's session-join is its
                // continuous keyless path back into the minimal group
                // (§3.2.2). Groups above the minimal one are abandoned.
                let left = (2..=self.policy.level).map(|g| self.addr(g)).collect();
                self.drop_to(ctx, 1);
                self.unsubscribe(ctx, left);
                self.rejoin(ctx);
            }
        }
    }
}

impl Policy for Layered {
    /// The slot's observation, whether it was ECN-marked, its decision level.
    type Closed = (SlotObservation, bool, u32);

    fn observe(&mut self, fields: &DeltaFields, marked: bool) -> bool {
        let slot = fields.slot;
        if marked {
            self.marked_slots.entry(slot, || ());
        }
        if let Some(j) = self.joined_slot.get_mut((fields.group - 1) as usize) {
            if *j == Some(u64::MAX) {
                // First packet after a join: decisions start with the
                // next (first complete) slot.
                *j = Some(slot);
            }
        }
        let n = self.joined_slot.len() as u32;
        self.obs
            .entry(slot, || SlotObservation::new(slot, n))
            .observe(fields);
        true
    }

    fn level(&self) -> u32 {
        self.level
    }

    fn started(rx: &mut FlidReceiver, ctx: &mut Ctx) {
        rx.policy.joined_slot[0] = Some(u64::MAX);
        rx.trace(ctx);
    }

    /// The decision level counts the groups subscribed for the whole of
    /// slot `s`; at level 0 the slot is not judged.
    fn close(&mut self, s: u64) -> Option<Self::Closed> {
        let n = self.joined_slot.len() as u32;
        let obs = self
            .obs
            .close(s)
            .unwrap_or_else(|| SlotObservation::new(s, n));
        let marked = self.marked_slots.close(s).is_some();
        let joined = &self.joined_slot[..self.level as usize];
        let dlevel = joined
            .iter()
            .take_while(|j| j.is_some_and(|j| j < s))
            .count() as u32;
        (dlevel > 0).then_some((obs, marked, dlevel))
    }

    fn judge(rx: &mut FlidReceiver, ctx: &mut Ctx, s: u64, (obs, marked, dlevel): Self::Closed) {
        match (rx.protected(), rx.policy.inflated) {
            // FLID-DL attacker: joined everything, ignores all signals.
            (false, true) => {}
            (false, false) if marked => rx.decrease_dl(ctx, s),
            (false, false) => rx.handle_slot_dl(ctx, s, &obs, dlevel),
            (true, false) if marked => rx.ecn_decrease_ds(ctx, s, &obs, dlevel),
            // FLID-DS attacker: the rational strategy is to keep the
            // honest machinery running (that is all the bandwidth its
            // keys can open — the paper's F1 stays at its fair share)
            // while stacking inflation attempts on top.
            (true, _) => rx.handle_slot_ds(ctx, s, &obs, dlevel),
        }
    }

    /// Grab `1..=layer` and *claim* it: the receiver stops following the
    /// control law. Inflation never lowers the claim — a layer below the
    /// honest level would strand already-joined groups.
    fn inflate(rx: &mut FlidReceiver, ctx: &mut Ctx, slot: u64, layer: u32) {
        rx.policy.inflated = true;
        let to = layer.min(rx.cfg.n()).max(rx.policy.level);
        for g in 1..=to {
            rx.join(ctx, g);
            rx.policy.joined_slot[(g - 1) as usize].get_or_insert(slot);
        }
        rx.policy.level = to;
        rx.trace(ctx);
    }

    /// Drop back to the minimal group and resume the control law.
    fn leave_high(rx: &mut FlidReceiver, ctx: &mut Ctx) {
        rx.drop_to(ctx, 1);
        rx.policy.inflated = false;
        rx.trace(ctx);
    }

    /// One unsubscription covers every group the shell just left.
    fn wind_down(rx: &mut FlidReceiver, ctx: &mut Ctx, left: Vec<GroupAddr>) {
        rx.policy.joined_slot.fill(None);
        rx.unsubscribe(ctx, left);
        rx.policy.level = 0;
        rx.trace(ctx);
    }
}
