//! The receiver shell: one lifecycle, one SIGMA control plane and one
//! attack executor under every subscription policy.
//!
//! The paper's §3.1.2 point is that DELTA changes only the *key rule* per
//! session structure (cumulative layers, replicated groups, loss
//! thresholds) while SIGMA's control plane is protocol-independent.
//! [`Receiver<P>`] is that independent part, written once:
//!
//! * **lifecycle** — session join at start, the end-of-slot `PROCESS`
//!   chain (fired one control round-trip short of the `s+2` boundary,
//!   paper Figure 2), the optional `DEPART` instant after which the
//!   receiver is inert,
//! * **membership ledger** — every join and leave (honest, raw, smuggled)
//!   goes through `Receiver::join` / `Receiver::leave`, so departure
//!   leaves exactly what was joined,
//! * **SIGMA control senders** — session-join, subscription (optionally
//!   retransmitted until acked) and unsubscription,
//! * **attack dispatch** — the [`mcc_attack::Adversary`] hooks: activation
//!   timers, per-slot actions (once per judged slot), congestion vetoes,
//! * **attack execution** — every [`AttackAction`] that does not touch the
//!   claimed level: guessed-key floods, smuggled-key submissions and raw
//!   joins, counted into [`ReceiverStats`],
//! * **the claimed level** — the group count under the layered policy,
//!   the one group under a single-group policy — and its `(t, level)`
//!   record [`Receiver::level_trace`], both written only by
//!   `Receiver::set_level`: level 1 at start, level 0 at departure, every
//!   move of a policy in between,
//! * **trace events** — `Join`, `Leave`, and `FlidLayer` on every real
//!   level transition, whatever the policy.
//!
//! A [`Policy`] — `crate::layered::Layered` or
//! `crate::replicated::SingleGroup` — supplies only what differs: how a
//! data packet is observed, whether and how a closed slot is judged, how
//! [`AttackAction::Inflate`] and [`AttackAction::LeaveHigh`] move the
//! claimed level, and what to tell the router on departure. Dispatch is
//! static (`Receiver<P>` is monomorphised per policy): `observe` runs once
//! per delivered data packet, 2,000 receivers wide in the fan-out workload.

use crate::config::FlidConfig;
use mcc_attack::{Adversary, AttackAction, AttackEnv, AttackPlan};
use mcc_delta::{DeltaFields, Key, KEY_LEAD};
use mcc_netsim::prelude::*;
use mcc_netsim::TraceEvent;
use mcc_sigma::{ProtectedData, SessionJoin, Subscription, SubscriptionAck, Unsubscription};
use mcc_simcore::{SimDuration, SimTime};

const PROCESS: u64 = 0;
const RETX: u64 = 1;
const ATTACK: u64 = 2;
const DEPART: u64 = 3;

/// How long an unacked subscription waits before it is sent again.
const RETX_AFTER: SimDuration = SimDuration::from_millis(60);

/// Counters for tests and experiment reports. The shell counts the
/// control plane (`subscriptions`, `retransmissions`, `acks`) and the
/// attack traffic (`guess_subscriptions`, `colluder_submissions`); the
/// rest count the policies' decisions (only the layered policy counts
/// `decreases` and `increases`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReceiverStats {
    /// Level decreases taken.
    pub decreases: u64,
    /// Level increases taken.
    pub increases: u64,
    /// Session rejoins after falling out entirely.
    pub rejoins: u64,
    /// Subscription messages sent (excluding retransmissions).
    pub subscriptions: u64,
    /// Subscription retransmissions.
    pub retransmissions: u64,
    /// Acks received.
    pub acks: u64,
    /// Guessing-attack subscriptions sent (attack mode).
    pub guess_subscriptions: u64,
    /// Subscriptions sent with keys smuggled from colluders.
    pub colluder_submissions: u64,
}

/// The subscription rule of one session structure — everything a
/// receiver does that is *not* lifecycle, claimed level, control plane or
/// attack dispatch.
///
/// The state-only half (`observe`, `close`) takes `&mut self` and reads
/// the shell's claimed `level`; the rules that act on the world take the
/// whole [`Receiver`] so they can reach the shell's ledger and senders,
/// and move the level through `Receiver::set_level`, while updating
/// `rx.policy`.
pub trait Policy: Sized + Send + 'static {
    /// What a closed slot is judged on.
    type Closed;

    /// Record one data packet of the session (`marked`: it carried an ECN
    /// congestion mark) at claimed level `level`; `false` when it is not
    /// part of the subscription (stale traffic of a group just left). The
    /// per-packet path: no shell access, no `Ctx`.
    fn observe(&mut self, fields: &DeltaFields, marked: bool, level: u32) -> bool;

    /// Slot `slot` has closed (and the session has delivered) at claimed
    /// level `level`: drop its state, returning what it is judged on —
    /// `None` when no group was subscribed for the whole slot.
    fn close(&mut self, slot: u64, level: u32) -> Option<Self::Closed>;

    /// Judge closed slot `slot`: subscribe for `slot + 2` and move between
    /// groups. The adversary's per-slot hook runs just before.
    fn judge(rx: &mut Receiver<Self>, ctx: &mut Ctx, slot: u64, closed: Self::Closed);

    /// Execute [`AttackAction::Inflate`] for protocol slot `slot`. The
    /// default is the single-group reading: a receiver entitled to exactly
    /// one group grabs `1..=layer` raw — grabbing several *is* inflation.
    fn inflate(rx: &mut Receiver<Self>, ctx: &mut Ctx, _slot: u64, layer: u32) {
        rx.raw_joins(ctx, layer);
    }

    /// Execute [`AttackAction::LeaveHigh`]. The default undoes the raw
    /// grabs, keeping the honest group.
    fn leave_high(rx: &mut Receiver<Self>, ctx: &mut Ctx) {
        for g in std::mem::take(&mut rx.raw_joined) {
            if g != rx.level() {
                rx.leave(ctx, g);
            }
        }
    }

    /// The shell has left every group in the ledger (`left`, in group
    /// order): reset the policy's state and unsubscribe what the router
    /// should forget. The default tells the router nothing: its grant
    /// for the group simply expires.
    fn wind_down(_rx: &mut Receiver<Self>, _ctx: &mut Ctx, _left: Vec<GroupAddr>) {}
}

/// A policy's per-slot state over the open slots — at most the `s..=s+2`
/// pipeline — kept sorted by slot in a small vector: on the per-packet
/// path a scan of three entries beats hashing.
#[derive(Clone, Debug)]
pub(crate) struct SlotWindow<T>(Vec<(u64, T)>);

impl<T> Default for SlotWindow<T> {
    fn default() -> Self {
        SlotWindow(Vec::new())
    }
}

impl<T> SlotWindow<T> {
    /// Slot `slot`'s entry, created by `init` if absent.
    pub(crate) fn entry(&mut self, slot: u64, init: impl FnOnce() -> T) -> &mut T {
        let i = self.0.partition_point(|&(k, _)| k < slot);
        if self.0.get(i).is_none_or(|&(k, _)| k != slot) {
            self.0.insert(i, (slot, init()));
        }
        &mut self.0[i].1
    }

    /// Close slot `slot`: drop it and every older entry, returning its own.
    pub(crate) fn close(&mut self, slot: u64) -> Option<T> {
        let end = self.0.partition_point(|&(k, _)| k <= slot);
        let last = self.0.drain(..end).last()?;
        (last.0 == slot).then_some(last.1)
    }
}

/// A multicast receiver agent: the shell around a subscription
/// [`Policy`]. The three instantiations are [`crate::FlidReceiver`],
/// [`crate::ReplicatedReceiver`] and [`crate::ThresholdReceiver`]; every
/// one reads back through [`Receiver::level`], [`Receiver::level_trace`]
/// and [`Receiver::stats`].
#[derive(Debug)]
pub struct Receiver<P> {
    /// Session configuration (must match the sender's).
    pub(crate) cfg: FlidConfig,
    /// Counters.
    pub stats: ReceiverStats,
    /// The claimed level: the number of groups (layered) or the one group
    /// (single-group policies); 0 once departed.
    level: u32,
    /// `(time, level)` at start, at departure and at every level decision
    /// (a layered decision that keeps the level still records a sample),
    /// for the convergence figures.
    pub level_trace: Vec<(f64, u32)>,
    /// The SIGMA edge router; `None` runs over classic IGMP.
    router: Option<NodeId>,
    pub(crate) adversary: Box<dyn Adversary>,
    /// Delay after a slot boundary before the slot is evaluated.
    guard: SimDuration,
    /// When this receiver leaves the session for good ([`SimTime::MAX`]
    /// for the static-membership default — no timer is ever scheduled).
    leave_at: SimTime,
    /// Departure has executed: all groups left, every timer chain dead.
    /// The receiver is inert from here on.
    departed: bool,
    /// The membership ledger: per group index, whether this receiver has
    /// the group joined — what departure leaves.
    desired: Vec<bool>,
    /// Groups joined out of protocol (raw or smuggled), in first-join
    /// order, for [`Policy::leave_high`] to undo.
    raw_joined: Vec<u32>,
    /// Outstanding (unacked) subscription, with retry count.
    pending: Option<(Subscription, u32)>,
    /// A data packet of the subscription has arrived; until then the
    /// session-join is re-sent every fourth slot.
    ever_received: bool,
    pub(crate) policy: P,
}

impl<P: Policy> Receiver<P> {
    /// A receiver for `cfg` behind `router` running `plan`'s adversary
    /// strategy under `policy`.
    pub(crate) fn build(
        cfg: FlidConfig,
        router: Option<NodeId>,
        plan: AttackPlan,
        policy: P,
    ) -> Self {
        // Paper Figure 2: slot s+1 exists to give receivers time to
        // reconstruct keys and submit them before slot s+2 traffic arrives.
        // Evaluating slot s as late as possible — one control round-trip
        // short of the s+2 boundary — tolerates queueing delay on slot-s
        // tails without misreading them as losses, while the subscription
        // still reaches the router in time.
        let guard = cfg.slot - SimDuration::from_millis(30);
        let n = cfg.n() as usize;
        Receiver {
            cfg,
            stats: ReceiverStats::default(),
            level: 1,
            level_trace: Vec::new(),
            router,
            adversary: plan.build(),
            guard,
            leave_at: SimTime::MAX,
            departed: false,
            desired: vec![false; n],
            raw_joined: Vec::new(),
            pending: None,
            ever_received: false,
            policy,
        }
    }

    /// Schedule the receiver's permanent departure: at `at` it leaves all
    /// groups, unsubscribes, and goes silent. [`SimTime::MAX`] (the
    /// default) means "member forever" — no timer is scheduled and the
    /// receiver runs the exact pre-churn code path.
    pub fn set_leave_at(&mut self, at: SimTime) {
        self.leave_at = at;
    }

    /// Has the receiver permanently left the session?
    #[cfg(test)]
    pub(crate) fn departed(&self) -> bool {
        self.departed
    }

    /// The current subscription level (single-group policies: the group).
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Claim level `to`: the one writer of the level and its record. Every
    /// call samples `level_trace`; a `FlidLayer` event marks only a real
    /// transition (the first from `u32::MAX`).
    pub(crate) fn set_level(&mut self, ctx: &mut Ctx, to: u32) {
        let from = self.level_trace.last().map_or(u32::MAX, |&(_, l)| l);
        self.level = to;
        self.level_trace.push((ctx.now().as_secs_f64(), to));
        if to != from && ctx.trace_on() {
            ctx.trace(TraceEvent::FlidLayer {
                agent: ctx.agent.0,
                from_layer: from,
                to_layer: to,
                slot: self.slot_of(ctx.now()),
            });
        }
    }

    /// Tell the receiver how far (one-way) it sits from its edge router.
    ///
    /// The end-of-slot evaluation is scheduled as late as possible while
    /// still letting the subscription *arrive* before slot `s+2` traffic
    /// does (paper Figure 2). A receiver on a long access link must
    /// therefore evaluate earlier; the paper's heterogeneous-RTT
    /// experiment (Figure 8f) exercises exactly this.
    pub fn set_control_delay(&mut self, delay: SimDuration) {
        let margin = delay + SimDuration::from_millis(20);
        let floor = SimDuration::from_millis(30);
        self.guard = if self.cfg.slot > margin + floor {
            self.cfg.slot - margin
        } else {
            floor
        };
    }

    /// Whether the session runs under SIGMA protection.
    pub(crate) fn protected(&self) -> bool {
        self.router.is_some()
    }

    pub(crate) fn slot_of(&self, t: SimTime) -> u64 {
        t.as_nanos() / self.cfg.slot.as_nanos()
    }

    pub(crate) fn addr(&self, g: u32) -> GroupAddr {
        self.cfg.groups[(g - 1) as usize]
    }

    // -- membership ledger --------------------------------------------------

    /// Group-membership chokepoint: every join goes through here.
    pub(crate) fn join(&mut self, ctx: &mut Ctx, g: u32) {
        self.desired[(g - 1) as usize] = true;
        ctx.join_group(self.addr(g));
    }

    pub(crate) fn leave(&mut self, ctx: &mut Ctx, g: u32) {
        self.desired[(g - 1) as usize] = false;
        ctx.leave_group(self.addr(g));
    }

    // -- SIGMA control senders ----------------------------------------------

    /// Send one control message to the edge router (dropped on the floor
    /// without one: plain IGMP has no control plane).
    fn send_control(&self, ctx: &mut Ctx, size_bits: u64, body: impl AppBody + 'static) {
        if let Some(router) = self.router {
            ctx.send(Packet::app(
                size_bits,
                self.cfg.flow,
                ctx.agent,
                Dest::Router(router),
                body,
            ));
        }
    }

    pub(crate) fn session_join(&self, ctx: &mut Ctx) {
        let join = SessionJoin {
            minimal_group: self.cfg.groups[0],
            control_group: self.cfg.control_group,
        };
        self.send_control(ctx, join.size_bits(), join);
    }

    /// Tell the router to forget `groups` (nothing to forget: no packet).
    pub(crate) fn unsubscribe(&self, ctx: &mut Ctx, groups: Vec<GroupAddr>) {
        if !groups.is_empty() {
            let unsub = Unsubscription { groups };
            self.send_control(ctx, unsub.size_bits(), unsub);
        }
    }

    /// The one place a subscription packet is built: protocol
    /// subscriptions, their retransmissions and the attack library's
    /// guessed / smuggled ones all leave through here.
    pub(crate) fn send_subscription(&self, ctx: &mut Ctx, sub: Subscription) {
        self.send_control(ctx, sub.size_bits(), sub);
    }

    /// Submit the protocol's own subscription. With `reliable` it stays
    /// pending and is retransmitted until the router acks its slot.
    pub(crate) fn subscribe(&mut self, ctx: &mut Ctx, sub: Subscription, reliable: bool) {
        if !self.protected() {
            return;
        }
        self.stats.subscriptions += 1;
        if reliable {
            self.pending = Some((sub, 0));
            self.send_pending(ctx);
        } else {
            self.send_subscription(ctx, sub);
        }
    }

    /// (Re)send the pending subscription and arm its retransmit timer.
    fn send_pending(&mut self, ctx: &mut Ctx) {
        if let Some((sub, _)) = &self.pending {
            self.send_subscription(ctx, sub.clone());
            ctx.timer_in(RETX_AFTER, RETX);
        }
    }

    // -- attack dispatch ----------------------------------------------------

    /// The world snapshot handed to every adversary hook.
    pub(crate) fn attack_env(&self, now: SimTime, slot: u64) -> AttackEnv {
        AttackEnv {
            now,
            slot,
            n_groups: self.cfg.n(),
            level: self.level,
            protected: self.protected(),
        }
    }

    /// Does the adversary veto the decrease about to happen for slot `s`?
    pub(crate) fn decrease_vetoed(&mut self, now: SimTime, s: u64) -> bool {
        let env = self.attack_env(now, s);
        self.adversary.on_congestion_signal(&env)
    }

    /// Fire the adversary's activation hook for the current instant and
    /// arm the timer for its next one.
    fn activate(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        let slot = self.slot_of(now);
        let env = self.attack_env(now, slot);
        let actions = self.adversary.on_activation(&env);
        self.execute(ctx, slot, actions);
        if let Some(at) = self.adversary.next_activation(now) {
            ctx.timer_at(at, ATTACK);
        }
    }

    // -- attack execution ---------------------------------------------------

    /// Execute adversary actions. `slot` is the protocol slot they refer
    /// to (the judged slot for per-slot actions, the current slot for
    /// activations). The two that move the claimed level go to the policy.
    fn execute(&mut self, ctx: &mut Ctx, slot: u64, actions: Vec<AttackAction>) {
        let n = self.cfg.n();
        for action in actions {
            match action {
                AttackAction::Inflate { layer } => P::inflate(self, ctx, slot, layer),
                AttackAction::LeaveHigh => P::leave_high(self, ctx),
                AttackAction::RawJoins { layer } => self.raw_joins(ctx, layer),
                // Keys mean nothing to plain IGMP.
                AttackAction::GuessKeys { .. } | AttackAction::SubmitKeys { .. }
                    if !self.protected() => {}
                // "Numerous random keys in a hope that one of these keys is
                // correct" (paper §4.2), for subscription slot `slot + 2`:
                // what trips the router's tally.
                AttackAction::GuessKeys { per_group, layer } => {
                    let mut pairs = Vec::new();
                    for g in 1..=layer.min(n) {
                        for _ in 0..per_group {
                            pairs.push((self.addr(g), Key(ctx.rng().next_u64())));
                        }
                    }
                    let slot = slot + KEY_LEAD;
                    self.send_subscription(ctx, Subscription { slot, pairs });
                    self.stats.guess_subscriptions += 1;
                }
                AttackAction::SubmitKeys { slot, mut pairs } => {
                    pairs.retain(|&(g, _)| (1..=n).contains(&g));
                    if pairs.is_empty() {
                        continue;
                    }
                    // Join first so the graft is in flight before the
                    // subscription reaches the router.
                    for &(g, _) in &pairs {
                        self.raw_join(ctx, g);
                    }
                    let pairs = pairs.iter().map(|&(g, k)| (self.addr(g), k)).collect();
                    self.send_subscription(ctx, Subscription { slot, pairs });
                    self.stats.colluder_submissions += 1;
                }
            }
        }
    }

    /// Join group `g` out of protocol, remembering it for `LeaveHigh`.
    fn raw_join(&mut self, ctx: &mut Ctx, g: u32) {
        if !self.raw_joined.contains(&g) {
            self.raw_joined.push(g);
        }
        self.join(ctx, g);
    }

    /// Raw IGMP joins of groups `1..=layer` (ignored by SIGMA).
    pub(crate) fn raw_joins(&mut self, ctx: &mut Ctx, layer: u32) {
        for g in 1..=layer.min(self.cfg.n()) {
            self.raw_join(ctx, g);
        }
    }

    /// Execute the permanent departure: leave every group in the ledger,
    /// let the policy unsubscribe, and go silent.
    fn depart(&mut self, ctx: &mut Ctx) {
        self.departed = true;
        let mut left: Vec<GroupAddr> = Vec::new();
        for gi in 0..self.desired.len() {
            if self.desired[gi] {
                let g = gi as u32 + 1;
                left.push(self.addr(g));
                self.leave(ctx, g);
            }
        }
        self.pending = None;
        P::wind_down(self, ctx, left);
        self.set_level(ctx, 0);
        if ctx.trace_on() {
            ctx.trace(TraceEvent::Leave {
                agent: ctx.agent.0,
                group: self.cfg.groups[0].0,
            });
        }
    }
}

impl<P: Policy> Agent for Receiver<P> {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.join(ctx, 1);
        self.session_join(ctx);
        self.set_level(ctx, 1);
        if ctx.trace_on() {
            ctx.trace(TraceEvent::Join {
                agent: ctx.agent.0,
                group: self.cfg.groups[0].0,
            });
        }
        if self.leave_at < SimTime::MAX {
            ctx.timer_at(self.leave_at.max(ctx.now()), DEPART);
        }
        // First slot evaluation: next boundary + guard.
        let s = self.slot_of(ctx.now());
        let next = SimTime::from_nanos((s + 1) * self.cfg.slot.as_nanos()) + self.guard;
        ctx.timer_at(next, PROCESS);
        // Adversary: immediately-active strategies fire now; scheduled
        // ones get their activation timer.
        self.activate(ctx);
    }

    fn on_packet(&mut self, _ctx: &mut Ctx, pkt: Packet) {
        if self.departed {
            // In-flight packets racing the departure are dropped on the
            // floor; the receiver is no longer part of the session.
            return;
        }
        if let Some(fields) = ProtectedData::read(&pkt) {
            // A marked packet is an ECN congestion signal (paper §3.1.2):
            // the edge router has already scrambled its component.
            let marked = pkt.ecn == Ecn::Marked;
            self.ever_received |= self.policy.observe(&fields, marked, self.level);
        } else if let Some(ack) = pkt.body_as::<SubscriptionAck>() {
            if self
                .pending
                .as_ref()
                .is_some_and(|(sub, _)| sub.slot == ack.slot)
            {
                self.pending = None;
            }
            self.stats.acks += 1;
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        if self.departed {
            // Every timer chain dies here; nothing is rescheduled.
            return;
        }
        match token {
            DEPART => self.depart(ctx),
            PROCESS => {
                let now = ctx.now();
                // This fires at (s+1)·slot + guard for slot s.
                let s = self.slot_of(now - self.guard).saturating_sub(1);
                ctx.timer_at(now + self.cfg.slot, PROCESS);
                if self.ever_received {
                    let Some(closed) = self.policy.close(s, self.level) else {
                        return;
                    };
                    let env = self.attack_env(now, s);
                    let actions = self.adversary.on_slot(&env);
                    P::judge(self, ctx, s, closed);
                    self.execute(ctx, s, actions);
                } else if s % 4 == 3 {
                    // Watchdog: a lost session-join (or an expired keyless
                    // grace) would otherwise leave the receiver waiting
                    // forever.
                    self.session_join(ctx);
                }
            }
            RETX => match &mut self.pending {
                Some((_, tries)) if *tries < 3 => {
                    *tries += 1;
                    self.stats.retransmissions += 1;
                    self.send_pending(ctx);
                }
                // Acked meanwhile, or out of tries: give up on this slot.
                _ => self.pending = None,
            },
            ATTACK => self.activate(ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::layered::Layered;
    use crate::testrig::{session, Rig};
    use crate::{
        FlidReceiver, FlidSender, ReplicatedReceiver, ReplicatedSender, ThresholdReceiver,
        ThresholdSender,
    };
    use mcc_attack::{InflateTo, Timed};
    use mcc_delta::UpgradeMask;
    use mcc_traffic::{CbrConfig, CbrSource, CountingSink};
    use std::fmt::Debug;
    use std::sync::{Arc, Mutex};

    const POKE: u64 = 1 << 40;

    /// Hosts a receiver and, at `poke_at`, hands it every timer and a data
    /// packet directly — what a departed receiver must ignore.
    #[derive(Debug)]
    struct Probe<P> {
        rx: Receiver<P>,
        poke_at: SimTime,
        /// Receiver timers that fired after the poke: a chain it re-armed.
        late_timers: u32,
        /// Slots the policy could judge when their PROCESS timer fired.
        judged: Vec<u64>,
        /// Slots the policy declined although the session had delivered.
        declined: u32,
        /// `(level, ledger)` after each PROCESS while still a member.
        ledgers: Vec<(u32, Vec<bool>)>,
    }

    impl<P: Policy + Clone> Probe<P> {
        /// Ask a copy of the policy whether the PROCESS timer firing now
        /// will judge its slot.
        fn predict(&mut self, now: SimTime) {
            if self.rx.departed || !self.rx.ever_received {
                return;
            }
            let s = self.rx.slot_of(now - self.rx.guard).saturating_sub(1);
            match self.rx.policy.clone().close(s, self.rx.level) {
                Some(_) => self.judged.push(s),
                None => self.declined += 1,
            }
        }
    }

    impl<P: Policy + Clone + Debug> Agent for Probe<P> {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.timer_at(self.poke_at, POKE);
            self.rx.on_start(ctx);
        }
        fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
            self.rx.on_packet(ctx, pkt);
        }
        fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
            if token != POKE {
                self.late_timers += u32::from(ctx.now() > self.poke_at);
                if token == PROCESS {
                    self.predict(ctx.now());
                }
                self.rx.on_timer(ctx, token);
                if token == PROCESS && !self.rx.departed {
                    let ledger = (self.rx.level(), self.rx.desired.clone());
                    self.ledgers.push(ledger);
                }
                return;
            }
            for t in [PROCESS, ATTACK, RETX] {
                self.rx.on_timer(ctx, t);
            }
            let fields = DeltaFields {
                slot: self.rx.slot_of(ctx.now()),
                group: 1,
                seq_in_slot: 0,
                last_in_slot: true,
                count_in_slot: 1,
                component: Key(7),
                decrease: None,
                upgrades: UpgradeMask::NONE,
            };
            let cfg = &self.rx.cfg;
            let data = ProtectedData::new(fields);
            let pkt = Packet::app(
                cfg.packet_bits,
                cfg.flow,
                ctx.agent,
                Dest::Agent(ctx.agent),
                data,
            );
            self.rx.on_packet(ctx, pkt);
        }
    }

    /// What a test reads back from the probe.
    struct View {
        departed: bool,
        /// The claimed level and the last `level_trace` sample.
        level: (u32, Option<u32>),
        late_timers: u32,
        /// The receiver's whole state, `Debug`-rendered.
        state: String,
        judged: Vec<u64>,
        declined: u32,
    }

    struct Case {
        name: &'static str,
        rig: Rig,
        probe: AgentId,
        view: fn(&Sim, AgentId) -> View,
    }

    impl Case {
        fn run_until(&mut self, secs: u64) -> View {
            self.rig.sim.run_until(SimTime::from_secs(secs));
            (self.view)(&self.rig.sim, self.probe)
        }
    }

    fn view<P: Policy + Clone + Debug>(sim: &Sim, id: AgentId) -> View {
        let p = sim.agent_as::<Probe<P>>(id).expect("the probe");
        View {
            departed: p.rx.departed(),
            level: (p.rx.level(), p.rx.level_trace.last().map(|&(_, l)| l)),
            late_timers: p.late_timers,
            state: format!("{:?}", p.rx),
            judged: p.judged.clone(),
            declined: p.declined,
        }
    }

    /// A 500 kbps session with one probed receiver (leaving at `leave_at`,
    /// poked at `poke_at`) and its sender, finalized at t = 0.
    fn case<P: Policy + Clone + Debug, S: Agent>(
        name: &'static str,
        (protected, leave_at, poke_at): (bool, u64, u64),
        receiver: impl FnOnce(FlidConfig, Option<NodeId>) -> Receiver<P>,
        sender: impl FnOnce(FlidConfig) -> S,
    ) -> Case {
        let cfg = session(6, 1, protected);
        let mut rig = Rig::new(41, 500_000, cfg.clone());
        let mut rx = receiver(cfg.clone(), rig.router());
        rx.set_leave_at(SimTime::from_secs(leave_at));
        let probe = rig.receiver(Probe {
            rx,
            poke_at: SimTime::from_secs(poke_at),
            late_timers: 0,
            judged: Vec::new(),
            declined: 0,
            ledgers: Vec::new(),
        });
        rig.run(sender(cfg), 0);
        Case {
            name,
            rig,
            probe,
            view: view::<P>,
        }
    }

    /// One case per receiver instantiation, each running `plan` under
    /// `(protected, leave_at, poke_at)`.
    fn instantiations(setup: (bool, u64, u64), plan: &AttackPlan) -> [Case; 3] {
        [
            case(
                "layered",
                setup,
                |cfg, router| FlidReceiver::with_adversary(cfg, router, plan.clone()),
                FlidSender::new,
            ),
            case(
                "replicated",
                setup,
                |cfg, router| ReplicatedReceiver::with_adversary(cfg, router, plan.clone()),
                ReplicatedSender::new,
            ),
            case(
                "threshold",
                setup,
                |cfg, router| ThresholdReceiver::with_adversary(cfg, router, plan.clone()),
                ThresholdSender::new,
            ),
        ]
    }

    /// Departure leaves every group the agent joined — honest, raw or
    /// smuggled — so nothing keeps flowing to a receiver that has left,
    /// and the receiver reports, and records last, level 0.
    #[test]
    fn departure_leaves_every_joined_group() {
        let inflate = AttackPlan::new(Timed::at(SimTime::from_secs(5), InflateTo::all()));
        for mut c in instantiations((false, 10, 30), &inflate) {
            let name = c.name;
            let view = c.run_until(20);
            assert!(view.departed, "{name}: departed");
            assert_eq!(view.level, (0, Some(0)), "{name}: (level, last sample)");
            let world = &c.rig.sim.world;
            let host = world.agent_nodes[c.probe.index()];
            for g in &c.rig.cfg.groups {
                let on_tree = world.group_entry(host, *g).is_some_and(|e| e.on_tree());
                assert!(!on_tree, "{name}: host still holds {g:?} after leaving");
            }
            let bps = c.rig.goodput_bps(c.probe, 12, 20);
            assert_eq!(bps, 0.0, "{name}: delivered after departure");
        }
    }

    /// After `leave_at` the receiver is inert: timers and data packets
    /// change nothing (level, traces, counters, ledger) and re-arm nothing.
    #[test]
    fn a_departed_receiver_ignores_timers_and_packets() {
        for mut c in instantiations((true, 6, 9), &AttackPlan::honest()) {
            let name = c.name;
            assert!(!c.run_until(5).departed, "{name}: still a member at 5 s");
            let before = c.run_until(8);
            assert!(before.departed, "{name}: departed after leave_at");
            let after = c.run_until(12);
            assert_eq!(before.state, after.state, "{name}: state moved");
            assert_eq!(after.late_timers, 0, "{name}: a timer chain survived");
        }
    }

    /// Logs every slot the shell hands the per-slot hook.
    #[derive(Clone, Debug, Default)]
    struct SlotLog(Arc<Mutex<Vec<u64>>>);

    impl Adversary for SlotLog {
        fn label(&self) -> String {
            "slot_log".into()
        }
        fn clone_box(&self) -> Box<dyn Adversary> {
            Box::new(self.clone())
        }
        fn on_slot(&mut self, env: &AttackEnv) -> Vec<AttackAction> {
            self.0.lock().expect("unpoisoned").push(env.slot);
            Vec::new()
        }
    }

    /// The shell runs the per-slot hook exactly once for every slot its
    /// policy judges, and never for a slot the policy declines: the
    /// layered policy's decision level 0, the single-group join-slot guard.
    #[test]
    fn the_per_slot_hook_runs_once_per_judged_slot() {
        let log = SlotLog::default();
        for mut c in instantiations((true, 60, 60), &AttackPlan::new(log.clone())) {
            let name = c.name;
            let view = c.run_until(20);
            let hooked = std::mem::take(&mut *log.0.lock().expect("unpoisoned"));
            assert!(view.judged.len() > 20, "{name}: judged {:?}", view.judged);
            assert!(view.declined > 0, "{name}: no slot was declined");
            assert_eq!(hooked, view.judged, "{name}: hooked vs judged slots");
        }
    }

    /// A burst over a RED bottleneck drives ECN FLID-DS receivers through
    /// the marked-slot rejoin, from levels above the minimal one. After
    /// every PROCESS an honest receiver's ledger holds exactly groups
    /// `1..=level`: a rejoin leaves what it no longer claims.
    #[test]
    fn an_ecn_rejoin_leaves_the_groups_above_level_one() {
        let bps = 300_000;
        for (seed, receivers) in [(1, 1), (2, 3)] {
            let mut cfg = session(10, 1, true);
            cfg.ecn = true;
            let mut rig = Rig::new(seed, bps, cfg.clone());
            let probes: Vec<AgentId> = (0..receivers)
                .map(|_| {
                    let rx = FlidReceiver::with_adversary(
                        cfg.clone(),
                        rig.router(),
                        AttackPlan::honest(),
                    );
                    rig.receiver(Probe {
                        rx,
                        poke_at: SimTime::MAX,
                        late_timers: 0,
                        judged: Vec::new(),
                        declined: 0,
                        ledgers: Vec::new(),
                    })
                })
                .collect();
            // 80 % of the bottleneck from 20 s to 30 s.
            let sink = Dest::Agent(rig.receiver(CountingSink::default()));
            let (from, until) = (SimTime::from_secs(20), SimTime::from_secs(30));
            let burst = CbrConfig::steady(bps * 4 / 5, sink, FlowId(99), from, until);
            let burst = Box::new(CbrSource::new(burst));
            rig.sim.add_agent(rig.source, burst, SimTime::ZERO);
            rig.run(FlidSender::new(cfg.clone()), 40);
            let mut rejoins = 0;
            for &id in &probes {
                let p = rig.sim.agent_as::<Probe<Layered>>(id).expect("the probe");
                rejoins += p.rx.stats.rejoins;
                for (k, (level, ledger)) in p.ledgers.iter().enumerate() {
                    let want: Vec<bool> = (1..=cfg.n()).map(|g| g <= *level).collect();
                    assert_eq!(*ledger, want, "seed {seed}: PROCESS {k} at level {level}");
                }
            }
            assert!(rejoins > 0, "seed {seed}: the burst must force a rejoin");
        }
    }
}
