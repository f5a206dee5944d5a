//! A replicated multicast protocol protected by the Figure-5 DELTA
//! instantiation (paper §3.1.2, "Session structure").
//!
//! Every group of the session carries the *same* content at a different
//! rate (destination-set grouping, Cheung/Ammar): group 1 is the slowest,
//! group `N` the fastest, and a receiver subscribes to exactly one group.
//! Subscription rules: stay when uncongested, switch down one group on
//! loss, switch up one group when the sender authorizes an upgrade.
//!
//! The DELTA keys differ from the layered case only in scope: the top key
//! covers a single group's components, and the increase key for group `g`
//! is the *previous* group's top key (paper Eq. 6).

use crate::config::FlidConfig;
use crate::receiver::{Policy, Receiver};
use crate::rogue::RogueState;
use crate::sender::{pace_slot, Paced};
use mcc_attack::{AttackAction, AttackPlan};
use mcc_delta::{
    decide_replicated, DeltaFields, GroupObservation, ReplicatedEligibility, ReplicatedKeySchedule,
    UpgradeMask,
};
use mcc_netsim::prelude::*;
use mcc_sigma::{build_announcement, replicated_tuples, ProtectedData};
use mcc_simcore::SimTime;
use std::collections::HashMap;

const TICK: u64 = 0;
const EMIT: u64 = 1;

/// Sender of a replicated multicast session. Reuses [`FlidConfig`], with
/// `cumulative_rate(g)` read as group `g`'s own full-content rate.
#[derive(Debug)]
pub struct ReplicatedSender {
    /// Session parameters.
    pub cfg: FlidConfig,
    credits: Vec<f64>,
    schedules: HashMap<u64, ReplicatedKeySchedule>,
    streams: Vec<Option<mcc_delta::ComponentStream>>,
    pending: Vec<Paced>,
    /// Slots elapsed (diagnostics).
    pub slots: u64,
}

impl ReplicatedSender {
    /// Build a sender.
    pub fn new(cfg: FlidConfig) -> Self {
        let n = cfg.n() as usize;
        ReplicatedSender {
            cfg,
            credits: vec![0.0; n],
            schedules: HashMap::new(),
            streams: vec![None; n],
            pending: Vec::new(),
            slots: 0,
        }
    }

    fn slot_of(&self, now: SimTime) -> u64 {
        now.as_nanos() / self.cfg.slot.as_nanos()
    }

    fn begin_slot(&mut self, ctx: &mut Ctx) {
        let s = self.slot_of(ctx.now());
        let slot_start = SimTime::from_nanos(s * self.cfg.slot.as_nanos());
        let n = self.cfg.n();
        let mut authorized = Vec::new();
        for g in 2..=n {
            if ctx.rng().chance(self.cfg.upgrade_probability(g)) {
                authorized.push(g);
            }
        }
        let mask = UpgradeMask::from_groups(&authorized);
        let sched = ReplicatedKeySchedule::generate(ctx.rng(), n, mask);

        for g in 1..=n {
            self.streams[(g - 1) as usize] = Some(sched.component_stream(g));
        }
        // Replicated: each group carries the whole content at its rate.
        self.pending = pace_slot(
            &self.cfg,
            &mut self.credits,
            slot_start,
            FlidConfig::cumulative_rate,
            1,
        );
        self.pending.sort_by_key(|e| e.at);
        for e in &self.pending {
            ctx.timer_at(e.at, EMIT);
        }

        if self.cfg.protected {
            let ann = build_announcement(
                s + 2,
                replicated_tuples(&sched, &self.cfg.groups),
                self.cfg.control_group,
                ctx.agent,
                self.cfg.flow,
                self.cfg.fec_repeat,
            );
            for pkt in ann.packets {
                ctx.send(pkt);
            }
        }
        self.schedules.insert(s + 2, sched);
        #[expect(
            clippy::disallowed_methods,
            reason = "retain with a pure per-key predicate; order-independent"
        )]
        self.schedules.retain(|&k, _| k + 3 > s);
        self.slots += 1;
        ctx.timer_at(slot_start + self.cfg.slot, TICK);
    }

    fn emit_due(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        let s = self.slot_of(now);
        let due = self.pending.iter().take_while(|e| e.at <= now).count();
        for e in self.pending.drain(..due) {
            let sched = &self.schedules[&(s + 2)];
            let gi = (e.group - 1) as usize;
            let component = self.streams[gi]
                .as_mut()
                .expect("stream set at slot start")
                .next(ctx.rng(), e.last);
            let fields = e.fields(s, component, sched.decrease_field(e.group), sched.upgrades);
            ctx.send(Packet::app(
                self.cfg.packet_bits,
                self.cfg.flow,
                ctx.agent,
                Dest::Group(self.cfg.groups[gi]),
                ProtectedData { fields },
            ));
        }
    }
}

impl Agent for ReplicatedSender {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.begin_slot(ctx);
    }
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        match token {
            TICK => self.begin_slot(ctx),
            EMIT => self.emit_due(ctx),
            _ => {}
        }
    }
}

/// State of the replicated key rule (paper Figure 5): the receiver
/// subscribes to exactly one group.
#[derive(Debug)]
pub struct Replicated {
    /// Current (1-based) group.
    pub group: u32,
    obs: HashMap<u64, GroupObservation>,
    upgrades: HashMap<u64, UpgradeMask>,
    /// Slot during which the current group was joined; decisions wait for
    /// the first complete slot after a switch.
    joined_slot: u64,
    /// `(t, group)` trace.
    pub trace: Vec<(f64, u32)>,
    /// Session rejoins after total blackout.
    pub rejoins: u64,
    /// Out-of-protocol attack state and counters.
    pub rogue: RogueState,
}

/// Receiver of a replicated session.
pub type ReplicatedReceiver = Receiver<Replicated>;

impl Receiver<Replicated> {
    /// Build an honest receiver starting in the minimal group. `router`
    /// is the SIGMA router when protected; `None` runs over classic IGMP.
    pub fn new(cfg: FlidConfig, router: Option<NodeId>) -> Self {
        ReplicatedReceiver::with_adversary(cfg, router, AttackPlan::honest())
    }

    /// Build a receiver running `plan`'s adversary strategy.
    pub fn with_adversary(cfg: FlidConfig, router: Option<NodeId>, plan: AttackPlan) -> Self {
        let policy = Replicated {
            group: 1,
            obs: HashMap::new(),
            upgrades: HashMap::new(),
            joined_slot: 0,
            trace: Vec::new(),
            rejoins: 0,
            rogue: RogueState::default(),
        };
        Receiver::build(cfg, router, plan, policy)
    }

    /// Move the single subscription to group `to`.
    fn switch(&mut self, ctx: &mut Ctx, to: u32) {
        if to != self.policy.group {
            self.leave(ctx, self.policy.group);
            self.join(ctx, to);
            self.policy.group = to;
            self.policy.joined_slot = u64::MAX; // latched on first packet
            self.policy.trace.push((ctx.now().as_secs_f64(), to));
        }
    }
}

impl Policy for Replicated {
    fn observe(&mut self, fields: &DeltaFields, _marked: bool) -> bool {
        if fields.group != self.group {
            return false; // Stale traffic from a group we just left.
        }
        if self.joined_slot == u64::MAX {
            self.joined_slot = fields.slot;
        }
        self.obs.entry(fields.slot).or_default().observe(fields);
        let mask = self
            .upgrades
            .entry(fields.slot)
            .or_insert(UpgradeMask::NONE);
        *mask = UpgradeMask(mask.0 | fields.upgrades.0);
        true
    }

    fn level(&self) -> u32 {
        self.group
    }

    fn started(rx: &mut ReplicatedReceiver, ctx: &mut Ctx) {
        rx.policy.trace.push((ctx.now().as_secs_f64(), 1));
    }

    fn evaluate(rx: &mut ReplicatedReceiver, ctx: &mut Ctx, s: u64) {
        let p = &mut rx.policy;
        let obs = p.obs.remove(&s).unwrap_or_default();
        let upgrades = p.upgrades.remove(&s).unwrap_or(UpgradeMask::NONE);
        #[expect(
            clippy::disallowed_methods,
            reason = "retain with a pure per-key predicate; order-independent"
        )]
        p.obs.retain(|&k, _| k > s);
        #[expect(
            clippy::disallowed_methods,
            reason = "retain with a pure per-key predicate; order-independent"
        )]
        p.upgrades.retain(|&k, _| k > s);
        if p.joined_slot >= s {
            // The current group was joined mid-slot: wait for its first
            // complete slot before judging congestion.
            return;
        }
        let current = p.group;
        let env = rx.attack_env(ctx.now(), s);
        let attack_actions = rx.adversary.on_slot(&env);
        match decide_replicated(&obs, upgrades, current, rx.cfg.n()) {
            ReplicatedEligibility::Subscribe { group, key } => {
                rx.adversary.on_key_packet(&env, s + 2, &[(group, key)]);
                rx.subscribe_one(ctx, s + 2, group, key);
                // A vetoed switch down: the adversary clings to the
                // faster group; without its key the router stops the
                // traffic regardless.
                if group > current || (group < current && !rx.decrease_vetoed(ctx.now(), s)) {
                    rx.switch(ctx, group);
                }
            }
            ReplicatedEligibility::Rejoin => {
                rx.switch(ctx, 1);
                rx.policy.rejoins += 1;
                rx.session_join(ctx);
            }
        }
        Self::apply(rx, ctx, s, attack_actions);
    }

    fn apply(rx: &mut ReplicatedReceiver, ctx: &mut Ctx, slot: u64, actions: Vec<AttackAction>) {
        // The executor acts on the shell, so it cannot stay borrowed from it.
        let mut rogue = std::mem::take(&mut rx.policy.rogue);
        rogue.apply(rx, ctx, slot, actions);
        rx.policy.rogue = rogue;
    }

    /// The router learns nothing: its grant for the group simply expires.
    fn wind_down(rx: &mut ReplicatedReceiver, ctx: &mut Ctx, _left: Vec<GroupAddr>) {
        rx.policy.trace.push((ctx.now().as_secs_f64(), 0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testrig::{session, Rig};
    use mcc_simcore::SimDuration;

    /// S — A =bottleneck= B — H, replicated session.
    fn run(protected: bool, bottleneck: u64, secs: u64) -> (Rig, AgentId) {
        let mut cfg = session(6, 2, protected);
        cfg.slot = SimDuration::from_millis(250);
        let mut d = Rig::new(21, bottleneck, cfg.clone());
        let r = d.receiver(ReplicatedReceiver::new(cfg.clone(), d.router()));
        d.run(ReplicatedSender::new(cfg), secs);
        (d, r)
    }

    fn replicated(d: &Rig, r: AgentId) -> &ReplicatedReceiver {
        d.sim.agent_as::<ReplicatedReceiver>(r).unwrap()
    }

    #[test]
    fn receiver_climbs_to_capacity_group() {
        // 1 Mbps bottleneck: group 6 (759 kbps) fits; the receiver should
        // end high in the group ladder.
        let (d, r) = run(true, 1_000_000, 40);
        let rec = replicated(&d, r);
        assert!(
            (4..=6).contains(&rec.group),
            "group {} (trace {:?})",
            rec.group,
            rec.trace
        );
        let bps = d.goodput_bps(r, 20, 40);
        assert!(bps > 300_000.0, "replicated goodput {bps}");
    }

    #[test]
    fn tight_bottleneck_caps_the_group() {
        // 250 kbps: group 3 (225 kbps) is the largest that fits.
        let (d, r) = run(true, 250_000, 40);
        let rec = replicated(&d, r);
        assert!(
            (2..=4).contains(&rec.group),
            "group {} (trace {:?})",
            rec.group,
            rec.trace
        );
    }

    #[test]
    fn works_unprotected_too() {
        let (d, r) = run(false, 1_000_000, 30);
        let rec = replicated(&d, r);
        assert!(
            rec.group >= 3,
            "group {} (trace {:?})",
            rec.group,
            rec.trace
        );
    }

    #[test]
    #[ignore]
    fn trace_replicated() {
        let (d, r) = run(true, 1_000_000, 10);
        let m = d.sim.edge_as::<mcc_sigma::SigmaEdgeModule>(d.edge).unwrap();
        println!("module: {:?}", m.stats);
        let drops = d.sim.world.link_stats(d.bottleneck).drops;
        println!("bottleneck drops {drops}");
        let rec = replicated(&d, r);
        println!("rejoins {} trace {:?}", rec.rejoins, rec.trace);
    }
}
