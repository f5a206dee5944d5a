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
use crate::receiver::{Policy, Receiver, SlotWindow};
use crate::sender::{Layers, Sender};
use mcc_attack::AttackPlan;
use mcc_delta::{
    decide_replicated, DeltaFields, GroupObservation, ReplicatedEligibility, UpgradeMask,
};
use mcc_netsim::prelude::*;

/// Sender of a replicated multicast session. Reuses [`FlidConfig`], with
/// `cumulative_rate(g)` read as group `g`'s own full-content rate.
pub type ReplicatedSender = Sender<Layers<true>>;

impl ReplicatedSender {
    /// Build a sender.
    pub fn new(cfg: FlidConfig) -> Self {
        Sender::build(cfg, Layers)
    }
}

/// State of the replicated subscription policy (paper Figure 5): the receiver
/// subscribes to exactly one group.
#[derive(Clone, Debug)]
pub struct Replicated {
    /// Current (1-based) group.
    pub group: u32,
    /// Per slot: what arrived of the group, and the upgrade authorizations
    /// its headers carried.
    obs: SlotWindow<(GroupObservation, UpgradeMask)>,
    /// Slot during which the current group was joined; decisions wait for
    /// the first complete slot after a switch.
    joined_slot: u64,
    /// `(t, group)` trace.
    pub trace: Vec<(f64, u32)>,
    /// Session rejoins after total blackout.
    pub rejoins: u64,
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
            obs: SlotWindow::default(),
            joined_slot: 0,
            trace: Vec::new(),
            rejoins: 0,
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
        let (obs, upgrades) = self.obs.entry(fields.slot, Default::default);
        obs.observe(fields);
        *upgrades = UpgradeMask(upgrades.0 | fields.upgrades.0);
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
        let (obs, upgrades) = p.obs.close(s).unwrap_or_default();
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
        rx.execute(ctx, s, attack_actions);
    }

    /// The router learns nothing: its grant for the group simply expires.
    fn wind_down(rx: &mut ReplicatedReceiver, ctx: &mut Ctx, _left: Vec<GroupAddr>) {
        rx.policy.trace.push((ctx.now().as_secs_f64(), 0));
    }

    fn state_digest(rx: &ReplicatedReceiver) -> String {
        let p = &rx.policy;
        format!(
            "{}|{:?}|{}|{}",
            p.group,
            p.obs,
            p.joined_slot,
            rx.shell_digest()
        )
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
