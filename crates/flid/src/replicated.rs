//! A replicated multicast protocol protected by the Figure-5 DELTA
//! instantiation (paper §3.1.2, "Session structure"), and the
//! single-group policy it shares with the threshold protocol.
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
//!
//! [`SingleGroup<D>`] is the receiver policy of every one-group session;
//! its [`Decoder`] — [`Xor`] here, [`crate::threshold_proto::Shamir`] for
//! the threshold protocol — is the receiver-side twin of the sender's
//! [`crate::sender::KeyRule`].

use crate::config::FlidConfig;
use crate::receiver::{Policy, Receiver, SlotWindow};
use crate::sender::{Layers, Sender};
use mcc_attack::AttackPlan;
use mcc_delta::{
    decide_replicated, DeltaFields, GroupObservation, Key, ReplicatedEligibility, UpgradeMask,
    KEY_LEAD,
};
use mcc_netsim::prelude::*;
use mcc_sigma::Subscription;
use std::fmt::Debug;

/// Sender of a replicated multicast session. Reuses [`FlidConfig`], with
/// `cumulative_rate(g)` read as group `g`'s own full-content rate.
pub type ReplicatedSender = Sender<Layers<true>>;

impl ReplicatedSender {
    /// Build a sender.
    pub fn new(cfg: FlidConfig) -> Self {
        Sender::build(cfg, Layers)
    }
}

/// How a single-group session's packets are read: everything a
/// [`SingleGroup`] receiver does that depends on the key rule.
pub trait Decoder: Debug + Send + 'static {
    /// What one slot of the subscribed group delivered.
    type Obs: Clone + Debug + Default + Send;

    /// Fold one data packet of the subscribed group into its slot's
    /// observation.
    fn fold(obs: &mut Self::Obs, fields: &DeltaFields);

    /// The verdict on a closed slot that delivered `obs` of `group`, in a
    /// session of `n` groups.
    fn verdict(&mut self, obs: Self::Obs, group: u32, n: u32) -> Verdict;
}

/// What a single-group receiver does after a judged slot.
#[derive(Debug)]
pub enum Verdict {
    /// `Subscribe(group, key, publish)`: subscribe to `group` with `key`
    /// for slot `s+2`, first handing the adversary `publish`, a pair
    /// colluders may share. A lower group is a decrease it may veto.
    Subscribe(u32, Key, Option<(u32, Key)>),
    /// Back to the minimal group and keyless re-admission.
    Rejoin,
}

/// State of the single-group subscription policy: the receiver holds
/// exactly one group, the shell's claimed level.
#[derive(Clone, Debug)]
pub struct SingleGroup<D: Decoder> {
    /// Per slot: what arrived of the group.
    obs: SlotWindow<D::Obs>,
    /// Slot during which the current group was joined; decisions wait for
    /// the first complete slot after a switch.
    joined_slot: u64,
    /// The session structure's packet reader.
    pub(crate) decoder: D,
}

impl<D: Decoder> SingleGroup<D> {
    /// The policy in the minimal group, reading packets with `decoder`.
    pub(crate) fn new(decoder: D) -> Self {
        SingleGroup {
            obs: SlotWindow::default(),
            joined_slot: 0,
            decoder,
        }
    }
}

impl<D: Decoder> Receiver<SingleGroup<D>> {
    /// Move the single subscription to group `to`.
    fn switch(&mut self, ctx: &mut Ctx, to: u32) {
        let from = self.level();
        if to != from {
            self.leave(ctx, from);
            self.join(ctx, to);
            self.policy.joined_slot = u64::MAX; // latched on first packet
            self.set_level(ctx, to);
        }
    }
}

impl<D: Decoder> Policy for SingleGroup<D> {
    type Closed = D::Obs;

    fn observe(&mut self, fields: &DeltaFields, _marked: bool, group: u32) -> bool {
        if fields.group != group {
            return false; // Stale traffic from a group we just left.
        }
        if self.joined_slot == u64::MAX {
            self.joined_slot = fields.slot;
        }
        D::fold(self.obs.entry(fields.slot, Default::default), fields);
        true
    }

    /// A group joined during slot `s` waits for its first complete slot.
    fn close(&mut self, s: u64, _group: u32) -> Option<D::Obs> {
        let obs = self.obs.close(s).unwrap_or_default();
        (self.joined_slot < s).then_some(obs)
    }

    fn judge(rx: &mut Receiver<Self>, ctx: &mut Ctx, s: u64, obs: D::Obs) {
        let current = rx.level();
        match rx.policy.decoder.verdict(obs, current, rx.cfg.n()) {
            Verdict::Subscribe(group, key, publish) => {
                if let Some(pair) = publish {
                    let env = rx.attack_env(ctx.now(), s);
                    rx.adversary.on_key_packet(&env, s + KEY_LEAD, &[pair]);
                }
                let pairs = vec![(rx.addr(group), key)];
                let slot = s + KEY_LEAD;
                rx.subscribe(ctx, Subscription { slot, pairs }, false);
                // A vetoed switch down: the adversary clings to the
                // faster group; without its key the router stops the
                // traffic regardless.
                if group > current || (group < current && !rx.decrease_vetoed(ctx.now(), s)) {
                    rx.switch(ctx, group);
                }
            }
            Verdict::Rejoin => {
                rx.switch(ctx, 1);
                rx.stats.rejoins += 1;
                rx.session_join(ctx);
            }
        }
    }
}

/// The Figure-5 decoder: XOR the group's components into its top key and
/// collect the upgrade authorizations its headers carry.
#[derive(Clone, Copy, Debug)]
pub struct Xor;

impl Decoder for Xor {
    type Obs = (GroupObservation, UpgradeMask);

    fn fold((obs, upgrades): &mut Self::Obs, fields: &DeltaFields) {
        obs.observe(fields);
        *upgrades = UpgradeMask(upgrades.0 | fields.upgrades.0);
    }

    /// Publishes exactly the pair it subscribes.
    fn verdict(&mut self, (obs, upgrades): Self::Obs, group: u32, n: u32) -> Verdict {
        match decide_replicated(&obs, upgrades, group, n) {
            ReplicatedEligibility::Subscribe { group, key } => {
                Verdict::Subscribe(group, key, Some((group, key)))
            }
            ReplicatedEligibility::Rejoin => Verdict::Rejoin,
        }
    }
}

/// Receiver of a replicated session.
pub type ReplicatedReceiver = Receiver<SingleGroup<Xor>>;

impl ReplicatedReceiver {
    /// Build a receiver starting in the minimal group and running `plan`'s
    /// adversary strategy ([`AttackPlan::honest`] for a well-behaved
    /// one). `router` is the SIGMA router when protected; `None` runs over
    /// classic IGMP.
    pub fn with_adversary(cfg: FlidConfig, router: Option<NodeId>, plan: AttackPlan) -> Self {
        Receiver::build(cfg, router, plan, SingleGroup::new(Xor))
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
        let r = d.receiver(ReplicatedReceiver::with_adversary(
            cfg.clone(),
            d.router(),
            AttackPlan::honest(),
        ));
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
            (4..=6).contains(&rec.level()),
            "group {} (trace {:?})",
            rec.level(),
            rec.level_trace
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
            (2..=4).contains(&rec.level()),
            "group {} (trace {:?})",
            rec.level(),
            rec.level_trace
        );
    }

    #[test]
    fn works_unprotected_too() {
        let (d, r) = run(false, 1_000_000, 30);
        let rec = replicated(&d, r);
        assert!(
            rec.level() >= 3,
            "group {} (trace {:?})",
            rec.level(),
            rec.level_trace
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
        println!("rejoins {} trace {:?}", rec.stats.rejoins, rec.level_trace);
    }
}
