//! The SIGMA edge-router module.
//!
//! Implements [`EdgeModule`] for `mcc-netsim` routers, providing the four
//! behaviours of paper §3.2:
//!
//! * **key acquisition** — intercepts router-alert special packets and
//!   stores `(group, slot) → key tuple` bindings ([`crate::keytable`]),
//! * **key-checked forwarding** — multicast data of a protected group is
//!   forwarded onto a host-facing interface only when the interface holds
//!   a *grant* for the packet's slot, or a grace period applies:
//!   freshly granted groups are forwarded unconditionally for two complete
//!   slots ("expecting the group"), and session-join opens the same grace
//!   for the minimal group without any key,
//! * **receiver messages** — session-join / subscription / unsubscription
//!   (paper Figure 6) with acks for reliability; invalid keys are tallied
//!   per interface as the paper's guessing-attack indicator,
//! * **IGMP replacement** — raw IGMP grafts/prunes for protected groups
//!   are ignored, which is precisely what makes inflated subscription
//!   impossible: without a valid key the group never reaches the
//!   interface, and never crosses the bottleneck for its sake.
//!
//! The optional [`CollusionGuard`] upgrades validation to
//! interface-specific lower keys (paper §4.2).

use crate::data::ProtectedData;
use crate::guard::CollusionGuard;
use crate::keydist::parse_special;
use crate::keytable::KeyTable;
use crate::messages::{SessionJoin, Subscription, SubscriptionAck, Unsubscription};
use crate::slab::GrantSlab;
use mcc_delta::{ecn::scramble_marked_component, Key};
use mcc_netsim::prelude::*;
use mcc_netsim::TraceEvent;
use mcc_simcore::{FxHashMap, FxHashSet, SimDuration, SimTime};

/// Timer token for the slot-maintenance tick.
const TICK: u64 = 0;

/// Grace length in complete slots for newly expected groups and
/// session-joins (the paper uses two).
const GRACE_SLOTS: u64 = 2;

/// Distinct invalid keys per (interface, group, slot) that flag a
/// guessing attack (paper §4.2).
const GUESS_ALARM: u32 = 8;

/// Configuration of a [`SigmaEdgeModule`].
#[derive(Clone, Debug)]
pub struct SigmaConfig {
    /// Slot duration (must match the protected sessions').
    pub slot: SimDuration,
    /// Optional collusion guard: the protected session's groups in layer
    /// order (sacrifices protocol-generality, as the paper notes).
    pub guard_groups: Option<Vec<GroupAddr>>,
}

impl SigmaConfig {
    /// Standard configuration for a given slot duration.
    pub fn new(slot: SimDuration) -> Self {
        SigmaConfig {
            slot,
            guard_groups: None,
        }
    }

    /// Enable the collusion guard for a layered session.
    pub fn with_guard(mut self, groups: Vec<GroupAddr>) -> Self {
        self.guard_groups = Some(groups);
        self
    }
}

/// Counters exposed to experiments and tests.
#[derive(Clone, Debug, Default)]
pub struct SigmaStats {
    /// Special packets intercepted.
    pub specials: u64,
    /// Key tuples installed (deduplicated FEC copies count once each).
    pub tuples_installed: u64,
    /// Session-join messages processed.
    pub session_joins: u64,
    /// Session-joins ignored due to an active lockout.
    pub session_joins_locked_out: u64,
    /// Subscription messages processed.
    pub subscriptions: u64,
    /// Keys accepted.
    pub accepted_keys: u64,
    /// Keys rejected.
    pub rejected_keys: u64,
    /// Guard rejections of keys the plain table would have accepted — the
    /// collateral damage the collusion guard inflicts on honest receivers
    /// (its perturbation path makes these possible during flash joins).
    pub guard_false_positives: u64,
    /// Unsubscription messages processed.
    pub unsubscriptions: u64,
    /// Raw IGMP grafts/prunes ignored for protected groups.
    pub raw_igmp_blocked: u64,
    /// Data packets forwarded under a valid grant.
    pub data_granted: u64,
    /// Data packets forwarded under a grace period.
    pub data_grace: u64,
    /// Data packets denied.
    pub data_denied: u64,
    /// Interface prunes issued at slot maintenance.
    pub prunes: u64,
    /// Slot of the first keyless-access lockout, if any — the
    /// "time-to-lockout" containment metric of the robustness matrix.
    pub first_lockout_slot: Option<u64>,
    /// Slot at which a guessing tally first crossed the alarm threshold.
    pub first_guess_alarm_slot: Option<u64>,
}

impl SigmaStats {
    /// When the edge first caught the misbehaviour — the earlier of the
    /// first lockout and the first guess alarm — in seconds, for slots of
    /// length `slot`.
    pub fn detection_secs(&self, slot: SimDuration) -> Option<f64> {
        [self.first_lockout_slot, self.first_guess_alarm_slot]
            .into_iter()
            .flatten()
            .min()
            .map(|s| s as f64 * slot.as_secs_f64())
    }
}

/// Grace state for one (interface, group).
#[derive(Clone, Copy, Debug)]
struct Grace {
    /// Slot of the first packet forwarded under this grace.
    first_seen: Option<u64>,
    /// Slot the grace was opened in (staleness bound while ungrafted).
    opened_slot: u64,
}

/// The SIGMA edge-router implementation.
#[derive(Debug)]
pub struct SigmaEdgeModule {
    cfg: SigmaConfig,
    table: KeyTable,
    /// Granted slots per (interface, group), content-interned: equal
    /// per-interface tables are stored once (see [`crate::slab`]).
    grants: GrantSlab,
    /// Active grace periods.
    grace: FxHashMap<(LinkId, GroupAddr), Grace>,
    /// Keyless-access lockouts: (iface, group) → first slot allowed again.
    lockout: FxHashMap<(LinkId, GroupAddr), u64>,
    /// Groups known to be key-protected (seen in specials, joins, or
    /// carrying DELTA fields); all other groups pass untouched, giving the
    /// paper's incremental-deployment semantics (§3.2.3).
    protected: FxHashSet<GroupAddr>,
    /// Distinct invalid keys per (iface, group, slot).
    tally: FxHashMap<(LinkId, GroupAddr, u64), FxHashSet<Key>>,
    guard: Option<CollusionGuard>,
    ticking: bool,
    current_slot: u64,
    /// Counters.
    pub stats: SigmaStats,
}

impl SigmaEdgeModule {
    /// Build a module from its configuration.
    pub fn new(cfg: SigmaConfig) -> Self {
        let guard = cfg.guard_groups.clone().map(CollusionGuard::new);
        SigmaEdgeModule {
            cfg,
            table: KeyTable::new(),
            grants: GrantSlab::new(),
            grace: FxHashMap::default(),
            lockout: FxHashMap::default(),
            protected: FxHashSet::default(),
            tally: FxHashMap::default(),
            guard,
            ticking: false,
            current_slot: 0,
            stats: SigmaStats::default(),
        }
    }

    fn slot_of(&self, now: SimTime) -> u64 {
        now.as_nanos() / self.cfg.slot.as_nanos()
    }

    fn ensure_ticking(&mut self, env: &mut EdgeEnv) {
        self.current_slot = self.slot_of(env.now);
        if !self.ticking {
            self.ticking = true;
            let into_slot = env.now.as_nanos() % self.cfg.slot.as_nanos();
            let remain = self.cfg.slot.as_nanos() - into_slot;
            env.timer_in(SimDuration::from_nanos(remain.max(1)), TICK);
        }
    }

    /// Is a guessing attack suspected on `iface` (any tally over the
    /// alarm threshold)?
    #[expect(
        clippy::disallowed_methods,
        reason = "existential .any(); order-independent"
    )]
    pub fn suspected_guessing(&self, iface: LinkId) -> bool {
        self.tally
            .iter()
            .any(|(&(i, _, _), keys)| i == iface && keys.len() as u32 >= GUESS_ALARM)
    }

    /// The largest distinct-invalid-key tally currently held against
    /// `iface` (over all groups and slots).
    #[expect(
        clippy::disallowed_methods,
        reason = ".max() reduction; order-independent"
    )]
    pub fn guess_tally(&self, iface: LinkId) -> u32 {
        self.tally
            .iter()
            .filter(|(&(i, _, _), _)| i == iface)
            .map(|(_, keys)| keys.len() as u32)
            .max()
            .unwrap_or(0)
    }

    /// The first slot at which `(iface, group)` may regain keyless access,
    /// while a lockout is active.
    pub fn lockout_until(&self, iface: LinkId, group: GroupAddr) -> Option<u64> {
        self.lockout.get(&(iface, group)).copied()
    }

    /// Current slot as the router sees it.
    pub fn current_slot(&self) -> u64 {
        self.current_slot
    }

    /// Does `iface` hold a grant for `(group, slot)`? (test support)
    pub fn has_grant(&self, iface: LinkId, group: GroupAddr, slot: u64) -> bool {
        self.grants.contains(iface, group, slot)
    }

    /// `(interfaces, distinct tables)` held by the grant slab — the
    /// interning win; `distinct` stays O(layer-sets) while `interfaces`
    /// scales with the receiver population.
    pub fn grant_interning(&self) -> (usize, usize) {
        self.grants.interning()
    }

    fn grace_active(&self, g: &Grace, at_slot: u64) -> bool {
        match g.first_seen {
            None => at_slot <= g.opened_slot + 4, // still waiting for the graft
            Some(s0) => at_slot <= s0 + GRACE_SLOTS,
        }
    }

    fn handle_subscription(&mut self, env: &mut EdgeEnv, iface: LinkId, pkt: &Packet) {
        let sub = pkt.body_as::<Subscription>().expect("checked by caller");
        self.stats.subscriptions += 1;
        let mut accepted = Vec::new();
        let mut granted = Vec::new();
        for &(group, key) in &sub.pairs {
            // The collusion guard is protocol-specific: it only judges the
            // session whose layering it was configured with; foreign
            // groups fall back to plain table validation (§3.2.3).
            let (ok, guard_covered) = match &mut self.guard {
                Some(g) if g.covers(group) => (
                    g.validate(iface, group, sub.slot, key, &self.table, env.rng),
                    true,
                ),
                _ => (self.table.validate(group, sub.slot, key), false),
            };
            if ok {
                self.stats.accepted_keys += 1;
                // Grants land after the loop, so `has_slots` sees the
                // pre-message state; a repeat of a group this message
                // already accepted finds those slots or the grace opened
                // for it below — never new either way.
                let newly = !self.grants.has_slots(iface, group)
                    && !self.grace.contains_key(&(iface, group));
                granted.push(group);
                if newly {
                    // "The edge router marks the local interface as
                    // expecting the group" — two complete slots of
                    // unconditional forwarding from the first packet.
                    self.grace.insert(
                        (iface, group),
                        Grace {
                            first_seen: None,
                            opened_slot: self.current_slot,
                        },
                    );
                }
                env.graft_iface(group, iface);
                accepted.push((group, key));
            } else {
                self.stats.rejected_keys += 1;
                if guard_covered && self.table.validate(group, sub.slot, key) {
                    self.stats.guard_false_positives += 1;
                }
                let tally = self.tally.entry((iface, group, sub.slot)).or_default();
                tally.insert(key);
                if tally.len() as u32 >= GUESS_ALARM && self.stats.first_guess_alarm_slot.is_none()
                {
                    self.stats.first_guess_alarm_slot = Some(self.current_slot);
                    env.trace(TraceEvent::SigmaAlarm {
                        node: env.node.0,
                        iface: iface.0,
                        group: group.0,
                        slot: self.current_slot,
                    });
                }
            }
        }
        self.grants.insert_all(iface, &granted, sub.slot);
        if !accepted.is_empty() {
            let ack = SubscriptionAck {
                slot: sub.slot,
                accepted,
            };
            let reply = Packet::app(
                ack.size_bits(),
                pkt.flow,
                AgentId(u32::MAX), // router-originated
                Dest::Agent(pkt.src),
                ack,
            );
            env.send(reply);
        }
    }

    fn handle_session_join(&mut self, env: &mut EdgeEnv, iface: LinkId, pkt: &Packet) {
        let join = pkt.body_as::<SessionJoin>().expect("checked by caller");
        self.stats.session_joins += 1;
        self.protected.insert(join.minimal_group);
        self.protected.insert(join.control_group);
        // Keep key tuples flowing to this router.
        env.join_module(join.control_group);
        let key = (iface, join.minimal_group);
        if let Some(&until) = self.lockout.get(&key) {
            if self.current_slot < until {
                self.stats.session_joins_locked_out += 1;
                return;
            }
        }
        // Keyless admission: graft the minimal group and open a grace.
        env.graft_iface(join.minimal_group, iface);
        self.grace.entry(key).or_insert(Grace {
            first_seen: None,
            opened_slot: self.current_slot,
        });
    }

    fn handle_unsubscription(&mut self, env: &mut EdgeEnv, iface: LinkId, pkt: &Packet) {
        let unsub = pkt.body_as::<Unsubscription>().expect("checked by caller");
        self.stats.unsubscriptions += 1;
        for &group in &unsub.groups {
            self.grants.remove_group(iface, group);
            self.grace.remove(&(iface, group));
            env.prune_iface(group, iface);
        }
    }
}

impl EdgeModule for SigmaEdgeModule {
    fn filter_data(&mut self, env: &mut EdgeEnv, iface: LinkId, pkt: &mut Packet) -> bool {
        self.ensure_ticking(env);
        let Dest::Group(group) = pkt.dst else {
            return true;
        };
        let Some(pd) = pkt.body_as::<ProtectedData>() else {
            // Unprotected session data: pass iff the group is not known to
            // be key-protected (incremental deployment, §3.2.3).
            return !self.protected.contains(&group);
        };
        // DELTA fields mark the group as protected from now on.
        if !self.protected.contains(&group) {
            self.protected.insert(group);
        }
        let pkt_slot = pd.fields.slot;

        let granted = self.grants.contains(iface, group, pkt_slot);
        let allowed = if granted {
            self.stats.data_granted += 1;
            // Latch any pending grace to the slot the group started
            // flowing in; otherwise it would lie dormant and re-open
            // keyless access long after the grants lapse.
            if let Some(gr) = self.grace.get_mut(&(iface, group)) {
                gr.first_seen.get_or_insert(pkt_slot);
            }
            true
        } else if let Some(gr) = self.grace.get_mut(&(iface, group)) {
            let first = *gr.first_seen.get_or_insert(pkt_slot);
            if pkt_slot <= first + GRACE_SLOTS {
                self.stats.data_grace += 1;
                true
            } else {
                // Grace exhausted without a valid key: stop forwarding for
                // at least one slot (paper §3.2.2).
                self.grace.remove(&(iface, group));
                self.lockout.insert((iface, group), pkt_slot + 1);
                env.trace(TraceEvent::SigmaLockout {
                    node: env.node.0,
                    iface: iface.0,
                    group: group.0,
                    until_slot: pkt_slot + 1,
                });
                if self.stats.first_lockout_slot.is_none() {
                    self.stats.first_lockout_slot = Some(self.current_slot);
                }
                self.stats.data_denied += 1;
                false
            }
        } else {
            self.stats.data_denied += 1;
            false
        };
        if env.trace_on {
            let layer = self
                .guard
                .as_ref()
                .and_then(|g| g.layer_of(group))
                .unwrap_or(u32::MAX);
            env.trace(TraceEvent::SigmaFilter {
                node: env.node.0,
                iface: iface.0,
                group: group.0,
                layer,
                allowed,
            });
        }
        if allowed {
            let marked = pkt.ecn == Ecn::Marked;
            // Only take the mutable borrow when something will actually be
            // rewritten: `body_as_mut` is copy-on-write, so touching it on
            // every granted packet would deep-clone the shared payload once
            // per fan-out branch for nothing.
            if marked || self.guard.is_some() {
                let fields = &mut pkt
                    .body_as_mut::<ProtectedData>()
                    .expect("checked above")
                    .fields;
                // ECN instantiation: marked packets lose their component.
                if marked {
                    scramble_marked_component(fields, env.rng);
                }
                if let Some(guard) = &mut self.guard {
                    guard.perturb(iface, group, fields, env.rng);
                }
            }
        }
        allowed
    }

    fn on_special(&mut self, env: &mut EdgeEnv, pkt: &Packet) {
        self.ensure_ticking(env);
        if let Dest::Group(g) = pkt.dst {
            self.protected.insert(g);
        }
        if let Some(chunk) = parse_special(pkt) {
            self.stats.specials += 1;
            for &(group, tuple) in &chunk.tuples {
                self.protected.insert(group);
                // FEC copies overwrite with identical content.
                if self.table.get(group, chunk.slot) != Some(&tuple) {
                    self.stats.tuples_installed += 1;
                    if env.trace_on {
                        env.trace(TraceEvent::KeyInstall {
                            node: env.node.0,
                            group: group.0,
                            slot: chunk.slot,
                        });
                    }
                }
                self.table.insert(group, chunk.slot, tuple);
            }
        }
    }

    fn on_message(&mut self, env: &mut EdgeEnv, from_iface: LinkId, pkt: &Packet) {
        self.ensure_ticking(env);
        if pkt.body_as::<Subscription>().is_some() {
            self.handle_subscription(env, from_iface, pkt);
        } else if pkt.body_as::<SessionJoin>().is_some() {
            self.handle_session_join(env, from_iface, pkt);
        } else if pkt.body_as::<Unsubscription>().is_some() {
            self.handle_unsubscription(env, from_iface, pkt);
        }
    }

    fn allow_igmp(
        &mut self,
        env: &mut EdgeEnv,
        _iface: LinkId,
        group: GroupAddr,
        _join: bool,
    ) -> bool {
        self.ensure_ticking(env);
        if self.protected.contains(&group) {
            self.stats.raw_igmp_blocked += 1;
            false
        } else {
            true
        }
    }

    fn on_timer(&mut self, env: &mut EdgeEnv, token: u64) {
        if token != TICK {
            return;
        }
        self.current_slot = self.slot_of(env.now);
        let cur = self.current_slot;

        // Garbage-collect old state. Grants for past slots stay *valid for
        // filtering* a little longer (slot-s packets arrive up to a
        // propagation delay after the s+1 boundary), but the *prune*
        // decision looks only at current-or-future grants: the moment no
        // slot ≥ cur is granted, forwarding the group across the network
        // for this interface is pure waste — cutting it promptly is what
        // bounds the damage of a decrease to the paper's two slots.
        let min_keep = cur.saturating_sub(2);
        // One transform per *distinct* interned table, however many
        // interfaces share it.
        self.grants.sweep(min_keep);
        // `entries()` is sorted, so the prune sequence replays bit-for-bit
        // regardless of internal hash-map order.
        let mut to_prune: Vec<(LinkId, GroupAddr)> = Vec::new();
        for (iface, group) in self.grants.entries() {
            let has_current = self.grants.max_slot(iface, group).is_some_and(|s| s >= cur);
            let grace_live = self.grace.get(&(iface, group)).is_some_and(|g| {
                g.first_seen
                    .map_or(cur <= g.opened_slot + 4, |s0| cur <= s0 + GRACE_SLOTS)
            });
            if !has_current && !grace_live {
                to_prune.push((iface, group));
            }
        }
        for key in to_prune {
            self.grants.remove_group(key.0, key.1);
            self.grace.remove(&key);
            env.prune_iface(key.1, key.0);
            self.stats.prunes += 1;
        }
        // Expired graces without grants (e.g. session-join never followed
        // by data or keys).
        #[expect(
            clippy::disallowed_methods,
            reason = "snapshot collected, then sorted on the next line"
        )]
        let mut grace_snapshot: Vec<((LinkId, GroupAddr), Grace)> =
            self.grace.iter().map(|(k, v)| (*k, *v)).collect();
        grace_snapshot.sort_unstable_by_key(|(k, _)| *k);
        for (key, g) in grace_snapshot {
            if !self.grace_active(&g, cur) && !self.grants.has_group(key.0, key.1) {
                self.grace.remove(&key);
                env.prune_iface(key.1, key.0);
                self.stats.prunes += 1;
            }
        }
        self.table.gc(cur);
        #[expect(
            clippy::disallowed_methods,
            reason = "retain with a pure per-key predicate; order-independent"
        )]
        self.tally.retain(|&(_, _, s), _| s + 2 >= cur);
        #[expect(
            clippy::disallowed_methods,
            reason = "retain with a pure per-key predicate; order-independent"
        )]
        self.lockout.retain(|_, &mut until| until + 2 >= cur);
        if let Some(guard) = &mut self.guard {
            guard.gc(cur.saturating_sub(3));
        }
        env.timer_in(self.cfg.slot, TICK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keytable::KeyTuple;
    use mcc_delta::{DeltaFields, UpgradeMask};
    use mcc_simcore::DetRng;

    fn env<'a>(rng: &'a mut DetRng, now: SimTime) -> EdgeEnv<'a> {
        EdgeEnv {
            now,
            node: NodeId(0),
            rng,
            actions: Vec::new(),
            trace_on: false,
        }
    }

    fn module() -> SigmaEdgeModule {
        SigmaEdgeModule::new(SigmaConfig::new(SimDuration::from_millis(250)))
    }

    fn data_packet(group: GroupAddr, slot: u64) -> Packet {
        Packet::app(
            576 * 8,
            FlowId(1),
            AgentId(0),
            Dest::Group(group),
            ProtectedData {
                fields: DeltaFields {
                    slot,
                    group: 1,
                    seq_in_slot: 0,
                    last_in_slot: false,
                    count_in_slot: 0,
                    component: Key(1),
                    decrease: None,
                    upgrades: UpgradeMask::NONE,
                },
            },
        )
    }

    fn subscription(group: GroupAddr, slot: u64, key: Key) -> Packet {
        let sub = Subscription {
            slot,
            pairs: vec![(group, key)],
        };
        Packet::app(
            sub.size_bits(),
            FlowId(1),
            AgentId(7),
            Dest::Router(NodeId(0)),
            sub,
        )
    }

    fn install_tuple(m: &mut SigmaEdgeModule, group: GroupAddr, slot: u64, top: Key) {
        m.table.insert(
            group,
            slot,
            KeyTuple {
                top,
                decrease: None,
                increase: None,
            },
        );
        m.protected.insert(group);
    }

    #[test]
    fn valid_key_grants_and_grafts_and_acks() {
        let mut m = module();
        let mut rng = DetRng::new(1);
        let g = GroupAddr(5);
        let iface = LinkId(3);
        install_tuple(&mut m, g, 10, Key(77));
        let mut e = env(&mut rng, SimTime::from_secs(2));
        m.on_message(&mut e, iface, &subscription(g, 10, Key(77)));
        assert!(m.has_grant(iface, g, 10));
        assert_eq!(m.stats.accepted_keys, 1);
        let mut saw_graft = false;
        let mut saw_ack = false;
        for a in &e.actions {
            match a {
                EdgeAction::GraftIface(gg, ii) => {
                    assert_eq!((*gg, *ii), (g, iface));
                    saw_graft = true;
                }
                EdgeAction::Send(p) => {
                    let ack = p.body_as::<SubscriptionAck>().unwrap();
                    assert_eq!(ack.slot, 10);
                    assert_eq!(ack.accepted, vec![(g, Key(77))]);
                    assert_eq!(p.dst, Dest::Agent(AgentId(7)));
                    saw_ack = true;
                }
                _ => {}
            }
        }
        assert!(saw_graft && saw_ack);
    }

    /// One message, several pairs: each group is granted and graced once,
    /// however often it repeats; grafts and the ack follow message order.
    #[test]
    fn multi_pair_subscription_grants_and_graces_each_group_once() {
        let mut m = module();
        let mut rng = DetRng::new(14);
        let (a, b) = (GroupAddr(5), GroupAddr(6));
        let iface = LinkId(3);
        install_tuple(&mut m, a, 10, Key(77));
        install_tuple(&mut m, b, 10, Key(88));
        let sub = Subscription {
            slot: 10,
            pairs: vec![(a, Key(77)), (b, Key(88)), (a, Key(77)), (b, Key(99))],
        };
        let sp = Packet::app(
            sub.size_bits(),
            FlowId(1),
            AgentId(7),
            Dest::Router(NodeId(0)),
            sub,
        );
        let mut e = env(&mut rng, SimTime::from_secs(2));
        m.on_message(&mut e, iface, &sp);
        assert!(m.has_grant(iface, a, 10) && m.has_grant(iface, b, 10));
        assert_eq!(m.stats.accepted_keys, 3);
        assert_eq!(m.grace.len(), 2, "one grace per newly granted group");
        assert!(m.grace.contains_key(&(iface, a)) && m.grace.contains_key(&(iface, b)));
        let grafts: Vec<GroupAddr> = e
            .actions
            .iter()
            .filter_map(|act| match act {
                EdgeAction::GraftIface(g, i) if *i == iface => Some(*g),
                _ => None,
            })
            .collect();
        assert_eq!(grafts, vec![a, b, a]);
        let acks: Vec<&SubscriptionAck> = e
            .actions
            .iter()
            .filter_map(|act| match act {
                EdgeAction::Send(p) => p.body_as::<SubscriptionAck>(),
                _ => None,
            })
            .collect();
        assert_eq!(acks.len(), 1);
        assert_eq!(
            acks[0].accepted,
            vec![(a, Key(77)), (b, Key(88)), (a, Key(77))]
        );
        assert_eq!(m.stats.rejected_keys, 1);
        assert_eq!(m.guess_tally(iface), 1, "the invalid key is tallied");
    }

    #[test]
    fn invalid_key_is_rejected_and_tallied() {
        let mut m = module();
        let mut rng = DetRng::new(2);
        let g = GroupAddr(5);
        let iface = LinkId(3);
        install_tuple(&mut m, g, 10, Key(77));
        for wrong in 0..10u64 {
            let mut e = env(&mut rng, SimTime::from_secs(2));
            m.on_message(&mut e, iface, &subscription(g, 10, Key(1000 + wrong)));
            assert!(e.actions.iter().all(|a| !matches!(a, EdgeAction::Send(_))));
        }
        assert!(!m.has_grant(iface, g, 10));
        assert_eq!(m.stats.rejected_keys, 10);
        assert!(m.suspected_guessing(iface), "tally over threshold");
        assert!(!m.suspected_guessing(LinkId(9)), "other ifaces clean");
    }

    #[test]
    fn data_forwarding_requires_grant_for_packet_slot() {
        let mut m = module();
        let mut rng = DetRng::new(3);
        let g = GroupAddr(5);
        let iface = LinkId(3);
        install_tuple(&mut m, g, 10, Key(77));
        // Grant slot 10 (grace opens alongside; consume it with slot-10
        // packets so the boundary check is unambiguous).
        let mut e = env(&mut rng, SimTime::from_secs(2));
        m.on_message(&mut e, iface, &subscription(g, 10, Key(77)));
        // Drain the "expecting" grace with early packets of slot 10.
        let mut e = env(&mut rng, SimTime::from_secs(2));
        assert!(m.filter_data(&mut e, iface, &mut data_packet(g, 10)));
        // Slot 13 exceeds the grace window (10..=12) and has no grant.
        let mut e = env(&mut rng, SimTime::from_secs(3));
        assert!(!m.filter_data(&mut e, iface, &mut data_packet(g, 13)));
        assert!(m.stats.data_denied >= 1);
        // A different interface never had anything: denied immediately.
        let mut e = env(&mut rng, SimTime::from_secs(2));
        assert!(!m.filter_data(&mut e, LinkId(8), &mut data_packet(g, 10)));
    }

    #[test]
    fn session_join_opens_keyless_grace_then_locks_out() {
        let mut m = module();
        let mut rng = DetRng::new(4);
        let minimal = GroupAddr(1);
        let control = GroupAddr(0);
        let iface = LinkId(2);
        let join = SessionJoin {
            minimal_group: minimal,
            control_group: control,
        };
        let jp = Packet::app(
            join.size_bits(),
            FlowId(0),
            AgentId(5),
            Dest::Router(NodeId(0)),
            join,
        );
        let mut e = env(&mut rng, SimTime::from_millis(2500)); // slot 10
        m.on_message(&mut e, iface, &jp);
        assert!(e
            .actions
            .iter()
            .any(|a| matches!(a, EdgeAction::JoinModule(c) if *c == control)));
        assert!(e
            .actions
            .iter()
            .any(|a| matches!(a, EdgeAction::GraftIface(g, i) if *g == minimal && *i == iface)));
        // Keyless data flows for slots 10..=12…
        for slot in 10..=12 {
            let mut e = env(&mut rng, SimTime::from_millis(2500));
            assert!(
                m.filter_data(&mut e, iface, &mut data_packet(minimal, slot)),
                "grace slot {slot}"
            );
        }
        // …but slot 13 is denied and a lockout is set.
        let mut e = env(&mut rng, SimTime::from_millis(3300));
        assert!(!m.filter_data(&mut e, iface, &mut data_packet(minimal, 13)));
        // An immediate re-join during the lockout is ignored.
        let join2 = SessionJoin {
            minimal_group: minimal,
            control_group: control,
        };
        let jp2 = Packet::app(
            join2.size_bits(),
            FlowId(0),
            AgentId(5),
            Dest::Router(NodeId(0)),
            join2,
        );
        let mut e = env(&mut rng, SimTime::from_millis(3300)); // slot 13 < lockout 14
        m.on_message(&mut e, iface, &jp2);
        assert_eq!(m.stats.session_joins_locked_out, 1);
        let mut e = env(&mut rng, SimTime::from_millis(3300));
        assert!(!m.filter_data(&mut e, iface, &mut data_packet(minimal, 13)));
    }

    #[test]
    fn raw_igmp_blocked_for_protected_groups_only() {
        let mut m = module();
        let mut rng = DetRng::new(5);
        let protected = GroupAddr(5);
        let legacy = GroupAddr(99);
        install_tuple(&mut m, protected, 1, Key(1));
        let mut e = env(&mut rng, SimTime::ZERO);
        assert!(!m.allow_igmp(&mut e, LinkId(0), protected, true));
        assert!(m.allow_igmp(&mut e, LinkId(0), legacy, true));
        assert_eq!(m.stats.raw_igmp_blocked, 1);
    }

    #[test]
    fn unprotected_data_passes_protected_body_marks_group() {
        let mut m = module();
        let mut rng = DetRng::new(6);
        let g = GroupAddr(40);
        // A plain (legacy) packet passes.
        let mut plain = Packet::opaque(100, FlowId(0), AgentId(0), Dest::Group(g));
        let mut e = env(&mut rng, SimTime::ZERO);
        assert!(m.filter_data(&mut e, LinkId(0), &mut plain));
        // A ProtectedData packet without grant is denied and marks the
        // group protected…
        let mut e = env(&mut rng, SimTime::ZERO);
        assert!(!m.filter_data(&mut e, LinkId(0), &mut data_packet(g, 0)));
        // …after which raw IGMP for the group is refused.
        let mut e = env(&mut rng, SimTime::ZERO);
        assert!(!m.allow_igmp(&mut e, LinkId(0), g, true));
    }

    #[test]
    fn specials_install_tuples() {
        use crate::keydist::{build_announcement, layered_tuples};
        use mcc_delta::LayeredKeySchedule;
        let mut m = module();
        let mut rng = DetRng::new(7);
        let sched = LayeredKeySchedule::generate(&mut rng, 3, UpgradeMask::NONE);
        let addrs: Vec<GroupAddr> = (1..=3).map(GroupAddr).collect();
        let ann = build_announcement(
            12,
            layered_tuples(&sched, &addrs),
            GroupAddr(0),
            AgentId(0),
            FlowId(0),
            2,
        );
        for p in &ann.packets {
            let mut e = env(&mut rng, SimTime::from_secs(1));
            m.on_special(&mut e, p);
        }
        assert_eq!(m.stats.specials, ann.packets.len() as u64);
        // FEC duplicates install once.
        assert_eq!(m.stats.tuples_installed, 3);
        assert!(m.table.validate(GroupAddr(2), 12, sched.top_key(2)));
        assert!(m
            .table
            .validate(GroupAddr(1), 12, sched.decrease_key(1).unwrap()));
        assert!(!m.table.validate(GroupAddr(3), 12, Key(0xdead)));
    }

    #[test]
    fn tick_prunes_interfaces_with_stale_grants() {
        let mut m = module();
        let mut rng = DetRng::new(8);
        let g = GroupAddr(5);
        let iface = LinkId(3);
        install_tuple(&mut m, g, 10, Key(77));
        let mut e = env(&mut rng, SimTime::from_millis(2400));
        m.on_message(&mut e, iface, &subscription(g, 10, Key(77)));
        // Burn the grace so only the slot-10 grant protects the iface.
        let mut e = env(&mut rng, SimTime::from_millis(2500));
        m.filter_data(&mut e, iface, &mut data_packet(g, 10));
        // Tick far in the future: grant for slot 10 is stale.
        let mut e = env(&mut rng, SimTime::from_millis(10_000)); // slot 40
        m.on_timer(&mut e, TICK);
        assert!(
            e.actions
                .iter()
                .any(|a| matches!(a, EdgeAction::PruneIface(gg, ii) if *gg == g && *ii == iface)),
            "stale interface pruned"
        );
        assert!(!m.has_grant(iface, g, 10));
    }

    #[test]
    fn unsubscription_prunes_and_revokes() {
        let mut m = module();
        let mut rng = DetRng::new(10);
        let g = GroupAddr(5);
        let iface = LinkId(3);
        install_tuple(&mut m, g, 10, Key(77));
        let mut e = env(&mut rng, SimTime::from_secs(2));
        m.on_message(&mut e, iface, &subscription(g, 10, Key(77)));
        assert!(m.has_grant(iface, g, 10));
        // Explicit unsubscription (paper Fig. 6c): grants vanish and the
        // interface is pruned immediately.
        let unsub = Unsubscription { groups: vec![g] };
        let up = Packet::app(
            unsub.size_bits(),
            FlowId(1),
            AgentId(7),
            Dest::Router(NodeId(0)),
            unsub,
        );
        let mut e = env(&mut rng, SimTime::from_secs(2));
        m.on_message(&mut e, iface, &up);
        assert!(!m.has_grant(iface, g, 10));
        assert!(e
            .actions
            .iter()
            .any(|a| matches!(a, EdgeAction::PruneIface(gg, ii) if *gg == g && *ii == iface)));
        // Data is denied afterwards.
        let mut e = env(&mut rng, SimTime::from_secs(2));
        assert!(!m.filter_data(&mut e, iface, &mut data_packet(g, 10)));
        assert_eq!(m.stats.unsubscriptions, 1);
    }

    #[test]
    fn grants_are_per_interface() {
        let mut m = module();
        let mut rng = DetRng::new(11);
        let g = GroupAddr(5);
        install_tuple(&mut m, g, 10, Key(77));
        let mut e = env(&mut rng, SimTime::from_secs(2));
        m.on_message(&mut e, LinkId(3), &subscription(g, 10, Key(77)));
        // Another interface presenting the same (valid) key also gets a
        // grant — the key is the credential, not the interface.
        let mut e = env(&mut rng, SimTime::from_secs(2));
        m.on_message(&mut e, LinkId(4), &subscription(g, 10, Key(77)));
        assert!(m.has_grant(LinkId(3), g, 10));
        assert!(m.has_grant(LinkId(4), g, 10));
        // But a third interface without any subscription stays dark.
        let mut e = env(&mut rng, SimTime::from_secs(2));
        assert!(!m.filter_data(&mut e, LinkId(5), &mut data_packet(g, 10)));
    }

    /// The collusion guard is scoped to its session: keys for foreign
    /// groups fall back to plain table validation instead of being
    /// rejected wholesale (incremental deployment, §3.2.3).
    #[test]
    fn guard_scopes_to_its_session_foreign_groups_validate_plainly() {
        let cfg = SigmaConfig::new(SimDuration::from_millis(250)).with_guard(vec![GroupAddr(1)]);
        let mut m = SigmaEdgeModule::new(cfg);
        let mut rng = DetRng::new(12);
        let foreign = GroupAddr(40); // another session's group
        let iface = LinkId(3);
        install_tuple(&mut m, foreign, 10, Key(55));
        let mut e = env(&mut rng, SimTime::from_secs(2));
        m.on_message(&mut e, iface, &subscription(foreign, 10, Key(55)));
        assert!(
            m.has_grant(iface, foreign, 10),
            "foreign-session keys must not be swallowed by the guard"
        );
        // The guarded session's groups go through guard validation: once
        // the iface saw perturbed traffic, a key smuggled from another
        // iface (here: the unperturbed upper key XOR a wrong value) fails.
        install_tuple(&mut m, GroupAddr(1), 10, Key(77));
        let mut e = env(&mut rng, SimTime::from_secs(2));
        m.on_message(
            &mut e,
            iface,
            &subscription(GroupAddr(1), 10, Key(77 ^ 0xBEEF)),
        );
        assert!(!m.has_grant(iface, GroupAddr(1), 10));
    }

    /// Detection timestamps: the first lockout and the first guessing
    /// alarm land in the stats for the matrix's time-to-lockout metric.
    #[test]
    fn detection_slots_are_recorded_once() {
        let mut m = module();
        let mut rng = DetRng::new(13);
        let g = GroupAddr(5);
        let iface = LinkId(3);
        install_tuple(&mut m, g, 10, Key(77));
        assert_eq!(m.stats.first_guess_alarm_slot, None);
        for wrong in 0..10u64 {
            let mut e = env(&mut rng, SimTime::from_secs(2)); // slot 8
            m.on_message(&mut e, iface, &subscription(g, 10, Key(1000 + wrong)));
        }
        assert_eq!(m.stats.first_guess_alarm_slot, Some(8));
        assert_eq!(m.guess_tally(iface), 10);

        // Keyless grace → exhaustion → lockout stamps the other field.
        let minimal = GroupAddr(1);
        let join = SessionJoin {
            minimal_group: minimal,
            control_group: GroupAddr(0),
        };
        let jp = Packet::app(
            join.size_bits(),
            FlowId(0),
            AgentId(5),
            Dest::Router(NodeId(0)),
            join,
        );
        let mut e = env(&mut rng, SimTime::from_millis(2500)); // slot 10
        m.on_message(&mut e, iface, &jp);
        let mut e = env(&mut rng, SimTime::from_millis(2500));
        assert!(m.filter_data(&mut e, iface, &mut data_packet(minimal, 10)));
        let mut e = env(&mut rng, SimTime::from_millis(3300)); // slot 13
        assert!(!m.filter_data(&mut e, iface, &mut data_packet(minimal, 13)));
        assert_eq!(m.stats.first_lockout_slot, Some(13));
        assert_eq!(m.lockout_until(iface, minimal), Some(14));
    }

    #[test]
    fn ecn_marked_packets_get_scrambled_components() {
        let mut m = module();
        let mut rng = DetRng::new(9);
        let g = GroupAddr(5);
        let iface = LinkId(3);
        install_tuple(&mut m, g, 10, Key(77));
        let mut e = env(&mut rng, SimTime::from_secs(2));
        m.on_message(&mut e, iface, &subscription(g, 10, Key(77)));
        let mut pkt = data_packet(g, 10);
        pkt.ecn = Ecn::Marked;
        let before = pkt.body_as::<ProtectedData>().unwrap().fields.component;
        let mut e = env(&mut rng, SimTime::from_secs(2));
        assert!(m.filter_data(&mut e, iface, &mut pkt));
        let after = pkt.body_as::<ProtectedData>().unwrap().fields.component;
        assert_ne!(before, after, "marked component must be scrambled");
    }
}
