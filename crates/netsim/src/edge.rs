//! Edge-module hooks.
//!
//! The paper's Requirement 3 demands that access-control support at edge
//! routers be *generic* — independent of any congestion-control protocol.
//! `netsim` therefore exposes a small hook trait, [`EdgeModule`], and SIGMA
//! (crate `mcc-sigma`) is just one implementation of it. The simulator calls
//! the module at four points:
//!
//! * a multicast data packet is about to be forwarded onto a host-facing
//!   interface → [`EdgeModule::filter_data`] (allow / deny / mutate),
//! * a router-alert ("special") packet reaches the node →
//!   [`EdgeModule::on_special`],
//! * a control-plane message addressed to this router arrives →
//!   [`EdgeModule::on_message`],
//! * a host-originated IGMP graft/prune reaches a host-facing interface →
//!   [`EdgeModule::allow_igmp`] (SIGMA returns `false`: raw IGMP is replaced
//!   by key-checked subscription, which is exactly what defeats inflated
//!   subscription).
//!
//! Modules cannot touch the [`World`](crate::sim::World) directly; they queue
//! [`EdgeAction`]s on the [`EdgeEnv`] and the simulator applies them after
//! the callback returns, which keeps re-entrancy impossible by construction.

use crate::addr::{GroupAddr, LinkId, NodeId};
use crate::packet::Packet;
use mcc_obs::TraceEvent;
use mcc_simcore::{DetRng, SimDuration, SimTime};
use std::fmt;

/// Side effects an edge module may request.
#[derive(Debug)]
pub enum EdgeAction {
    /// Send a packet, routed from this node (acks, key echoes…).
    Send(Packet),
    /// Start forwarding `group` onto the host-facing interface.
    GraftIface(GroupAddr, LinkId),
    /// Stop forwarding `group` onto the host-facing interface.
    PruneIface(GroupAddr, LinkId),
    /// Anchor this router on `group`'s tree (used for the session's
    /// key-distribution control group).
    JoinModule(GroupAddr),
    /// Deliver [`EdgeModule::on_timer`] with `token` after the delay.
    Timer(SimDuration, u64),
    /// Record a trace event on the world's flight recorder. Only queued
    /// when [`EdgeEnv::trace_on`] is set, so modules pay nothing with
    /// tracing off.
    Trace(TraceEvent),
}

/// Context handed to edge-module callbacks.
pub struct EdgeEnv<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The node the module is installed on.
    pub node: NodeId,
    /// Deterministic randomness (interface-key perturbation etc.).
    pub rng: &'a mut DetRng,
    /// Queued side effects; applied by the simulator after the callback.
    pub actions: Vec<EdgeAction>,
    /// Whether the world has a flight recorder attached. Modules must
    /// check this (or call [`EdgeEnv::trace`], which does) before building
    /// a [`TraceEvent`], keeping the tracing-off hot path to one branch.
    pub trace_on: bool,
}

impl<'a> EdgeEnv<'a> {
    /// Queue a packet send.
    pub fn send(&mut self, pkt: Packet) {
        self.actions.push(EdgeAction::Send(pkt));
    }

    /// Queue a host-facing graft.
    pub fn graft_iface(&mut self, group: GroupAddr, iface: LinkId) {
        self.actions.push(EdgeAction::GraftIface(group, iface));
    }

    /// Queue a host-facing prune.
    pub fn prune_iface(&mut self, group: GroupAddr, iface: LinkId) {
        self.actions.push(EdgeAction::PruneIface(group, iface));
    }

    /// Queue a module-membership join.
    pub fn join_module(&mut self, group: GroupAddr) {
        self.actions.push(EdgeAction::JoinModule(group));
    }

    /// Queue a timer callback.
    pub fn timer_in(&mut self, delay: SimDuration, token: u64) {
        self.actions.push(EdgeAction::Timer(delay, token));
    }

    /// Queue a trace event; a no-op when tracing is off.
    #[inline]
    pub fn trace(&mut self, ev: TraceEvent) {
        if self.trace_on {
            self.actions.push(EdgeAction::Trace(ev));
        }
    }
}

/// Behaviour installed on an edge router.
///
/// All methods have defaults equivalent to "classic IGMP router": forward
/// everything, allow raw IGMP, ignore control traffic.
pub trait EdgeModule: fmt::Debug + Send + std::any::Any {
    /// Decide whether a multicast data packet may be forwarded onto the
    /// host-facing interface `iface`; the packet may be mutated (ECN
    /// component scrambling, interface-key perturbation).
    fn filter_data(&mut self, _env: &mut EdgeEnv, _iface: LinkId, _pkt: &mut Packet) -> bool {
        true
    }

    /// A router-alert packet reached this node (SIGMA key distribution).
    fn on_special(&mut self, _env: &mut EdgeEnv, _pkt: &Packet) {}

    /// A control message addressed to this router arrived on `from_iface`
    /// (the host-facing out-link identifying the requesting interface).
    fn on_message(&mut self, _env: &mut EdgeEnv, _from_iface: LinkId, _pkt: &Packet) {}

    /// A raw IGMP graft (`join == true`) or prune reached the host-facing
    /// interface `iface`; return `false` to ignore it.
    fn allow_igmp(
        &mut self,
        _env: &mut EdgeEnv,
        _iface: LinkId,
        _group: GroupAddr,
        _join: bool,
    ) -> bool {
        true
    }

    /// A timer queued via [`EdgeEnv::timer_in`] fired.
    fn on_timer(&mut self, _env: &mut EdgeEnv, _token: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default impl is a transparent classic-IGMP router.
    #[derive(Debug)]
    struct Transparent;
    impl EdgeModule for Transparent {}

    #[test]
    fn default_module_is_transparent() {
        let mut m = Transparent;
        let mut rng = DetRng::new(0);
        let mut env = EdgeEnv {
            now: SimTime::ZERO,
            node: NodeId(0),
            rng: &mut rng,
            actions: Vec::new(),
            trace_on: false,
        };
        let mut pkt = Packet::opaque(
            8,
            crate::addr::FlowId(0),
            crate::addr::AgentId(0),
            crate::packet::Dest::Group(GroupAddr(1)),
        );
        assert!(m.filter_data(&mut env, LinkId(0), &mut pkt));
        assert!(m.allow_igmp(&mut env, LinkId(0), GroupAddr(1), true));
        m.on_special(&mut env, &pkt);
        m.on_timer(&mut env, 7);
        assert!(env.actions.is_empty());
    }

    #[test]
    fn env_queues_actions_in_order() {
        let mut rng = DetRng::new(0);
        let mut env = EdgeEnv {
            now: SimTime::ZERO,
            node: NodeId(3),
            rng: &mut rng,
            actions: Vec::new(),
            trace_on: false,
        };
        env.graft_iface(GroupAddr(1), LinkId(2));
        env.timer_in(SimDuration::from_millis(250), 9);
        env.prune_iface(GroupAddr(1), LinkId(2));
        assert_eq!(env.actions.len(), 3);
        assert!(matches!(env.actions[0], EdgeAction::GraftIface(..)));
        assert!(matches!(env.actions[1], EdgeAction::Timer(..)));
        assert!(matches!(env.actions[2], EdgeAction::PruneIface(..)));
    }

    #[test]
    fn trace_is_inert_unless_enabled() {
        let mut rng = DetRng::new(0);
        let ev = TraceEvent::SigmaAlarm {
            node: 1,
            iface: 2,
            group: 3,
            slot: 4,
        };
        let mut env = EdgeEnv {
            now: SimTime::ZERO,
            node: NodeId(1),
            rng: &mut rng,
            actions: Vec::new(),
            trace_on: false,
        };
        env.trace(ev);
        assert!(env.actions.is_empty(), "tracing off: no action queued");
        env.trace_on = true;
        env.trace(ev);
        assert!(matches!(env.actions.as_slice(), [EdgeAction::Trace(_)]));
    }
}
