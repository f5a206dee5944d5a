//! The simulator: world state, event loop, agent and edge dispatch.
//!
//! Layering (who may touch what):
//!
//! * [`World`] owns nodes, links, the event queue, the RNG and the monitor.
//!   It implements packet forwarding, multicast tree maintenance and queue
//!   service — all pure state manipulation.
//! * [`Agent`]s (protocol endpoints) never see the `World`; they act through
//!   a [`Ctx`] that exposes exactly the operations a host's protocol stack
//!   would have: send a packet, set a timer, join/leave a group.
//! * [`EdgeModule`]s (router extensions, e.g. SIGMA) act through
//!   [`EdgeEnv`] action queues, applied after each callback.
//! * [`Sim`] owns the `World` plus the boxed agents and runs the loop.
//!
//! Everything is deterministic: the event queue is totally ordered and all
//! randomness flows from the scenario seed.
//!
//! ## The hot path
//!
//! Steady-state forwarding is allocation-free:
//!
//! * group addresses are interned to dense [`GroupIdx`] slots the first
//!   time they are registered or joined, so per-node multicast state is a
//!   slab (`Vec<Option<GroupEntry>>`) and a unicast next hop is a
//!   one-link node's default route or an index into a router's dense
//!   table — array indexing, not hashing, per hop;
//! * `World::forward_multicast` snapshots the fan-out into scratch
//!   buffers owned by the `World` (taken with `mem::take` so re-entrant
//!   forwarding triggered by edge actions cannot alias them, and restored
//!   afterwards), instead of allocating fresh `Vec`s per packet;
//! * packet payloads are `Arc`-shared and never mutated (per-branch
//!   rewrites go into [`Packet::xor`]), so each branch's copy is a pointer
//!   bump, and the packet itself is *moved* into the last branch rather
//!   than cloned.

use crate::addr::{AgentId, FlowId, GroupAddr, GroupIdx, LinkId, NodeId};
use crate::edge::{EdgeAction, EdgeEnv, EdgeModule};
use crate::link::{Link, LinkStats};
use crate::monitor::Monitor;
use crate::node::{GroupEntry, Interest, Node, Routes};
use crate::packet::{Dest, Packet, TreeControl};
use crate::queue::{EnqueueOutcome, Queue};
use mcc_obs::{DropReason, PktRef, Recorder, TraceEvent, GROUP_NONE};
use mcc_simcore::{DetRng, EventQueue, SimDuration, SimTime};
use std::any::Any;

/// The packet identity a trace event carries, copied out of `pkt` standing
/// at `node` on `link` (if any). `agent` is filled only by delivery sites.
#[inline]
fn pkt_ref(node: NodeId, link: Option<LinkId>, pkt: &Packet) -> PktRef {
    PktRef {
        node: node.0,
        link: link.map_or(u32::MAX, |l| l.0),
        flow: pkt.flow.0,
        src: pkt.src.0,
        group: match pkt.dst {
            Dest::Group(g) => g.0,
            _ => GROUP_NONE,
        },
        agent: u32::MAX,
        size_bits: pkt.size_bits,
    }
}

/// Flow id used by simulator-internal control packets (grafts/prunes).
pub(crate) const CONTROL_FLOW: FlowId = FlowId(u32::MAX);

/// Wire size assumed for graft/prune control packets.
pub(crate) const CONTROL_PACKET_BITS: u64 = 512;

/// Scheduled occurrences.
#[derive(Debug)]
pub(crate) enum Event {
    /// Head-of-line packet on a link finished serializing.
    Departure(LinkId),
    /// A packet finished propagating and arrives at the link's `to` node.
    Arrival(LinkId, Packet),
    /// First activation of an agent.
    AgentStart(AgentId),
    /// An agent timer fired.
    AgentTimer(AgentId, u64),
    /// An edge-module timer fired.
    EdgeTimer(NodeId, u64),
    /// Same-node delivery (sender and receiver share a host).
    LocalDeliver(AgentId, Packet),
    /// After a local leave: re-check whether `node` still needs the group.
    LeaveCheck(NodeId, GroupIdx),
}

/// A protocol endpoint.
///
/// Implementations must be `'static` so results can be extracted after a run
/// via [`Sim::agent_as`].
pub trait Agent: Any + Send {
    /// Called once at the agent's start time.
    fn on_start(&mut self, _ctx: &mut Ctx) {}
    /// A packet destined to this agent (unicast) or to a group it joined.
    fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {}
    /// A timer set through [`Ctx::timer_in`]/[`Ctx::timer_at`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx, _token: u64) {}
}

/// The capabilities an agent has over the outside world.
pub struct Ctx<'w> {
    world: &'w mut World,
    /// The agent being dispatched.
    pub agent: AgentId,
    /// The node it is attached to.
    pub(crate) node: NodeId,
}

impl<'w> Ctx<'w> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.world.now
    }

    /// Deterministic randomness.
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.world.rng
    }

    /// Send a packet from this agent's node. The source field is stamped
    /// with this agent's id.
    pub fn send(&mut self, mut pkt: Packet) {
        pkt.src = self.agent;
        self.world.route(self.node, None, pkt);
    }

    /// Fire `on_timer(token)` after `delay`.
    ///
    /// Every call schedules one event, and nothing cancels it: a replaced
    /// timer still sits in the event list until it fires. A timer restarted
    /// on every packet (a retransmission timeout) should therefore keep a
    /// deadline and one scheduled event that re-arms itself at the deadline
    /// when it fires early, as `mcc-tcp`'s `RtoTimer` does.
    pub fn timer_in(&mut self, delay: SimDuration, token: u64) {
        let at = self.world.now + delay;
        self.world
            .events
            .push(at, Event::AgentTimer(self.agent, token));
    }

    /// Fire `on_timer(token)` at the absolute instant `at` (clamped to
    /// `now` so simulated time never runs backwards). Like
    /// [`Ctx::timer_in`], each call is one event that stays scheduled.
    pub fn timer_at(&mut self, at: SimTime, token: u64) {
        let at = at.max(self.world.now);
        self.world
            .events
            .push(at, Event::AgentTimer(self.agent, token));
    }

    /// Join a multicast group (IGMP host report). Grafting toward the
    /// source happens hop-by-hop with real control packets.
    pub fn join_group(&mut self, group: GroupAddr) {
        let member = Interest::Member(self.agent);
        self.world.join_tree(self.node, group, member);
    }

    /// Leave a multicast group. The node re-checks its membership as a
    /// separate event at the same instant and prunes upstream if nothing
    /// else keeps it on the tree; there is no leave latency.
    pub fn leave_group(&mut self, group: GroupAddr) {
        let member = Interest::Member(self.agent);
        self.world.leave_tree(self.node, group, member);
    }

    /// Whether a flight recorder is attached. Agents must check this (one
    /// branch) before building a [`TraceEvent`] so tracing-off runs pay
    /// nothing.
    #[inline]
    pub fn trace_on(&self) -> bool {
        self.world.tracer.is_some()
    }

    /// Record a trace event at the current sim time; no-op when tracing
    /// is off.
    #[inline]
    pub fn trace(&mut self, ev: TraceEvent) {
        self.world.trace(ev);
    }
}

/// All passive simulation state.
pub struct World {
    /// Current simulation time.
    pub(crate) now: SimTime,
    pub(crate) events: EventQueue<Event>,
    /// All links, indexed by [`LinkId`].
    pub links: Vec<Link>,
    /// All nodes, indexed by [`NodeId`].
    pub nodes: Vec<Node>,
    /// Attachment node of each agent.
    pub agent_nodes: Vec<NodeId>,
    /// The group-address interner, direct-indexed by address: address →
    /// dense slab index, or `u32::MAX`. Grows at `register_group` and on
    /// first join; addresses stay below `GROUP_DENSE_CAP` (the topology
    /// builders allocate `1000 × (session + 1) + g`). The multicast hot
    /// path reads it once per hop: one array load.
    pub(crate) group_dense: Vec<u32>,
    /// Reverse of `group_dense`, indexed by [`GroupIdx`].
    pub(crate) group_addrs: Vec<GroupAddr>,
    /// Registered multicast source host per group, indexed by [`GroupIdx`].
    pub(crate) group_sources: Vec<Option<NodeId>>,
    /// Root randomness for the run.
    pub(crate) rng: DetRng,
    /// Delivery statistics.
    pub monitor: Monitor,
    pub(crate) finalized: bool,
    /// Hot-path sidecars: dense copies of `Link::to`, `Link::reverse` and
    /// `Link::host_facing`, rebuilt by `finalize`. A `Link` record spans
    /// several cache lines (queue, in-service packet, stats); arrival
    /// dispatch and the multicast fan-out snapshot only need these three
    /// scalars, so they read a packed array instead of gathering across
    /// the fat records.
    pub(crate) link_to: Vec<NodeId>,
    pub(crate) link_reverse: Vec<LinkId>,
    pub(crate) link_host_facing: Vec<bool>,
    // Reusable scratch buffers for `forward_multicast` (see module docs).
    scratch_fanout: Vec<(LinkId, bool)>,
    scratch_members: Vec<AgentId>,
    scratch_actions: Vec<EdgeAction>,
    /// The observability flight recorder, attached only while tracing is
    /// on (`figures --trace`). Boxed so the tracing-off `World` pays one pointer
    /// of space and one `is_some` branch per instrumentation site.
    pub(crate) tracer: Option<Box<Recorder>>,
}

impl World {
    pub(crate) fn new(seed: u64, monitor_bin: SimDuration) -> Self {
        World {
            now: SimTime::ZERO,
            events: EventQueue::new(),
            links: Vec::new(),
            nodes: Vec::new(),
            agent_nodes: Vec::new(),
            group_dense: Vec::new(),
            group_addrs: Vec::new(),
            group_sources: Vec::new(),
            rng: DetRng::new(seed),
            monitor: Monitor::new(monitor_bin),
            finalized: false,
            link_to: Vec::new(),
            link_reverse: Vec::new(),
            link_host_facing: Vec::new(),
            scratch_fanout: Vec::new(),
            scratch_members: Vec::new(),
            scratch_actions: Vec::new(),
            tracer: None,
        }
    }

    /// Attach a flight recorder; subsequent simulation activity is traced.
    pub fn attach_tracer(&mut self, rec: Recorder) {
        self.tracer = Some(Box::new(rec));
    }

    /// Detach and return the flight recorder, turning tracing off.
    pub fn take_tracer(&mut self) -> Option<Recorder> {
        self.tracer.take().map(|b| *b)
    }

    /// Whether a flight recorder is attached.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Record a trace event at the current sim time; no-op when off.
    #[inline]
    pub(crate) fn trace(&mut self, ev: TraceEvent) {
        if let Some(rec) = self.tracer.as_deref_mut() {
            rec.record(self.now, ev);
        }
    }

    /// Every interned address is below this, so `group_dense` stays at
    /// most 256 KiB (touched only at the few hot entries).
    const GROUP_DENSE_CAP: usize = 1 << 16;

    /// The dense slab index of `group`, interning it if new.
    fn intern_group(&mut self, group: GroupAddr) -> GroupIdx {
        if let Some(gi) = self.group_idx(group) {
            return gi;
        }
        let a = group.0 as usize;
        assert!(
            a < Self::GROUP_DENSE_CAP,
            "group address {group} is over the interner's {} limit",
            Self::GROUP_DENSE_CAP
        );
        if a >= self.group_dense.len() {
            self.group_dense.resize(a + 1, u32::MAX);
        }
        let gi = GroupIdx(self.group_addrs.len() as u32);
        self.group_dense[a] = gi.0;
        self.group_addrs.push(group);
        self.group_sources.push(None);
        gi
    }

    /// The slab index of `group`, if it was ever registered or joined.
    #[inline]
    pub(crate) fn group_idx(&self, group: GroupAddr) -> Option<GroupIdx> {
        match self.group_dense.get(group.0 as usize) {
            Some(&gi) if gi != u32::MAX => Some(GroupIdx(gi)),
            _ => None,
        }
    }

    /// A node's forwarding state for `group`, if it is on the tree.
    pub fn group_entry(&self, node: NodeId, group: GroupAddr) -> Option<&GroupEntry> {
        self.group_idx(group)
            .and_then(|gi| self.nodes[node.index()].group(gi))
    }

    /// Route `pkt` standing at `node` (having arrived on `in_link`, if any).
    fn route(&mut self, node: NodeId, in_link: Option<LinkId>, pkt: Packet) {
        match pkt.dst {
            Dest::Agent(dst) => {
                let dst_node = self.agent_nodes[dst.index()];
                if dst_node == node {
                    self.events.push(self.now, Event::LocalDeliver(dst, pkt));
                } else {
                    self.forward_toward(node, dst_node, pkt);
                }
            }
            Dest::Router(dst_node) => {
                if dst_node == node {
                    // Control message for this router's edge module.
                    let from_iface = in_link.map(|l| self.link_reverse[l.index()]);
                    self.edge_message(node, from_iface, &pkt);
                } else {
                    self.forward_toward(node, dst_node, pkt);
                }
            }
            Dest::Group(_) => self.forward_multicast(node, in_link, pkt),
        }
    }

    fn forward_toward(&mut self, node: NodeId, dst_node: NodeId, pkt: Packet) {
        let Some(out) = self.nodes[node.index()].route_to(dst_node) else {
            // No route: the packet dies silently, mirroring a routing hole.
            return;
        };
        self.enqueue_link(out, pkt);
    }

    /// Multicast forwarding with edge filtering (paper §3.2.2) and
    /// router-alert interception (paper §3.2.1).
    ///
    /// Allocation-free in steady state: the fan-out and local-member sets
    /// are snapshotted into `World`-owned scratch buffers, every branch's
    /// copy shares the `Arc`'d payload, and the packet itself is moved
    /// into the last branch instead of cloned.
    fn forward_multicast(&mut self, node: NodeId, in_link: Option<LinkId>, pkt: Packet) {
        let group = match pkt.dst {
            Dest::Group(g) => g,
            _ => unreachable!("forward_multicast on non-group packet"),
        };
        let Some(gi) = self.group_idx(group) else {
            return; // Never registered or joined anywhere: no tree exists.
        };
        let back = in_link.map(|l| self.link_reverse[l.index()]);
        let n = node.index();
        let Some(entry) = self.nodes[n].group(gi) else {
            return;
        };

        // Leaf-host fast path — the overwhelmingly common case in wide
        // fan-outs: no downstream interfaces, no edge module, just local
        // members. Deliver straight from the entry without staging
        // through the scratch buffers. Ablated in ISSUE 15: without it
        // the three multicast benchmark workloads are 9 %, 9 % and 14 %
        // slower, in 4 of 4 alternating pairs each.
        if !pkt.router_alert
            && entry.ifaces().is_empty()
            && !entry.members().is_empty()
            && self.nodes[n].edge.is_none()
        {
            let last = entry.members().len() - 1;
            for (k, &agent) in entry.members().iter().enumerate() {
                if k == last {
                    self.events.push(self.now, Event::LocalDeliver(agent, pkt));
                    return;
                }
                self.events
                    .push(self.now, Event::LocalDeliver(agent, pkt.clone()));
            }
            return;
        }

        // Snapshot the fan-out into scratch buffers. `mem::take` detaches
        // them from `self` so nested forwarding (edge actions can
        // originate packets) sees empty buffers instead of aliasing ours;
        // both are restored below. Router-alert packets are never
        // forwarded onto host-facing interfaces or to local agents.
        let router_alert = pkt.router_alert;
        let mut fanout = std::mem::take(&mut self.scratch_fanout);
        let mut members = std::mem::take(&mut self.scratch_members);
        fanout.clear();
        members.clear();
        for &iface in entry.ifaces() {
            if Some(iface) == back {
                continue;
            }
            let host_facing = self.link_host_facing[iface.index()];
            if router_alert && host_facing {
                continue;
            }
            fanout.push((iface, host_facing));
        }
        if !router_alert {
            members.extend(entry.members().iter().copied());
        }

        // Router-alert packets are shown to the edge module.
        let has_edge = self.nodes[n].edge.is_some();
        if router_alert && has_edge {
            self.with_edge(node, |module, env| module.on_special(env, &pkt));
        }

        let mut module = if has_edge {
            self.nodes[n].edge.take()
        } else {
            None
        };
        let mut actions = std::mem::take(&mut self.scratch_actions);
        let flow = pkt.flow;
        let branches = fanout.len();
        let members_pending = !members.is_empty();
        // Wrapped so the last consumer takes the packet by move.
        let mut pkt = Some(pkt);
        for (k, &(iface, host_facing)) in fanout.iter().enumerate() {
            let last_consumer = k + 1 == branches && !members_pending;
            let mut copy = if last_consumer {
                pkt.take().expect("packet moved once")
            } else {
                pkt.as_ref().expect("packet present until last").clone()
            };
            let allowed = if host_facing {
                if let Some(m) = module.as_mut() {
                    let mut env = EdgeEnv {
                        now: self.now,
                        node,
                        rng: &mut self.rng,
                        actions: std::mem::take(&mut actions),
                        trace_on: self.tracer.is_some(),
                    };
                    let ok = m.filter_data(&mut env, iface, &mut copy);
                    actions = env.actions;
                    ok
                } else {
                    true
                }
            } else {
                true
            };
            if allowed {
                self.enqueue_link(iface, copy);
            } else {
                self.links[iface.index()].note_drop(flow);
                if self.tracer.is_some() {
                    let p = pkt_ref(node, Some(iface), &copy);
                    self.trace(TraceEvent::PktDrop(p, DropReason::EdgeFilter));
                }
            }
        }
        if let Some(m) = module {
            self.nodes[n].edge = Some(m);
        }
        self.apply_edge_actions(node, &mut actions);
        self.scratch_actions = actions;

        if let Some(last) = members.len().checked_sub(1) {
            for (k, &agent) in members.iter().enumerate() {
                let copy = if k == last {
                    pkt.take().expect("packet moved once")
                } else {
                    pkt.as_ref().expect("packet present until last").clone()
                };
                self.events.push(self.now, Event::LocalDeliver(agent, copy));
            }
        }
        fanout.clear();
        members.clear();
        self.scratch_fanout = fanout;
        self.scratch_members = members;
    }

    /// Offer a packet to a link's transmitter/queue.
    fn enqueue_link(&mut self, l: LinkId, pkt: Packet) {
        let now = self.now;
        let tracing = self.tracer.is_some();
        // Split borrows: the link and the RNG live in different fields.
        let link = &mut self.links[l.index()];
        let node = link.from;
        // Staged outside the link borrow; recorded once it ends.
        let mut ev = None;
        if link.in_service.is_none() {
            if tracing {
                ev = Some(TraceEvent::PktEnqueue(pkt_ref(node, Some(l), &pkt)));
            }
            let tx = SimDuration::transmission(pkt.size_bits, link.bps);
            link.in_service = Some(pkt);
            self.events.push(now + tx, Event::Departure(l));
        } else {
            let bps = link.bps;
            let staged = if tracing {
                Some(pkt_ref(node, Some(l), &pkt))
            } else {
                None
            };
            let (outcome, rejected) = link.queue.enqueue(pkt, now, bps, &mut self.rng);
            match outcome {
                EnqueueOutcome::Dropped => {
                    // The victim may differ from the offered packet under
                    // some queue policies, so trace the one that died.
                    let victim = rejected.expect("dropped packet returned");
                    link.note_drop(victim.flow);
                    if tracing {
                        ev = Some(TraceEvent::PktDrop(
                            pkt_ref(node, Some(l), &victim),
                            DropReason::QueueFull,
                        ));
                    }
                }
                EnqueueOutcome::Marked => {
                    link.stats.marks += 1;
                    ev = staged.map(TraceEvent::PktMark);
                }
                EnqueueOutcome::Enqueued => ev = staged.map(TraceEvent::PktEnqueue),
            }
        }
        if let Some(ev) = ev {
            self.trace(ev);
        }
    }

    /// Put `interest` on `node`'s entry for `group`, grafting one hop
    /// toward the source if the node was off the tree. Every way onto the
    /// tree — agent joins, grafts from downstream, edge-module grafts and
    /// anchors — comes through here.
    fn join_tree(&mut self, node: NodeId, group: GroupAddr, interest: Interest) {
        let gi = self.intern_group(group);
        let entry = self.nodes[node.index()].group_or_default(gi);
        let was_on_tree = entry.on_tree();
        entry.add(interest);
        if !was_on_tree {
            self.send_upstream(node, gi, true);
        }
    }

    /// Take `interest` off `node`'s entry for `group`. An agent's leave
    /// re-checks the node as its own event at the same instant; an
    /// interface prune checks at once.
    fn leave_tree(&mut self, node: NodeId, group: GroupAddr, interest: Interest) {
        let Some(gi) = self.group_idx(group) else {
            return; // Never registered or joined anywhere.
        };
        let Some(entry) = self.nodes[node.index()].group_mut(gi) else {
            return;
        };
        entry.remove(interest);
        match interest {
            Interest::Member(_) => self.events.push(self.now, Event::LeaveCheck(node, gi)),
            _ => self.prune_if_off_tree(node, gi),
        }
    }

    /// Drop `node`'s entry and prune one hop toward the source if nothing
    /// keeps the node on the tree any more.
    fn prune_if_off_tree(&mut self, node: NodeId, gi: GroupIdx) {
        let n = node.index();
        if self.nodes[n].group(gi).is_some_and(|e| !e.on_tree()) {
            self.nodes[n].group_remove(gi);
            self.send_upstream(node, gi, false);
        }
    }

    /// Send a graft (`join`) or prune one hop toward the group's source.
    /// An unregistered group's membership stays local, and the source
    /// itself has no route to itself.
    fn send_upstream(&mut self, node: NodeId, gi: GroupIdx, join: bool) {
        let Some(source) = self.group_sources[gi.index()] else {
            return;
        };
        let Some(out) = self.nodes[node.index()].route_to(source) else {
            return;
        };
        let control = Packet::app(
            CONTROL_PACKET_BITS,
            CONTROL_FLOW,
            AgentId(u32::MAX),
            Dest::Router(source),
            TreeControl {
                group: self.group_addrs[gi.index()],
                join,
            },
        );
        self.enqueue_link(out, control);
    }

    /// A graft (`join`) or prune arriving on `in_link`. Those from a
    /// host-facing interface are raw IGMP and pass the edge module first
    /// (SIGMA ignores them: that is the whole defence).
    fn handle_igmp(&mut self, node: NodeId, in_link: LinkId, group: GroupAddr, join: bool) {
        let iface = self.link_reverse[in_link.index()];
        let mut allowed = true;
        if self.link_host_facing[iface.index()] {
            self.with_edge(node, |m, env| {
                allowed = m.allow_igmp(env, iface, group, join)
            });
        }
        if !allowed {
            return;
        }
        if join {
            self.join_tree(node, group, Interest::Iface(iface));
        } else {
            self.leave_tree(node, group, Interest::Iface(iface));
        }
    }

    /// Run `f` against the node's edge module (if any), then apply actions.
    fn with_edge<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut Box<dyn EdgeModule>, &mut EdgeEnv),
    {
        let n = node.index();
        let Some(mut module) = self.nodes[n].edge.take() else {
            return;
        };
        let mut env = EdgeEnv {
            now: self.now,
            node,
            rng: &mut self.rng,
            actions: std::mem::take(&mut self.scratch_actions),
            trace_on: self.tracer.is_some(),
        };
        f(&mut module, &mut env);
        let mut actions = env.actions;
        self.nodes[n].edge = Some(module);
        self.apply_edge_actions(node, &mut actions);
        self.scratch_actions = actions;
    }

    /// Apply queued edge actions in order, draining the buffer.
    fn apply_edge_actions(&mut self, node: NodeId, actions: &mut Vec<EdgeAction>) {
        for action in actions.drain(..) {
            match action {
                EdgeAction::Send(pkt) => self.route(node, None, pkt),
                EdgeAction::GraftIface(group, iface) => {
                    self.join_tree(node, group, Interest::Iface(iface));
                }
                EdgeAction::PruneIface(group, iface) => {
                    self.leave_tree(node, group, Interest::Iface(iface));
                }
                EdgeAction::JoinModule(group) => self.join_tree(node, group, Interest::Module),
                EdgeAction::Timer(delay, token) => {
                    self.events
                        .push(self.now + delay, Event::EdgeTimer(node, token));
                }
                EdgeAction::Trace(ev) => self.trace(ev),
            }
        }
    }

    fn edge_message(&mut self, node: NodeId, from_iface: Option<LinkId>, pkt: &Packet) {
        let Some(iface) = from_iface else { return };
        self.with_edge(node, |m, env| m.on_message(env, iface, pkt));
    }

    /// Stats of a link.
    pub fn link_stats(&self, l: LinkId) -> &LinkStats {
        &self.links[l.index()].stats
    }

    /// Total events processed so far.
    pub fn processed_events(&self) -> u64 {
        self.events.processed()
    }

    /// The deepest the future event list has ever been (diagnostics).
    pub fn peak_pending_events(&self) -> usize {
        self.events.high_water()
    }
}

/// The simulator: a [`World`] plus the boxed agents and the event loop.
pub struct Sim {
    /// The network state; public for scenario assembly and inspection.
    pub world: World,
    agents: Vec<Option<Box<dyn Agent>>>,
}

impl Sim {
    /// A fresh simulator with the given RNG seed and monitor bin width.
    pub fn new(seed: u64, monitor_bin: SimDuration) -> Self {
        Sim {
            world: World::new(seed, monitor_bin),
            agents: Vec::new(),
        }
    }

    /// Add a node; returns its id.
    pub fn add_node(&mut self) -> NodeId {
        assert!(!self.world.finalized, "cannot add nodes after finalize");
        let id = NodeId(self.world.nodes.len() as u32);
        self.world.nodes.push(Node::new(id));
        id
    }

    /// Add a duplex link between `a` and `b` with symmetric rate and delay.
    /// Returns `(a→b, b→a)` link ids.
    pub fn add_duplex_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        bps: u64,
        delay: SimDuration,
        queue_ab: Queue,
        queue_ba: Queue,
    ) -> (LinkId, LinkId) {
        assert!(!self.world.finalized, "cannot add links after finalize");
        let ab = LinkId(self.world.links.len() as u32);
        let ba = LinkId(ab.0 + 1);
        self.world.links.push(Link {
            id: ab,
            from: a,
            to: b,
            reverse: ba,
            bps,
            delay,
            queue: queue_ab,
            in_service: None,
            host_facing: false,
            stats: LinkStats::default(),
        });
        self.world.links.push(Link {
            id: ba,
            from: b,
            to: a,
            reverse: ab,
            bps,
            delay,
            queue: queue_ba,
            in_service: None,
            host_facing: false,
            stats: LinkStats::default(),
        });
        self.world.nodes[a.index()].out_links.push(ab);
        self.world.nodes[b.index()].out_links.push(ba);
        (ab, ba)
    }

    /// Attach an agent to `node`; `on_start` fires at `start`.
    pub fn add_agent(&mut self, node: NodeId, agent: Box<dyn Agent>, start: SimTime) -> AgentId {
        let id = AgentId(self.agents.len() as u32);
        self.agents.push(Some(agent));
        self.world.agent_nodes.push(node);
        self.world.nodes[node.index()].local_agents.push(id);
        self.world.events.push(start, Event::AgentStart(id));
        id
    }

    /// Install an edge module on a router.
    pub fn set_edge_module(&mut self, node: NodeId, module: Box<dyn EdgeModule>) {
        self.world.nodes[node.index()].edge = Some(module);
    }

    /// Register `source_node` as the root of `group`'s distribution tree.
    pub fn register_group(&mut self, group: GroupAddr, source_node: NodeId) {
        let gi = self.world.intern_group(group);
        self.world.group_sources[gi.index()] = Some(source_node);
    }

    /// Compute shortest-delay routes and mark host-facing links.
    ///
    /// Must be called after topology assembly and before [`Sim::run_until`].
    pub fn finalize(&mut self) {
        // In a connected graph a node with one out-link reaches every
        // other node, and every path out of it starts on that link, so
        // its Dijkstra table would hold that link for every destination
        // but itself: a default route says the same. Only the other nodes
        // (routers) need Dijkstra. In a disconnected graph every node
        // keeps a table, so an unreachable destination stays `None`.
        let connected = is_connected(&self.world);
        for src in 0..self.world.nodes.len() {
            let routes = match self.world.nodes[src].out_links[..] {
                [only] if connected => Routes::Via(only),
                _ => Routes::Table(dijkstra(&self.world, NodeId(src as u32)).into_boxed_slice()),
            };
            self.world.nodes[src].routes = routes;
        }
        for l in 0..self.world.links.len() {
            let to = self.world.links[l].to;
            self.world.links[l].host_facing = self.world.nodes[to.index()].is_host();
        }
        let w = &mut self.world;
        w.link_to = w.links.iter().map(|l| l.to).collect();
        w.link_reverse = w.links.iter().map(|l| l.reverse).collect();
        w.link_host_facing = w.links.iter().map(|l| l.host_facing).collect();
        w.finalized = true;
    }

    /// Run the event loop until simulated time `t` (inclusive of events at
    /// `t`). Advances `world.now` to exactly `t` when the queue drains.
    pub fn run_until(&mut self, t: SimTime) {
        assert!(self.world.finalized, "call finalize() before running");
        while let Some((at, ev)) = self.world.events.pop_until(t) {
            self.world.now = at;
            self.handle(ev);
        }
        self.world.now = t;
    }

    fn handle(&mut self, ev: Event) {
        match ev {
            Event::Departure(l) => {
                let now = self.world.now;
                let tracing = self.world.tracer.is_some();
                // One borrow of the link for the whole transaction.
                let link = &mut self.world.links[l.index()];
                let pkt = link
                    .in_service
                    .take()
                    .expect("departure without packet in service");
                link.note_tx(&pkt);
                let ev = if tracing {
                    Some(TraceEvent::PktTransmit(pkt_ref(link.from, Some(l), &pkt)))
                } else {
                    None
                };
                let delay = link.delay;
                let next_tx = match link.queue.dequeue(now) {
                    Some(next) => {
                        let tx = SimDuration::transmission(next.size_bits, link.bps);
                        link.in_service = Some(next);
                        Some(tx)
                    }
                    None => None,
                };
                self.world.events.push(now + delay, Event::Arrival(l, pkt));
                if let Some(tx) = next_tx {
                    self.world.events.push(now + tx, Event::Departure(l));
                }
                if let Some(ev) = ev {
                    self.world.trace(ev);
                }
            }
            Event::Arrival(l, pkt) => {
                let node = self.world.link_to[l.index()];
                // Only the simulator's own control flow carries grafts and
                // prunes, so other packets skip the downcast.
                let control = match pkt.flow {
                    CONTROL_FLOW => pkt.body_as::<TreeControl>().map(|c| (c.group, c.join)),
                    _ => None,
                };
                if let Some((group, join)) = control {
                    self.world.handle_igmp(node, l, group, join);
                } else {
                    match pkt.dst {
                        Dest::Agent(a) if self.world.agent_nodes[a.index()] == node => {
                            self.deliver(a, pkt)
                        }
                        // Local unicast delivery is detected inside route().
                        _ => self.world.route(node, Some(l), pkt),
                    }
                }
            }
            Event::AgentStart(a) => self.dispatch(a, |agent, ctx| agent.on_start(ctx)),
            Event::AgentTimer(a, token) => {
                self.dispatch(a, |agent, ctx| agent.on_timer(ctx, token))
            }
            Event::EdgeTimer(node, token) => {
                self.world.with_edge(node, |m, env| m.on_timer(env, token));
            }
            Event::LocalDeliver(a, pkt) => self.deliver(a, pkt),
            Event::LeaveCheck(node, gi) => self.world.prune_if_off_tree(node, gi),
        }
    }

    /// Deliver a packet to an agent, recording data deliveries.
    fn deliver(&mut self, agent: AgentId, pkt: Packet) {
        let now = self.world.now;
        self.world
            .monitor
            .record(now, agent, pkt.flow, pkt.size_bits);
        if self.world.tracer.is_some() {
            let node = self.world.agent_nodes[agent.index()];
            let mut p = pkt_ref(node, None, &pkt);
            p.agent = agent.0;
            self.world.trace(TraceEvent::PktDeliver(p));
        }
        self.dispatch(agent, |a, ctx| a.on_packet(ctx, pkt));
    }

    fn dispatch<F>(&mut self, agent: AgentId, f: F)
    where
        F: FnOnce(&mut dyn Agent, &mut Ctx),
    {
        let Some(mut boxed) = self.agents[agent.index()].take() else {
            // Agent re-entrancy cannot happen (events are not recursive),
            // so an empty slot means the agent was removed.
            return;
        };
        let node = self.world.agent_nodes[agent.index()];
        let mut ctx = Ctx {
            world: &mut self.world,
            agent,
            node,
        };
        f(boxed.as_mut(), &mut ctx);
        self.agents[agent.index()] = Some(boxed);
    }

    /// Borrow an agent as its concrete type (post-run result extraction).
    pub fn agent_as<T: Agent>(&self, agent: AgentId) -> Option<&T> {
        self.agents[agent.index()]
            .as_deref()
            .and_then(|a| (a as &dyn Any).downcast_ref::<T>())
    }

    /// Borrow a node's edge module as its concrete type.
    pub fn edge_as<T: EdgeModule>(&self, node: NodeId) -> Option<&T> {
        self.world.nodes[node.index()]
            .edge
            .as_deref()
            .and_then(|m| (m as &dyn Any).downcast_ref::<T>())
    }

    /// The delivery monitor.
    pub fn monitor(&self) -> &Monitor {
        &self.world.monitor
    }
}

/// Whether every node is reachable from node 0. Links come in duplex
/// pairs, so this is also whether every node reaches every other.
fn is_connected(world: &World) -> bool {
    let mut seen = vec![false; world.nodes.len()];
    let Some(first) = seen.first_mut() else {
        return true;
    };
    *first = true;
    let mut stack = vec![0];
    while let Some(u) = stack.pop() {
        for &l in &world.nodes[u].out_links {
            let v = world.links[l.index()].to.index();
            if !seen[v] {
                seen[v] = true;
                stack.push(v);
            }
        }
    }
    seen.iter().all(|&s| s)
}

/// Shortest-delay first-hop table from `src` to every node: `table[v]` is
/// the out-link toward `v` (`None` for `src` itself and unreachable nodes).
fn dijkstra(world: &World, src: NodeId) -> Vec<Option<LinkId>> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let n = world.nodes.len();
    let mut dist = vec![u64::MAX; n];
    let mut first_hop: Vec<Option<LinkId>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[src.index()] = 0;
    heap.push(Reverse((0u64, src.0)));
    while let Some(Reverse((d, u))) = heap.pop() {
        let ui = u as usize;
        if d > dist[ui] {
            continue;
        }
        for &l in &world.nodes[ui].out_links {
            let link = &world.links[l.index()];
            let v = link.to.index();
            let w = link.delay.as_nanos().max(1);
            let nd = d.saturating_add(w);
            if nd < dist[v] {
                dist[v] = nd;
                // The first hop toward v goes through u's own first hop,
                // unless u is the source (then it is this very link).
                first_hop[v] = if ui == src.index() {
                    Some(l)
                } else {
                    first_hop[ui]
                };
                heap.push(Reverse((nd, v as u32)));
            }
        }
    }
    first_hop
}
