//! The topology subsystem: one generic spec/builder layer behind every
//! scenario shape.
//!
//! The paper's evaluation runs on a single-bottleneck dumbbell (§5.1),
//! but its robustness claims are about multicast *trees*: how much damage
//! an inflated-subscription attacker does depends on its placement
//! relative to the bottleneck links it shares with honest receivers. This
//! module builds a family of parameterized topologies by one code path:
//!
//! * [`Topology::Dumbbell`] — the paper's shape (§5.1): senders behind
//!   `A`, one 20 ms bottleneck `A ═ B`, receivers behind the edge router
//!   `B` (`attach[0]`, where protected sessions install SIGMA),
//! * [`Topology::ParkingLot`] — `N` chained bottleneck links with
//!   cross-traffic CBRs entering and leaving at each hop (the classic
//!   multi-bottleneck fairness shape),
//! * [`Topology::BalancedTree`] — a balanced `fanout`-ary distribution
//!   tree with receivers at the leaves and configurable attacker
//!   placement (leaf versus interior subtree) via
//!   [`Placement`].
//!
//! A [`TopologySpec`] holds the shape plus the session population
//! ([`McastSessionSpec`], TCP count, optional CBR); [`TopologySpec::build`]
//! assembles the simulator and returns [`BuiltTopology`] handles. Receiver
//! attachment is resolved from each receiver's
//! [`AttackPlan::placement`](mcc_attack::AttackPlan::placement): honest
//! receivers round-robin over the topology's attachment points, attackers
//! can be pinned to a leaf or an interior router.

use crate::scenario::Variant;
use mcc_attack::{AttackPlan, Placement};
use mcc_flid::receiver::{Policy, Receiver};
use mcc_flid::{
    FlidConfig, FlidReceiver, FlidSender, ReceiverStats, ReplicatedReceiver, ReplicatedSender,
    ThresholdReceiver, ThresholdSender,
};
use mcc_netsim::prelude::*;
use mcc_sigma::{SigmaConfig, SigmaEdgeModule};
use mcc_simcore::{SimDuration, SimTime};
use mcc_tcp::{RenoConfig, RenoSender, TcpSink};
use mcc_traffic::{CbrConfig, CbrSource, CountingSink};

/// Flow-id base of the per-hop cross-traffic CBRs of
/// [`Topology::ParkingLot`] (the spec-level [`CbrSpec`] keeps flow 200).
const PER_HOP_CBR_FLOW_BASE: u32 = 210;

/// One receiver of a multicast session.
#[derive(Clone, Debug)]
pub struct ReceiverSpec {
    /// When the receiver joins the session.
    pub(crate) join_at: SimTime,
    /// When the receiver departs the session mid-run, dropping every
    /// layer and unsubscribing ([`SimTime::MAX`] = stays to the end —
    /// the historical static-membership behaviour).
    pub(crate) leave_at: SimTime,
    /// The adversary strategy the receiver runs
    /// ([`AttackPlan::honest`] for a well-behaved receiver). The plan's
    /// [`Placement`] selects the attachment point in multi-router
    /// topologies.
    pub adversary: AttackPlan,
    /// Propagation delay of the receiver's access link.
    pub(crate) access_delay: SimDuration,
    /// Capacity of the receiver's access link, bit/s (paper default
    /// 10 Mbps; the workload engine draws heterogeneous rates here).
    pub(crate) access_bps: u64,
    /// Population multiplier: the one receiver agent built for this spec
    /// stands for `cohort` synchronized receivers behind one edge
    /// interface. The agent is the same for every `n`; the count is its
    /// weight in `SessionHandle::weights`, and count-weighted session
    /// metrics read it from there.
    pub cohort: u64,
}

impl Default for ReceiverSpec {
    fn default() -> Self {
        ReceiverSpec {
            join_at: SimTime::ZERO,
            leave_at: SimTime::MAX,
            adversary: AttackPlan::honest(),
            access_delay: SimDuration::from_millis(10),
            access_bps: 10_000_000,
            cohort: 1,
        }
    }
}

/// One multicast session.
#[derive(Clone, Debug)]
pub struct McastSessionSpec {
    /// The protocol and defence; it also fixes the group count.
    pub variant: Variant,
    /// The session's receivers.
    pub receivers: Vec<ReceiverSpec>,
}

impl McastSessionSpec {
    /// A session of [`McastSessionSpec::new`]'s shape with `k` honest
    /// receivers joining at t = 0.
    pub fn honest(variant: Variant, k: usize) -> Self {
        McastSessionSpec::new(variant).with_receivers(vec![ReceiverSpec::default(); k])
    }
}

/// Optional on-off CBR background (Figures 8d/8e).
#[derive(Clone, Debug)]
pub(crate) struct CbrSpec {
    /// Rate while on, bit/s.
    pub(crate) rate_bps: u64,
    /// `(on, off)` periods; `None` = always on within the window.
    pub(crate) on_off: Option<(SimDuration, SimDuration)>,
    /// Window start.
    pub(crate) start: SimTime,
    /// Window end.
    pub(crate) stop: SimTime,
}

/// Handles of one built multicast session.
#[derive(Clone, Debug)]
pub struct SessionHandle {
    /// The session's configuration.
    pub cfg: FlidConfig,
    /// Sender agent.
    pub sender: AgentId,
    /// Receiver agents, in spec order. A cohort spec contributes ONE
    /// agent here (its weight in `weights` carries the multiplicity).
    pub receivers: Vec<AgentId>,
    /// Receivers represented by each agent in `receivers` (1 for an
    /// individual, `n` for a `cohort(n)` spec). Count-weighted session
    /// metrics divide by `weights.iter().sum()`, not `receivers.len()`.
    pub weights: Vec<u64>,
}

/// The shape of the core (router) graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    /// The paper's single-bottleneck dumbbell (§5.1): senders behind
    /// router `A`, receivers behind edge router `B`, one bottleneck in
    /// between.
    Dumbbell,
    /// `bottlenecks` chained bottleneck links `R0 ═ R1 ═ … ═ Rk`.
    /// Senders attach at `R0`; the receiver attachment points are
    /// `R1..=Rk` (hop `i` sits behind `i + 1` bottlenecks). With
    /// `per_hop_cbr` set, a CBR of that rate enters at `R_i` and leaves
    /// at `R_{i+1}` for every hop — local cross traffic on each
    /// bottleneck.
    ParkingLot {
        /// Number of chained bottleneck links (≥ 1).
        bottlenecks: usize,
        /// Per-hop cross-traffic CBR rate, bit/s (`None` = no cross
        /// traffic).
        per_hop_cbr: Option<u64>,
    },
    /// A balanced `fanout`-ary multicast tree of the given `depth`
    /// (depth 0 = just the root). Every parent→child link is a
    /// bottleneck-class link; senders attach at the root and receivers
    /// round-robin over the `fanout^depth` leaf routers.
    BalancedTree {
        /// Levels below the root.
        depth: u32,
        /// Children per interior router (≥ 1).
        fanout: u32,
    },
}

/// Side-link propagation delay (sender side; receiver side comes from
/// each [`ReceiverSpec`]).
const SIDE_DELAY: SimDuration = SimDuration::from_millis(10);
/// Round-trip used to size buffers (buffer = 2 × rate × rtt).
const BUFFER_RTT: SimDuration = SimDuration::from_millis(80);
/// Monitor bin width.
const MONITOR_BIN: SimDuration = SimDuration::from_secs(1);

/// The whole scenario: a [`Topology`] plus link parameters and the
/// session population.
#[derive(Clone, Debug)]
pub struct TopologySpec {
    /// The core graph shape.
    pub(crate) topology: Topology,
    /// Scenario seed (fully determines the run).
    pub(crate) seed: u64,
    /// Capacity of every bottleneck-class link, bit/s.
    pub(crate) bottleneck_bps: u64,
    /// Propagation delay of every bottleneck-class link.
    pub(crate) bottleneck_delay: SimDuration,
    /// Multicast sessions.
    pub mcast: Vec<McastSessionSpec>,
    /// Number of TCP Reno sessions.
    pub tcp: usize,
    /// Optional CBR background (source at the ingress, sink behind the
    /// first attachment point).
    pub(crate) cbr: Option<CbrSpec>,
    /// Additional CBR backgrounds (the workload engine's background
    /// mix); each gets its own source/sink pair and flow id `201 + i`.
    pub(crate) extra_cbr: Vec<CbrSpec>,
    /// Event-driven membership workload: expanded into concrete
    /// [`ReceiverSpec`]s / background traffic by [`TopologySpec::build`]
    /// before anything is constructed, so the expansion is a pure
    /// function of `(seed, spec)`. `None` = the static population above.
    pub workload: Option<crate::workload::WorkloadSpec>,
}

impl TopologySpec {
    /// Paper §5.1 defaults around the given shape: 20 ms bottlenecks,
    /// 10 ms / 10 Mbps side links, 2×BDP buffers on an 80 ms round trip.
    pub fn new(topology: Topology, seed: u64, bottleneck_bps: u64) -> Self {
        TopologySpec {
            topology,
            seed,
            bottleneck_bps,
            bottleneck_delay: SimDuration::from_millis(20),
            mcast: Vec::new(),
            tcp: 0,
            cbr: None,
            extra_cbr: Vec::new(),
            workload: None,
        }
    }
}

/// Number of nodes in a balanced `fanout`-ary tree of the given `depth`
/// (depth 0 = just the root), laid out breadth-first.
fn nary_tree_size(depth: u32, fanout: u32) -> usize {
    (0..=depth).map(|d| (fanout as usize).pow(d)).sum()
}

/// The breadth-first index of a node's parent (`i >= 1`).
fn nary_parent(i: usize, fanout: u32) -> usize {
    (i - 1) / fanout as usize
}

/// The assembled core (router) graph, before sessions are attached.
struct Core {
    /// All core routers: `[A, B]` for the dumbbell, chain order for the
    /// parking lot, breadth-first for trees.
    routers: Vec<NodeId>,
    /// Where sender hosts (multicast, TCP, CBR sources) attach.
    ingress: NodeId,
    /// Receiver attachment cycle: [`Placement::Auto`] receivers
    /// round-robin over these.
    attach: Vec<NodeId>,
    /// Forward-direction bottleneck links, in construction order.
    bottlenecks: Vec<LinkId>,
}

impl Core {
    /// Resolve a receiver placement to its attachment router.
    /// `auto_seq` is the receiver's index in the round-robin sequence of
    /// `Auto` receivers.
    fn resolve(&self, topology: &Topology, placement: Placement, auto_seq: usize) -> NodeId {
        match placement {
            Placement::Auto => self.attach[auto_seq % self.attach.len()],
            Placement::Leaf(i) => self.attach[i % self.attach.len()],
            Placement::Interior { depth, leaf } => match *topology {
                Topology::Dumbbell => self.attach[0],
                Topology::ParkingLot { .. } => {
                    self.routers[(depth as usize).min(self.routers.len() - 1)]
                }
                Topology::BalancedTree {
                    depth: tree_depth,
                    fanout,
                } => {
                    let leaves = (fanout as usize).pow(tree_depth);
                    let mut i = self.routers.len() - leaves + (leaf % leaves);
                    for _ in depth..tree_depth {
                        i = nary_parent(i, fanout);
                    }
                    self.routers[i]
                }
            },
        }
    }
}

/// A built scenario over any [`Topology`].
pub struct BuiltTopology {
    /// The simulator (run it!).
    pub sim: Sim,
    /// All core routers (see [`Topology`] for the order).
    pub routers: Vec<NodeId>,
    /// Receiver attachment cycle (the dumbbell's edge router `B` is
    /// `attach[0]`).
    pub attach: Vec<NodeId>,
    /// Routers that host receiver access links — where SIGMA modules are
    /// installed when a protected session exists, in first-use order.
    pub(crate) edges: Vec<NodeId>,
    /// Forward-direction bottleneck links.
    pub bottlenecks: Vec<LinkId>,
    /// Multicast sessions.
    pub sessions: Vec<SessionHandle>,
    /// The sink of each TCP session (throughput is measured there).
    pub tcp: Vec<AgentId>,
    /// One cross-traffic sink per parking-lot hop, in hop order (empty
    /// unless [`Topology::ParkingLot`] set `per_hop_cbr`).
    pub hop_cbr_sinks: Vec<AgentId>,
}

/// A FLID receiver agent and the number of receivers it stands for
/// ([`BuiltTopology::cohort`]). Kept for the benchmark's population
/// census, which reads exactly these two methods.
#[derive(Clone, Copy, Debug)]
pub struct CohortView<'a> {
    rx: &'a FlidReceiver,
    weight: u64,
}

impl CohortView<'_> {
    /// The agent's counters, each multiplied by its weight: the sum over
    /// the receivers it stands for.
    pub fn weighted_stats(&self) -> ReceiverStats {
        let ReceiverStats {
            decreases,
            increases,
            rejoins,
            subscriptions,
            retransmissions,
            acks,
            guess_subscriptions,
            colluder_submissions,
        } = self.rx.stats;
        let w = self.weight;
        ReceiverStats {
            decreases: decreases * w,
            increases: increases * w,
            rejoins: rejoins * w,
            subscriptions: subscriptions * w,
            retransmissions: retransmissions * w,
            acks: acks * w,
            guess_subscriptions: guess_subscriptions * w,
            colluder_submissions: colluder_submissions * w,
        }
    }

    /// State machines behind the agent: always one.
    pub fn bucket_count(&self) -> usize {
        1
    }
}

/// One session's receiver constructor: a spec, the session configuration
/// and the edge router (`None` when unprotected) in, the agent out.
type ReceiverFactory = fn(&ReceiverSpec, FlidConfig, Option<NodeId>) -> Box<dyn Agent>;

/// The one receiver construction path, the same for every policy and
/// every cohort size: `make` builds a `Receiver<P>` running the spec's
/// plan, and the spec's leave time and access delay are applied to it.
fn build_receiver<P: Policy>(
    r: &ReceiverSpec,
    make: impl FnOnce(AttackPlan) -> Receiver<P>,
) -> Box<dyn Agent> {
    let mut rx = make(r.adversary.clone());
    rx.set_leave_at(r.leave_at);
    rx.set_control_delay(r.access_delay);
    Box::new(rx)
}

impl TopologySpec {
    /// Assemble the scenario. Construction order (nodes, links, agents,
    /// group registrations) is a function of the spec alone, so equal
    /// specs build bit-identical simulations. A [`TopologySpec::workload`]
    /// is expanded first (also a pure function of the spec) — a workload
    /// that generates nothing leaves the spec, and therefore the build,
    /// untouched.
    pub fn build(self) -> BuiltTopology {
        let mut spec = self;
        if let Some(w) = spec.workload.take() {
            w.apply(&mut spec);
        }
        let spec = spec;
        let mut sim = Sim::new(spec.seed, MONITOR_BIN);
        let bottleneck_buffer =
            (2.0 * spec.bottleneck_bps as f64 * BUFFER_RTT.as_secs_f64() / 8.0) as u64;
        let side_buffer = (2.0 * 10_000_000.0 * BUFFER_RTT.as_secs_f64() / 8.0) as u64;

        let bottleneck_link = |sim: &mut Sim, from: NodeId, to: NodeId| {
            let (fwd, _) = sim.add_duplex_link(
                from,
                to,
                spec.bottleneck_bps,
                spec.bottleneck_delay,
                Queue::drop_tail(bottleneck_buffer),
                Queue::drop_tail(bottleneck_buffer),
            );
            fwd
        };

        // The core graph. Node and link creation order per shape is part
        // of the byte-compat contract (goldens pin it).
        let core = match spec.topology {
            Topology::Dumbbell => {
                let a = sim.add_node();
                let b = sim.add_node();
                let bn = bottleneck_link(&mut sim, a, b);
                Core {
                    routers: vec![a, b],
                    ingress: a,
                    attach: vec![b],
                    bottlenecks: vec![bn],
                }
            }
            Topology::ParkingLot { bottlenecks, .. } => {
                assert!(bottlenecks >= 1, "a parking lot needs at least one hop");
                let routers: Vec<NodeId> = (0..=bottlenecks).map(|_| sim.add_node()).collect();
                let links = routers
                    .windows(2)
                    .map(|w| bottleneck_link(&mut sim, w[0], w[1]))
                    .collect();
                Core {
                    ingress: routers[0],
                    attach: routers[1..].to_vec(),
                    bottlenecks: links,
                    routers,
                }
            }
            Topology::BalancedTree { depth, fanout } => {
                assert!(fanout >= 1, "a tree needs a positive fanout");
                let total = nary_tree_size(depth, fanout);
                let routers: Vec<NodeId> = (0..total).map(|_| sim.add_node()).collect();
                let links = (1..total)
                    .map(|i| bottleneck_link(&mut sim, routers[nary_parent(i, fanout)], routers[i]))
                    .collect();
                let leaves = (fanout as usize).pow(depth);
                Core {
                    ingress: routers[0],
                    attach: routers[total - leaves..].to_vec(),
                    bottlenecks: links,
                    routers,
                }
            }
        };

        // Every host outside a session's receivers hangs off the core by
        // one 10 Mbps side link. A host pair is a sender host linked to
        // `from` and a receiver host linked from `to`, made in that order.
        let side_link = |sim: &mut Sim, a: NodeId, b: NodeId| {
            let buffer = || Queue::drop_tail(side_buffer);
            sim.add_duplex_link(a, b, 10_000_000, SIDE_DELAY, buffer(), buffer());
        };
        let host_pair = |sim: &mut Sim, from: NodeId, to: NodeId| {
            let sender = sim.add_node();
            side_link(sim, sender, from);
            let receiver = sim.add_node();
            side_link(sim, to, receiver);
            (sender, receiver)
        };

        // Per-session configurations, computed up front so the SIGMA
        // modules can be scoped (collusion guard) before agents exist.
        let cfgs: Vec<FlidConfig> = spec
            .mcast
            .iter()
            .enumerate()
            .map(|(si, m)| {
                let base = 1000 * (si as u32 + 1);
                FlidConfig::paper(
                    (1..=m.variant.groups())
                        .map(|g| GroupAddr(base + g))
                        .collect(),
                    GroupAddr(base),
                    FlowId(si as u32),
                    m.variant.protected(),
                )
            })
            .collect();

        // Resolve every receiver's attachment router up front (pure
        // computation): the SIGMA install set is the distinct routers in
        // first-use order.
        let mut auto_seq = 0usize;
        let receiver_routers: Vec<Vec<NodeId>> = spec
            .mcast
            .iter()
            .map(|m| {
                m.receivers
                    .iter()
                    .map(|r| {
                        let placement = r.adversary.placement();
                        let node = core.resolve(&spec.topology, placement, auto_seq);
                        if placement == Placement::Auto {
                            auto_seq += 1;
                        }
                        node
                    })
                    .collect()
            })
            .collect();
        let mut edges: Vec<NodeId> = Vec::new();
        for node in receiver_routers.iter().flatten() {
            if !edges.contains(node) {
                edges.push(*node);
            }
        }
        if edges.is_empty() {
            edges.push(core.attach[0]);
        }

        // Any protected session installs SIGMA at every edge router; the
        // module is generic, so one instance per router serves every
        // session, at the slot every protected session shares
        // (`FlidConfig::paper`'s FLID-DS slot). A `FlidDsGuard` session
        // additionally scopes the §4.2 collusion guard to its groups — the
        // guard is protocol-specific (it must know the layering), so it
        // covers the first such session only.
        if let Some(first) = spec.mcast.iter().position(|m| m.variant.protected()) {
            let mut sigma_cfg = SigmaConfig::new(cfgs[first].slot);
            if let Some((si, _)) = spec
                .mcast
                .iter()
                .enumerate()
                .find(|(_, m)| m.variant == Variant::FlidDsGuard)
            {
                sigma_cfg = sigma_cfg.with_guard(cfgs[si].groups.clone());
            }
            for &edge in &edges {
                sim.set_edge_module(edge, Box::new(SigmaEdgeModule::new(sigma_cfg.clone())));
            }
        }

        let mut sessions = Vec::new();
        for (si, m) in spec.mcast.iter().enumerate() {
            let cfg = cfgs[si].clone();
            let sender_host = sim.add_node();
            side_link(&mut sim, sender_host, core.ingress);
            for g in cfg.groups.iter().chain([&cfg.control_group]) {
                sim.register_group(*g, sender_host);
            }
            // The session structure: its key rule (the sender) and its
            // subscription policy (every receiver).
            let (sender_agent, receiver): (Box<dyn Agent>, ReceiverFactory) = match m.variant {
                Variant::FlidDl | Variant::FlidDs | Variant::FlidDsGuard => {
                    (Box::new(FlidSender::new(cfg.clone())), |r, cfg, router| {
                        build_receiver(r, |plan| FlidReceiver::with_adversary(cfg, router, plan))
                    })
                }
                Variant::Replicated => (
                    Box::new(ReplicatedSender::new(cfg.clone())),
                    |r, cfg, router| {
                        build_receiver(r, |plan| {
                            ReplicatedReceiver::with_adversary(cfg, router, plan)
                        })
                    },
                ),
                Variant::Threshold => (
                    Box::new(ThresholdSender::new(cfg.clone())),
                    |r, cfg, router| {
                        build_receiver(r, |plan| {
                            ThresholdReceiver::with_adversary(cfg, router, plan)
                        })
                    },
                ),
            };
            let sender = sim.add_agent(sender_host, sender_agent, SimTime::ZERO);
            let mut receivers = Vec::new();
            let mut weights = Vec::new();
            for (ri, r) in m.receivers.iter().enumerate() {
                assert!(r.cohort >= 1, "cohort multiplier must be at least 1");
                let edge = receiver_routers[si][ri];
                let h = sim.add_node();
                // Heterogeneous access: each receiver's link runs at its
                // own rate, with its buffer sized to that rate (the
                // default 10 Mbps reproduces the historical side buffer).
                let access_buffer =
                    (2.0 * r.access_bps as f64 * BUFFER_RTT.as_secs_f64() / 8.0) as u64;
                sim.add_duplex_link(
                    edge,
                    h,
                    r.access_bps,
                    r.access_delay,
                    Queue::drop_tail(access_buffer),
                    Queue::drop_tail(access_buffer),
                );
                let agent = receiver(r, cfg.clone(), m.variant.protected().then_some(edge));
                receivers.push(sim.add_agent(h, agent, r.join_at));
                weights.push(r.cohort);
            }
            sessions.push(SessionHandle {
                cfg,
                sender,
                receivers,
                weights,
            });
        }

        let mut tcp = Vec::new();
        for j in 0..spec.tcp {
            let (sh, rh) = host_pair(&mut sim, core.ingress, core.attach[j % core.attach.len()]);
            let sink = sim.add_agent(rh, Box::new(TcpSink::default()), SimTime::ZERO);
            let cfg = RenoConfig::bulk(sink, FlowId(100 + j as u32));
            sim.add_agent(
                sh,
                Box::new(RenoSender::new(cfg)),
                // Staggered starts desynchronize the flows.
                SimTime::from_millis(37 * j as u64 + 11),
            );
            tcp.push(sink);
        }

        // Cross traffic as `(from, to, flow, cbr)`, one host pair each:
        // the spec's CBR (flow 200) and the workload's background mix
        // (201 upward) run from the ingress to the attachment cycle; a
        // parking lot's per-hop CBRs (210 upward) enter at each hop's
        // upstream router and leave right after its bottleneck.
        let mut cross: Vec<(NodeId, NodeId, u32, CbrSpec)> = spec
            .cbr
            .iter()
            .map(|c| (core.ingress, core.attach[0], 200, c.clone()))
            .chain(spec.extra_cbr.iter().enumerate().map(|(i, c)| {
                let to = core.attach[i % core.attach.len()];
                (core.ingress, to, 201 + i as u32, c.clone())
            }))
            .collect();
        let first_hop = cross.len();
        if let Topology::ParkingLot {
            per_hop_cbr: Some(rate),
            ..
        } = spec.topology
        {
            cross.extend(core.routers.windows(2).enumerate().map(|(hop, w)| {
                let flow = PER_HOP_CBR_FLOW_BASE + hop as u32;
                (w[0], w[1], flow, CbrSpec::steady(rate))
            }));
        }
        let mut cbr_sinks = Vec::new();
        for (from, to, flow, c) in cross {
            let (sh, rh) = host_pair(&mut sim, from, to);
            let sink = sim.add_agent(rh, Box::new(CountingSink::default()), SimTime::ZERO);
            let cfg = CbrConfig {
                rate_bps: c.rate_bps,
                dest: Dest::Agent(sink),
                flow: FlowId(flow),
                start: c.start,
                stop: c.stop,
                on_off: c.on_off,
            };
            sim.add_agent(sh, Box::new(CbrSource::new(cfg)), SimTime::ZERO);
            cbr_sinks.push(sink);
        }
        let hop_cbr_sinks = cbr_sinks.split_off(first_hop);

        sim.finalize();
        BuiltTopology {
            sim,
            routers: core.routers,
            attach: core.attach,
            edges,
            bottlenecks: core.bottlenecks,
            sessions,
            tcp,
            hop_cbr_sinks,
        }
    }
}

impl BuiltTopology {
    /// Run until `secs` of simulated time. With `--trace` a flight
    /// recorder rides the run (see `crate::obs`).
    pub fn run_secs(&mut self, secs: u64) {
        crate::obs::run_sim(&mut self.sim, SimTime::from_secs(secs));
    }

    /// Average delivered throughput of an agent over `[from, to)` seconds —
    /// the one measurement-window convention.
    pub fn throughput_bps(&self, agent: AgentId, from: u64, to: u64) -> f64 {
        self.sim.monitor().agent_throughput_bps(
            agent,
            SimTime::from_secs(from),
            SimTime::from_secs(to),
        )
    }

    /// Per-bin throughput series of an agent out to `horizon` seconds.
    pub fn series_bps(&self, agent: AgentId, horizon: u64) -> Vec<f64> {
        self.sim
            .monitor()
            .agent_series_bps(agent, SimTime::from_secs(horizon))
    }

    /// The SIGMA module at one edge router, when installed.
    pub(crate) fn sigma_at(&self, node: NodeId) -> Option<&SigmaEdgeModule> {
        self.sim.edge_as::<SigmaEdgeModule>(node)
    }

    /// All installed SIGMA modules, in edge order.
    pub fn sigmas(&self) -> impl Iterator<Item = &SigmaEdgeModule> {
        self.edges.iter().filter_map(|&e| self.sigma_at(e))
    }

    /// A receiver agent as its concrete FLID type.
    pub fn receiver(&self, id: AgentId) -> &FlidReceiver {
        self.sim
            .agent_as::<FlidReceiver>(id)
            .expect("agent is a FlidReceiver")
    }

    /// A FLID receiver agent together with its weight (panics for an
    /// agent that is not a session's FLID receiver). Kept for the
    /// benchmark's population census only; the workspace reads weights
    /// from `SessionHandle::weights`.
    pub fn cohort(&self, id: AgentId) -> CohortView<'_> {
        let weight = self
            .sessions
            .iter()
            .find_map(|s| {
                let i = s.receivers.iter().position(|&r| r == id)?;
                Some(s.weights[i])
            })
            .expect("agent is a session receiver");
        CohortView {
            rx: self.receiver(id),
            weight,
        }
    }

    /// Count-weighted mean per-receiver throughput of a session over
    /// `[from, to)` seconds: Σ wᵢ · throughput(idᵢ) / Σ wᵢ, with the
    /// weights of `SessionHandle::weights` — the mean over the expanded
    /// individual population, as every member of a cohort receives its
    /// agent's bytes.
    pub fn session_mean_receiver_bps(&self, session: &SessionHandle, from: u64, to: u64) -> f64 {
        let mut num = 0.0;
        let mut den = 0u64;
        for (&id, &w) in session.receivers.iter().zip(&session.weights) {
            num += w as f64 * self.throughput_bps(id, from, to);
            den += w;
        }
        if den == 0 {
            0.0
        } else {
            num / den as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Units;

    /// Per receiver of `session`: the router its access link hangs off,
    /// the first hop of its host's route to the session's sender.
    fn receiver_routers(t: &BuiltTopology, session: usize) -> Vec<NodeId> {
        let world = &t.sim.world;
        let s = &t.sessions[session];
        let sender = world.agent_nodes[s.sender.index()];
        s.receivers
            .iter()
            .map(|r| {
                let host = world.agent_nodes[r.index()];
                let access = world.nodes[host.index()]
                    .route_to(sender)
                    .expect("a receiver routes to its sender");
                world.links[access.index()].to
            })
            .collect()
    }

    fn tree_spec(depth: u32, fanout: u32, receivers: usize) -> TopologySpec {
        let mut spec = TopologySpec::new(Topology::BalancedTree { depth, fanout }, 1, 500.kbps());
        spec.mcast = vec![McastSessionSpec::honest(Variant::FlidDs, receivers)];
        spec
    }

    fn dumbbell_spec(seed: u64, sessions: &[Variant]) -> TopologySpec {
        let mut spec = TopologySpec::new(Topology::Dumbbell, seed, 1.mbps());
        spec.mcast = sessions
            .iter()
            .map(|&v| McastSessionSpec::honest(v, 1))
            .collect();
        spec
    }

    #[test]
    fn builds_paper_figure1_shape() {
        let mut spec = dumbbell_spec(1, &[Variant::FlidDl, Variant::FlidDl]);
        spec.tcp = 2;
        let d = spec.build();
        assert_eq!(d.sessions.len(), 2);
        assert_eq!(d.tcp.len(), 2);
        assert_eq!((d.attach.len(), d.bottlenecks.len()), (1, 1));
        assert!(
            d.sigmas().next().is_none(),
            "unprotected: classic IGMP edge"
        );
    }

    #[test]
    fn sessions_do_not_share_group_addresses() {
        let d = dumbbell_spec(1, &[Variant::FlidDl, Variant::FlidDl]).build();
        let g0: std::collections::HashSet<_> = d.sessions[0].cfg.groups.iter().copied().collect();
        assert!(d.sessions[1].cfg.groups.iter().all(|g| !g0.contains(g)));
    }

    #[test]
    fn each_variant_builds_the_group_ladder_it_fixes() {
        let d = dumbbell_spec(1, &Variant::DEFENSES).build();
        let built: Vec<u32> = d.sessions.iter().map(|s| s.cfg.n()).collect();
        assert_eq!(built, [10, 10, 10, 6, 6]);
        for (s, v) in d.sessions.iter().zip(Variant::DEFENSES) {
            assert_eq!(s.cfg.n(), v.groups(), "{v}");
            if matches!(v, Variant::Replicated | Variant::Threshold) {
                // A single-group ladder carries each group's full rate:
                // the top group must fit the matrix's 1 Mbps bottleneck.
                let top = s.cfg.cumulative_rate(v.groups());
                assert!(top <= 1.mbps() as f64, "{v} tops out at {top} bit/s");
            }
        }
    }

    #[test]
    fn protected_session_installs_sigma() {
        let d = dumbbell_spec(1, &[Variant::FlidDs]).build();
        assert!(d.sigma_at(d.attach[0]).is_some());
    }

    #[test]
    fn short_mixed_run_delivers_traffic_everywhere() {
        let mut spec = dumbbell_spec(3, &[Variant::FlidDs]);
        spec.tcp = 1;
        spec.cbr = Some(CbrSpec::steady(100_000).window(SimTime::ZERO, SimTime::from_secs(30)));
        let mut d = spec.build();
        d.run_secs(20);
        let mc = d.throughput_bps(d.sessions[0].receivers[0], 5, 20);
        let tcp = d.throughput_bps(d.tcp[0], 5, 20);
        // The spec-level CBR's sink is the world's one counting sink.
        let cbr_sink = (0..d.sim.world.agent_nodes.len() as u32)
            .map(AgentId)
            .find(|&a| d.sim.agent_as::<CountingSink>(a).is_some())
            .expect("the spec's CBR sink");
        let cbr = d.throughput_bps(cbr_sink, 5, 20);
        assert!(mc > 50_000.0, "multicast {mc}");
        assert!(tcp > 50_000.0, "tcp {tcp}");
        assert!((cbr - 100_000.0).abs() < 15_000.0, "cbr {cbr}");
    }

    #[test]
    fn nary_tree_arithmetic() {
        assert_eq!(nary_tree_size(2, 3), 13);
        assert_eq!(nary_tree_size(0, 4), 1);
        assert_eq!(nary_parent(4, 3), 1);
    }

    #[test]
    fn tree_core_counts_and_leaf_attach() {
        let t = tree_spec(2, 2, 4).build();
        // 7 routers, 6 bottleneck links, receivers on the 4 leaves.
        assert_eq!(t.routers.len(), 7);
        assert_eq!(t.bottlenecks.len(), 6);
        assert_eq!(t.attach.len(), 4);
        assert_eq!(t.attach, t.routers[3..].to_vec());
        // Auto receivers tile the leaves one each.
        assert_eq!(receiver_routers(&t, 0), t.attach);
        // Every leaf edge router got a SIGMA module (protected session).
        assert_eq!(t.edges, t.attach);
        assert_eq!(t.sigmas().count(), 4);
    }

    #[test]
    fn cohort_spec_builds_one_agent_with_count_weighted_metrics() {
        for variant in Variant::DEFENSES {
            let build = |cohort: bool| {
                let mut spec = TopologySpec::new(Topology::Dumbbell, 1, 1_000_000);
                let session = if cohort {
                    McastSessionSpec::new(variant).receiver(ReceiverSpec::new().cohort(3))
                } else {
                    McastSessionSpec::honest(variant, 3)
                };
                spec.mcast = vec![session];
                let mut t = spec.build();
                t.run_secs(30);
                t
            };
            let ind = build(false);
            let coh = build(true);
            assert_eq!(coh.sessions[0].receivers.len(), 1);
            assert_eq!(coh.sessions[0].weights, vec![3]);
            assert_eq!(ind.sessions[0].weights, vec![1, 1, 1]);
            let agent = coh.sessions[0].receivers[0];
            // One agent: the count-weighted mean is its own goodput.
            let w_coh = coh.session_mean_receiver_bps(&coh.sessions[0], 10, 30);
            let monitor = coh.throughput_bps(agent, 10, 30);
            assert!(
                (w_coh - monitor).abs() < 1.0,
                "{variant:?}: weighted mean {w_coh} vs agent {monitor}"
            );
            if matches!(variant, Variant::FlidDl | Variant::FlidDs) {
                let view = coh.cohort(agent);
                let stats = &coh.receiver(agent).stats;
                assert_eq!(view.bucket_count(), 1);
                assert_eq!(view.weighted_stats().subscriptions, 3 * stats.subscriptions);
                assert_eq!(view.weighted_stats().acks, 3 * stats.acks);
            }
            // And it equals the expanded form's (synchronized receivers:
            // every individual sees the same bytes). The collusion guard
            // draws a secret per interface from the router's RNG, so three
            // interfaces and one take different draws: no exact match.
            if variant != Variant::FlidDsGuard {
                let w_ind = ind.session_mean_receiver_bps(&ind.sessions[0], 10, 30);
                assert!(
                    (w_ind - w_coh).abs() < 1.0,
                    "{variant:?}: weighted per-receiver throughput {w_ind} vs {w_coh}"
                );
            }
        }
    }

    /// An empty window reads 0 bps for cohort and individual sessions
    /// alike, as `Monitor::agent_throughput_bps` does; a real window reads
    /// the session's goodput.
    #[test]
    fn an_empty_window_reads_zero_for_every_kind_of_session() {
        for cohort in [false, true] {
            let mut spec = TopologySpec::new(Topology::Dumbbell, 1, 1_000_000);
            spec.mcast = vec![if cohort {
                McastSessionSpec::new(Variant::FlidDs).receiver(ReceiverSpec::new().cohort(3))
            } else {
                McastSessionSpec::honest(Variant::FlidDs, 3)
            }];
            let mut t = spec.build();
            t.run_secs(5);
            let session = &t.sessions[0];
            assert_eq!(session.weights.len() == 1, cohort);
            assert!(
                t.session_mean_receiver_bps(session, 2, 5) > 0.0,
                "cohort {cohort}"
            );
            for (from, to) in [(3, 3), (4, 2)] {
                let bps = t.session_mean_receiver_bps(session, from, to);
                assert_eq!(bps, 0.0, "cohort {cohort}: window [{from}, {to})");
            }
        }
    }

    /// Every policy evaluates a slot early enough for its subscription to
    /// cross a long access link before slot s+2 traffic reaches the router
    /// (paper Figure 2): on an uncongested dumbbell an 80 ms receiver keeps
    /// the goodput of a 10 ms one. Evaluating as late as a 10 ms receiver,
    /// a replicated receiver falls back to the minimal group and a
    /// threshold receiver loses keys.
    #[test]
    fn long_access_links_subscribe_in_time_under_every_policy() {
        for variant in [Variant::FlidDs, Variant::Replicated, Variant::Threshold] {
            let goodput = |delay_ms| {
                let mut spec = TopologySpec::new(Topology::Dumbbell, 5, 10.mbps());
                let r = ReceiverSpec::new().access_delay(SimDuration::from_millis(delay_ms));
                spec.mcast = vec![McastSessionSpec::new(variant).receiver(r)];
                let mut t = spec.build();
                t.run_secs(30);
                t.throughput_bps(t.sessions[0].receivers[0], 10, 30)
            };
            let (near, far) = (goodput(10), goodput(80));
            assert!(
                far > 0.95 * near,
                "{variant:?}: 80 ms receiver {far} bps vs 10 ms receiver {near} bps"
            );
        }
    }

    /// Simulated work is independent of the modeled population: 100 cohort
    /// hosts behind a 10 Mbps dumbbell cost the same events and deliver
    /// the same per-receiver goodput whether they stand for 10³ or 10⁶
    /// receivers, and the edge interns their grants into a few tables.
    #[test]
    fn modeled_population_does_not_change_simulated_work() {
        let run = |receivers: u64| {
            let hosts = 100;
            let mut spec = TopologySpec::new(Topology::Dumbbell, 47, 10_000_000);
            spec.mcast = vec![McastSessionSpec::new(Variant::FlidDs)
                .with_receivers((0..hosts).map(|_| ReceiverSpec::new().cohort(receivers / hosts)))];
            spec.tcp = 2;
            let mut t = spec.build();
            t.run_secs(5);
            let (ifaces, tables) = t
                .sigmas()
                .map(|s| s.grant_interning())
                .fold((0, 0), |(i, d), (si, sd)| (i + si, d + sd));
            assert_eq!(ifaces, hosts as usize, "every cohort host holds a grant");
            assert!(
                tables * 10 <= ifaces,
                "{tables} tables behind {ifaces} interfaces"
            );
            (
                t.sim.world.processed_events(),
                t.session_mean_receiver_bps(&t.sessions[0], 2, 5),
            )
        };
        let (thousand, million) = (run(1_000), run(1_000_000));
        assert!(
            thousand.1 > 100_000.0,
            "the scaled world still simulates FLID"
        );
        assert_eq!(thousand, million);
    }

    #[test]
    fn interior_placement_resolves_to_the_leaf_ancestor() {
        let mut spec = tree_spec(2, 2, 2);
        spec.mcast[0].receivers.push(
            ReceiverSpec::default()
                .adversary(AttackPlan::honest().at(Placement::Interior { depth: 1, leaf: 3 })),
        );
        let t = spec.build();
        // Leaf 3 is routers[6]; its depth-1 ancestor is routers[2].
        assert_eq!(receiver_routers(&t, 0)[2], t.routers[2]);
        // The interior router is now an edge (SIGMA installed there too).
        assert!(t.edges.contains(&t.routers[2]));
    }

    #[test]
    fn parking_lot_chains_bottlenecks_and_places_per_hop_cbr() {
        let mut spec = TopologySpec::new(
            Topology::ParkingLot {
                bottlenecks: 3,
                per_hop_cbr: Some(100_000),
            },
            2,
            1.mbps(),
        );
        spec.mcast = vec![McastSessionSpec::honest(Variant::FlidDl, 3)];
        let mut t = spec.build();
        assert_eq!(t.routers.len(), 4);
        assert_eq!(t.bottlenecks.len(), 3);
        assert_eq!(t.attach, t.routers[1..].to_vec());
        assert_eq!(t.hop_cbr_sinks.len(), 3, "one cross-traffic sink per hop");
        t.run_secs(10);
        for (hop, &sink) in t.hop_cbr_sinks.iter().enumerate() {
            let bps = t.throughput_bps(sink, 2, 10);
            assert!(bps > 60_000.0, "hop {hop} cross traffic starved: {bps}");
        }
    }

    /// The cross-traffic contract: every CBR sink, in flow order, with
    /// the router its host hangs off. The spec's CBR (200) and the
    /// workload's background (201 up) run from the ingress to the
    /// attachment cycle; the per-hop CBRs (210 up) cross one hop each.
    #[test]
    fn cross_traffic_sinks_take_their_flow_ids_and_routers() {
        use crate::workload::{BackgroundCbr, Dist, WorkloadSpec};
        let mut spec = TopologySpec::new(
            Topology::ParkingLot {
                bottlenecks: 3,
                per_hop_cbr: Some(100_000),
            },
            2,
            1.mbps(),
        );
        spec.cbr = Some(CbrSpec::steady(100_000));
        let background = BackgroundCbr {
            count: 2,
            rate_bps: Dist::Const(100_000.0),
        };
        spec.workload = Some(WorkloadSpec::none(SimDuration::from_secs(3)).background(background));
        let (t, trace) = crate::obs::capture("cross_traffic", || {
            let mut t = spec.build();
            t.run_secs(3);
            t
        });
        let world = &t.sim.world;
        let sinks: Vec<AgentId> = (0..world.agent_nodes.len() as u32)
            .map(AgentId)
            .filter(|&a| t.sim.agent_as::<CountingSink>(a).is_some())
            .collect();
        assert_eq!(t.hop_cbr_sinks, sinks[3..]);
        let r = &t.routers;
        let want = [
            (200, r[1]),
            (201, r[1]),
            (202, r[2]),
            (210, r[1]),
            (211, r[2]),
            (212, r[3]),
        ];
        assert_eq!(sinks.len(), want.len());
        for (&sink, (flow, router)) in sinks.iter().zip(want) {
            let host = &world.nodes[world.agent_nodes[sink.index()].index()];
            let access = &world.links[host.out_links[0].index()];
            assert_eq!(access.to, router, "flow {flow}");
            let to_sink = format!(r#""agent":{},"#, sink.0);
            let deliveries: Vec<&str> = trace
                .jsonl
                .lines()
                .filter(|l| l.contains(r#""ev":"pkt_deliver""#) && l.contains(&to_sink))
                .collect();
            assert!(
                !deliveries.is_empty(),
                "flow {flow}: the sink receives nothing"
            );
            let of_flow = format!(r#""flow":{flow},"#);
            for line in deliveries {
                assert!(line.contains(&of_flow), "flow {flow}: {line}");
            }
        }
    }

    /// Auto receivers wrap round the attachment cycle: six receivers on
    /// the three leaves of a hub-and-spokes tree take each leaf twice.
    #[test]
    fn auto_receivers_wrap_round_robin_over_the_leaves() {
        let t = tree_spec(1, 3, 6).build();
        assert_eq!(t.routers.len(), 4);
        assert_eq!(t.attach.len(), 3);
        assert_eq!(
            receiver_routers(&t, 0),
            [&t.attach[..], &t.attach[..]].concat()
        );
    }

    #[test]
    fn tree_session_delivers_to_every_leaf() {
        let mut t = tree_spec(2, 2, 4).build();
        t.run_secs(20);
        for (i, &r) in t.sessions[0].receivers.iter().enumerate() {
            let bps = t.throughput_bps(r, 5, 20);
            assert!(bps > 50_000.0, "leaf {i} starved: {bps}");
        }
    }
}
