//! # mcc-netsim — packet-level network simulator
//!
//! The NS-2 substitute for the DELTA/SIGMA reproduction (see `DESIGN.md`
//! substitution table). It models exactly the network abstractions the
//! paper's evaluation exercises:
//!
//! * point-to-point duplex `link::Link`s with a serialization rate,
//!   propagation delay and a [`queue::Queue`] (drop-tail sized in bytes, or
//!   RED with ECN marking for the paper's ECN instantiation of DELTA),
//! * `node::Node`s that unicast-route by shortest delay and multicast
//!   along source-rooted trees maintained with hop-by-hop grafts/prunes
//!   (the IGMP model; a leave prunes at the instant it happens),
//! * [`sim::Agent`]s — protocol endpoints (FLID senders and receivers, TCP
//!   Reno, CBR sources) dispatched through a capability-style [`sim::Ctx`],
//! * [`edge::EdgeModule`] hooks on edge routers — the *generic* router
//!   support demanded by the paper's Requirement 3; SIGMA is one
//!   implementation, classic IGMP (no module) is another,
//! * a `monitor::Monitor` recording per-receiver time-binned throughput,
//!   which is precisely the measurement behind every figure in the paper.
//!
//! The simulator is deterministic: a seed fully determines a run.
//!
//! ```
//! use mcc_netsim::prelude::*;
//! use mcc_simcore::{SimDuration, SimTime};
//!
//! // Two hosts, one 1 Mbps link; an agent that sends one packet on start.
//! #[derive(Debug)]
//! struct Hello { to: AgentId }
//! impl Agent for Hello {
//!     fn on_start(&mut self, ctx: &mut Ctx) {
//!         ctx.send(Packet::opaque(576 * 8, FlowId(0), ctx.agent, Dest::Agent(self.to)));
//!     }
//! }
//! #[derive(Debug, Default)]
//! struct Sink { got: u64 }
//! impl Agent for Sink {
//!     fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) { self.got += 1; }
//! }
//!
//! let mut sim = Sim::new(1, SimDuration::from_secs(1));
//! let a = sim.add_node();
//! let b = sim.add_node();
//! sim.add_duplex_link(a, b, 1_000_000, SimDuration::from_millis(10),
//!                     Queue::drop_tail(10_000), Queue::drop_tail(10_000));
//! let sink = sim.add_agent(b, Box::new(Sink::default()), SimTime::ZERO);
//! let _src = sim.add_agent(a, Box::new(Hello { to: sink }), SimTime::ZERO);
//! sim.finalize();
//! sim.run_until(SimTime::from_secs(1));
//! assert_eq!(sim.agent_as::<Sink>(sink).unwrap().got, 1);
//! ```

pub(crate) mod addr;
pub(crate) mod edge;
pub(crate) mod link;
pub(crate) mod monitor;
pub(crate) mod node;
pub(crate) mod packet;
pub mod queue;
pub mod shard;
pub(crate) mod sim;

/// One-stop imports for scenario and protocol code.
pub mod prelude {
    pub use crate::addr::{AgentId, FlowId, GroupAddr, LinkId, NodeId};
    pub use crate::edge::{EdgeAction, EdgeEnv, EdgeModule};
    pub use crate::packet::{AppBody, Dest, Ecn, Packet};
    pub use crate::queue::{Queue, RedConfig};
    pub use crate::sim::{Agent, Ctx, Sim};
}

pub use addr::{AgentId, FlowId, GroupAddr, LinkId, NodeId};
pub use packet::DATA_PACKET_BYTES;
pub use queue::Queue;
pub use sim::{Sim, World};

// Re-exported so protocol crates can emit trace events through
// `Ctx::trace` / `EdgeEnv::trace` without depending on `mcc-obs` directly.
pub use mcc_obs::TraceEvent;

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use mcc_simcore::{SimDuration, SimTime};

    /// Sends `count` packets of `bits` to a group, one every `gap`.
    #[derive(Debug)]
    struct GroupBlaster {
        group: GroupAddr,
        count: u64,
        bits: u64,
        gap: SimDuration,
        sent: u64,
    }
    impl Agent for GroupBlaster {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.timer_in(SimDuration::ZERO, 0);
        }
        fn on_timer(&mut self, ctx: &mut Ctx, _tok: u64) {
            if self.sent < self.count {
                ctx.send(Packet::opaque(
                    self.bits,
                    FlowId(7),
                    ctx.agent,
                    Dest::Group(self.group),
                ));
                self.sent += 1;
                ctx.timer_in(self.gap, 0);
            }
        }
    }

    /// Joins a group at `join_at`, counts deliveries, optionally leaves.
    #[derive(Debug)]
    struct GroupSink {
        group: GroupAddr,
        join_at: SimTime,
        leave_at: Option<SimTime>,
        got: u64,
    }
    impl Agent for GroupSink {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.timer_at(self.join_at, 1);
            if let Some(t) = self.leave_at {
                ctx.timer_at(t, 2);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx, tok: u64) {
            match tok {
                1 => ctx.join_group(self.group),
                2 => ctx.leave_group(self.group),
                _ => unreachable!(),
            }
        }
        fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {
            self.got += 1;
        }
    }

    /// A chain host—router—router—host with a multicast source and sink.
    fn chain_sim() -> (Sim, NodeId, NodeId, NodeId, NodeId) {
        let mut sim = Sim::new(42, SimDuration::from_secs(1));
        let h1 = sim.add_node();
        let r1 = sim.add_node();
        let r2 = sim.add_node();
        let h2 = sim.add_node();
        for (a, b) in [(h1, r1), (r1, r2), (r2, h2)] {
            sim.add_duplex_link(
                a,
                b,
                10_000_000,
                SimDuration::from_millis(10),
                Queue::drop_tail(100_000),
                Queue::drop_tail(100_000),
            );
        }
        (sim, h1, r1, r2, h2)
    }

    #[test]
    fn multicast_reaches_joined_receiver() {
        let (mut sim, h1, _r1, _r2, h2) = chain_sim();
        let g = GroupAddr(1);
        sim.register_group(g, h1);
        let sink = sim.add_agent(
            h2,
            Box::new(GroupSink {
                group: g,
                join_at: SimTime::ZERO,
                leave_at: None,
                got: 0,
            }),
            SimTime::ZERO,
        );
        // Start the source late enough for the graft to reach h1 (30 ms path).
        sim.add_agent(
            h1,
            Box::new(GroupBlaster {
                group: g,
                count: 10,
                bits: 1000 * 8,
                gap: SimDuration::from_millis(10),
                sent: 0,
            }),
            SimTime::from_millis(100),
        );
        sim.finalize();
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.agent_as::<GroupSink>(sink).unwrap().got, 10);
    }

    #[test]
    fn non_member_receives_nothing() {
        let (mut sim, h1, _r1, _r2, h2) = chain_sim();
        let g = GroupAddr(1);
        sim.register_group(g, h1);
        let sink = sim.add_agent(
            h2,
            Box::new(GroupSink {
                group: g,
                join_at: SimTime::from_secs(100), // never joins within the run
                leave_at: None,
                got: 0,
            }),
            SimTime::ZERO,
        );
        sim.add_agent(
            h1,
            Box::new(GroupBlaster {
                group: g,
                count: 10,
                bits: 1000 * 8,
                gap: SimDuration::from_millis(10),
                sent: 0,
            }),
            SimTime::from_millis(100),
        );
        sim.finalize();
        sim.run_until(SimTime::from_secs(2));
        assert_eq!(sim.agent_as::<GroupSink>(sink).unwrap().got, 0);
    }

    #[test]
    fn leave_prunes_the_tree() {
        let (mut sim, h1, r1, _r2, h2) = chain_sim();
        let g = GroupAddr(1);
        sim.register_group(g, h1);
        let sink = sim.add_agent(
            h2,
            Box::new(GroupSink {
                group: g,
                join_at: SimTime::ZERO,
                leave_at: Some(SimTime::from_millis(500)),
                got: 0,
            }),
            SimTime::ZERO,
        );
        sim.add_agent(
            h1,
            Box::new(GroupBlaster {
                group: g,
                count: 200,
                bits: 1000 * 8,
                gap: SimDuration::from_millis(10),
                sent: 0,
            }),
            SimTime::from_millis(100),
        );
        sim.finalize();
        sim.run_until(SimTime::from_secs(3));
        let got = sim.agent_as::<GroupSink>(sink).unwrap().got;
        // Joined for ~400 ms of the sending window: roughly 40 packets, then
        // the prune stops the flow; the graft/prune latency allows slack.
        assert!(got > 20 && got < 80, "got {got}");
        // After the prune the first router must be off the tree.
        assert!(sim.world.group_entry(r1, g).is_none());
    }

    #[test]
    fn drop_tail_losses_under_overload() {
        // 10 Mbps feeder into a 1 Mbps middle link: the blaster overdrives it.
        let mut sim = Sim::new(7, SimDuration::from_secs(1));
        let h1 = sim.add_node();
        let r1 = sim.add_node();
        let h2 = sim.add_node();
        sim.add_duplex_link(
            h1,
            r1,
            10_000_000,
            SimDuration::from_millis(1),
            Queue::drop_tail(1_000_000),
            Queue::drop_tail(1_000_000),
        );
        let (bottleneck, _) = sim.add_duplex_link(
            r1,
            h2,
            1_000_000,
            SimDuration::from_millis(10),
            Queue::drop_tail(5_000),
            Queue::drop_tail(5_000),
        );
        let g = GroupAddr(9);
        sim.register_group(g, h1);
        let sink = sim.add_agent(
            h2,
            Box::new(GroupSink {
                group: g,
                join_at: SimTime::ZERO,
                leave_at: None,
                got: 0,
            }),
            SimTime::ZERO,
        );
        // 2 Mbps offered on a 1 Mbps link for 2 s.
        sim.add_agent(
            h1,
            Box::new(GroupBlaster {
                group: g,
                count: 500,
                bits: 1000 * 8,
                gap: SimDuration::from_millis(4),
                sent: 0,
            }),
            SimTime::from_millis(100),
        );
        sim.finalize();
        sim.run_until(SimTime::from_secs(5));
        let got = sim.agent_as::<GroupSink>(sink).unwrap().got;
        let drops = sim.world.link_stats(bottleneck).drops;
        assert!(drops > 100, "expected heavy drops, saw {drops}");
        assert_eq!(got + drops, 500, "conservation: delivered + dropped");
    }

    #[test]
    fn unicast_routing_across_chain() {
        #[derive(Debug, Default)]
        struct Pong {
            got: u64,
        }
        impl Agent for Pong {
            fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
                self.got += 1;
                // Reply to the sender.
                ctx.send(Packet::opaque(
                    512,
                    FlowId(1),
                    ctx.agent,
                    Dest::Agent(pkt.src),
                ));
            }
        }
        #[derive(Debug)]
        struct Ping {
            to: AgentId,
            replies: u64,
        }
        impl Agent for Ping {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.send(Packet::opaque(
                    512,
                    FlowId(1),
                    ctx.agent,
                    Dest::Agent(self.to),
                ));
            }
            fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {
                self.replies += 1;
            }
        }
        let (mut sim, h1, _r1, _r2, h2) = chain_sim();
        let pong = sim.add_agent(h2, Box::new(Pong::default()), SimTime::ZERO);
        let ping = sim.add_agent(
            h1,
            Box::new(Ping {
                to: pong,
                replies: 0,
            }),
            SimTime::ZERO,
        );
        sim.finalize();
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(sim.agent_as::<Pong>(pong).unwrap().got, 1);
        assert_eq!(sim.agent_as::<Ping>(ping).unwrap().replies, 1);
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |_seed: u64| -> (u64, u64) {
            let (mut sim, h1, _r1, _r2, h2) = chain_sim();
            let g = GroupAddr(1);
            sim.register_group(g, h1);
            let sink = sim.add_agent(
                h2,
                Box::new(GroupSink {
                    group: g,
                    join_at: SimTime::ZERO,
                    leave_at: None,
                    got: 0,
                }),
                SimTime::ZERO,
            );
            sim.add_agent(
                h1,
                Box::new(GroupBlaster {
                    group: g,
                    count: 50,
                    bits: 576 * 8,
                    gap: SimDuration::from_millis(7),
                    sent: 0,
                }),
                SimTime::from_millis(50),
            );
            sim.finalize();
            sim.run_until(SimTime::from_secs(2));
            (
                sim.agent_as::<GroupSink>(sink).unwrap().got,
                sim.world.processed_events(),
            )
        };
        assert_eq!(run(5), run(5));
    }

    /// A payload that counts its deep clones through a shared counter, so
    /// the counter observes every payload copy the simulator makes.
    #[derive(Debug)]
    struct CountingBody {
        tag: u32,
        clones: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }
    impl Clone for CountingBody {
        fn clone(&self) -> Self {
            self.clones
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            CountingBody {
                tag: self.tag,
                clones: self.clones.clone(),
            }
        }
    }

    /// A group member that records the tag and XOR words it received.
    #[derive(Debug)]
    struct Member {
        group: GroupAddr,
        seen: Option<(u32, [u64; 2])>,
    }
    impl Agent for Member {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.join_group(self.group);
        }
        fn on_packet(&mut self, _ctx: &mut Ctx, pkt: Packet) {
            self.seen = pkt.body_as::<CountingBody>().map(|b| (b.tag, pkt.xor));
        }
    }

    /// A star of `n` member hosts around one router, a source on its own
    /// host, every member joined from t = 0; the source emits one packet
    /// carrying a [`CountingBody`].
    fn fanout_sim(
        n: usize,
        clones: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    ) -> (Sim, NodeId, Vec<AgentId>) {
        #[derive(Debug)]
        struct OneShot {
            group: GroupAddr,
            clones: std::sync::Arc<std::sync::atomic::AtomicUsize>,
        }
        impl Agent for OneShot {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.timer_in(SimDuration::from_millis(200), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx, _tok: u64) {
                ctx.send(Packet::app(
                    512,
                    FlowId(3),
                    ctx.agent,
                    Dest::Group(self.group),
                    CountingBody {
                        tag: 7,
                        clones: self.clones.clone(),
                    },
                ));
            }
        }
        let mut sim = Sim::new(9, SimDuration::from_secs(1));
        let router = sim.add_node();
        let src_host = sim.add_node();
        sim.add_duplex_link(
            src_host,
            router,
            10_000_000,
            SimDuration::from_millis(5),
            Queue::drop_tail(100_000),
            Queue::drop_tail(100_000),
        );
        let g = GroupAddr(4);
        sim.register_group(g, src_host);
        let mut members = Vec::new();
        for _ in 0..n {
            let h = sim.add_node();
            sim.add_duplex_link(
                router,
                h,
                10_000_000,
                SimDuration::from_millis(5),
                Queue::drop_tail(100_000),
                Queue::drop_tail(100_000),
            );
            members.push(sim.add_agent(
                h,
                Box::new(Member {
                    group: g,
                    seen: None,
                }),
                SimTime::ZERO,
            ));
        }
        sim.add_agent(
            src_host,
            Box::new(OneShot { group: g, clones }),
            SimTime::ZERO,
        );
        (sim, router, members)
    }

    /// Tentpole contract: fanning one packet out to N read-only branches
    /// performs zero deep payload clones — every branch shares the Arc.
    #[test]
    fn multicast_fanout_is_zero_copy() {
        let clones = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let (mut sim, _router, members) = fanout_sim(20, clones.clone());
        sim.finalize();
        sim.run_until(SimTime::from_secs(2));
        for m in &members {
            let got = sim
                .monitor()
                .agent_throughput_bps(*m, SimTime::ZERO, SimTime::from_secs(2));
            assert!(got > 0.0, "member {m} never got the packet");
        }
        assert_eq!(
            clones.load(std::sync::atomic::Ordering::SeqCst),
            0,
            "read-only fan-out must not deep-clone the payload"
        );
    }

    /// …and a branch whose edge module writes its XOR words (an edge
    /// module rewriting header fields on one interface) makes no payload
    /// clone either: that member reads the words, every other member reads
    /// the original.
    #[test]
    fn writing_one_branchs_words_clones_nothing() {
        #[derive(Debug)]
        struct MarkOne {
            victim: Option<LinkId>,
        }
        impl EdgeModule for MarkOne {
            fn filter_data(&mut self, _env: &mut EdgeEnv, iface: LinkId, pkt: &mut Packet) -> bool {
                // Write the words on the first host-facing branch only.
                let victim = *self.victim.get_or_insert(iface);
                if victim == iface {
                    pkt.xor[0] ^= 99;
                }
                true
            }
        }
        let clones = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let (mut sim, router, members) = fanout_sim(20, clones.clone());
        sim.set_edge_module(router, Box::new(MarkOne { victim: None }));
        sim.finalize();
        sim.run_until(SimTime::from_secs(2));
        let seen: Vec<(u32, [u64; 2])> = members
            .iter()
            .map(|&m| {
                sim.agent_as::<Member>(m)
                    .unwrap()
                    .seen
                    .expect("member got the packet")
            })
            .collect();
        assert_eq!(seen.iter().filter(|s| **s == (7, [99, 0])).count(), 1);
        assert_eq!(seen.iter().filter(|s| **s == (7, [0, 0])).count(), 19);
        assert_eq!(
            clones.load(std::sync::atomic::Ordering::SeqCst),
            0,
            "writing one branch's words must not copy the payload"
        );
    }

    /// The hot layout: every queued event carries a packet inline, so a
    /// larger `Packet` costs every event. Adding the two XOR words without
    /// deleting the never-read packet uid and shrinking the body grew
    /// `Packet` to 72 B and `Event` to 80 B, and `fanout_dl` went
    /// 3.011 → 3.403 s (+13 %), slower in all 8 alternating pairs.
    #[test]
    fn packet_and_event_keep_their_hot_size() {
        let sizes = (size_of::<Packet>(), size_of::<crate::sim::Event>());
        assert_eq!(
            sizes,
            (64, 72),
            "Packet/Event grew: a 72 B / 80 B probe cost fanout_dl 13 % (0 of 8 pairs won)"
        );
    }

    #[test]
    fn same_node_delivery_loops_back() {
        #[derive(Debug, Default)]
        struct Recv {
            got: u64,
        }
        impl Agent for Recv {
            fn on_packet(&mut self, _ctx: &mut Ctx, _p: Packet) {
                self.got += 1;
            }
        }
        #[derive(Debug)]
        struct Sender {
            to: AgentId,
        }
        impl Agent for Sender {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.send(Packet::opaque(
                    64,
                    FlowId(0),
                    ctx.agent,
                    Dest::Agent(self.to),
                ));
            }
        }
        let mut sim = Sim::new(1, SimDuration::from_secs(1));
        let n = sim.add_node();
        let recv = sim.add_agent(n, Box::new(Recv::default()), SimTime::ZERO);
        sim.add_agent(n, Box::new(Sender { to: recv }), SimTime::ZERO);
        sim.finalize();
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(sim.agent_as::<Recv>(recv).unwrap().got, 1);
    }

    /// Add a 10 Mbps, 5 ms duplex link; returns the `a → b` direction.
    fn link(sim: &mut Sim, a: NodeId, b: NodeId) -> LinkId {
        let (ab, _) = sim.add_duplex_link(
            a,
            b,
            10_000_000,
            SimDuration::from_millis(5),
            Queue::drop_tail(100_000),
            Queue::drop_tail(100_000),
        );
        ab
    }

    #[test]
    fn only_multi_link_nodes_hold_route_tables() {
        use crate::node::Routes;
        let mut sim = Sim::new(1, SimDuration::from_secs(1));
        let router = sim.add_node();
        let hosts: Vec<NodeId> = (0..500).map(|_| sim.add_node()).collect();
        let access: Vec<LinkId> = hosts.iter().map(|&h| link(&mut sim, h, router)).collect();
        sim.finalize();
        let nodes = &sim.world.nodes;
        let tables: Vec<usize> = nodes
            .iter()
            .filter_map(|n| match &n.routes {
                Routes::Table(t) => Some(t.len()),
                Routes::Via(_) => None,
            })
            .collect();
        assert_eq!(tables, [nodes.len()], "only the router holds a table");
        for (i, (&h, &up)) in hosts.iter().zip(&access).enumerate() {
            let host = &nodes[h.index()];
            let neighbour = hosts[(i + 1) % hosts.len()];
            assert_eq!(host.route_to(router), Some(up));
            assert_eq!(host.route_to(neighbour), Some(up));
            assert_eq!(host.route_to(h), None);
        }
    }

    #[test]
    fn disconnected_graph_keeps_exact_unreachability() {
        #[derive(Debug)]
        struct Hello {
            to: AgentId,
        }
        impl Agent for Hello {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.send(Packet::opaque(
                    512,
                    FlowId(0),
                    ctx.agent,
                    Dest::Agent(self.to),
                ));
            }
        }
        #[derive(Debug)]
        struct Quiet;
        impl Agent for Quiet {}

        // Two components: h1 — r1 — h2 and h3 — r2.
        let mut sim = Sim::new(1, SimDuration::from_secs(1));
        let [h1, r1, h2, h3, r2] = [(); 5].map(|_| sim.add_node());
        let up = link(&mut sim, h1, r1);
        link(&mut sim, r1, h2);
        link(&mut sim, h3, r2);
        let far = sim.add_agent(h3, Box::new(Quiet), SimTime::ZERO);
        sim.add_agent(h1, Box::new(Hello { to: far }), SimTime::ZERO);
        sim.finalize();

        let host = &sim.world.nodes[h1.index()];
        assert_eq!(host.route_to(h3), None, "no route into the other component");
        assert_eq!(host.route_to(r2), None);
        assert_eq!(host.route_to(h1), None);
        assert_eq!(host.route_to(h2), Some(up), "own component still routed");
        sim.run_until(SimTime::from_secs(1));
        assert_eq!(
            sim.world.link_stats(up).tx_packets,
            0,
            "an unroutable packet never enters the access link"
        );
    }

    #[test]
    #[should_panic(expected = "cannot add nodes after finalize")]
    fn add_node_after_finalize_panics() {
        let mut sim = Sim::new(1, SimDuration::from_secs(1));
        let a = sim.add_node();
        let b = sim.add_node();
        link(&mut sim, a, b);
        sim.finalize();
        sim.add_node();
    }

    /// The dense group table is the only interner: the largest address it
    /// holds interns, and a larger one that was never interned looks up
    /// as absent rather than panicking.
    #[test]
    fn group_table_interns_up_to_its_limit() {
        let mut sim = Sim::new(1, SimDuration::from_secs(1));
        let h = sim.add_node();
        sim.register_group(GroupAddr(65_535), h);
        assert!(sim.world.group_idx(GroupAddr(65_535)).is_some());
        assert!(sim.world.group_idx(GroupAddr(65_534)).is_none());
        assert!(sim.world.group_idx(GroupAddr(70_000)).is_none());
        assert!(sim.world.group_idx(GroupAddr(u32::MAX)).is_none());
    }

    #[test]
    #[should_panic(expected = "group address g65536 is over")]
    fn interning_an_address_over_the_limit_names_it() {
        let mut sim = Sim::new(1, SimDuration::from_secs(1));
        let h = sim.add_node();
        sim.register_group(GroupAddr(65_536), h);
    }
}
