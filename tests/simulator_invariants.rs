//! Property-based invariants of the simulator substrate, checked across
//! crate boundaries: packet conservation, FIFO ordering and determinism
//! under randomized workloads, and multicast tree membership under random
//! joins and leaves.

use proptest::prelude::*;
use robust_multicast::netsim::prelude::*;
use robust_multicast::simcore::{SimDuration, SimTime};
use robust_multicast::traffic::{CbrConfig, CbrSource, CountingSink};

/// Build a two-hop unicast path with the given bottleneck and run a CBR
/// through it; return (sent, delivered, dropped at bottleneck).
fn run_cbr_scenario(
    seed: u64,
    rate_bps: u64,
    bottleneck_bps: u64,
    queue_bytes: u64,
    secs: u64,
) -> (u64, u64, u64) {
    let mut sim = Sim::new(seed, SimDuration::from_secs(1));
    let a = sim.add_node();
    let r = sim.add_node();
    let b = sim.add_node();
    sim.add_duplex_link(
        a,
        r,
        100_000_000,
        SimDuration::from_millis(2),
        Queue::drop_tail(10_000_000),
        Queue::drop_tail(10_000_000),
    );
    let (bl, _) = sim.add_duplex_link(
        r,
        b,
        bottleneck_bps,
        SimDuration::from_millis(10),
        Queue::drop_tail(queue_bytes),
        Queue::drop_tail(queue_bytes),
    );
    let sink = sim.add_agent(b, Box::new(CountingSink::default()), SimTime::ZERO);
    let cfg = CbrConfig::steady(
        rate_bps,
        Dest::Agent(sink),
        FlowId(0),
        SimTime::ZERO,
        SimTime::from_secs(secs),
    );
    let src = sim.add_agent(a, Box::new(CbrSource::new(cfg)), SimTime::ZERO);
    sim.finalize();
    // Drain: run well past the stop time so in-flight packets settle.
    sim.run_until(SimTime::from_secs(secs + 5));
    let sent = sim.agent_as::<CbrSource>(src).unwrap().sent;
    let delivered = sim.agent_as::<CountingSink>(sink).unwrap().packets;
    let dropped = sim.world.link_stats(bl).drops;
    (sent, delivered, dropped)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation: every packet sent is either delivered or accounted
    /// as a drop at the bottleneck — nothing vanishes.
    #[test]
    fn packets_are_conserved(
        seed in 0u64..1000,
        rate_kbps in 100u64..2_000,
        queue_kb in 2u64..50,
    ) {
        let (sent, delivered, dropped) =
            run_cbr_scenario(seed, rate_kbps * 1000, 500_000, queue_kb * 1000, 10);
        prop_assert!(sent > 0);
        prop_assert_eq!(sent, delivered + dropped,
            "sent {} = delivered {} + dropped {}", sent, delivered, dropped);
    }

    /// An over-provisioned link never drops.
    #[test]
    fn no_loss_below_capacity(seed in 0u64..1000, rate_kbps in 50u64..400) {
        let (sent, delivered, dropped) =
            run_cbr_scenario(seed, rate_kbps * 1000, 500_000, 50_000, 8);
        prop_assert_eq!(dropped, 0);
        prop_assert_eq!(sent, delivered);
    }

    /// Determinism: the same seed reproduces the run exactly.
    #[test]
    fn same_seed_same_world(seed in 0u64..500) {
        let a = run_cbr_scenario(seed, 900_000, 500_000, 8_000, 6);
        let b = run_cbr_scenario(seed, 900_000, 500_000, 8_000, 6);
        prop_assert_eq!(a, b);
    }
}

#[test]
fn fifo_ordering_is_preserved_per_flow() {
    // A sink that records arrival order of sequence-numbered payloads.
    #[derive(Debug, Default)]
    struct OrderSink {
        seen: Vec<u64>,
    }
    impl Agent for OrderSink {
        fn on_packet(&mut self, _ctx: &mut Ctx, pkt: Packet) {
            if let Some(&seq) = pkt.body_as::<u64>() {
                self.seen.push(seq);
            }
        }
    }
    #[derive(Debug)]
    struct Burster {
        to: AgentId,
        n: u64,
    }
    impl Agent for Burster {
        fn on_start(&mut self, ctx: &mut Ctx) {
            // A burst far exceeding the queue: drops happen, order must
            // survive for the packets that do get through.
            for seq in 0..self.n {
                ctx.send(Packet::app(
                    576 * 8,
                    FlowId(0),
                    ctx.agent,
                    Dest::Agent(self.to),
                    seq,
                ));
            }
        }
    }
    let mut sim = Sim::new(5, SimDuration::from_secs(1));
    let a = sim.add_node();
    let r = sim.add_node();
    let b = sim.add_node();
    sim.add_duplex_link(
        a,
        r,
        10_000_000,
        SimDuration::from_millis(1),
        Queue::drop_tail(1_000_000),
        Queue::drop_tail(1_000_000),
    );
    sim.add_duplex_link(
        r,
        b,
        500_000,
        SimDuration::from_millis(10),
        Queue::drop_tail(5_000),
        Queue::drop_tail(5_000),
    );
    let sink = sim.add_agent(b, Box::new(OrderSink::default()), SimTime::ZERO);
    sim.add_agent(a, Box::new(Burster { to: sink, n: 100 }), SimTime::ZERO);
    sim.finalize();
    sim.run_until(SimTime::from_secs(10));
    let seen = &sim.agent_as::<OrderSink>(sink).unwrap().seen;
    assert!(!seen.is_empty());
    assert!(seen.len() < 100, "the tiny queue must have dropped some");
    assert!(
        seen.windows(2).all(|w| w[0] < w[1]),
        "FIFO order violated: {seen:?}"
    );
}

/// Member agents of the tree-membership oracle: `(router, agents)` per
/// host. The first host carries two agents, so a leave there can leave the
/// host on the tree.
const TREE_HOSTS: [(usize, usize); 5] = [(3, 2), (4, 1), (2, 1), (0, 1), (1, 1)];
/// Parent of each router in the oracle's five-router tree.
const TREE_PARENTS: [Option<usize>; 5] = [None, Some(0), Some(0), Some(1), Some(1)];
/// The oracle's two groups, both rooted at the one source host.
const TREE_GROUPS: [GroupAddr; 2] = [GroupAddr(1), GroupAddr(2)];

/// Joins and leaves groups at scheduled instants; records every probe
/// delivered as `(step, group)`.
#[derive(Debug)]
struct Puppet {
    plan: Vec<(SimTime, GroupAddr, bool)>,
    got: Vec<(u64, GroupAddr)>,
}
impl Agent for Puppet {
    fn on_start(&mut self, ctx: &mut Ctx) {
        for (i, &(at, _, _)) in self.plan.iter().enumerate() {
            ctx.timer_at(at, i as u64);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        let (_, group, join) = self.plan[token as usize];
        if join {
            ctx.join_group(group);
        } else {
            ctx.leave_group(group);
        }
    }
    fn on_packet(&mut self, _ctx: &mut Ctx, pkt: Packet) {
        if let (Some(&step), Dest::Group(g)) = (pkt.body_as::<u64>(), pkt.dst) {
            self.got.push((step, g));
        }
    }
}

/// Sends one probe, carrying the step number, to every group at each
/// instant of `at`.
#[derive(Debug)]
struct Prober {
    at: Vec<SimTime>,
}
impl Agent for Prober {
    fn on_start(&mut self, ctx: &mut Ctx) {
        for (i, &t) in self.at.iter().enumerate() {
            ctx.timer_at(t, i as u64);
        }
    }
    fn on_timer(&mut self, ctx: &mut Ctx, step: u64) {
        for g in TREE_GROUPS {
            ctx.send(Packet::app(
                8_000,
                FlowId(9),
                ctx.agent,
                Dest::Group(g),
                step,
            ));
        }
    }
}

proptest! {
    /// The multicast tree is exactly the union of member-to-source paths.
    /// Random joins and leaves over two groups run one per second on a
    /// five-router tree; after each settles, a node holds a group entry iff
    /// it lies on a current member's path to the source, and one probe from
    /// the source reaches exactly the current members. After everyone
    /// leaves, no node holds an entry.
    #[test]
    fn multicast_tree_is_the_union_of_member_paths(
        src_router in 0usize..5,
        moves in prop::collection::vec(0usize..36, 1..16),
    ) {
        let agents: Vec<usize> = TREE_HOSTS
            .iter()
            .enumerate()
            .flat_map(|(h, &(_, n))| std::iter::repeat_n(h, n))
            .collect();
        // Each move is (agent, group, join); two in three are joins. The
        // replay tracks the membership the oracle expects after each step.
        let mut steps: Vec<(usize, usize, bool)> = moves
            .iter()
            .map(|&m| (m % agents.len(), (m / agents.len()) % 2, m / 12 != 2))
            .collect();
        let mut joined = vec![[false; 2]; agents.len()];
        let mut expected = Vec::new();
        for &(a, g, join) in &steps {
            joined[a][g] = join;
            expected.push(joined.clone());
        }
        for a in 0..agents.len() {
            for g in 0..2 {
                if std::mem::take(&mut joined[a][g]) {
                    steps.push((a, g, false));
                    expected.push(joined.clone());
                }
            }
        }
        let step_at = |k: usize| SimTime::from_secs(k as u64 + 1);
        let probe_at = |k: usize| step_at(k) + SimDuration::from_millis(400);
        let settled = |k: usize| step_at(k) + SimDuration::from_millis(900);

        let mut sim = Sim::new(1, SimDuration::from_secs(1));
        let routers: Vec<NodeId> = (0..TREE_PARENTS.len()).map(|_| sim.add_node()).collect();
        let source = sim.add_node();
        let hosts: Vec<NodeId> = TREE_HOSTS.iter().map(|_| sim.add_node()).collect();
        let mut edges = Vec::new();
        for (r, parent) in TREE_PARENTS.iter().enumerate() {
            if let Some(p) = parent {
                edges.push((routers[*p], routers[r]));
            }
        }
        edges.push((routers[src_router], source));
        for (h, &(r, _)) in TREE_HOSTS.iter().enumerate() {
            edges.push((routers[r], hosts[h]));
        }
        for &(a, b) in &edges {
            sim.add_duplex_link(
                a,
                b,
                10_000_000,
                SimDuration::from_millis(1),
                Queue::drop_tail(100_000),
                Queue::drop_tail(100_000),
            );
        }
        let puppets: Vec<AgentId> = agents
            .iter()
            .enumerate()
            .map(|(a, &h)| {
                let plan = steps
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.0 == a)
                    .map(|(k, &(_, g, join))| (step_at(k), TREE_GROUPS[g], join))
                    .collect();
                let puppet = Puppet { plan, got: Vec::new() };
                sim.add_agent(hosts[h], Box::new(puppet), SimTime::ZERO)
            })
            .collect();
        let probes = (0..steps.len()).map(probe_at).collect();
        sim.add_agent(source, Box::new(Prober { at: probes }), SimTime::ZERO);
        for g in TREE_GROUPS {
            sim.register_group(g, source);
        }
        sim.finalize();

        // Every node's next hop toward the source, walking the tree.
        let nodes = sim.world.nodes.len();
        let mut toward_source = vec![None; nodes];
        let mut stack = vec![source];
        while let Some(u) = stack.pop() {
            for &(a, b) in &edges {
                for (x, y) in [(a, b), (b, a)] {
                    if x == u && y != source && toward_source[y.index()].is_none() {
                        toward_source[y.index()] = Some(u);
                        stack.push(y);
                    }
                }
            }
        }

        for (k, members) in expected.iter().enumerate() {
            sim.run_until(settled(k));
            for (g, &group) in TREE_GROUPS.iter().enumerate() {
                let mut on_path = vec![false; nodes];
                for (a, &h) in agents.iter().enumerate() {
                    if !members[a][g] {
                        continue;
                    }
                    let mut at = Some(hosts[h]);
                    while let Some(n) = at {
                        on_path[n.index()] = true;
                        at = toward_source[n.index()];
                    }
                }
                for (n, &want) in on_path.iter().enumerate() {
                    prop_assert_eq!(
                        sim.world.group_entry(NodeId(n as u32), group).is_some(),
                        want,
                        "step {} {:?}: node {} (source on router {}, steps {:?})",
                        k, group, n, src_router, steps
                    );
                }
                for (a, &id) in puppets.iter().enumerate() {
                    let got = &sim.agent_as::<Puppet>(id).unwrap().got;
                    prop_assert_eq!(
                        got.contains(&(k as u64, group)),
                        members[a][g],
                        "step {} {:?}: agent {} probe (source on router {}, steps {:?})",
                        k, group, a, src_router, steps
                    );
                }
            }
        }
        for n in 0..nodes {
            for group in TREE_GROUPS {
                prop_assert!(sim.world.group_entry(NodeId(n as u32), group).is_none());
            }
        }
    }
}
