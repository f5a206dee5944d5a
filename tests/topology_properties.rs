//! Property-based invariants of the generic topology layer
//! (`mcc_core::topology`): for any balanced tree or parking lot the
//! builder can produce, routing is complete and equal to an all-pairs
//! Dijkstra, multicast membership matches the receiver set, and delivery
//! never exceeds what the bottleneck links could have carried. A
//! `cohort(n)` receiver reads exactly like `n` individual ones.

use proptest::prelude::*;
use robust_multicast::attack::{
    AttackPlan, IgnoreDecrease, InflateTo, JoinLeaveFlap, KeyGuess, Placement,
};
use robust_multicast::core::topology::{
    BuiltTopology, McastSessionSpec, ReceiverSpec, Topology, TopologySpec,
};
use robust_multicast::core::workload::{Dist, WorkloadSpec};
use robust_multicast::core::{Units, Variant};
use robust_multicast::flid::{FlidReceiver, ReceiverStats, ReplicatedReceiver, ThresholdReceiver};
use robust_multicast::netsim::{AgentId, LinkId, NodeId, World};
use robust_multicast::simcore::{SimDuration, SimTime};

/// Build a single-session FLID-DL scenario over `topology` with `k`
/// honest receivers and run it for `secs` seconds.
fn build_and_run(topology: Topology, k: usize, bottleneck_bps: u64, secs: u64) -> BuiltTopology {
    let mut spec = TopologySpec::new(topology, 1, bottleneck_bps);
    spec.mcast = vec![McastSessionSpec::honest(Variant::FlidDl, k)];
    let mut t = spec.build();
    t.run_secs(secs);
    t
}

/// Invariant 1: every receiver host has a (forward and reverse) route to
/// its session's sender host.
fn routes_are_complete(t: &BuiltTopology) {
    let world = &t.sim.world;
    for s in &t.sessions {
        let sender_node = world.agent_nodes[s.sender.index()];
        for &r in &s.receivers {
            let receiver_node = world.agent_nodes[r.index()];
            assert!(
                world.nodes[sender_node.index()]
                    .route_to(receiver_node)
                    .is_some(),
                "no route sender {sender_node:?} -> receiver {receiver_node:?}"
            );
            assert!(
                world.nodes[receiver_node.index()]
                    .route_to(sender_node)
                    .is_some(),
                "no route receiver {receiver_node:?} -> sender {sender_node:?}"
            );
        }
    }
}

/// Invariant 2: after the run, the minimal group's local membership
/// across all nodes is exactly the session's receiver set (every honest
/// FLID receiver joins group 1 at start and never drops below level 1).
fn membership_matches_receivers(t: &BuiltTopology) {
    let world = &t.sim.world;
    for s in &t.sessions {
        let mut members = Vec::new();
        for node in &world.nodes {
            if let Some(entry) = world.group_entry(node.id, s.cfg.groups[0]) {
                members.extend(entry.members().iter().copied());
            }
        }
        members.sort_unstable_by_key(|a| a.0);
        let mut want = s.receivers.clone();
        want.sort_unstable_by_key(|a| a.0);
        assert_eq!(
            members, want,
            "minimal-group membership must equal the receiver set"
        );
    }
}

/// Invariant 3: no receiver can have been delivered more bits than one
/// bottleneck-class link could carry in the run (every copy it got
/// crossed the tree/chain link into its edge router exactly once).
fn delivery_respects_capacity(t: &BuiltTopology, bottleneck_bps: u64, secs: u64) {
    let budget = (bottleneck_bps * secs) as f64 * 1.05 + 50_000.0;
    for s in &t.sessions {
        for &r in &s.receivers {
            let bits = t.sim.monitor().agent_bits(r) as f64;
            assert!(
                bits <= budget,
                "receiver {r:?} got {bits} bits > bottleneck budget {budget}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Balanced trees: any (depth, fanout, receiver count) the spec
    /// accepts yields complete routes, exact membership and capacity-
    /// bounded delivery at the leaves.
    #[test]
    fn balanced_tree_invariants(
        depth in 1u32..=3,
        fanout in 1u32..=3,
        receivers in 1usize..=6,
        bottleneck_kbps in 200u64..=600,
    ) {
        let bps = bottleneck_kbps * 1_000;
        let secs = 6;
        let t = build_and_run(
            Topology::BalancedTree { depth, fanout },
            receivers,
            bps,
            secs,
        );
        let leaves = (fanout as usize).pow(depth);
        prop_assert_eq!(t.attach.len(), leaves);
        prop_assert_eq!(t.bottlenecks.len(), t.routers.len() - 1);
        routes_are_complete(&t);
        membership_matches_receivers(&t);
        delivery_respects_capacity(&t, bps, secs);
    }

    /// Parking lots: any hop count and receiver population routes end to
    /// end and stays within per-hop capacity.
    #[test]
    fn parking_lot_invariants(
        hops in 1usize..=4,
        receivers in 1usize..=5,
        cbr in prop::option::weighted(0.5, 50_000u64..=150_000),
    ) {
        let bps = 1.mbps();
        let secs = 6;
        let t = build_and_run(
            Topology::ParkingLot { bottlenecks: hops, per_hop_cbr: cbr },
            receivers,
            bps,
            secs,
        );
        prop_assert_eq!(t.routers.len(), hops + 1);
        prop_assert_eq!(t.bottlenecks.len(), hops);
        prop_assert_eq!(t.hop_cbr_sinks.len(), if cbr.is_some() { hops } else { 0 });
        routes_are_complete(&t);
        membership_matches_receivers(&t);
        delivery_respects_capacity(&t, bps, secs);
    }
}

/// Reference routing: the shortest-delay first-hop table from `src` to
/// every node, `None` for `src` itself and unreachable nodes. The same
/// heap Dijkstra, over the same link order, that `Sim::finalize` runs, so
/// ties break identically.
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

proptest! {
    /// One-link nodes' default routes are exact: on every shape the
    /// builder produces — balanced trees, parking lots with and without
    /// per-hop CBR, stars, and a churned dumbbell whose access delays are
    /// drawn per receiver — every node's next hop toward every node
    /// equals a Dijkstra from that node. Build only; nothing runs.
    #[test]
    fn default_routes_match_all_pairs_dijkstra(
        shape in 0u32..5,
        size in 1u32..=3,
        fanout in 1u32..=3,
        receivers in 1usize..=6,
        tcp in 0usize..=2,
        seed in 0u64..1_000,
        churn_hz in 1u64..=3,
        delay_hi_ms in 1u64..=60,
    ) {
        let topology = match shape {
            0 => Topology::BalancedTree { depth: size, fanout },
            1 => Topology::ParkingLot { bottlenecks: size as usize, per_hop_cbr: None },
            2 => Topology::ParkingLot { bottlenecks: size as usize, per_hop_cbr: Some(100_000) },
            3 => Topology::Star { arms: (size + fanout) as usize },
            _ => Topology::Dumbbell,
        };
        let mut spec = TopologySpec::new(topology, seed, 1.mbps());
        spec.mcast = vec![McastSessionSpec::honest(Variant::FlidDl, receivers)];
        spec.tcp = tcp;
        if topology == Topology::Dumbbell {
            spec.workload = Some(
                WorkloadSpec::none(SimDuration::from_secs(10))
                    .poisson(churn_hz as f64, SimDuration::from_secs(3))
                    .access_delays_ms(Dist::Uniform { lo: 0.5, hi: delay_hi_ms as f64 }),
            );
        }
        let t = spec.build();
        let world = &t.sim.world;
        for src in &world.nodes {
            let want = dijkstra(world, src.id);
            for dst in &world.nodes {
                prop_assert_eq!(
                    src.route_to(dst.id),
                    want[dst.id.index()],
                    "{:?} -> {:?} on {}",
                    src.id,
                    dst.id,
                    topology.label()
                );
            }
        }
    }
}

/// Per-receiver monitor series as exact bit patterns, and per-link
/// `(tx_packets, tx_bits, drops, marks)` counters.
type RunDigest = (u64, Vec<Vec<u64>>, Vec<(u64, u64, u64, u64)>);

/// Everything observable about a finished run, as exact bit patterns:
/// processed-event count, every receiver's monitor series, and every
/// link's transmit/drop/mark counters.
fn run_digest(t: &BuiltTopology, horizon: SimTime) -> RunDigest {
    let series = t
        .sessions
        .iter()
        .flat_map(|s| {
            s.receivers.iter().map(|&r| {
                t.sim
                    .monitor()
                    .agent_series_bps(r, horizon)
                    .iter()
                    .map(|b| b.to_bits())
                    .collect::<Vec<u64>>()
            })
        })
        .collect();
    let links = t
        .sim
        .world
        .links
        .iter()
        .map(|l| {
            (
                l.stats.tx_packets,
                l.stats.tx_bits,
                l.stats.drops,
                l.stats.marks,
            )
        })
        .collect();
    (t.sim.world.processed_events(), series, links)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Determinism with adversaries in the mix: for any random topology,
    /// receiver population and adversary placement, two builds of the
    /// same spec produce bit-identical monitor series, link counters and
    /// event counts. Attacker codes decode to inflation, ignored
    /// decreases, join/leave flapping and `KeyGuess` — the one strategy
    /// that draws from the world RNG — at automatic, leaf and interior
    /// placements; `tree_runs_are_deterministic` covers only an honest
    /// tree.
    #[test]
    fn adversarial_runs_are_deterministic(
        tree in prop::bool::weighted(0.5),
        depth in 1u32..=3,
        fanout in 2u32..=3,
        hops in 1usize..=3,
        receivers in 2usize..=7,
        attacker_codes in prop::collection::vec(0u64..1_000_000, 0usize..=3),
    ) {
        let secs = 5u64;
        let horizon = SimTime::from_secs(secs);
        let topology = if tree {
            Topology::BalancedTree { depth, fanout }
        } else {
            Topology::ParkingLot { bottlenecks: hops, per_hop_cbr: None }
        };
        let build = || {
            let mut spec = TopologySpec::new(topology, 3, 500_000);
            let mut session = McastSessionSpec::honest(Variant::FlidDl, receivers);
            for &code in &attacker_codes {
                let idx = (code % receivers as u64) as usize;
                let plan = match (code / 7) % 4 {
                    0 => AttackPlan::new(InflateTo::all()),
                    1 => AttackPlan::new(IgnoreDecrease),
                    2 => AttackPlan::new(JoinLeaveFlap::new(
                        SimDuration::from_millis(600 + (code % 5) * 100),
                    )),
                    _ => AttackPlan::new(KeyGuess { rate: 2 }),
                };
                let place = match (code / 31) % 3 {
                    0 => Placement::Auto,
                    1 => Placement::Leaf((code / 97) as usize % 8),
                    _ => Placement::Interior {
                        depth: 1 + ((code / 97) % 2) as u32,
                        leaf: (code / 397) as usize % 8,
                    },
                };
                session.receivers[idx].adversary = plan.at(place);
            }
            spec.mcast = vec![session];
            spec.build()
        };

        let mut first = build();
        first.sim.run_until(horizon);

        let mut second = build();
        second.sim.run_until(horizon);

        prop_assert_eq!(run_digest(&first, horizon), run_digest(&second, horizon));
    }
}

/// One receiver's observables as exact bit patterns: its policy's
/// `(t, level)` trace, its counters and its per-second goodput series.
type ReceiverDigest = (Vec<(u64, u32)>, ReceiverStats, Vec<u64>);

fn receiver_digest(t: &BuiltTopology, id: AgentId, horizon: u64) -> ReceiverDigest {
    let sim = &t.sim;
    let (trace, stats) = if let Some(rx) = sim.agent_as::<FlidReceiver>(id) {
        (&rx.level_trace, &rx.stats)
    } else if let Some(rx) = sim.agent_as::<ReplicatedReceiver>(id) {
        (&rx.trace, &rx.stats)
    } else {
        let rx = sim
            .agent_as::<ThresholdReceiver>(id)
            .expect("a multicast receiver agent");
        (&rx.trace, &rx.stats)
    };
    (
        trace.iter().map(|&(at, l)| (at.to_bits(), l)).collect(),
        stats.clone(),
        t.series_bps(id, horizon)
            .iter()
            .map(|b| b.to_bits())
            .collect(),
    )
}

proptest! {
    // Tier-1 runs a few debug cases; a release build runs the
    // `PROPTEST_CASES` campaign.
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 8 } else { ProptestConfig::default().cases }
    ))]

    /// A cohort is one receiver with a weight: under every policy, a
    /// `cohort(n)` spec and `n` individual specs with the same join time,
    /// access delay and leave time read the same level trace, counters and
    /// goodput series per receiver, and the cohort's weight is `n`.
    /// `FlidDsGuard` is left out: the collusion guard draws one secret per
    /// interface from the world RNG, so `n` interfaces and one take
    /// different draws (`cohort_spec_builds_one_agent_with_count_weighted_metrics`
    /// in `mcc_core::topology` documents the same exclusion).
    #[test]
    fn a_cohort_reads_like_its_individuals(
        variant in 0usize..4,
        n in 2u64..=4,
        join_ms in 0u64..=3_000,
        access_ms in 1u64..=60,
        leave_ms in prop::option::weighted(0.5, 4_000u64..=9_000),
        bottleneck_kbps in 300u64..=1_500,
        seed in 0u64..1_000,
    ) {
        let variant = [Variant::FlidDl, Variant::FlidDs, Variant::Replicated, Variant::Threshold]
            [variant];
        let horizon = 10;
        let mut r = ReceiverSpec::new()
            .join_at(SimTime::from_millis(join_ms))
            .access_delay(SimDuration::from_millis(access_ms));
        if let Some(ms) = leave_ms {
            r = r.leave_at(SimTime::from_millis(ms));
        }
        let run = |receivers: Vec<ReceiverSpec>| {
            let mut spec = TopologySpec::new(Topology::Dumbbell, seed, bottleneck_kbps * 1_000);
            spec.mcast = vec![McastSessionSpec::new(variant).with_receivers(receivers)];
            let mut t = spec.build();
            t.run_secs(horizon);
            t
        };
        let cohort = run(vec![r.clone().cohort(n)]);
        let individuals = run(vec![r; n as usize]);
        prop_assert_eq!(&cohort.sessions[0].weights, &vec![n]);
        let want = receiver_digest(&cohort, cohort.sessions[0].receivers[0], horizon);
        for &id in &individuals.sessions[0].receivers {
            prop_assert_eq!(
                &receiver_digest(&individuals, id, horizon),
                &want,
                "{:?}: n {}, join {} ms, access {} ms, leave {:?} ms, {} kbps, seed {}",
                variant, n, join_ms, access_ms, leave_ms, bottleneck_kbps, seed
            );
        }
    }
}

/// Determinism across the generic layer: the same spec builds the same
/// run (the byte-stability the registry pins rely on).
#[test]
fn tree_runs_are_deterministic() {
    let run = || {
        let t = build_and_run(
            Topology::BalancedTree {
                depth: 2,
                fanout: 2,
            },
            4,
            400_000,
            8,
        );
        let bits: Vec<u64> = t.sessions[0]
            .receivers
            .iter()
            .map(|&r| t.sim.monitor().agent_bits(r))
            .collect();
        (t.sim.world.processed_events(), bits)
    };
    assert_eq!(run(), run());
}
