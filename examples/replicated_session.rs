//! Replicated multicast under DELTA/SIGMA (paper §3.1.2, Figure 5).
//!
//! A destination-set-grouping session: six groups carrying the same
//! content at 100 Kbps ×1.5 steps; the receiver hops between groups, and
//! the edge router checks a key on every hop.
//!
//! ```text
//! cargo run --release --example replicated_session
//! ```

use robust_multicast::attack::AttackPlan;
use robust_multicast::flid::{FlidConfig, ReplicatedReceiver, ReplicatedSender};
use robust_multicast::netsim::prelude::*;
use robust_multicast::sigma::{SigmaConfig, SigmaEdgeModule};
use robust_multicast::simcore::{SimDuration, SimTime};

fn main() {
    let mut sim = Sim::new(2024, SimDuration::from_secs(1));
    let s = sim.add_node();
    let a = sim.add_node();
    let b = sim.add_node();
    let h = sim.add_node();
    sim.add_duplex_link(
        s,
        a,
        10_000_000,
        SimDuration::from_millis(10),
        Queue::drop_tail(1_000_000),
        Queue::drop_tail(1_000_000),
    );
    // 500 kbps bottleneck: group 5 (506 kbps) almost fits, group 4
    // (337 kbps) is the sustainable one.
    let buf = (2.0 * 500_000.0 * 0.08 / 8.0) as u64;
    sim.add_duplex_link(
        a,
        b,
        500_000,
        SimDuration::from_millis(20),
        Queue::drop_tail(buf),
        Queue::drop_tail(buf),
    );
    sim.add_duplex_link(
        b,
        h,
        10_000_000,
        SimDuration::from_millis(10),
        Queue::drop_tail(1_000_000),
        Queue::drop_tail(1_000_000),
    );

    let cfg = FlidConfig::paper(
        (1..=6).map(GroupAddr).collect(),
        GroupAddr(0),
        FlowId(1),
        true,
    );
    for g in cfg.groups.iter().chain([&cfg.control_group]) {
        sim.register_group(*g, s);
    }
    sim.set_edge_module(
        b,
        Box::new(SigmaEdgeModule::new(SigmaConfig::new(cfg.slot))),
    );

    let receiver = sim.add_agent(
        h,
        Box::new(ReplicatedReceiver::with_adversary(
            cfg.clone(),
            Some(b),
            AttackPlan::honest(),
        )),
        SimTime::from_millis(5),
    );
    sim.add_agent(
        s,
        Box::new(ReplicatedSender::new(cfg.clone())),
        SimTime::ZERO,
    );
    sim.finalize();

    println!("Running 40 s of a replicated (DSG-style) session…\n");
    sim.run_until(SimTime::from_secs(40));

    let r = sim.agent_as::<ReplicatedReceiver>(receiver).unwrap();
    println!("group-switch trace (time s → group):");
    for (t, g) in &r.level_trace {
        println!(
            "  {t:>6.2} s  group {g}  ({:.0} kbps)",
            cfg.cumulative_rate(*g) / 1000.0
        );
    }
    let bps = sim.monitor().agent_throughput_bps(
        receiver,
        SimTime::from_secs(15),
        SimTime::from_secs(40),
    );
    println!("\nsteady-state throughput: {bps:.0} bps on a 500 kbps bottleneck");
    println!("final group: {} of 6", r.level());
    let sigma = sim.edge_as::<SigmaEdgeModule>(b).unwrap();
    println!("router accepted keys: {}", sigma.stats.accepted_keys);
}
