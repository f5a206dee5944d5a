//! Threshold-based protocols via Shamir secret sharing (paper §3.1.2).
//!
//! Part 1 demonstrates the primitive: a level key split into `(k, n)`
//! shares, reconstruction with exactly `k`, and failure below `k` — the
//! information-theoretic heart of DELTA's support for RLM-style loss
//! thresholds.
//!
//! Part 2 runs an RLM-like session end to end: shares ride the packets,
//! a receiver within the 25 % loss threshold rebuilds the group key every
//! slot, and the SIGMA router grants access against it.
//!
//! ```text
//! cargo run --release --example threshold_shamir
//! ```

use robust_multicast::attack::AttackPlan;
use robust_multicast::delta::threshold::{reconstruct, split, threshold_k};
use robust_multicast::flid::{FlidConfig, ThresholdReceiver, ThresholdSender, THRESHOLD_THETA};
use robust_multicast::netsim::prelude::*;
use robust_multicast::sigma::{SigmaConfig, SigmaEdgeModule};
use robust_multicast::simcore::{DetRng, SimDuration, SimTime};

fn main() {
    // --- Part 1: the primitive ---------------------------------------
    let mut rng = DetRng::new(9);
    let n_packets = 20;
    let k = threshold_k(n_packets, THRESHOLD_THETA);
    let secret = 0x5EC2;
    let shares = split(secret, k, n_packets, &mut rng);
    println!("level key {secret:#06x} split into {n_packets} shares, threshold k = {k}");

    let got = reconstruct(&shares[0..k as usize]);
    println!("  with {k} shares (25 % loss): reconstructed {got:#06x}  ✔");
    assert_eq!(got, secret);

    let got = reconstruct(&shares[0..(k - 1) as usize]);
    println!(
        "  with {} shares (30 % loss): reconstructed {got:#06x}  ✘ (garbage)",
        k - 1
    );
    assert_ne!(got, secret);

    // --- Part 2: the protocol ----------------------------------------
    println!("\nRunning an RLM-style threshold session for 30 s…");
    let mut sim = Sim::new(77, SimDuration::from_secs(1));
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
    let buf = (2.0 * 1_000_000.0 * 0.08 / 8.0) as u64;
    sim.add_duplex_link(
        a,
        b,
        1_000_000,
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
        Box::new(ThresholdReceiver::with_adversary(
            cfg.clone(),
            Some(b),
            AttackPlan::honest(),
        )),
        SimTime::from_millis(5),
    );
    sim.add_agent(s, Box::new(ThresholdSender::new(cfg)), SimTime::ZERO);
    sim.finalize();
    sim.run_until(SimTime::from_secs(30));

    let r = sim.agent_as::<ThresholdReceiver>(receiver).unwrap();
    println!("group trace: {:?}", r.level_trace);
    println!(
        "final group: {} of 6, key failures: {}",
        r.level(),
        r.key_failures()
    );
    let bps = sim.monitor().agent_throughput_bps(
        receiver,
        SimTime::from_secs(10),
        SimTime::from_secs(30),
    );
    println!("steady-state throughput: {bps:.0} bps");
}
