//! Quickstart: one FLID-DS session on the paper's dumbbell.
//!
//! Builds a protected multicast session (10 groups, ×1.5 rates) behind a
//! 1 Mbps bottleneck, runs 60 simulated seconds, and prints the receiver's
//! subscription trace, throughput and the SIGMA router's counters.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use robust_multicast::core::{ascii_chart, Scenario, Series, Units, Variant};

fn main() {
    // A dumbbell with one protected session and a single honest receiver,
    // declared with the fluent scenario builder.
    let mut d = Scenario::dumbbell(1.mbps())
        .seed(42)
        .sessions(1, Variant::FlidDs)
        .build();

    println!("Running 60 s of simulated time…");
    d.run_secs(60);

    let receiver_id = d.sessions[0].receivers[0];
    let receiver = d.receiver(receiver_id);
    println!("\nSubscription level trace (time s → level):");
    for (t, level) in &receiver.level_trace {
        println!("  {t:>6.2} s  level {level}");
    }

    let series = Series::from_values("receiver", 0.0, 1.0, &d.series_bps(receiver_id, 60));
    println!("\n{}", ascii_chart(&[series], 80, 15, "throughput (bps)"));

    let avg = d.throughput_bps(receiver_id, 20, 60);
    println!("steady-state average: {avg:.0} bps (bottleneck 1 Mbps)");
    println!("final level: {} of 10", receiver.level());
    println!("subscriptions sent: {}", receiver.stats.subscriptions);

    let sigma = d.sigmas().next().expect("protected session installs SIGMA");
    println!("\nSIGMA edge-router counters: {:?}", sigma.stats);
}
