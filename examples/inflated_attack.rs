//! The paper's headline result, side by side (Figures 1 and 7), built on
//! the `mcc-attack` adversary API.
//!
//! Scenario: two multicast and two TCP sessions share a 1 Mbps bottleneck
//! (250 Kbps fair share each). Halfway through, multicast receiver F1
//! runs `Timed(at, InflateTo::all() + KeyGuess(10))` — it grabs every
//! group, keeps hammering raw IGMP joins and guesses keys each slot.
//!
//! * Under **FLID-DL** the attack pays off: F1 grabs most of the link.
//! * Under **FLID-DS** (DELTA + SIGMA) the edge router refuses every
//!   group F1 holds no key for, and the allocation stays fair.
//!
//! ```text
//! cargo run --release --example inflated_attack
//! ```

use robust_multicast::attack::{All, AttackPlan, InflateTo, KeyGuess, Timed};
use robust_multicast::core::{
    ascii_chart, McastSessionSpec, Params, ReceiverSpec, Scenario, Series, Units, Variant,
};

fn main() {
    let duration = 120u64;
    let attack_at = 60u64;

    for (variant, fig) in [
        (Variant::FlidDl, "Figure 1 (FLID-DL, unprotected)"),
        (Variant::FlidDs, "Figure 7 (FLID-DS, protected)"),
    ] {
        println!("==================== {fig} ====================");
        // The Figure-1/7 attacker, composed from strategy-library parts.
        let attacker = AttackPlan::new(Timed::boxed(
            attack_at.secs(),
            Box::new(All::of(vec![
                Box::new(InflateTo::all()),
                Box::new(KeyGuess { rate: 10 }),
            ])),
        ));
        println!("attacker plan: {}\n", attacker.label());
        let mut d = Scenario::dumbbell(1.mbps())
            .seed(7)
            .session(
                McastSessionSpec::new(variant).receiver(ReceiverSpec::new().adversary(attacker)),
            )
            .sessions(1, variant)
            .tcp(2)
            .build();
        d.run_secs(duration);

        let agents = [
            ("F1", d.sessions[0].receivers[0]),
            ("F2", d.sessions[1].receivers[0]),
            ("T1", d.tcp[0]),
            ("T2", d.tcp[1]),
        ];
        let series: Vec<Series> = agents
            .iter()
            .map(|(label, a)| {
                Series::from_values(label, 0.0, 1.0, &d.series_bps(*a, duration))
                    .smoothed(Params::SMOOTHING_WINDOW)
            })
            .collect();
        println!("{}", ascii_chart(&series, 90, 16, "throughput (bps)"));
        println!("averages after the attack starts (t > {attack_at} s):");
        let fair = 250_000.0;
        for (label, agent) in &agents {
            let avg = d.throughput_bps(*agent, attack_at + 5, duration);
            println!(
                "  {:>3}: {:>8.0} bps   ({:+.0} % of fair share)",
                label,
                avg,
                (avg - fair) / fair * 100.0
            );
        }
        if let Some(sigma) = d.sigmas().next() {
            println!(
                "  router: {} keys rejected, {} raw IGMP joins ignored",
                sigma.stats.rejected_keys, sigma.stats.raw_igmp_blocked
            );
        }
        println!();
    }
    println!("The attacker's gain disappears once DELTA + SIGMA guard the groups.");
}
