//! The §4.2 guessing attack against SIGMA, and its detection — on the
//! `mcc-attack` adversary API.
//!
//! A receiver without valid keys runs `KeyGuess{rate: 10}`: it floods the
//! edge router with random keys, hoping one opens a group (success
//! probability `y/2^b` per slot for `y` guesses against `b`-bit keys).
//! The router tallies distinct invalid keys per interface and flags the
//! interface once the tally crosses a threshold — the paper's suggested
//! countermeasure.
//!
//! ```text
//! cargo run --release --example key_guessing_attack
//! ```

use robust_multicast::attack::{AttackPlan, KeyGuess, Timed};
use robust_multicast::core::{McastSessionSpec, ReceiverSpec, Scenario, Units, Variant};

fn main() {
    // A protected session with one honest and one guessing receiver.
    let attacker_plan = AttackPlan::new(Timed::at(10.secs(), KeyGuess { rate: 10 }));
    println!("attacker plan: {}", attacker_plan.label());
    let mut d = Scenario::dumbbell(500.kbps())
        .seed(5)
        .session(
            McastSessionSpec::new(Variant::FlidDs)
                .receiver(ReceiverSpec::new().adversary(attacker_plan))
                .receiver(ReceiverSpec::new()),
        )
        .build();

    println!("Running 40 s; the attacker starts guessing keys at t = 10 s…\n");
    d.run_secs(40);

    let attacker_id = d.sessions[0].receivers[0];
    let honest_id = d.sessions[0].receivers[1];
    let attacker = d.receiver(attacker_id);
    println!(
        "attacker sent {} guessed-key subscriptions (10 keys each)",
        attacker.stats.guess_subscriptions
    );

    let sigma = d.sigmas().next().expect("SIGMA installed");
    println!("router rejected keys: {}", sigma.stats.rejected_keys);
    println!(
        "router blocked raw IGMP joins: {}",
        sigma.stats.raw_igmp_blocked
    );
    if let Some(slot) = sigma.stats.first_guess_alarm_slot {
        println!(
            "guessing alarm first crossed at slot {slot} (t ≈ {:.1} s)",
            slot as f64 * 0.25
        );
    }

    // The attacker's interface is flagged by the distinct-key tally.
    let world = &d.sim.world;
    let mut flagged = 0;
    for link in &world.links {
        if link.host_facing && sigma.suspected_guessing(link.id) {
            println!(
                "guessing attack flagged on interface {} (tally {})",
                link.id,
                sigma.guess_tally(link.id)
            );
            flagged += 1;
        }
    }
    assert!(flagged >= 1, "the tally must flag the attacker's interface");

    let ga = d.throughput_bps(attacker_id, 15, 40);
    let gh = d.throughput_bps(honest_id, 15, 40);
    println!("\nthroughput after the attack: attacker {ga:.0} bps, honest {gh:.0} bps");
    println!("guessing 64-bit keys at ~10/slot: success probability ≈ 10/2^64 ≈ never.");
}
