//! The paper's headline claim, end to end through the public facade:
//! inflated subscription pays off under FLID-DL (Figure 1) and is
//! neutralized by DELTA + SIGMA under FLID-DS (Figure 7).

use robust_multicast::attack::{AttackPlan, IgnoreDecrease, Timed};
use robust_multicast::core::experiments::attack_experiment;
use robust_multicast::core::{
    McastSessionSpec, ReceiverSpec, Topology, TopologySpec, Units, Variant,
};
use robust_multicast::sigma::SigmaEdgeModule;

#[test]
fn figure1_shape_attack_pays_off_without_protection() {
    let r = attack_experiment(Variant::FlidDl, 60, 25, 1);
    let f1 = r.post_attack_avg_bps[0];
    let others: f64 = r.post_attack_avg_bps[1..].iter().sum();
    assert!(
        f1 > 500_000.0,
        "attacker must exceed twice its fair share: {f1}"
    );
    assert!(
        f1 > 3.0 * others.max(1.0),
        "victims crushed: attacker {f1} vs others {others}"
    );
}

#[test]
fn figure7_shape_protection_restores_fairness() {
    let r = attack_experiment(Variant::FlidDs, 60, 25, 1);
    let f1 = r.post_attack_avg_bps[0];
    let t1 = r.post_attack_avg_bps[2];
    let t2 = r.post_attack_avg_bps[3];
    // The attacker keeps roughly its fair share and no more.
    assert!(
        (100_000.0..400_000.0).contains(&f1),
        "attacker pinned near fair share: {f1}"
    );
    // TCP cross traffic survives at a healthy share.
    assert!(t1 > 120_000.0 && t2 > 120_000.0, "TCP alive: {t1} {t2}");
}

#[test]
fn the_attack_is_visible_in_router_counters() {
    let mut spec = TopologySpec::new(Topology::Dumbbell, 3, 500_000);
    spec.mcast = vec![McastSessionSpec {
        variant: Variant::FlidDs,
        receivers: vec![ReceiverSpec::new().adversary(AttackPlan::inflate_at(10.secs()))],
    }];
    let mut d = spec.build();
    d.run_secs(40);
    let sigma: &SigmaEdgeModule = d.sigmas().next().expect("protected edge");
    assert!(sigma.stats.raw_igmp_blocked > 0, "{:?}", sigma.stats);
    assert!(sigma.stats.rejected_keys > 0, "{:?}", sigma.stats);
    // The guessing tally flags some interface.
    let flagged = d
        .sim
        .world
        .links
        .iter()
        .any(|l| l.host_facing && sigma.suspected_guessing(l.id));
    assert!(flagged, "guessing attack must be flagged");
}

#[test]
fn ignore_decrease_misbehaviour_is_not_profitable_under_ds() {
    // Two receivers; one stops obeying decrease rules at t = 15 s.
    let mut spec = TopologySpec::new(Topology::Dumbbell, 9, 500_000);
    spec.mcast = vec![McastSessionSpec {
        variant: Variant::FlidDs,
        receivers: vec![
            ReceiverSpec::new().adversary(AttackPlan::new(Timed::at(15.secs(), IgnoreDecrease))),
            ReceiverSpec::default(),
        ],
    }];
    let mut d = spec.build();
    d.run_secs(60);
    let cheat = d.throughput_bps(d.sessions[0].receivers[0], 20, 60);
    let honest = d.throughput_bps(d.sessions[0].receivers[1], 20, 60);
    assert!(
        cheat <= honest * 1.15,
        "refusing to decrease must not pay: cheat {cheat} vs honest {honest}"
    );
}
