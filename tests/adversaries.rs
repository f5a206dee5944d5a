//! The `mcc-attack` subsystem end to end through the facade: strategy
//! semantics against real simulations of every defense variant.

use robust_multicast::attack::{AttackPlan, Colluders, CollusionSet, JoinLeaveFlap, Timed};
use robust_multicast::core::{McastSessionSpec, ReceiverSpec, Scenario, Units, Variant};

/// Churn abuse: under plain FLID-DL the flapper's inflation phases grab
/// bandwidth from the honest receiver; under FLID-DS the edge router
/// never forwards the grabbed groups.
#[test]
fn join_leave_flap_pays_under_dl_and_is_contained_under_ds() {
    let run = |variant: Variant| {
        let flapper = AttackPlan::new(Timed::at(10.secs(), JoinLeaveFlap::new(5.secs_dur())));
        let mut d = Scenario::dumbbell(500.kbps())
            .seed(21)
            .session(
                McastSessionSpec::new(variant)
                    .receiver(ReceiverSpec::new().adversary(flapper))
                    .receiver(ReceiverSpec::new()),
            )
            .build();
        d.run_secs(50);
        let attacker = d.throughput_bps(d.sessions[0].receivers[0], 15, 50);
        let honest = d.throughput_bps(d.sessions[0].receivers[1], 15, 50);
        (attacker, honest)
    };
    let (dl_attacker, dl_honest) = run(Variant::FlidDl);
    assert!(
        dl_attacker > 1.2 * dl_honest,
        "flapping must pay under FLID-DL: {dl_attacker} vs {dl_honest}"
    );
    let (ds_attacker, ds_honest) = run(Variant::FlidDs);
    assert!(
        ds_attacker < 1.3 * ds_honest.max(50_000.0),
        "FLID-DS must contain the flapper: {ds_attacker} vs {ds_honest}"
    );
}

/// Collusion: smuggled keys are accepted by plain SIGMA (the key is the
/// credential) and rejected once the interface-specific guard scopes
/// validation to per-interface lower keys.
#[test]
fn colluders_smuggle_keys_until_the_guard_blocks_them() {
    let run = |variant: Variant| {
        let set = CollusionSet::new();
        let freeloader = AttackPlan::new(Colluders::new(set.clone()));
        let feeder = AttackPlan::new(Colluders::new(set));
        let mut d = Scenario::dumbbell(500.kbps())
            .seed(33)
            .session(
                McastSessionSpec::new(variant)
                    // The freeloader joins late: everything it reaches
                    // beyond level 1 in its first slots is smuggled.
                    .receiver(ReceiverSpec::new().adversary(freeloader).join_at(15.secs()))
                    .receiver(ReceiverSpec::new().adversary(feeder)),
            )
            .build();
        d.run_secs(40);
        let freeloader_stats = d.receiver(d.sessions[0].receivers[0]).stats.clone();
        let sigma = d.sigmas().next().expect("protected variants install SIGMA");
        (freeloader_stats, sigma.stats.clone())
    };

    let (fl, sigma) = run(Variant::FlidDs);
    assert!(
        fl.colluder_submissions > 0,
        "the freeloader must submit smuggled keys: {fl:?}"
    );
    // Plain SIGMA accepts them — collusion slips through.
    assert!(
        sigma.rejected_keys < fl.colluder_submissions,
        "plain SIGMA accepts smuggled keys: {sigma:?}"
    );

    let (fl_guarded, sigma_guarded) = run(Variant::FlidDsGuard);
    assert!(fl_guarded.colluder_submissions > 0);
    assert!(
        sigma_guarded.rejected_keys > 0,
        "the guard must reject smuggled keys: {sigma_guarded:?}"
    );
    // The honest (feeder) machinery keeps working under the guard: its
    // own per-interface keys still validate.
    assert!(
        sigma_guarded.accepted_keys > 0,
        "honest keys still validate under the guard: {sigma_guarded:?}"
    );
}

/// The replicated and threshold variants build in the shared dumbbell and
/// contain an inflating receiver: raw joins are ignored, guessed keys are
/// rejected, and the honest session keeps its service.
#[test]
fn replicated_and_threshold_variants_contain_inflation() {
    for variant in [Variant::Replicated, Variant::Threshold] {
        let attacker = ReceiverSpec::new().adversary(AttackPlan::inflate_at(10.secs()));
        let mut d = Scenario::dumbbell(1.mbps())
            .seed(9)
            .session(McastSessionSpec::new(variant).receiver(attacker))
            .session(McastSessionSpec::new(variant).receiver(ReceiverSpec::new()))
            .build();
        d.run_secs(40);
        let sigma = d
            .sigmas()
            .next()
            .expect("both variants are SIGMA-protected");
        assert!(
            sigma.stats.raw_igmp_blocked > 0,
            "{variant:?}: raw joins ignored: {:?}",
            sigma.stats
        );
        assert!(
            sigma.stats.rejected_keys > 0,
            "{variant:?}: guessed keys rejected: {:?}",
            sigma.stats
        );
        let honest = d.throughput_bps(d.sessions[1].receivers[0], 15, 40);
        assert!(
            honest > 80_000.0,
            "{variant:?}: honest session survives the attack: {honest}"
        );
    }
}
