//! Preservation of congestion-control properties (paper §5.3) and the
//! protocol variants, exercised end to end through the facade — plus
//! property tests for SIGMA's §4.2 attack containment (guessing tally,
//! lockout windows).

use robust_multicast::core::experiments::{
    convergence, overhead_vs_groups, responsiveness, throughput_vs_sessions,
};
use robust_multicast::core::Variant;
use Variant::{FlidDl, FlidDs};

#[test]
fn figure8c_shape_dl_and_ds_throughput_parity() {
    let ns = [1u32, 4];
    let dl = throughput_vs_sessions(FlidDl, &ns, false, 60, 7);
    let ds = throughput_vs_sessions(FlidDs, &ns, false, 60, 7);
    for (a, b) in dl.iter().zip(&ds) {
        let ratio = a.avg_bps.max(b.avg_bps) / a.avg_bps.min(b.avg_bps).max(1.0);
        assert!(
            ratio < 1.5,
            "n={}: DL {} vs DS {}",
            a.n,
            a.avg_bps,
            b.avg_bps
        );
    }
}

#[test]
fn figure8d_shape_multicast_survives_tcp_and_cbr_cross_traffic() {
    let rows = throughput_vs_sessions(FlidDs, &[2], true, 60, 5);
    // With an equal TCP population and a CBR, multicast keeps a
    // substantial share (the paper shows it depends on n but stays alive).
    assert!(
        rows[0].avg_bps > 80_000.0,
        "multicast starved: {}",
        rows[0].avg_bps
    );
}

#[test]
fn figure8e_shape_ds_responsiveness_tracks_dl() {
    let dl = responsiveness(FlidDl, 60, 20, 35, 3);
    let ds = responsiveness(FlidDs, 60, 20, 35, 3);
    for s in [&dl, &ds] {
        let before: f64 = s.points[12..18].iter().map(|p| p.1).sum::<f64>() / 6.0;
        let during: f64 = s.points[26..32].iter().map(|p| p.1).sum::<f64>() / 6.0;
        let after: f64 = s.points[48..56].iter().map(|p| p.1).sum::<f64>() / 8.0;
        assert!(
            during < 0.65 * before,
            "{}: burst must bite (before {before}, during {during})",
            s.label
        );
        assert!(
            after > 1.4 * during,
            "{}: must recover (during {during}, after {after})",
            s.label
        );
    }
}

#[test]
fn figure8h_shape_staggered_ds_receivers_converge() {
    let r = convergence(FlidDs, 45, 11);
    let finals: Vec<f64> = r
        .levels
        .iter()
        .map(|s| s.points.last().map(|p| p.1).unwrap_or(0.0))
        .collect();
    let max = finals.iter().cloned().fold(0.0, f64::max);
    let min = finals.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(max - min <= 1.0, "levels converge: {finals:?}");
}

#[test]
fn figure9_shape_overheads_are_sub_percent() {
    let rows = overhead_vs_groups(&[2, 10, 20], 15, 5);
    for r in &rows {
        assert!(r.delta_analytic < 0.01, "{r:?}");
        assert!(r.sigma_analytic < 0.006, "{r:?}");
        assert!(r.delta_measured < 0.012, "{r:?}");
    }
}

/// SIGMA containment properties (paper §4.2 / §3.2.2), checked directly
/// against the edge-router module.
mod sigma_containment {
    use proptest::prelude::*;
    use robust_multicast::delta::{DeltaFields, Key, UpgradeMask};
    use robust_multicast::netsim::prelude::*;
    use robust_multicast::sigma::{
        ProtectedData, SessionJoin, SigmaConfig, SigmaEdgeModule, Subscription,
    };
    use robust_multicast::simcore::{DetRng, SimDuration, SimTime};

    const SLOT_MS: u64 = 250;

    fn module() -> SigmaEdgeModule {
        SigmaEdgeModule::new(SigmaConfig::new(SimDuration::from_millis(SLOT_MS)))
    }

    fn env_at(rng: &mut DetRng, slot: u64) -> EdgeEnv<'_> {
        EdgeEnv {
            now: SimTime::from_millis(slot * SLOT_MS),
            node: NodeId(0),
            rng,
            actions: Vec::new(),
            trace_on: false,
        }
    }

    fn data_packet(group: GroupAddr, slot: u64) -> Packet {
        Packet::app(
            576 * 8,
            FlowId(1),
            AgentId(0),
            Dest::Group(group),
            ProtectedData::new(DeltaFields {
                slot,
                group: 1,
                seq_in_slot: 0,
                last_in_slot: false,
                count_in_slot: 0,
                component: Key(1),
                decrease: None,
                upgrades: UpgradeMask::NONE,
            }),
        )
    }

    fn subscription(group: GroupAddr, slot: u64, keys: &[Key]) -> Packet {
        let sub = Subscription {
            slot,
            pairs: keys.iter().map(|&k| (group, k)).collect(),
        };
        Packet::app(
            sub.size_bits(),
            FlowId(1),
            AgentId(7),
            Dest::Router(NodeId(0)),
            sub,
        )
    }

    fn session_join(minimal: GroupAddr) -> Packet {
        let join = SessionJoin {
            minimal_group: minimal,
            control_group: GroupAddr(0),
        };
        Packet::app(
            join.size_bits(),
            FlowId(1),
            AgentId(7),
            Dest::Router(NodeId(0)),
            join,
        )
    }

    proptest! {
        /// The guessing tally is monotone in the number of guesses: every
        /// additional distinct wrong key can only raise it, and it counts
        /// distinct keys exactly (duplicates don't inflate it).
        #[test]
        fn guessing_tally_is_monotone_in_guess_count(
            total in 1u64..40,
            dup_every in 2u64..6,
            slot in 2u64..30,
            seed in 0u64..1000,
        ) {
            let mut m = module();
            let mut rng = DetRng::new(seed);
            let iface = LinkId(3);
            let group = GroupAddr(5);
            // Install nothing: every submitted key is a wrong guess.
            let mut distinct = std::collections::HashSet::new();
            let mut last_tally = 0u32;
            for i in 0..total {
                // Mix in duplicates: a repeated key must not raise the tally.
                let key = if i % dup_every == 1 { Key(1_000) } else { Key(2_000 + i) };
                distinct.insert(key);
                let mut e = env_at(&mut rng, slot);
                m.on_message(&mut e, iface, &subscription(group, slot, &[key]));
                let tally = m.guess_tally(iface);
                prop_assert!(tally >= last_tally, "tally must never decrease");
                prop_assert_eq!(tally as usize, distinct.len(), "tally counts distinct keys");
                last_tally = tally;
            }
            // Another interface's tally is untouched by these guesses.
            prop_assert_eq!(m.guess_tally(LinkId(9)), 0);
        }

        /// §3.2.2: once keyless access is locked out, the interface gets
        /// *zero* grants and zero forwarded packets for the full lockout
        /// window — session-joins are ignored and wrong keys stay wrong.
        #[test]
        fn locked_out_interface_gets_zero_grants_for_the_window(
            join_slot in 2u64..30,
            probes in 1usize..8,
            seed in 0u64..1000,
        ) {
            let mut m = module();
            let mut rng = DetRng::new(seed);
            let iface = LinkId(2);
            let minimal = GroupAddr(1);
            // Keyless admission via session-join, grace for three slots…
            let mut e = env_at(&mut rng, join_slot);
            m.on_message(&mut e, iface, &session_join(minimal));
            for s in join_slot..=join_slot + 2 {
                let mut e = env_at(&mut rng, s);
                prop_assert!(m.filter_data(&mut e, iface, &mut data_packet(minimal, s)));
            }
            // …then the grace expires without a valid key: lockout.
            let deny_slot = join_slot + 3;
            let mut e = env_at(&mut rng, deny_slot);
            prop_assert!(!m.filter_data(&mut e, iface, &mut data_packet(minimal, deny_slot)));
            let until = m.lockout_until(iface, minimal).expect("lockout imposed");
            prop_assert!(until > deny_slot);

            // For the whole window: joins ignored, guesses rejected, and
            // not a single packet forwarded or grant issued.
            let joins_locked_before = m.stats.session_joins_locked_out;
            for slot in deny_slot..until {
                for p in 0..probes as u64 {
                    let mut e = env_at(&mut rng, slot);
                    m.on_message(&mut e, iface, &session_join(minimal));
                    prop_assert!(
                        e.actions
                            .iter()
                            .all(|a| !matches!(a, EdgeAction::GraftIface(..))),
                        "a locked-out join must produce no graft"
                    );
                    let guess = Key(0xBAD_0000 + slot * 64 + p);
                    let mut e = env_at(&mut rng, slot);
                    m.on_message(&mut e, iface, &subscription(minimal, slot + 2, &[guess]));
                    prop_assert!(!m.has_grant(iface, minimal, slot + 2), "no grant from a guess");
                    let mut e = env_at(&mut rng, slot);
                    prop_assert!(
                        !m.filter_data(&mut e, iface, &mut data_packet(minimal, slot)),
                        "zero forwards during lockout"
                    );
                }
            }
            prop_assert!(
                m.stats.session_joins_locked_out > joins_locked_before,
                "lockout visibly counted"
            );

            // After the window a fresh session-join regains keyless access.
            let mut e = env_at(&mut rng, until);
            m.on_message(&mut e, iface, &session_join(minimal));
            let mut e = env_at(&mut rng, until);
            prop_assert!(
                m.filter_data(&mut e, iface, &mut data_packet(minimal, until)),
                "grace reopens once the lockout lapses"
            );
        }
    }
}
