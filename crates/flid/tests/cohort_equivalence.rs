//! Cohort-of-N vs N-individuals equivalence: the scaling subsystem's
//! correctness contract, under every subscription policy.
//!
//! A cohort bucket of `count` synchronized receivers must be byte-for-byte
//! the state machine each individual member would run: same trace, same
//! delivered-byte series, same counters. Divergence (a deferred adversary
//! activating) must split the bucket at exactly the instant the standalone
//! receiver's ATTACK timer would fire, and burnt-out divergers must merge
//! back without perturbing anything.
//!
//! Individual receivers each get their own access interface; a cohort
//! shares one. For synchronized receivers the per-interface SIGMA state is
//! replicated identically across interfaces, so per-receiver observables
//! match exactly — which is what these tests pin.

use mcc_attack::{AttackPlan, Honest, IgnoreDecrease, Timed};
use mcc_flid::layered::Layered;
use mcc_flid::receiver::{Policy, Receiver};
use mcc_flid::replicated::{SingleGroup, Xor};
use mcc_flid::threshold_proto::Shamir;
use mcc_flid::{
    CohortMember, CohortReceiver, FlidConfig, FlidReceiver, FlidSender, ReplicatedReceiver,
    ReplicatedSender, ThresholdReceiver, ThresholdSender,
};
use mcc_netsim::prelude::*;
use mcc_sigma::{SigmaConfig, SigmaEdgeModule};
use mcc_simcore::{SimDuration, SimTime};
use std::any::type_name;

/// Loss threshold θ of the threshold sessions (RLM's default).
const THETA: f64 = 0.25;

/// One session structure under test: the sender of its key rule, the
/// receiver of its subscription policy, and that policy's own trace.
trait Structure: Policy {
    fn sender(cfg: FlidConfig) -> Box<dyn Agent>;
    fn receiver(cfg: FlidConfig, router: Option<NodeId>, plan: AttackPlan) -> Receiver<Self>;
    fn trace(rx: &Receiver<Self>) -> &[(f64, u32)];
}

impl Structure for Layered {
    fn sender(cfg: FlidConfig) -> Box<dyn Agent> {
        Box::new(FlidSender::new(cfg))
    }
    fn receiver(cfg: FlidConfig, router: Option<NodeId>, plan: AttackPlan) -> FlidReceiver {
        FlidReceiver::with_adversary(cfg, router, plan)
    }
    fn trace(rx: &FlidReceiver) -> &[(f64, u32)] {
        &rx.level_trace
    }
}

impl Structure for SingleGroup<Xor> {
    fn sender(cfg: FlidConfig) -> Box<dyn Agent> {
        Box::new(ReplicatedSender::new(cfg))
    }
    fn receiver(cfg: FlidConfig, router: Option<NodeId>, plan: AttackPlan) -> ReplicatedReceiver {
        ReplicatedReceiver::with_adversary(cfg, router, plan)
    }
    fn trace(rx: &ReplicatedReceiver) -> &[(f64, u32)] {
        &rx.trace
    }
}

impl Structure for SingleGroup<Shamir> {
    fn sender(cfg: FlidConfig) -> Box<dyn Agent> {
        Box::new(ThresholdSender::new(cfg, THETA))
    }
    fn receiver(cfg: FlidConfig, router: Option<NodeId>, plan: AttackPlan) -> ThresholdReceiver {
        ThresholdReceiver::with_adversary(cfg, THETA, router, plan)
    }
    fn trace(rx: &ThresholdReceiver) -> &[(f64, u32)] {
        &rx.trace
    }
}

/// Paper dumbbell: sender — A =bottleneck= B(edge) — receiver hosts.
struct Rig {
    sim: Sim,
    edge: NodeId,
    agents: Vec<AgentId>,
}

enum Population<'a> {
    /// One receiver agent per plan, each on its own host.
    Individuals(&'a [AttackPlan]),
    /// One receiver agent per plan, all on a single shared host — the
    /// cohort's LAN semantics, agent-refcounted group membership and all.
    SharedHost(&'a [AttackPlan]),
    /// Like `SharedHost`, but each agent starts at its own instant
    /// (the expansion of a cohort with staggered joins).
    SharedHostAt(&'a [(AttackPlan, SimTime)]),
    /// Like `SharedHostAt`, but each agent also departs at its own
    /// instant (the expansion of a cohort with full member lifetimes).
    SharedHostSpan(&'a [(AttackPlan, SimTime, SimTime)]),
    /// One cohort agent on one host.
    Cohort(Vec<CohortMember>),
}

fn dumbbell(bottleneck_bps: u64, pop: Population<'_>) -> Rig {
    dumbbell_n::<Layered>(bottleneck_bps, 10, pop)
}

/// The dumbbell running a session of structure `S` over `n_groups`.
fn dumbbell_n<S: Structure>(bottleneck_bps: u64, n_groups: u32, pop: Population<'_>) -> Rig {
    let mut sim = Sim::new(77, SimDuration::from_secs(1));
    let s = sim.add_node();
    let a = sim.add_node();
    let b = sim.add_node();
    sim.add_duplex_link(
        s,
        a,
        10_000_000,
        SimDuration::from_millis(10),
        Queue::drop_tail(1_000_000),
        Queue::drop_tail(1_000_000),
    );
    let buf = (2.0 * bottleneck_bps as f64 * 0.080 / 8.0) as u64;
    sim.add_duplex_link(
        a,
        b,
        bottleneck_bps,
        SimDuration::from_millis(20),
        Queue::drop_tail(buf),
        Queue::drop_tail(buf),
    );
    let cfg = FlidConfig::paper(
        (1..=n_groups).map(GroupAddr).collect(),
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
    let router = Some(b);
    let host = |sim: &mut Sim| {
        let h = sim.add_node();
        sim.add_duplex_link(
            b,
            h,
            10_000_000,
            SimDuration::from_millis(10),
            Queue::drop_tail(1_000_000),
            Queue::drop_tail(1_000_000),
        );
        h
    };
    let receiver = |plan: &AttackPlan| S::receiver(cfg.clone(), router, plan.clone());
    let mut agents = Vec::new();
    match pop {
        Population::Individuals(plans) => {
            for plan in plans {
                let h = host(&mut sim);
                agents.push(sim.add_agent(h, Box::new(receiver(plan)), SimTime::from_millis(5)));
            }
        }
        Population::SharedHost(plans) => {
            let h = host(&mut sim);
            for plan in plans {
                agents.push(sim.add_agent(h, Box::new(receiver(plan)), SimTime::from_millis(5)));
            }
        }
        Population::SharedHostAt(plans) => {
            let h = host(&mut sim);
            for (plan, start) in plans {
                let start = SimTime::from_millis(5).max(*start);
                agents.push(sim.add_agent(h, Box::new(receiver(plan)), start));
            }
        }
        Population::SharedHostSpan(plans) => {
            let h = host(&mut sim);
            for (plan, start, leave) in plans {
                let mut rx = receiver(plan);
                rx.set_leave_at(*leave);
                agents.push(sim.add_agent(h, Box::new(rx), SimTime::from_millis(5).max(*start)));
            }
        }
        Population::Cohort(members) => {
            let h = host(&mut sim);
            let cohort = CohortReceiver::new(receiver(&AttackPlan::honest()), members);
            agents.push(sim.add_agent(h, Box::new(cohort), SimTime::from_millis(5)));
        }
    }
    sim.add_agent(s, S::sender(cfg), SimTime::ZERO);
    sim.finalize();
    Rig {
        sim,
        edge: b,
        agents,
    }
}

fn series(rig: &Rig, agent: AgentId, secs: u64) -> Vec<u64> {
    rig.sim
        .monitor()
        .agent_series_bps(agent, SimTime::from_secs(secs))
        .into_iter()
        .map(|v| v.round() as u64)
        .collect()
}

/// Three honest receivers of structure `S`, run as individuals and as a
/// `count: 3` cohort.
fn cohort_of_three_honest<S: Structure>() {
    let name = type_name::<S>();
    let plans = vec![AttackPlan::honest(); 3];
    let mut ind = dumbbell_n::<S>(1_000_000, 10, Population::Individuals(&plans));
    ind.sim.run_until(SimTime::from_secs(40));

    let mut coh = dumbbell_n::<S>(
        1_000_000,
        10,
        Population::Cohort(vec![CohortMember {
            count: 3,
            join_at: SimTime::ZERO,
            leave_at: SimTime::MAX,
            plan: AttackPlan::honest(),
        }]),
    );
    coh.sim.run_until(SimTime::from_secs(40));

    let cohort = coh
        .sim
        .agent_as::<CohortReceiver<S>>(coh.agents[0])
        .unwrap();
    assert_eq!(cohort.receiver_count(), 3, "{name}");
    assert_eq!(
        cohort.bucket_count(),
        1,
        "{name}: synchronized honest = one bucket"
    );

    let (count, bucket_rx) = cohort.buckets().next().unwrap();
    assert_eq!(count, 3);
    for &r in &ind.agents {
        let rx = ind.sim.agent_as::<Receiver<S>>(r).unwrap();
        assert_eq!(S::trace(rx), S::trace(bucket_rx), "{name}: traces");
        assert_eq!(rx.stats, bucket_rx.stats, "{name}: per-receiver counters");
    }
    // The cohort agent receives exactly one copy per delivered packet, so
    // its monitor series IS the per-receiver series.
    let ind_series = series(&ind, ind.agents[0], 40);
    let coh_series = series(&coh, coh.agents[0], 40);
    assert_eq!(ind_series, coh_series, "{name}: delivered-byte series");
    // Count-weighted internal accounting agrees with the monitor: every
    // ack, reliable or fire-and-forget, reached the bucket that asked.
    let weighted: Vec<u64> = cohort
        .weighted_series_bps(40)
        .into_iter()
        .map(|v| v.round() as u64)
        .collect();
    assert_eq!(weighted, coh_series, "{name}: weighted series vs monitor");
    // Aggregate counters are 3× one member's.
    let ws = cohort.weighted_stats();
    let one = &ind
        .sim
        .agent_as::<Receiver<S>>(ind.agents[0])
        .unwrap()
        .stats;
    assert!(one.acks > 0, "{name}: the router acked nothing");
    assert_eq!(ws.decreases, 3 * one.decreases, "{name}");
    assert_eq!(ws.subscriptions, 3 * one.subscriptions, "{name}");
    assert_eq!(ws.acks, 3 * one.acks, "{name}");
}

#[test]
fn cohort_of_three_honest_matches_individuals_exactly() {
    cohort_of_three_honest::<Layered>();
    cohort_of_three_honest::<SingleGroup<Xor>>();
    cohort_of_three_honest::<SingleGroup<Shamir>>();
}

#[test]
fn deferred_adversary_splits_at_activation_and_matches_individual() {
    // Two honest receivers plus one that starts ignoring decreases at
    // t = 20 s. Until 20 s the attacker is provably honest-equivalent and
    // rides the honest bucket; at 20 s it splits off.
    // The comparison world puts all three on ONE shared host: a cohort
    // models receivers behind one edge interface, so per-interface SIGMA
    // enforcement triggered by the attacker (grace burn, lockout) rightly
    // bleeds onto its LAN neighbours — in both worlds identically.
    let onset = SimTime::from_secs(20);
    let plans = vec![
        AttackPlan::honest(),
        AttackPlan::honest(),
        AttackPlan::new(Timed::at(onset, IgnoreDecrease)),
    ];
    let mut ind = dumbbell(500_000, Population::SharedHost(&plans));
    ind.sim.run_until(SimTime::from_secs(60));

    let mut coh = dumbbell(
        500_000,
        Population::Cohort(vec![
            CohortMember {
                count: 2,
                join_at: SimTime::ZERO,
                leave_at: SimTime::MAX,
                plan: AttackPlan::honest(),
            },
            CohortMember {
                count: 1,
                join_at: SimTime::ZERO,
                leave_at: SimTime::MAX,
                plan: AttackPlan::new(Timed::at(onset, IgnoreDecrease)),
            },
        ]),
    );
    coh.sim.run_until(SimTime::from_secs(60));

    let cohort = coh.sim.agent_as::<CohortReceiver>(coh.agents[0]).unwrap();
    assert_eq!(cohort.receiver_count(), 3);
    assert_eq!(
        cohort.bucket_count(),
        2,
        "the diverger must have split off: {:?}",
        cohort.levels()
    );
    let buckets: Vec<(u64, &FlidReceiver)> = cohort.buckets().collect();
    let honest_bucket = buckets
        .iter()
        .find(|(c, _)| *c == 2)
        .expect("honest bucket");
    let attack_bucket = buckets
        .iter()
        .find(|(c, _)| *c == 1)
        .expect("attack bucket");

    let ind_honest = ind.sim.agent_as::<FlidReceiver>(ind.agents[0]).unwrap();
    let ind_attacker = ind.sim.agent_as::<FlidReceiver>(ind.agents[2]).unwrap();
    assert_eq!(
        ind_honest.level_trace, honest_bucket.1.level_trace,
        "honest bucket trace"
    );
    assert_eq!(
        ind_attacker.level_trace, attack_bucket.1.level_trace,
        "attacker bucket trace"
    );
    assert_eq!(
        ind_attacker.stats, attack_bucket.1.stats,
        "attacker counters"
    );

    // SIGMA's view: lockout/alarm onset must agree between the worlds.
    let ind_sigma = ind.sim.edge_as::<SigmaEdgeModule>(ind.edge).unwrap();
    let coh_sigma = coh.sim.edge_as::<SigmaEdgeModule>(coh.edge).unwrap();
    assert_eq!(
        ind_sigma.stats.first_lockout_slot, coh_sigma.stats.first_lockout_slot,
        "lockout onset"
    );
    assert_eq!(
        ind_sigma.stats.first_guess_alarm_slot, coh_sigma.stats.first_guess_alarm_slot,
        "guess-alarm onset"
    );
}

#[test]
fn inert_diverger_merges_back_into_the_honest_bucket() {
    // Timed(Honest) is the degenerate diverger: it splits at its onset,
    // stays byte-identical to the base bucket, and its adversary is inert
    // from the onset on — so the very next end-of-slot evaluation folds it
    // back. The run as a whole must be indistinguishable from all-honest.
    let mut coh = dumbbell(
        1_000_000,
        Population::Cohort(vec![
            CohortMember {
                count: 2,
                join_at: SimTime::ZERO,
                leave_at: SimTime::MAX,
                plan: AttackPlan::honest(),
            },
            CohortMember {
                count: 1,
                join_at: SimTime::ZERO,
                leave_at: SimTime::MAX,
                plan: AttackPlan::new(Timed::at(SimTime::from_secs(10), Honest)),
            },
        ]),
    );
    coh.sim.run_until(SimTime::from_secs(30));
    let cohort = coh.sim.agent_as::<CohortReceiver>(coh.agents[0]).unwrap();
    assert_eq!(cohort.receiver_count(), 3, "no member lost");
    assert_eq!(
        cohort.bucket_count(),
        1,
        "inert diverger merged back: {:?}",
        cohort.levels()
    );

    let mut all_honest = dumbbell(
        1_000_000,
        Population::Cohort(vec![CohortMember {
            count: 3,
            join_at: SimTime::ZERO,
            leave_at: SimTime::MAX,
            plan: AttackPlan::honest(),
        }]),
    );
    all_honest.sim.run_until(SimTime::from_secs(30));
    let reference = all_honest
        .sim
        .agent_as::<CohortReceiver>(all_honest.agents[0])
        .unwrap();
    let (_, merged_rx) = cohort.buckets().next().unwrap();
    let (_, reference_rx) = reference.buckets().next().unwrap();
    assert_eq!(reference_rx.level_trace, merged_rx.level_trace);
    // Per-receiver delivered series must be identical. (The agent-level
    // monitor series is NOT compared: during the split window the extra
    // bucket sends its own consolidated subscription and receives its own
    // ack — control bytes scale with bucket count by design.)
    let w_ref: Vec<u64> = reference
        .weighted_series_bps(30)
        .into_iter()
        .map(|v| v.round() as u64)
        .collect();
    let w_coh: Vec<u64> = cohort
        .weighted_series_bps(30)
        .into_iter()
        .map(|v| v.round() as u64)
        .collect();
    assert_eq!(w_ref, w_coh, "per-receiver weighted series");
}

#[test]
fn staggered_joins_get_their_own_buckets() {
    // Receivers joining in different slots are not synchronized with the
    // base population; each join instant gets its own bucket, and each
    // bucket must match the standalone receiver with that join time.
    let late = SimTime::from_secs(15);
    let mut coh = dumbbell(
        1_000_000,
        Population::Cohort(vec![
            CohortMember {
                count: 2,
                join_at: SimTime::ZERO,
                leave_at: SimTime::MAX,
                plan: AttackPlan::honest(),
            },
            CohortMember {
                count: 1,
                join_at: late,
                leave_at: SimTime::MAX,
                plan: AttackPlan::honest(),
            },
        ]),
    );
    coh.sim.run_until(SimTime::from_secs(40));
    let cohort = coh.sim.agent_as::<CohortReceiver>(coh.agents[0]).unwrap();
    assert_eq!(cohort.receiver_count(), 3);
    let levels = cohort.levels();
    assert!(
        !levels.is_empty() && levels.iter().map(|&(c, _)| c).sum::<u64>() == 3,
        "{levels:?}"
    );
    // The late bucket exists and has received data (it may have merged
    // with the base bucket once their states coincide, which is also
    // correct — either way every member is accounted for).
    for (count, rx) in cohort.buckets() {
        assert!(count > 0);
        assert!(rx.level() >= 1, "every bucket subscribed: {:?}", rx.level());
    }
}

/// Two honest strata of structure `S` that join together but depart
/// 400 ns apart: the lifetime is state, so the buckets never merge, however
/// close the departures (a microsecond-rounded comparison merged them).
fn sub_microsecond_lifetimes_stay_apart<S: Structure>() {
    let name = type_name::<S>();
    let leave_at = SimTime::from_secs(30);
    let members = vec![
        CohortMember {
            count: 3,
            join_at: SimTime::ZERO,
            leave_at,
            plan: AttackPlan::honest(),
        },
        CohortMember {
            count: 2,
            join_at: SimTime::ZERO,
            leave_at: leave_at + SimDuration::from_nanos(400),
            plan: AttackPlan::honest(),
        },
    ];
    let mut coh = dumbbell_n::<S>(1_000_000, 10, Population::Cohort(members));
    coh.sim.run_until(SimTime::from_secs(5));
    let cohort = coh
        .sim
        .agent_as::<CohortReceiver<S>>(coh.agents[0])
        .unwrap();
    assert_eq!(cohort.bucket_count(), 2, "{name}: {:?}", cohort.levels());
    assert_eq!(cohort.receiver_count(), 5, "{name}");
}

#[test]
fn sub_microsecond_lifetimes_stay_in_their_own_buckets() {
    sub_microsecond_lifetimes_stay_apart::<Layered>();
    sub_microsecond_lifetimes_stay_apart::<SingleGroup<Xor>>();
    sub_microsecond_lifetimes_stay_apart::<SingleGroup<Shamir>>();
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    const BW: [u64; 4] = [250_000, 500_000, 1_000_000, 2_000_000];

    /// One `cohort_matches_shared_host_individuals` case under structure
    /// `S`: `honest` receivers plus, by `attack_kind`, nobody, an
    /// `IgnoreDecrease` or a `Timed(Honest)` diverger from `onset_s`.
    fn shared_host_case<S: Structure>(
        n_groups: u32,
        honest: u64,
        onset_s: u64,
        bw: u64,
        attack_kind: u32,
    ) {
        let onset = SimTime::from_secs(onset_s);
        let mut plans: Vec<AttackPlan> = (0..honest).map(|_| AttackPlan::honest()).collect();
        match attack_kind {
            1 => plans.push(AttackPlan::new(Timed::at(onset, IgnoreDecrease))),
            2 => plans.push(AttackPlan::new(Timed::at(onset, Honest))),
            _ => {}
        }
        let case = format!(
            "{} (groups={n_groups}, bw={bw}, kind={attack_kind}, onset={onset_s}s)",
            type_name::<S>()
        );

        let mut ind = dumbbell_n::<S>(bw, n_groups, Population::SharedHost(&plans));
        ind.sim.run_until(SimTime::from_secs(40));

        let mut members = vec![CohortMember {
            count: honest,
            join_at: SimTime::ZERO,
            leave_at: SimTime::MAX,
            plan: AttackPlan::honest(),
        }];
        if attack_kind > 0 {
            members.push(CohortMember {
                count: 1,
                join_at: SimTime::ZERO,
                leave_at: SimTime::MAX,
                plan: plans.last().unwrap().clone(),
            });
        }
        let mut coh = dumbbell_n::<S>(bw, n_groups, Population::Cohort(members));
        coh.sim.run_until(SimTime::from_secs(40));

        let cohort = coh
            .sim
            .agent_as::<CohortReceiver<S>>(coh.agents[0])
            .unwrap();
        let total = honest + u64::from(attack_kind > 0);
        assert_eq!(cohort.receiver_count(), total, "{case}");

        // Every individual must have a bucket running its exact state
        // machine (honest members share one; a live attacker has its own;
        // a merged-back Timed(Honest) shares the base again).
        for (i, agent) in ind.agents.iter().enumerate() {
            let rx = ind.sim.agent_as::<Receiver<S>>(*agent).unwrap();
            let matched = cohort
                .buckets()
                .any(|(_, b)| S::trace(b) == S::trace(rx) && b.stats == rx.stats);
            assert!(
                matched,
                "{case}: individual {i} has no byte-equivalent bucket; cohort levels {:?}",
                cohort.levels()
            );
        }

        // SIGMA's view of the shared interface agrees between worlds.
        let ind_sigma = ind.sim.edge_as::<SigmaEdgeModule>(ind.edge).unwrap();
        let coh_sigma = coh.sim.edge_as::<SigmaEdgeModule>(coh.edge).unwrap();
        assert_eq!(
            ind_sigma.stats.first_lockout_slot, coh_sigma.stats.first_lockout_slot,
            "{case}: lockout onset"
        );
        assert_eq!(
            ind_sigma.stats.first_guess_alarm_slot, coh_sigma.stats.first_guess_alarm_slot,
            "{case}: guess-alarm onset"
        );
    }

    proptest! {
        // Tier-1 runs a few debug cases; a release build runs the
        // `PROPTEST_CASES` campaign.
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 8 } else { ProptestConfig::default().cases }
        ))]

        /// Expansion round-trip over random layer counts, bandwidths and
        /// adversary onsets, under every subscription policy: a cohort
        /// that splits on adversary activation (and, for the
        /// `Timed(Honest)` degenerate adversary, contracts back) stays
        /// byte-equivalent to the same population run as individual
        /// receivers on one shared host — the policy's trace, per-receiver
        /// counters and the SIGMA module's lockout and guess-alarm onsets
        /// all agree.
        #[test]
        fn cohort_matches_shared_host_individuals(
            n_groups in 4u32..10,
            honest in 1u64..4,
            onset_s in 8u64..25,
            bw_step in 0usize..4,
            attack_kind in 0u32..3,
        ) {
            let bw = BW[bw_step];
            shared_host_case::<Layered>(n_groups, honest, onset_s, bw, attack_kind);
            shared_host_case::<SingleGroup<Xor>>(n_groups, honest, onset_s, bw, attack_kind);
            shared_host_case::<SingleGroup<Shamir>>(n_groups, honest, onset_s, bw, attack_kind);
        }

        /// Contraction round-trip over random join times: however the
        /// buckets split on staggered joins and merge once states
        /// coincide, the cohort's count-weighted per-receiver ledger must
        /// equal the mean of the expanded individuals' delivered series
        /// at every second — expansion and contraction never create or
        /// destroy a receiver's bytes.
        #[test]
        fn staggered_joins_preserve_the_weighted_ledger(
            n_groups in 4u32..10,
            base in 1u64..4,
            late_join_s in 1u64..18,
            bw_step in 0usize..4,
        ) {
            let bw = BW[bw_step];
            let late = SimTime::from_secs(late_join_s);
            let horizon = 40u64;

            let plans: Vec<(AttackPlan, SimTime)> = (0..base)
                .map(|_| (AttackPlan::honest(), SimTime::ZERO))
                .chain([(AttackPlan::honest(), late)])
                .collect();
            let mut ind = dumbbell_n::<Layered>(bw, n_groups, Population::SharedHostAt(&plans));
            ind.sim.run_until(SimTime::from_secs(horizon));

            let members = vec![
                CohortMember {
                    count: base,
                    join_at: SimTime::ZERO,
                    leave_at: SimTime::MAX,
                    plan: AttackPlan::honest(),
                },
                CohortMember {
                    count: 1,
                    join_at: late,
                    leave_at: SimTime::MAX,
                    plan: AttackPlan::honest(),
                },
            ];
            let mut coh = dumbbell_n::<Layered>(bw, n_groups, Population::Cohort(members));
            coh.sim.run_until(SimTime::from_secs(horizon));

            let cohort = coh.sim.agent_as::<CohortReceiver>(coh.agents[0]).unwrap();
            prop_assert_eq!(cohort.receiver_count(), base + 1);
            let levels = cohort.levels();
            prop_assert_eq!(
                levels.iter().map(|&(c, _)| c).sum::<u64>(),
                base + 1,
                "counts conserved through split/merge: {:?}",
                levels
            );

            let mean_ind: Vec<f64> = {
                let per_agent: Vec<Vec<f64>> = ind
                    .agents
                    .iter()
                    .map(|&a| {
                        ind.sim
                            .monitor()
                            .agent_series_bps(a, SimTime::from_secs(horizon))
                    })
                    .collect();
                (0..horizon as usize)
                    .map(|s| {
                        per_agent.iter().map(|v| v[s]).sum::<f64>()
                            / per_agent.len() as f64
                    })
                    .collect()
            };
            let weighted = cohort.weighted_series_bps(horizon);
            for (sec, (w, m)) in weighted.iter().zip(&mean_ind).enumerate() {
                prop_assert!(
                    (w - m).abs() < 1.0,
                    "second {}: weighted {} vs individuals' mean {} \
                     (groups={}, base={}, late={}s, bw={})",
                    sec, w, m, n_groups, base, late_join_s, bw
                );
            }
        }

        /// Split/merge round-trip over random full lifetimes — the churn
        /// contract of the workload engine. A churner with a random
        /// `[join, leave)` window and an early leaver with a random
        /// departure both break bucket synchrony (lifetimes key bucket
        /// sharing, not just join instants); however the buckets split
        /// and fold, every member must still run the exact state machine
        /// of the standalone receiver with the same lifetime, and the
        /// count-weighted ledger must equal the individuals' mean at
        /// every second — including the zeros after each departure.
        #[test]
        fn randomized_lifetimes_match_shared_host_individuals(
            n_groups in 4u32..8,
            base in 1u64..3,
            churn_join_s in 1u64..15,
            churn_dwell_s in 2u64..20,
            early_leave_s in 10u64..35,
            bw_step in 0usize..4,
        ) {
            let bw = BW[bw_step];
            let horizon = 40u64;
            let join = SimTime::from_secs(churn_join_s);
            let leave = join + SimDuration::from_secs(churn_dwell_s);
            let early = SimTime::from_secs(early_leave_s);

            let spans: Vec<(AttackPlan, SimTime, SimTime)> = (0..base)
                .map(|_| (AttackPlan::honest(), SimTime::ZERO, SimTime::MAX))
                .chain([
                    (AttackPlan::honest(), join, leave),
                    (AttackPlan::honest(), SimTime::ZERO, early),
                ])
                .collect();
            let mut ind = dumbbell_n::<Layered>(bw, n_groups, Population::SharedHostSpan(&spans));
            ind.sim.run_until(SimTime::from_secs(horizon));

            let members = vec![
                CohortMember {
                    count: base,
                    join_at: SimTime::ZERO,
                    leave_at: SimTime::MAX,
                    plan: AttackPlan::honest(),
                },
                CohortMember {
                    count: 1,
                    join_at: join,
                    leave_at: leave,
                    plan: AttackPlan::honest(),
                },
                CohortMember {
                    count: 1,
                    join_at: SimTime::ZERO,
                    leave_at: early,
                    plan: AttackPlan::honest(),
                },
            ];
            let mut coh = dumbbell_n::<Layered>(bw, n_groups, Population::Cohort(members));
            coh.sim.run_until(SimTime::from_secs(horizon));

            let cohort = coh.sim.agent_as::<CohortReceiver>(coh.agents[0]).unwrap();
            // Departure retires no one from the ledger: counts conserved.
            prop_assert_eq!(cohort.receiver_count(), base + 2);

            // Every lifetime's state machine appears verbatim in some
            // bucket (merged buckets adopt the survivor's equal state).
            for (i, agent) in ind.agents.iter().enumerate() {
                let rx = ind.sim.agent_as::<FlidReceiver>(*agent).unwrap();
                let matched = cohort.buckets().any(|(_, b)| {
                    b.level_trace == rx.level_trace && b.stats == rx.stats
                });
                prop_assert!(
                    matched,
                    "individual {} (groups={}, bw={}, join={}s, dwell={}s, \
                     early={}s) has no byte-equivalent bucket; cohort \
                     levels {:?}",
                    i, n_groups, bw, churn_join_s, churn_dwell_s,
                    early_leave_s, cohort.levels()
                );
            }

            // The weighted ledger tracks the individuals' mean through
            // every split, merge and departure.
            let mean_ind: Vec<f64> = {
                let per_agent: Vec<Vec<f64>> = ind
                    .agents
                    .iter()
                    .map(|&a| {
                        ind.sim
                            .monitor()
                            .agent_series_bps(a, SimTime::from_secs(horizon))
                    })
                    .collect();
                (0..horizon as usize)
                    .map(|s| {
                        per_agent.iter().map(|v| v[s]).sum::<f64>()
                            / per_agent.len() as f64
                    })
                    .collect()
            };
            let weighted = cohort.weighted_series_bps(horizon);
            for (sec, (w, m)) in weighted.iter().zip(&mean_ind).enumerate() {
                prop_assert!(
                    (w - m).abs() < 1.0,
                    "second {}: weighted {} vs individuals' mean {} \
                     (groups={}, base={}, join={}s, dwell={}s, early={}s, \
                     bw={})",
                    sec, w, m, n_groups, base, churn_join_s,
                    churn_dwell_s, early_leave_s, bw
                );
            }

            // SIGMA's per-interface view agrees between the worlds.
            let ind_sigma = ind.sim.edge_as::<SigmaEdgeModule>(ind.edge).unwrap();
            let coh_sigma = coh.sim.edge_as::<SigmaEdgeModule>(coh.edge).unwrap();
            prop_assert_eq!(
                ind_sigma.stats.first_lockout_slot,
                coh_sigma.stats.first_lockout_slot
            );
            prop_assert_eq!(
                ind_sigma.stats.first_guess_alarm_slot,
                coh_sigma.stats.first_guess_alarm_slot
            );
        }
    }
}
