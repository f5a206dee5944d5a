//! One function per registered experiment: the figures of the paper's
//! evaluation (§5), the defense matrices, the ablations and the
//! topology experiments.
//!
//! Every function is deterministic in its `seed` and parameterized by
//! duration so the same code drives both the full regeneration (the
//! `figures` binary of `mcc-bench`) and fast integration tests. The
//! experiment index in `DESIGN.md` maps each function to its figure;
//! `EXPERIMENTS.md` records paper-versus-measured shapes.

use crate::config::Params;
use crate::metrics::{damage, loss_pct, Damage, Series};
use crate::runner::record;
use crate::scenario::{Scenario, Units, Variant};
use crate::topology::{BuiltTopology, CbrSpec, McastSessionSpec, ReceiverSpec};
use mcc_attack::{
    AttackPlan, Colluders, CollusionSet, IgnoreDecrease, InflateTo, JoinLeaveFlap, KeyGuess,
    Placement, Timed,
};
use mcc_delta::overhead::{delta_overhead, sigma_overhead, OverheadParams};
use mcc_flid::FlidConfig;
use mcc_netsim::{AgentId, FlowId, GroupAddr};
use mcc_simcore::{SimDuration, SimTime};

record! {
    /// Result of the attack experiments (Figures 1 and 7): throughput-vs-time
    /// of the misbehaving receiver F1, the honest receiver F2 and the TCP
    /// receivers T1/T2.
    #[derive(Clone, Debug)]
    pub struct AttackResult {
        /// When F1 starts inflating, seconds.
        pub(crate) attack_at_secs: u64,
        /// `F1, F2, T1, T2` series (bit/s, smoothed like the paper's plots).
        pub series: Vec<Series>,
        /// Average throughput of each flow after the attack begins.
        pub post_attack_avg_bps: Vec<f64>,
    }
}

/// The contest population of every attack-versus-baseline experiment
/// (Figures 1/7, the robustness matrix, the tree and the parking lot): two
/// sessions of `variant` added to `shape`. Session 0 holds the receiver
/// running `attacker`, joining at `join_at`, and, for collusion, an
/// `extra` receiver; session 1 holds `honest` honest receivers, the
/// victims.
fn contest(
    shape: Scenario,
    variant: Variant,
    attacker: AttackPlan,
    join_at: SimTime,
    extra: Option<AttackPlan>,
    honest: usize,
) -> Scenario {
    let attack_session = McastSessionSpec::new(variant)
        .receiver(ReceiverSpec::new().adversary(attacker).join_at(join_at))
        .with_receivers(extra.map(|plan| ReceiverSpec::new().adversary(plan)));
    shape
        .session(attack_session)
        .session(McastSessionSpec::honest(variant, honest))
}

/// Figures 1 & 7: the contest population on a 1 Mbps dumbbell with two
/// TCP flows and F1 inflating its subscription at `attack_at_secs`.
pub fn attack_experiment(
    variant: Variant,
    duration_secs: u64,
    attack_at_secs: u64,
    seed: u64,
) -> AttackResult {
    let inflate = AttackPlan::inflate_at(attack_at_secs.secs());
    let shape = Scenario::dumbbell(1.mbps()).tcp(2);
    let mut d = contest(shape, variant, inflate, SimTime::ZERO, None, 1)
        .seed(seed)
        .build();
    d.run_secs(duration_secs);

    let agents = [
        ("F1", d.sessions[0].receivers[0]),
        ("F2", d.sessions[1].receivers[0]),
        ("T1", d.tcp[0]),
        ("T2", d.tcp[1]),
    ];
    let series: Vec<Series> = agents
        .iter()
        .map(|(label, a)| {
            Series::from_values(label, 0.0, 1.0, &d.series_bps(*a, duration_secs))
                .smoothed(Params::SMOOTHING_WINDOW)
        })
        .collect();
    let post_attack_avg_bps = agents
        .iter()
        .map(|(_, a)| d.throughput_bps(*a, attack_at_secs + 5, duration_secs))
        .collect();
    AttackResult {
        attack_at_secs,
        series,
        post_attack_avg_bps,
    }
}

record! {
    /// One row of the Figure 8a–8d sweeps.
    #[derive(Clone, Debug)]
    pub struct SessionsRow {
        /// Number of multicast sessions.
        pub n: u32,
        /// Mean of the individual rates.
        pub avg_bps: f64,
        /// Per-receiver average throughput, bit/s.
        pub(crate) individual_bps: Vec<f64>,
    }
}

/// Figures 8a/8b (and the multicast half of 8d): `n` multicast sessions,
/// optional equal TCP population plus an on-off CBR at 10 % of capacity.
pub fn throughput_vs_sessions(
    variant: Variant,
    ns: &[u32],
    cross_traffic: bool,
    duration_secs: u64,
    seed: u64,
) -> Vec<SessionsRow> {
    ns.iter()
        .map(|&n| {
            let total_sessions = if cross_traffic { 2 * n } else { n };
            let capacity = 250.kbps() * total_sessions as u64;
            let mut sc = Scenario::dumbbell(capacity)
                .seed(seed ^ (n as u64) << 32)
                .sessions(n, variant);
            if cross_traffic {
                sc = sc
                    .tcp(n as usize)
                    .cbr(CbrSpec::steady(capacity / 10).on_off(5.secs_dur(), 5.secs_dur()));
            }
            let mut d = sc.build();
            d.run_secs(duration_secs);
            let individual_bps: Vec<f64> = d
                .sessions
                .iter()
                .map(|s| d.throughput_bps(s.receivers[0], 0, duration_secs))
                .collect();
            let avg_bps = individual_bps.iter().sum::<f64>() / individual_bps.len() as f64;
            SessionsRow {
                n,
                avg_bps,
                individual_bps,
            }
        })
        .collect()
}

/// Figure 8e: responsiveness to an 800 Kbps CBR burst during
/// `[burst_from, burst_to]` seconds on a 1 Mbps bottleneck.
pub fn responsiveness(
    variant: Variant,
    duration_secs: u64,
    burst_from: u64,
    burst_to: u64,
    seed: u64,
) -> Series {
    let mut d = Scenario::dumbbell(1.mbps())
        .seed(seed)
        .sessions(1, variant)
        .cbr(CbrSpec::steady(800.kbps()).window(burst_from.secs(), burst_to.secs()))
        .build();
    d.run_secs(duration_secs);
    Series::from_values(
        variant.label(),
        0.0,
        1.0,
        &d.series_bps(d.sessions[0].receivers[0], duration_secs),
    )
    .smoothed(Params::SMOOTHING_WINDOW)
}

/// Figure 8f: one session, 20 receivers, round-trip times spread uniformly
/// over 30–220 ms. Returns `(rtt_ms, avg_bps)` per receiver.
pub(crate) fn rtt_experiment(variant: Variant, duration_secs: u64, seed: u64) -> Vec<(f64, f64)> {
    let n_receivers = 20;
    let receivers = (0..n_receivers).map(|i| {
        let rtt_ms = 30.0 + 10.0 * i as f64;
        // One-way path = 10 (sender side) + 5 (bottleneck) + access.
        let access_ms = (rtt_ms / 2.0 - 15.0).max(0.1);
        ReceiverSpec::new().access_delay(SimDuration::from_secs_f64(access_ms / 1000.0))
    });
    let mut d = Scenario::dumbbell(250.kbps())
        .seed(seed)
        .bottleneck_delay(5.ms())
        .session(McastSessionSpec::new(variant).with_receivers(receivers))
        .build();
    d.run_secs(duration_secs);
    (0..n_receivers)
        .map(|i| {
            let rtt_ms = 30.0 + 10.0 * i as f64;
            let avg = d.throughput_bps(d.sessions[0].receivers[i], 10, duration_secs);
            (rtt_ms, avg)
        })
        .collect()
}

record! {
    /// Result of the convergence experiments (Figures 8g/8h).
    #[derive(Clone, Debug)]
    pub struct ConvergenceResult {
        /// Per-receiver throughput series.
        pub(crate) throughput: Vec<Series>,
        /// Per-receiver `(t, level)` traces.
        pub levels: Vec<Series>,
    }
}

/// Figures 8g/8h: four receivers of one session joining at 0/10/20/30 s
/// behind a 250 Kbps bottleneck converge to the same subscription.
pub fn convergence(variant: Variant, duration_secs: u64, seed: u64) -> ConvergenceResult {
    let receivers = (0..4).map(|i| ReceiverSpec::new().join_at((10 * i).secs()));
    let mut d = Scenario::dumbbell(250.kbps())
        .seed(seed)
        .session(McastSessionSpec::new(variant).with_receivers(receivers))
        .build();
    d.run_secs(duration_secs);
    let throughput = (0..4)
        .map(|i| {
            Series::from_values(
                &format!("Receiver {}", i + 1),
                0.0,
                1.0,
                &d.series_bps(d.sessions[0].receivers[i], duration_secs),
            )
            .smoothed(Params::CONVERGENCE_SMOOTHING)
        })
        .collect();
    let levels = (0..4)
        .map(|i| {
            let r = d.receiver(d.sessions[0].receivers[i]);
            Series {
                label: format!("Receiver {}", i + 1),
                points: r.level_trace.iter().map(|&(t, l)| (t, l as f64)).collect(),
            }
        })
        .collect();
    ConvergenceResult { throughput, levels }
}

record! {
    /// One row of the Figure 9 overhead sweeps.
    #[derive(Clone, Debug)]
    pub struct OverheadRow {
        /// Swept variable: group count (9a) or slot seconds (9b).
        pub(crate) x: f64,
        /// DELTA overhead, closed form (paper §5.4).
        pub delta_analytic: f64,
        /// SIGMA overhead, closed form with measured `f_g`, `z`, `h`.
        pub sigma_analytic: f64,
        /// DELTA overhead measured from sender counters.
        pub delta_measured: f64,
        /// SIGMA overhead measured from sender counters.
        pub(crate) sigma_measured: f64,
    }
}

/// The paper's Figure-9 session, as [`OverheadParams::paper`] describes
/// it (`R = 4 Mbps`, `r = 100 Kbps`, 500-byte data packets). Returns the
/// session config for `n` groups and slot `t`.
fn fig9_config(n: u32, slot: SimDuration) -> FlidConfig {
    let p = OverheadParams::paper(n, slot.as_secs_f64());
    FlidConfig {
        groups: (1..=n).map(|g| GroupAddr(1000 + g)).collect(),
        control_group: GroupAddr(1000),
        flow: FlowId(0),
        base_rate_bps: p.base_rate_bps,
        rate_factor: p.rate_factor(),
        slot,
        packet_bits: p.data_bits_per_packet.into(),
        protected: true,
        ecn: false,
    }
}

/// Run a sender-only session and report measured + analytic overhead.
fn overhead_point(cfg: FlidConfig, duration_secs: u64, seed: u64) -> OverheadRow {
    use mcc_flid::FlidSender;
    use mcc_netsim::prelude::*;

    // Sender-only world: overhead counters are sender-side, and the
    // formulas normalize by transmitted data bits, so no receivers are
    // needed (unsubscribed groups die at the source, but they were sent).
    let mut sim = Sim::new(seed, SimDuration::from_secs(1));
    let h = sim.add_node();
    let sink_node = sim.add_node();
    sim.add_duplex_link(
        h,
        sink_node,
        100_000_000,
        SimDuration::from_millis(1),
        Queue::drop_tail(10_000_000),
        Queue::drop_tail(10_000_000),
    );
    let n = cfg.n();
    let slot_secs = cfg.slot.as_secs_f64();
    let sender = sim.add_agent(h, Box::new(FlidSender::new(cfg)), SimTime::ZERO);
    sim.finalize();
    sim.run_until(SimTime::from_secs(duration_secs));
    let o = &sim.agent_as::<FlidSender>(sender).unwrap().overhead;

    let params = OverheadParams::paper(n, slot_secs);
    OverheadRow {
        x: 0.0, // filled by the caller
        delta_analytic: delta_overhead(&params),
        sigma_analytic: sigma_overhead(
            &params,
            o.sum_fg(),
            o.fec_expansion(),
            o.header_bits_per_slot(),
        ),
        delta_measured: o.delta_ratio(),
        sigma_measured: o.sigma_ratio(),
    }
}

/// Figure 9a: overhead versus group count at `t = 250 ms`.
pub fn overhead_vs_groups(ns: &[u32], duration_secs: u64, seed: u64) -> Vec<OverheadRow> {
    ns.iter()
        .map(|&n| {
            let cfg = fig9_config(n, SimDuration::from_millis(250));
            let mut row = overhead_point(cfg, duration_secs, seed ^ n as u64);
            row.x = n as f64;
            row
        })
        .collect()
}

/// Figure 9b: overhead versus slot duration at `N = 10`.
pub(crate) fn overhead_vs_slot(
    slots_ms: &[u64],
    duration_secs: u64,
    seed: u64,
) -> Vec<OverheadRow> {
    slots_ms
        .iter()
        .map(|&ms| {
            let cfg = fig9_config(10, SimDuration::from_millis(ms));
            let mut row = overhead_point(cfg, duration_secs, seed ^ ms);
            row.x = ms as f64 / 1000.0;
            row
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The robustness matrix: adversary strategies × defense variants
// ---------------------------------------------------------------------------

/// The adversary strategies the `matrix_robustness` experiment sweeps, in
/// matrix row order.
pub(crate) const MATRIX_STRATEGIES: &[&str] = &[
    "inflate",
    "ignore_decrease",
    "key_guess",
    "colluders",
    "join_leave_flap",
];

record! {
    /// One cell of the robustness matrix: one adversary strategy attacking
    /// one defense variant.
    #[derive(Clone, Debug)]
    pub struct MatrixCell {
        /// Defense label (`Variant::label`).
        pub defense: &'static str,
        /// Strategy name (one of `MATRIX_STRATEGIES`).
        pub strategy: &'static str,
        /// Attacker goodput over the post-onset window, bit/s.
        pub(crate) attacker_bps: f64,
        /// Honest receiver goodput under attack, bit/s.
        pub(crate) honest_bps: f64,
        /// Mean TCP cross-traffic goodput under attack, bit/s.
        pub(crate) tcp_bps: f64,
        /// Honest receiver goodput in the attack-free baseline run, bit/s.
        pub(crate) baseline_honest_bps: f64,
        /// Damage/containment metrics relative to the baseline.
        @splice pub damage: Damage,
        /// Keys the edge router rejected (0 when unprotected).
        pub(crate) rejected_keys: u64,
        /// Raw IGMP joins the edge router ignored (0 when unprotected).
        pub(crate) raw_igmp_blocked: u64,
    }
}

record! {
    /// The full matrix.
    #[derive(Clone, Debug)]
    pub struct MatrixResult {
        /// Attack onset, seconds.
        pub(crate) onset_secs: u64,
        /// Run duration, seconds.
        pub(crate) duration_secs: u64,
        /// Fair share of each of the four competing flows, bit/s.
        pub(crate) fair_share_bps: f64,
        /// Defense column labels, in cell order.
        pub defenses: Vec<&'static str>,
        /// Strategy row labels, in cell order.
        pub strategies: Vec<&'static str>,
        /// Cells, defense-major then strategy.
        pub cells: Vec<MatrixCell>,
    }
}

/// Plans for one strategy cell: the attacker's plan and join time plus,
/// for collusion, a second (feeder) receiver's plan. Built fresh per
/// cell so shared state (the collusion pool) never leaks across
/// simulations.
struct CellPlans {
    attacker: AttackPlan,
    /// When the attacker joins; the colluding freeloader joins at the
    /// onset so everything it reaches beyond the minimal level early on
    /// is smuggled, not earned.
    attacker_join_at: SimTime,
    extra: Option<AttackPlan>,
}

fn strategy_cell_plans(name: &str, onset: SimTime) -> CellPlans {
    let at_start = |attacker| CellPlans {
        attacker,
        attacker_join_at: SimTime::ZERO,
        extra: None,
    };
    match name {
        "inflate" => at_start(AttackPlan::inflate_at(onset)),
        "ignore_decrease" => at_start(AttackPlan::new(Timed::at(onset, IgnoreDecrease))),
        "key_guess" => at_start(AttackPlan::new(Timed::at(onset, KeyGuess { rate: 10 }))),
        "colluders" => {
            let set = CollusionSet::new();
            CellPlans {
                attacker: AttackPlan::new(Colluders::new(set.clone())),
                attacker_join_at: onset,
                extra: Some(AttackPlan::new(Colluders::new(set))),
            }
        }
        "join_leave_flap" => at_start(AttackPlan::new(Timed::at(
            onset,
            JoinLeaveFlap::new(5.secs_dur()),
        ))),
        other => panic!("unknown matrix strategy {other:?}"),
    }
}

/// What one attack (or attack-free baseline) run reports, under the one
/// window convention every attack-vs-baseline experiment shares.
#[derive(Default)]
struct Measured {
    /// Goodput of the (possibly attacking) receiver 0 of session 0, bit/s.
    attacker_bps: f64,
    /// Goodput of each victim, bit/s, in the order they were named.
    victims_bps: Vec<f64>,
    /// SIGMA counters summed over the edge routers (zero when unprotected).
    rejected_keys: u64,
    raw_igmp_blocked: u64,
    guard_false_positives: u64,
    tuples_installed: u64,
    session_joins: u64,
    /// When an edge first caught the misbehaviour, seconds into the run.
    detection_secs: Option<f64>,
}

impl Measured {
    /// Damage and containment of this attack run against its attack-free
    /// `baseline`, for the first victim. The attacker's entitlement — "what
    /// the misbehaviour bought" — is the same receiver behaving honestly,
    /// not the static fair share (honest multicast already over-shares).
    fn damage_against(&self, baseline: &Measured, onset_secs: u64) -> Damage {
        damage(
            baseline.victims_bps[0],
            self.victims_bps[0],
            self.attacker_bps,
            baseline.attacker_bps,
            self.detection_secs,
            onset_secs as f64,
        )
    }
}

/// Build and run a [`contest`] population for `duration_secs` and read it
/// out. The victims, in order: session 1's receivers, then the TCP sinks,
/// then the parking lot's per-hop CBR sinks.
fn run_contest(population: Scenario, onset_secs: u64, duration_secs: u64) -> Measured {
    let mut t = population.build();
    t.run_secs(duration_secs);
    let victims = [
        &t.sessions[1].receivers[..],
        &t.tcp[..],
        &t.hop_cbr_sinks[..],
    ]
    .concat();
    measure(&t, onset_secs, duration_secs, &victims)
}

/// Read a finished run out. The attacker is measured from the onset
/// itself — a strategy whose whole payoff is skipping the honest ramp
/// (collusion) shows up in those first seconds. The victims get a settling
/// margin so their loss reflects the sustained attack, not the transition.
fn measure(
    t: &BuiltTopology,
    onset_secs: u64,
    duration_secs: u64,
    victims: &[AgentId],
) -> Measured {
    let from = onset_secs + 5;
    let mut m = Measured {
        attacker_bps: t.throughput_bps(t.sessions[0].receivers[0], onset_secs, duration_secs),
        victims_bps: victims
            .iter()
            .map(|&v| t.throughput_bps(v, from, duration_secs))
            .collect(),
        ..Measured::default()
    };
    for edge in t.sigmas() {
        m.rejected_keys += edge.stats.rejected_keys;
        m.raw_igmp_blocked += edge.stats.raw_igmp_blocked;
        m.guard_false_positives += edge.stats.guard_false_positives;
        m.tuples_installed += edge.stats.tuples_installed;
        m.session_joins += edge.stats.session_joins;
        m.detection_secs = [m.detection_secs, edge.detection_secs()]
            .into_iter()
            .flatten()
            .reduce(f64::min);
    }
    m
}

/// The registered `matrix_robustness` experiment: sweep every
/// `MATRIX_STRATEGIES` strategy against every [`Variant::DEFENSES`]
/// defense, with one honest-baseline run per defense for the damage
/// metrics.
pub fn robustness_matrix(duration_secs: u64, onset_secs: u64, seed: u64) -> MatrixResult {
    let fair_share_bps = 250_000.0; // 1 Mbps over 2 multicast + 2 TCP flows.
    let mut cells = Vec::new();
    for (di, &variant) in Variant::DEFENSES.iter().enumerate() {
        // One seed per defense column: a cell and its baseline differ
        // only in the adversary — never in the seed or the topology.
        let column_seed = seed ^ ((di as u64 + 1) << 24);
        // Victims: the honest receiver, then the two TCP sinks.
        let run_with = |attacker, join_at, extra| {
            let shape = Scenario::dumbbell(1.mbps()).tcp(2);
            let population = contest(shape, variant, attacker, join_at, extra, 1);
            run_contest(population.seed(column_seed), onset_secs, duration_secs)
        };
        let baseline = run_with(AttackPlan::honest(), SimTime::ZERO, None);
        // Strategy cells with an extra (feeder) receiver get their own
        // topology-matched baseline (same receiver count and join times,
        // everyone honest), computed lazily.
        let mut two_receiver_baseline: Option<Measured> = None;
        for &name in MATRIX_STRATEGIES {
            let plans = strategy_cell_plans(name, onset_secs.secs());
            let base = if plans.extra.is_some() {
                two_receiver_baseline.get_or_insert_with(|| {
                    let honest = Some(AttackPlan::honest());
                    run_with(AttackPlan::honest(), plans.attacker_join_at, honest)
                })
            } else {
                &baseline
            };
            let run = run_with(plans.attacker, plans.attacker_join_at, plans.extra);
            cells.push(MatrixCell {
                defense: variant.label(),
                strategy: name,
                attacker_bps: run.attacker_bps,
                honest_bps: run.victims_bps[0],
                tcp_bps: (run.victims_bps[1] + run.victims_bps[2]) / 2.0,
                baseline_honest_bps: base.victims_bps[0],
                damage: run.damage_against(base, onset_secs),
                rejected_keys: run.rejected_keys,
                raw_igmp_blocked: run.raw_igmp_blocked,
            });
        }
    }
    MatrixResult {
        onset_secs,
        duration_secs,
        fair_share_bps,
        defenses: Variant::DEFENSES.iter().map(|v| v.label()).collect(),
        strategies: MATRIX_STRATEGIES.to_vec(),
        cells,
    }
}

// ---------------------------------------------------------------------------
// Churn robustness: the defenses under dynamic membership
// ---------------------------------------------------------------------------

/// Mean dwell time of the churn receivers, seconds (exponentially
/// distributed around this).
pub(crate) const CHURN_DWELL_SECS: u64 = 15;

/// Standing (non-churn) receivers of a churn run: the attacker and the
/// permanent honest receiver.
const CHURN_STANDING: u64 = 2;

/// The default churn-rate sweep, arrivals/second (`Params::churn_rate`
/// overrides it with a single point).
pub(crate) const CHURN_RATES: &[f64] = &[0.0, 0.5, 2.0];

/// The default flash-crowd multiplier applied at the top churn point
/// (`Params::flash_factor` overrides it).
pub(crate) const CHURN_FLASH_FACTOR: f64 = 10.0;

record! {
    /// One cell of the churn sweep: one defense under the inflate attacker
    /// at one churn rate.
    #[derive(Clone, Debug)]
    pub(crate) struct ChurnCell {
        /// Defense label (`Variant::label`).
        pub(crate) defense: &'static str,
        /// Poisson arrival rate of the churn receivers, per second.
        pub(crate) churn_rate: f64,
        /// Whether a flash crowd hit at the attack onset.
        pub(crate) flash: bool,
        /// Churn receivers the workload generated (joins over the run).
        pub(crate) churn_receivers: u64,
        /// Attacker goodput over the post-onset window, bit/s.
        pub(crate) attacker_bps: f64,
        /// Permanent honest receiver's goodput under attack, bit/s.
        pub(crate) honest_bps: f64,
        /// Same receiver's goodput in the attack-free run at the same churn.
        pub(crate) baseline_honest_bps: f64,
        /// Damage/containment metrics relative to that baseline.
        @splice pub damage: Damage,
        /// Keys the edge router rejected (0 when unprotected).
        pub(crate) rejected_keys: u64,
        /// Guard rejections of keys the plain table would have accepted —
        /// honest collateral of the collusion guard under churn.
        pub(crate) guard_false_positives: u64,
        /// Key tuples installed at the edge — the per-join control-plane
        /// load the churn generates.
        pub(crate) tuples_installed: u64,
        /// Session-join messages the edge processed.
        pub(crate) session_joins: u64,
    }
}

record! {
    /// The full churn sweep.
    #[derive(Clone, Debug)]
    pub(crate) struct ChurnResult {
        /// Attack onset, seconds.
        pub(crate) onset_secs: u64,
        /// Run duration, seconds.
        pub(crate) duration_secs: u64,
        /// Mean churn dwell time, seconds.
        pub(crate) mean_dwell_secs: u64,
        /// Flash-crowd multiplier used at the top churn point.
        pub(crate) flash_factor: f64,
        /// Defense column labels, in cell order.
        pub(crate) defenses: Vec<&'static str>,
        /// Churn-rate row labels, in cell order.
        pub(crate) churn_rates: Vec<f64>,
        /// Cells, defense-major then churn rate.
        pub(crate) cells: Vec<ChurnCell>,
    }
}

/// One churn run: a session of `variant` holding the attacker and a
/// permanent honest receiver (the one victim), two TCP flows, and a
/// Poisson churn workload (plus an optional flash crowd) joining and
/// leaving the same session — the matrix population under dynamic
/// membership. Returns the read-out and the number of churn receivers the
/// workload generated.
fn churn_run(
    variant: Variant,
    attacker: AttackPlan,
    churn_rate: f64,
    flash: Option<crate::workload::FlashCrowd>,
    duration_secs: u64,
    onset_secs: u64,
    seed: u64,
) -> (Measured, u64) {
    let mut w = crate::workload::WorkloadSpec::none(SimDuration::from_secs(duration_secs))
        .poisson(churn_rate, SimDuration::from_secs(CHURN_DWELL_SECS));
    if let Some(f) = flash {
        w = w.flash(f);
    }
    let mut d = Scenario::dumbbell(1.mbps())
        .seed(seed)
        .session(
            McastSessionSpec::new(variant)
                .receiver(ReceiverSpec::new().adversary(attacker))
                .receiver(ReceiverSpec::new()),
        )
        .tcp(2)
        .workload(w)
        .build();
    // Spec order survives the workload expansion: receiver 0 is the
    // attacker, 1 the permanent honest receiver, the rest are churners.
    let receivers = &d.sessions[0].receivers;
    let (honest, churn_receivers) = (receivers[1], receivers.len() as u64 - CHURN_STANDING);
    d.run_secs(duration_secs);
    (
        measure(&d, onset_secs, duration_secs, &[honest]),
        churn_receivers,
    )
}

/// Whether point `ri` of an `n`-point rate sweep carries the flash crowd:
/// the top point of a multi-point sweep only — the cell answers "does the
/// defense still contain the attacker when the group 10×es in seconds".
fn flash_rides(ri: usize, n: usize) -> bool {
    ri + 1 == n && n > 1
}

/// The most arrivals any single run of [`churn_robustness`] asks of the
/// workload engine — a rate point's expected Poisson arrivals plus its
/// flash crowd. `registry::check_params` holds it against the arrival cap.
pub(crate) fn churn_peak_arrivals(duration_secs: u64, rates: &[f64], flash_factor: f64) -> f64 {
    let crowd = (flash_factor * CHURN_STANDING as f64).ceil();
    rates
        .iter()
        .enumerate()
        .map(|(ri, &rate)| {
            let flash = if flash_rides(ri, rates.len()) {
                crowd
            } else {
                0.0
            };
            rate * duration_secs as f64 + flash
        })
        .fold(0.0, f64::max)
}

/// The registered `churn_robustness` experiment: the matrix's "inflate"
/// strategy against every [`Variant::DEFENSES`] defense at each churn
/// rate in `rates`, with a `flash_factor`× flash crowd landing at the
/// attack onset on the highest rate point. Each cell's baseline is the
/// attack-free run at the *same* churn — the damage metrics isolate the
/// attack from the churn itself.
pub(crate) fn churn_robustness(
    duration_secs: u64,
    onset_secs: u64,
    seed: u64,
    rates: &[f64],
    flash_factor: f64,
) -> ChurnResult {
    let onset = onset_secs.secs();
    let flash_at = |on: bool| {
        on.then(|| crate::workload::FlashCrowd {
            at: onset,
            factor: flash_factor,
            mean_dwell: SimDuration::from_secs(CHURN_DWELL_SECS),
            ramp: SimDuration::from_secs(2),
        })
    };
    let mut cells = Vec::new();
    for (di, &variant) in Variant::DEFENSES.iter().enumerate() {
        let column_seed = seed ^ ((di as u64 + 1) << 24);
        for (ri, &rate) in rates.iter().enumerate() {
            let flash = flash_rides(ri, rates.len());
            let run_with = |attacker| {
                churn_run(
                    variant,
                    attacker,
                    rate,
                    flash_at(flash),
                    duration_secs,
                    onset_secs,
                    column_seed,
                )
            };
            let (baseline, baseline_churners) = run_with(AttackPlan::honest());
            let (run, churn_receivers) = run_with(AttackPlan::inflate_at(onset));
            assert_eq!(
                baseline_churners, churn_receivers,
                "workload expansion must not depend on the adversary"
            );
            cells.push(ChurnCell {
                defense: variant.label(),
                churn_rate: rate,
                flash,
                churn_receivers,
                attacker_bps: run.attacker_bps,
                honest_bps: run.victims_bps[0],
                baseline_honest_bps: baseline.victims_bps[0],
                damage: run.damage_against(&baseline, onset_secs),
                rejected_keys: run.rejected_keys,
                guard_false_positives: run.guard_false_positives,
                tuples_installed: run.tuples_installed,
                session_joins: run.session_joins,
            });
        }
    }
    ChurnResult {
        onset_secs,
        duration_secs,
        mean_dwell_secs: CHURN_DWELL_SECS,
        flash_factor,
        defenses: Variant::DEFENSES.iter().map(|v| v.label()).collect(),
        churn_rates: rates.to_vec(),
        cells,
    }
}

// ---------------------------------------------------------------------------
// Topology experiments: trees and parking lots beyond the dumbbell
// ---------------------------------------------------------------------------

record! {
    /// One row of the `tree_placement` experiment: one defense variant versus
    /// the inflate attacker attached at one depth of the tree.
    #[derive(Clone, Debug)]
    pub(crate) struct TreePlacementRow {
        /// Defense label (`Variant::label`).
        pub(crate) defense: &'static str,
        /// Depth of the attacker's attachment router (tree depth = a leaf).
        pub(crate) attacker_depth: u32,
        /// Attacker goodput over the post-onset window, bit/s.
        pub(crate) attacker_bps: f64,
        /// The same receiver's goodput when behaving honestly, bit/s.
        pub(crate) attacker_baseline_bps: f64,
        /// Mean honest-leaf goodput under attack, bit/s.
        pub(crate) honest_mean_bps: f64,
        /// Mean honest-leaf goodput in the attack-free baseline, bit/s.
        pub(crate) baseline_mean_bps: f64,
        /// Mean honest loss across every leaf, percent of baseline.
        pub(crate) honest_loss_pct: f64,
        /// Mean loss of the leaves sharing the attacker's depth-1 subtree.
        pub(crate) subtree_loss_pct: f64,
        /// Mean loss of the leaves outside that subtree (collateral beyond
        /// the attacker's branch — near zero when damage is local).
        pub(crate) outside_loss_pct: f64,
        /// Guessed keys the edge routers rejected (0 when unprotected).
        pub(crate) rejected_keys: u64,
    }
}

record! {
    /// The full `tree_placement` result.
    #[derive(Clone, Debug)]
    pub(crate) struct TreePlacementResult {
        /// Tree depth (levels below the root).
        pub(crate) depth: u32,
        /// Children per interior router.
        pub(crate) fanout: u32,
        /// Attack onset, seconds.
        pub(crate) onset_secs: u64,
        /// Run duration, seconds.
        pub(crate) duration_secs: u64,
        /// Rows, defense-major then attacker depth `1..=depth`.
        pub(crate) rows: Vec<TreePlacementRow>,
    }
}

/// The registered `tree_placement` experiment: on a balanced
/// `fanout`-ary tree with one honest receiver per leaf, attach the
/// matrix's inflate attacker at every depth `1..=depth` of leaf 0's root
/// path and measure honest damage — overall, inside the attacker's
/// depth-1 subtree, and outside it — for every [`Variant::DEFENSES`]
/// defense, against a per-(defense, depth) honest baseline.
pub(crate) fn tree_placement(
    depth: u32,
    fanout: u32,
    duration_secs: u64,
    onset_secs: u64,
    seed: u64,
) -> TreePlacementResult {
    assert!(depth >= 1, "placement needs at least one level");
    let leaves = (fanout as usize).pow(depth);
    let subtree = leaves / fanout as usize; // leaf 0's depth-1 subtree
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let mut rows = Vec::new();
    for (di, &variant) in Variant::DEFENSES.iter().enumerate() {
        let column_seed = seed ^ ((di as u64 + 1) << 24);
        for d in 1..=depth {
            let placement = Placement::Interior { depth: d, leaf: 0 };
            // The baseline shares seed, topology and placement with the
            // attack run — they differ only in the adversary.
            let run_with = |attacker: AttackPlan| {
                let shape = Scenario::balanced_tree(depth, fanout, 500.kbps());
                let population = contest(
                    shape,
                    variant,
                    attacker.at(placement),
                    SimTime::ZERO,
                    None,
                    leaves,
                );
                run_contest(population.seed(column_seed), onset_secs, duration_secs)
            };
            let base = run_with(AttackPlan::honest());
            let run = run_with(AttackPlan::inflate_at(onset_secs.secs()));
            let (honest, baseline) = (&run.victims_bps, &base.victims_bps);
            let honest_mean_bps = mean(honest);
            let baseline_mean_bps = mean(baseline);
            rows.push(TreePlacementRow {
                defense: variant.label(),
                attacker_depth: d,
                attacker_bps: run.attacker_bps,
                attacker_baseline_bps: base.attacker_bps,
                honest_mean_bps,
                baseline_mean_bps,
                honest_loss_pct: loss_pct(baseline_mean_bps, honest_mean_bps),
                subtree_loss_pct: loss_pct(mean(&baseline[..subtree]), mean(&honest[..subtree])),
                outside_loss_pct: loss_pct(mean(&baseline[subtree..]), mean(&honest[subtree..])),
                rejected_keys: run.rejected_keys,
            });
        }
    }
    TreePlacementResult {
        depth,
        fanout,
        onset_secs,
        duration_secs,
        rows,
    }
}

record! {
    /// Per-hop measurements of the `parking_lot_fairness` experiment.
    #[derive(Clone, Debug)]
    pub(crate) struct ParkingLotHop {
        /// 1-based hop index: the honest receiver behind this many
        /// bottlenecks.
        pub(crate) hop: u32,
        /// Its goodput under attack, bit/s.
        pub(crate) honest_bps: f64,
        /// Its goodput in the attack-free baseline, bit/s.
        pub(crate) baseline_bps: f64,
        /// Goodput loss, percent of baseline.
        pub(crate) honest_loss_pct: f64,
        /// The hop's local cross-traffic CBR goodput under attack, bit/s.
        pub(crate) cbr_bps: f64,
        /// The same CBR's goodput in the baseline, bit/s.
        pub(crate) cbr_baseline_bps: f64,
    }
}

record! {
    /// One defense variant's share breakdown.
    #[derive(Clone, Debug)]
    pub(crate) struct ParkingLotVariantRows {
        /// Variant label (`Variant::label`).
        pub(crate) variant: &'static str,
        /// Attacker goodput over the post-onset window, bit/s.
        pub(crate) attacker_bps: f64,
        /// The same receiver's honest-baseline goodput, bit/s.
        pub(crate) attacker_baseline_bps: f64,
        /// Per-hop honest and cross-traffic shares.
        pub(crate) hops: Vec<ParkingLotHop>,
    }
}

record! {
    /// The full `parking_lot_fairness` result.
    #[derive(Clone, Debug)]
    pub(crate) struct ParkingLotResult {
        /// Number of chained bottlenecks.
        pub(crate) bottlenecks: usize,
        /// Per-hop cross-traffic CBR rate, bit/s.
        pub(crate) per_hop_cbr_bps: u64,
        /// Attack onset, seconds.
        pub(crate) onset_secs: u64,
        /// Run duration, seconds.
        pub(crate) duration_secs: u64,
        /// One entry per [`Variant::BOTH`] variant, DL first.
        pub(crate) variants: Vec<ParkingLotVariantRows>,
    }
}

/// The registered `parking_lot_fairness` experiment: per-hop goodput
/// shares on a multi-bottleneck parking lot, honest baseline versus an
/// [`InflateTo`] attacker whose traffic crosses every hop, for FLID-DL
/// (attack lands everywhere) and FLID-DS (contained at the edge).
pub(crate) fn parking_lot_fairness(
    bottlenecks: usize,
    per_hop_cbr_bps: u64,
    duration_secs: u64,
    onset_secs: u64,
    seed: u64,
) -> ParkingLotResult {
    let last_hop = Placement::Leaf(bottlenecks - 1);
    let mut variants = Vec::new();
    for (vi, &variant) in Variant::BOTH.iter().enumerate() {
        let column_seed = seed ^ ((vi as u64 + 1) << 16);
        // Victims: the per-hop honest receivers, then the per-hop CBR sinks.
        let run_with = |attacker: AttackPlan| {
            let shape = Scenario::parking_lot(bottlenecks, 1.mbps()).per_hop_cbr(per_hop_cbr_bps);
            let population = contest(shape, variant, attacker, SimTime::ZERO, None, bottlenecks);
            run_contest(population.seed(column_seed), onset_secs, duration_secs)
        };
        let base = run_with(AttackPlan::honest().at(last_hop));
        let attack = AttackPlan::new(Timed::at(onset_secs.secs(), InflateTo::all())).at(last_hop);
        let run = run_with(attack);
        let hops = (0..bottlenecks)
            .map(|h| ParkingLotHop {
                hop: h as u32 + 1,
                honest_bps: run.victims_bps[h],
                baseline_bps: base.victims_bps[h],
                honest_loss_pct: loss_pct(base.victims_bps[h], run.victims_bps[h]),
                cbr_bps: run.victims_bps[bottlenecks + h],
                cbr_baseline_bps: base.victims_bps[bottlenecks + h],
            })
            .collect();
        variants.push(ParkingLotVariantRows {
            variant: variant.label(),
            attacker_bps: run.attacker_bps,
            attacker_baseline_bps: base.attacker_bps,
            hops,
        });
    }
    ParkingLotResult {
        bottlenecks,
        per_hop_cbr_bps,
        onset_secs,
        duration_secs,
        variants,
    }
}

record! {
    /// One row of the FEC-repetition ablation.
    #[derive(Clone, Debug)]
    pub(crate) struct FecAblationRow {
        /// Repetition factor `z`.
        pub(crate) repeat: u32,
        /// Loss probability applied to special packets.
        pub(crate) loss: f64,
        /// Fraction of slots whose key tuples failed to reach the router
        /// completely.
        pub(crate) slot_miss_rate: f64,
        /// Bit-expansion factor actually paid.
        pub(crate) expansion: f64,
    }
}

/// Ablation: FEC repetition factor versus key-table miss rate under
/// random special-packet loss (the `z` the paper sizes against 50 % loss
/// in §5.4). Monte-Carlo over `slots` independent slots of a 10-group
/// announcement.
pub(crate) fn fec_ablation(
    repeats: &[u32],
    losses: &[f64],
    slots: u32,
    seed: u64,
) -> Vec<FecAblationRow> {
    use mcc_delta::Key;
    use mcc_sigma::fec::{chunk_tuples, encode_with_repeats, FecAccounting};
    use mcc_sigma::KeyTuple;
    use mcc_simcore::DetRng;

    let mut rng = DetRng::new(seed);
    let tuples: Vec<(GroupAddr, KeyTuple)> = (0..10)
        .map(|i| {
            (
                GroupAddr(i),
                KeyTuple {
                    top: Key(i as u64),
                    decrease: Some(Key(100 + i as u64)),
                    increase: None,
                },
            )
        })
        .collect();
    let mut rows = Vec::new();
    for &repeat in repeats {
        for &loss in losses {
            let chunks = chunk_tuples(0, tuples.clone());
            let mut missed = 0u32;
            let mut acc = FecAccounting::default();
            for _ in 0..slots {
                let coded = encode_with_repeats(&chunks, repeat);
                acc = FecAccounting::measure(&chunks, &coded);
                // A slot is served iff every distinct chunk survives in
                // at least one copy.
                let survivors: Vec<u32> = coded
                    .iter()
                    .filter(|_| !rng.chance(loss))
                    .map(|c| c.index)
                    .collect();
                let all = chunks.iter().all(|c| survivors.contains(&c.index));
                if !all {
                    missed += 1;
                }
            }
            rows.push(FecAblationRow {
                repeat,
                loss,
                slot_miss_rate: missed as f64 / slots as f64,
                expansion: acc.expansion(),
            });
        }
    }
    rows
}

record! {
    /// One row of the slot-duration ablation.
    #[derive(Clone, Debug)]
    pub(crate) struct SlotAblationRow {
        /// Slot duration in milliseconds.
        pub(crate) slot_ms: u64,
        /// Steady-state receiver goodput on a 1 Mbps private bottleneck.
        pub(crate) goodput_bps: f64,
        /// Seconds from burst onset until throughput first halves
        /// (responsiveness; smaller is faster).
        pub(crate) reaction_secs: f64,
        /// Analytic SIGMA overhead at this slot duration.
        pub(crate) sigma_overhead: f64,
    }
}

/// Ablation: the FLID-DS slot duration trades responsiveness against
/// SIGMA overhead — the paper sets 250 ms to match FLID-DL's 500 ms
/// granularity through SIGMA's two-slot enforcement.
pub(crate) fn slot_ablation(slot_ms: &[u64], seed: u64) -> Vec<SlotAblationRow> {
    use mcc_flid::{FlidReceiver, FlidSender};
    use mcc_netsim::prelude::*;
    use mcc_sigma::{SigmaConfig, SigmaEdgeModule};

    slot_ms
        .iter()
        .map(|&ms| {
            // A hand-built dumbbell (the shared builder pins 250 ms slots).
            let mut sim = Sim::new(seed ^ ms, SimDuration::from_secs(1));
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
            let mut cfg = FlidConfig::paper(
                (1..=10).map(GroupAddr).collect(),
                GroupAddr(0),
                FlowId(1),
                true,
            );
            cfg.slot = SimDuration::from_millis(ms);
            let params = OverheadParams {
                n_groups: cfg.n(),
                data_bits_per_packet: cfg.packet_bits as u32,
                key_bits: 16,
                slot_number_bits: 8,
                base_rate_bps: cfg.base_rate_bps,
                session_rate_bps: cfg.cumulative_rate(cfg.n()),
                slot_secs: ms as f64 / 1000.0,
            };
            for g in cfg.groups.iter().chain([&cfg.control_group]) {
                sim.register_group(*g, s);
            }
            sim.set_edge_module(
                b,
                Box::new(SigmaEdgeModule::new(SigmaConfig::new(cfg.slot))),
            );
            let r = sim.add_agent(
                h,
                Box::new(FlidReceiver::with_adversary(
                    cfg.clone(),
                    Some(b),
                    AttackPlan::honest(),
                )),
                SimTime::from_millis(5),
            );
            // An 800 kbps burst at t = 40 s probes the reaction time.
            use mcc_traffic::{CbrConfig, CbrSource, CountingSink};
            let cs = sim.add_node();
            let cr = sim.add_node();
            sim.add_duplex_link(
                cs,
                a,
                10_000_000,
                SimDuration::from_millis(10),
                Queue::drop_tail(1_000_000),
                Queue::drop_tail(1_000_000),
            );
            sim.add_duplex_link(
                b,
                cr,
                10_000_000,
                SimDuration::from_millis(10),
                Queue::drop_tail(1_000_000),
                Queue::drop_tail(1_000_000),
            );
            let cbr_sink = sim.add_agent(cr, Box::new(CountingSink::default()), SimTime::ZERO);
            sim.add_agent(
                cs,
                Box::new(CbrSource::new(CbrConfig::steady(
                    800_000,
                    Dest::Agent(cbr_sink),
                    FlowId(2),
                    SimTime::from_secs(40),
                    SimTime::from_secs(60),
                ))),
                SimTime::ZERO,
            );
            sim.add_agent(s, Box::new(FlidSender::new(cfg)), SimTime::ZERO);
            sim.finalize();
            sim.run_until(SimTime::from_secs(60));

            let series = sim.monitor().agent_series_bps(r, SimTime::from_secs(60));
            let steady: f64 = series[20..38].iter().sum::<f64>() / 18.0;
            let reaction = series[40..]
                .iter()
                .position(|&v| v < steady / 2.0)
                .map(|i| i as f64 + 0.5)
                .unwrap_or(f64::INFINITY);
            SlotAblationRow {
                slot_ms: ms,
                goodput_bps: steady,
                reaction_secs: reaction,
                sigma_overhead: sigma_overhead(&params, 2.0, 2.0, 512.0),
            }
        })
        .collect()
}

/// Process peak resident set (`VmHWM`) in bytes, from
/// `/proc/self/status`. Returns 0 on platforms without procfs — callers
/// treat 0 as "unmeasured". No experiment calls it; it lives here because
/// the `benchmark/` package imports it at this path.
pub fn peak_rss_bytes() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kb: u64 = rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                    return kb * 1024;
                }
            }
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use Variant::{FlidDl, FlidDs};

    /// Scaled-down Figure 1: the FLID-DL attack pays off.
    #[test]
    fn attack_pays_off_unprotected() {
        let r = attack_experiment(FlidDl, 60, 25, 42);
        let [f1, f2, t1, t2] = [
            r.post_attack_avg_bps[0],
            r.post_attack_avg_bps[1],
            r.post_attack_avg_bps[2],
            r.post_attack_avg_bps[3],
        ];
        assert!(
            f1 > 450_000.0,
            "attacker should exceed its 250k fair share: {f1}"
        );
        assert!(f1 > 1.8 * f2, "at the honest receiver's expense: {f1} {f2}");
        assert!(f1 > 1.8 * t1.max(t2), "and TCP's: {f1} {t1} {t2}");
    }

    /// Scaled-down Figure 7: FLID-DS keeps the allocation fair.
    #[test]
    fn attack_neutralized_protected() {
        let r = attack_experiment(FlidDs, 60, 25, 42);
        let f1 = r.post_attack_avg_bps[0];
        let f2 = r.post_attack_avg_bps[1];
        let t_min = r.post_attack_avg_bps[2].min(r.post_attack_avg_bps[3]);
        assert!(
            f1 < 400_000.0,
            "attacker must stay near its fair share: {f1}"
        );
        assert!(f2 > 100_000.0, "honest multicast survives: {f2}");
        assert!(t_min > 100_000.0, "TCP survives: {t_min}");
    }

    /// Scaled-down Figure 8c: FLID-DL and FLID-DS deliver similar average
    /// throughput without cross traffic.
    #[test]
    fn dl_and_ds_average_throughput_similar() {
        let ns = [2u32];
        let dl = throughput_vs_sessions(FlidDl, &ns, false, 60, 7);
        let ds = throughput_vs_sessions(FlidDs, &ns, false, 60, 7);
        let (a, b) = (dl[0].avg_bps, ds[0].avg_bps);
        assert!(a > 120_000.0 && b > 120_000.0, "both near fair: {a} {b}");
        let ratio = a.max(b) / a.min(b);
        assert!(ratio < 1.45, "parity: {a} vs {b}");
    }

    /// Scaled-down Figure 8e: the burst suppresses multicast throughput
    /// and it recovers afterwards.
    #[test]
    fn responsiveness_to_cbr_burst() {
        let s = responsiveness(FlidDs, 60, 20, 35, 3);
        let before: f64 = s.points[10..18].iter().map(|p| p.1).sum::<f64>() / 8.0;
        let during: f64 = s.points[25..33].iter().map(|p| p.1).sum::<f64>() / 8.0;
        let after: f64 = s.points[50..58].iter().map(|p| p.1).sum::<f64>() / 8.0;
        assert!(
            during < 0.6 * before,
            "burst must bite: before {before} during {during}"
        );
        assert!(
            after > 1.5 * during,
            "and release: during {during} after {after}"
        );
    }

    /// Scaled-down Figure 8g/8h core claim: late joiners converge to the
    /// early receivers' level.
    #[test]
    fn convergence_of_staggered_receivers() {
        let r = convergence(FlidDs, 45, 11);
        let finals: Vec<f64> = r
            .levels
            .iter()
            .map(|s| s.points.last().map(|p| p.1).unwrap_or(0.0))
            .collect();
        let max = finals.iter().cloned().fold(0.0, f64::max);
        let min = finals.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max - min <= 1.0,
            "final levels within one layer: {finals:?}"
        );
        assert!(max >= 2.0, "receivers actually climbed: {finals:?}");
    }

    /// Figure 9 magnitudes: both overheads under 1 %, DELTA ≈ 0.8 %.
    #[test]
    fn overhead_magnitudes_match_paper() {
        let rows = overhead_vs_groups(&[2, 10, 20], 20, 5);
        for row in &rows {
            assert!(
                (row.delta_analytic - 0.008).abs() < 0.001,
                "DELTA ≈ 0.8 %: {row:?}"
            );
            assert!(row.sigma_analytic < 0.006, "SIGMA < 0.6 %: {row:?}");
            assert!(
                (row.delta_measured - row.delta_analytic).abs() < 0.002,
                "measured tracks closed form: {row:?}"
            );
            assert!(row.sigma_measured < 0.012, "{row:?}");
        }
        let slot_rows = overhead_vs_slot(&[200, 500, 1000], 20, 5);
        assert!(
            slot_rows[0].sigma_analytic > slot_rows[2].sigma_analytic,
            "SIGMA overhead falls with slot duration"
        );
    }

    /// Tree placement: an unprotected inflate attacker starves exactly
    /// the leaves sharing its depth-1 subtree; the hardened variants
    /// contain the damage at every depth.
    #[test]
    fn tree_placement_damage_is_local_and_contained_by_defenses() {
        let r = tree_placement(2, 2, 30, 10, 42);
        assert_eq!(r.rows.len(), Variant::DEFENSES.len() * 2);
        for row in &r.rows {
            match row.defense {
                "FLID-DL" => {
                    assert!(
                        row.attacker_bps > 1.2 * row.attacker_baseline_bps,
                        "depth {}: inflation must pay off unprotected: {} vs {}",
                        row.attacker_depth,
                        row.attacker_bps,
                        row.attacker_baseline_bps
                    );
                    assert!(
                        row.subtree_loss_pct > 60.0,
                        "depth {}: subtree must starve: {}",
                        row.attacker_depth,
                        row.subtree_loss_pct
                    );
                    assert!(
                        row.outside_loss_pct < 15.0,
                        "depth {}: damage must stay in the branch: {}",
                        row.attacker_depth,
                        row.outside_loss_pct
                    );
                }
                "FLID-DS" => {
                    assert!(
                        row.attacker_bps < 1.3 * row.attacker_baseline_bps,
                        "depth {}: SIGMA must contain the attacker: {} vs {}",
                        row.attacker_depth,
                        row.attacker_bps,
                        row.attacker_baseline_bps
                    );
                    assert!(
                        row.honest_loss_pct < 20.0,
                        "depth {}: honest leaves survive: {}",
                        row.attacker_depth,
                        row.honest_loss_pct
                    );
                    assert!(row.rejected_keys > 0, "guessed keys must be rejected");
                }
                _ => {}
            }
        }
    }

    /// Parking lot: the inflating end-to-end receiver squeezes honest
    /// flows on every hop under FLID-DL; FLID-DS keeps per-hop shares at
    /// their baselines.
    #[test]
    fn parking_lot_attack_lands_on_every_hop_unless_protected() {
        let r = parking_lot_fairness(2, 100_000, 30, 10, 42);
        assert_eq!(r.variants.len(), 2);
        let dl = &r.variants[0];
        assert_eq!(dl.variant, "FLID-DL");
        assert!(
            dl.attacker_bps > 1.4 * dl.attacker_baseline_bps,
            "inflation must pay off: {} vs {}",
            dl.attacker_bps,
            dl.attacker_baseline_bps
        );
        for hop in &dl.hops {
            assert!(
                hop.honest_loss_pct > 50.0,
                "hop {}: honest flow must be squeezed: {}",
                hop.hop,
                hop.honest_loss_pct
            );
        }
        let ds = &r.variants[1];
        assert_eq!(ds.variant, "FLID-DS");
        assert!(
            ds.attacker_bps < 1.2 * ds.attacker_baseline_bps,
            "SIGMA must contain the attacker: {} vs {}",
            ds.attacker_bps,
            ds.attacker_baseline_bps
        );
        for hop in &ds.hops {
            assert!(
                hop.honest_loss_pct < 15.0,
                "hop {}: honest share must hold: {}",
                hop.hop,
                hop.honest_loss_pct
            );
            assert!(
                hop.cbr_bps > 60_000.0,
                "hop {}: cross traffic must survive: {}",
                hop.hop,
                hop.cbr_bps
            );
        }
    }

    /// Figure 8f shape: throughput roughly independent of RTT under
    /// FLID-DS.
    #[test]
    fn rtt_independence() {
        let rows = rtt_experiment(FlidDs, 60, 13);
        let rates: Vec<f64> = rows.iter().map(|r| r.1).collect();
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        assert!(mean > 100_000.0, "receivers get service: {mean}");
        for (rtt, rate) in &rows {
            assert!(
                (rate - mean).abs() < 0.35 * mean,
                "rtt {rtt} deviates: {rate} vs mean {mean}"
            );
        }
    }
}
