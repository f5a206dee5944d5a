//! The five workloads: what each builds from the seed, how one
//! repetition runs, and what a run's outputs must satisfy.
//!
//! The simulator receives only the generated specs; nothing below the
//! spec builders ever sees the benchmark seed or a workload name.

use std::time::Instant;

use robust_multicast::attack::{All, AttackPlan, InflateTo, KeyGuess, Timed};
use robust_multicast::core::registry::{self, Experiment, ExperimentDef};
use robust_multicast::core::runner::{run_serial, ExperimentSpec, Report};
use robust_multicast::core::workload::BackgroundCbr;
use robust_multicast::core::{
    BuiltTopology, Dist, FlashCrowd, McastSessionSpec, Params, ReceiverSpec, Scenario, Topology,
    TopologySpec, Units, Variant, WorkloadSpec,
};
use robust_multicast::netsim::LinkId;
use robust_multicast::sigma::SigmaStats;
use robust_multicast::simcore::{SimDuration, SimTime};

use crate::stats::Fnv;

/// The seed every committed number is quoted at. Claims must also hold
/// at a seed other than this one (README, "held-out seed").
pub const CANONICAL_SEED: u64 = 42;

/// Which `simcore.event_queue` kernel a workload's queue traffic
/// resembles — selects the ns/op behind its `est_share`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueShape {
    /// One live future timestamp at a time (synchronized fan-out waves).
    Batched,
    /// Hundreds of distinct live timestamps (independent flows).
    Scattered,
}

/// How a workload executes.
#[derive(Clone, Copy)]
pub enum Kind {
    /// One packet-level simulation built from `spec(seed, horizon)` and
    /// run until it has processed `budget` events.
    Sim {
        spec: fn(u64, u64) -> TopologySpec,
        /// Events per repetition: what the canonical seed processes in
        /// exactly `horizon` simulated seconds. How many events a fixed
        /// horizon holds swings twofold with the seed (FLID's level
        /// trajectory is chaotic), so a fixed horizon would make host
        /// time a property of the seed; a fixed event count makes it a
        /// property of the simulator.
        budget: u64,
        queue: QueueShape,
        /// Receiver 0 of session 0 attacks, receivers `1..=300` are the
        /// static honest population, and the defence must contain it.
        attacked: bool,
    },
    /// The registered experiment suite in quick mode.
    Suite,
}

/// One benchmark workload.
#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    /// Simulated seconds the scenario is laid out for — attack onset,
    /// flash crowd and arrivals scale with it (0 for the suite, whose
    /// experiments fix their own quick-mode durations).
    pub horizon: u64,
    pub kind: Kind,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "fanout_dl",
        why: "unprotected FLID-DL fanning out to 2,000 receivers: event-queue same-instant runs, multicast fan-out and link service; the baseline every defence cost is read against",
        horizon: 30,
        kind: Kind::Sim {
            spec: fanout_dl,
            budget: 29_842_803,
            queue: QueueShape::Batched,
            attacked: false,
        },
    },
    Workload {
        name: "defended_churn",
        why: "FLID-DS+guard under an inflate+key-guess attacker with Poisson churn and a flash crowd: SIGMA filter and guard, DELTA keys, per-receiver slot evaluation, join/leave",
        horizon: 24,
        kind: Kind::Sim {
            spec: defended_churn,
            budget: 8_463_963,
            queue: QueueShape::Scattered,
            attacked: true,
        },
    },
    Workload {
        name: "cohort_million",
        why: "a million modeled receivers as 100 cohorts plus cohort arrivals: count-weighted buckets and interned grant slabs instead of individual agents; carries the memory claim",
        horizon: 60,
        kind: Kind::Sim {
            spec: cohort_million,
            budget: 11_188_017,
            queue: QueueShape::Batched,
            attacked: false,
        },
    },
    Workload {
        name: "unicast_mix",
        why: "TCP and CBR over a four-hop parking lot with no multicast: every timestamp distinct, no fan-out; the bypass workload for fan-out and same-instant fast paths",
        horizon: 20,
        kind: Kind::Sim {
            spec: unicast_mix,
            budget: 6_027_715,
            queue: QueueShape::Scattered,
            attacked: false,
        },
    },
    Workload {
        name: "suite_quick",
        why: "the 19 registered figure, ablation, matrix and topology experiments in quick mode through the runner and JSON report: what a user actually runs, all three receiver types",
        horizon: 0,
        kind: Kind::Suite,
    },
];

impl Workload {
    /// The simulation job of this workload at `seed` — full size, or a
    /// tenth in smoke mode — and its queue shape (`None` for the suite).
    pub fn sim_job(&self, seed: u64, smoke: bool) -> Option<(SimJob, QueueShape)> {
        let Kind::Sim {
            spec,
            budget,
            queue,
            attacked,
        } = self.kind
        else {
            return None;
        };
        let full = SimJob {
            spec,
            seed,
            horizon: self.horizon,
            budget,
            attacked,
        };
        Some((if smoke { full.tenth() } else { full }, queue))
    }
}

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

// ---------------------------------------------------------------------------
// Scenario builders
// ---------------------------------------------------------------------------

/// The matrix's "inflate" attacker (grab every group, hammer raw joins,
/// guess ten keys per group per slot) switching on at `at`.
fn inflate_plan(at: SimTime) -> AttackPlan {
    AttackPlan::new(Timed::boxed(
        at,
        Box::new(All::of(vec![
            Box::new(InflateTo::all()),
            Box::new(KeyGuess { rate: 10 }),
        ])),
    ))
}

/// The `perf_events` scenario, spec for spec: one FLID-DL session of
/// 2,000 honest receivers and two TCP flows over a 10 Mbps dumbbell.
pub fn fanout_dl(seed: u64, _horizon: u64) -> TopologySpec {
    wide_dumbbell(Variant::FlidDl, 2000, seed)
}

/// `receivers` honest receivers of one `variant` session plus two TCP
/// flows over a 10 Mbps dumbbell (also the `sigma.router` and
/// `netsim.shard` kernels' scenario).
pub fn wide_dumbbell(variant: Variant, receivers: usize, seed: u64) -> TopologySpec {
    let mut spec = TopologySpec::new(Topology::Dumbbell, seed, 10.mbps());
    spec.mcast = vec![McastSessionSpec::honest(variant, receivers)];
    spec.tcp = 2;
    spec
}

/// Static honest receivers of an attacked workload (receiver 0 is the
/// attacker, receivers `1..=STATIC_HONEST` these).
pub const STATIC_HONEST: usize = 300;

/// One FLID-DS+guard session: an attacker switching on a third of the
/// way in, 300 static honest receivers, Poisson churn (5/s, 15 s mean
/// dwell), a flash crowd doubling the standing population at the attack
/// onset, heterogeneous access rates, two TCP flows.
pub fn defended_churn(seed: u64, horizon: u64) -> TopologySpec {
    let onset = SimTime::from_secs(horizon / 3);
    let dwell = SimDuration::from_secs(15);
    let workload = WorkloadSpec::none(SimDuration::from_secs(horizon))
        .poisson(5.0, dwell)
        .flash(FlashCrowd {
            at: onset,
            factor: 1.0,
            mean_dwell: dwell,
            ramp: SimDuration::from_secs(2),
        })
        .access_rates(Dist::Uniform { lo: 2e6, hi: 10e6 });
    Scenario::dumbbell(10.mbps())
        .seed(seed)
        .session(
            McastSessionSpec::new(Variant::FlidDsGuard)
                .receiver(ReceiverSpec::new().adversary(inflate_plan(onset)))
                .with_receivers(vec![ReceiverSpec::new(); STATIC_HONEST]),
        )
        .tcp(2)
        .workload(workload)
        .topology_spec()
}

/// 100 cohort hosts of 10,000 members each under FLID-DS; every tenth
/// cohort inflates a third of the way in (forcing bucket splits), and
/// Poisson arrivals (2/s) each bring a cohort of 1,000.
pub fn cohort_million(seed: u64, horizon: u64) -> TopologySpec {
    let onset = SimTime::from_secs(horizon / 3);
    let hosts = (0..100).map(|h| {
        let r = ReceiverSpec::new().cohort(10_000);
        if h % 10 == 0 {
            r.adversary(inflate_plan(onset))
        } else {
            r
        }
    });
    let workload = WorkloadSpec::none(SimDuration::from_secs(horizon))
        .poisson(2.0, SimDuration::from_secs(15))
        .cohort(1000);
    Scenario::dumbbell(10.mbps())
        .seed(seed)
        .session(McastSessionSpec::new(Variant::FlidDs).with_receivers(hosts))
        .tcp(2)
        .workload(workload)
        .topology_spec()
}

/// A four-hop 100 Mbps parking lot carrying only unicast: per-hop CBR,
/// 42 TCP Reno flows and 40 background CBRs of mixed rates.
pub fn unicast_mix(seed: u64, horizon: u64) -> TopologySpec {
    let workload = WorkloadSpec::none(SimDuration::from_secs(horizon))
        .extra_tcp(40)
        .background(BackgroundCbr {
            count: 40,
            rate_bps: Dist::Uniform {
                lo: 50e3,
                hi: 400e3,
            },
        });
    Scenario::parking_lot(4, 100.mbps())
        .per_hop_cbr(2.mbps())
        .seed(seed)
        .tcp(2)
        .workload(workload)
        .topology_spec()
}

/// The suite's registry rows: everything a user runs except the two
/// `Kind::Perf` rows (they duplicate `fanout_dl` and `cohort_million`).
/// Smoke mode runs the three ablations only.
pub fn suite_defs(smoke: bool) -> Vec<ExperimentDef> {
    if smoke {
        return registry::ablations();
    }
    [
        registry::figures(),
        registry::ablations(),
        registry::matrices(),
        registry::topologies(),
    ]
    .concat()
}

/// The suite's golden-pinned experiments (`tests/golden/<id>_quick.json`).
pub const GOLDEN_IDS: [&str; 4] = [
    "matrix_robustness",
    "churn_robustness",
    "tree_placement",
    "parking_lot_fairness",
];

/// Runner specs for the suite. Every experiment runs at its registered
/// seed shifted by the benchmark seed's distance from the canonical one,
/// so seed 42 is exactly the registered (golden-pinned) suite and every
/// other seed is a different, equally deterministic one.
pub fn suite_specs(defs: &[ExperimentDef], seed: u64) -> Vec<ExperimentSpec> {
    let shift = seed.wrapping_sub(CANONICAL_SEED);
    defs.iter()
        .flat_map(|def| {
            let params = Params {
                seed_override: Some(def.seed().wrapping_add(shift)),
                ..Params::quick(true)
            };
            registry::specs(&[*def], &params)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// One repetition
// ---------------------------------------------------------------------------

/// Receivers named by a spec's sessions.
fn receiver_specs(spec: &TopologySpec) -> usize {
    spec.mcast.iter().map(|m| m.receivers.len()).sum()
}

/// Expand the spec's membership workload in place, exactly as
/// `TopologySpec::build` would (it is a pure function of the spec), so
/// the expansion can be timed apart from the build. Returns the number
/// of receivers it generated.
pub fn apply_workload(spec: &mut TopologySpec) -> u64 {
    let before = receiver_specs(spec);
    if let Some(w) = spec.workload.take() {
        w.apply(spec);
    }
    (receiver_specs(spec) - before) as u64
}

/// The scenario seed of repetition `i`: the benchmark seed itself, then
/// golden-ratio strides away from it. Host time per event differs by
/// ~10 % between seeds (each is a different congestion trajectory), so
/// one invocation measures a family of scenarios and reports the median
/// over it; the family is a pure function of the seed.
pub fn rep_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// What one repetition measured (host time) and produced (outputs).
pub struct Rep {
    pub setup_s: f64,
    pub run_wall_s: f64,
    /// Units of work the run did: simulator events — or, for the suite,
    /// whose report exposes no event total, experiments.
    pub work: f64,
    pub outcome: Outcome,
}

/// One simulation workload at one size: the scenario's layout horizon
/// and the events a repetition runs for (full, or a tenth of both for
/// warm-up and smoke runs).
#[derive(Clone, Copy)]
pub struct SimJob {
    pub spec: fn(u64, u64) -> TopologySpec,
    pub seed: u64,
    pub horizon: u64,
    pub budget: u64,
    pub attacked: bool,
}

impl SimJob {
    /// A tenth of the work on a scenario laid out for a tenth of the
    /// horizon (but long enough that every static agent has started).
    pub fn tenth(self) -> SimJob {
        SimJob {
            horizon: (self.horizon / 10).max(2),
            budget: self.budget / 10,
            ..self
        }
    }

    /// The same job on repetition `i`'s scenario seed.
    pub fn rep(self, i: usize) -> SimJob {
        SimJob {
            seed: rep_seed(self.seed, i),
            ..self
        }
    }

    pub fn spec(&self) -> TopologySpec {
        (self.spec)(self.seed, self.horizon)
    }
}

/// Simulated time between two looks at the event count.
const BUDGET_STEP_MS: u64 = 100;

/// A run gives up on its budget at this multiple of the layout horizon
/// (the canonical seed needs exactly 1×; the sparsest seeds seen need
/// 2×, a tenth-size run — all slow start — 4×).
const HORIZON_CAP: u64 = 10;

/// Run `net` until it has processed `budget` events, looking every 100
/// simulated milliseconds; `tick(ms)` is called after each step. Returns
/// the simulated milliseconds run. At the canonical seed the budget is
/// met exactly at the layout horizon, so the run equals
/// `run_until(horizon)` event for event.
pub fn run_to_budget(net: &mut BuiltTopology, job: &SimJob, mut tick: impl FnMut(u64)) -> u64 {
    let cap_ms = job.horizon * HORIZON_CAP * 1000;
    let mut ms = 0;
    while ms < cap_ms && net.sim.world.processed_events() < job.budget {
        ms += BUDGET_STEP_MS;
        net.sim.run_until(SimTime::from_millis(ms));
        tick(ms);
    }
    ms
}

/// Set-up of one repetition: spec → finalized `Sim`, and the seconds it
/// took (workload expansion included).
pub fn timed_build(job: &SimJob) -> (BuiltTopology, f64) {
    let mut spec = job.spec();
    let t0 = Instant::now();
    apply_workload(&mut spec);
    let net = spec.build();
    let setup_s = t0.elapsed().as_secs_f64();
    (net, setup_s)
}

/// One untraced repetition of a simulation workload: set-up, then the
/// run to the event budget.
pub fn sim_rep(job: &SimJob) -> Rep {
    let (mut net, setup_s) = timed_build(job);
    let t1 = Instant::now();
    let end_ms = run_to_budget(&mut net, job, |_| {});
    let run_wall_s = t1.elapsed().as_secs_f64();
    Rep {
        setup_s,
        run_wall_s,
        work: net.sim.world.processed_events() as f64,
        outcome: Outcome::of_sim(&net, job, end_ms),
    }
}

/// `registry::specs` is microseconds of closure boxing; one set-up
/// sample times this many constructions so the clock resolves it.
pub const SUITE_SETUP_BATCH: usize = 1024;

/// One repetition of the suite: spec construction (set-up), then
/// `run_serial` plus the JSON render (run).
pub fn suite_rep(defs: &[ExperimentDef], seed: u64) -> (Rep, Report) {
    let setup_s = suite_setup_sample(defs, seed);
    let specs = suite_specs(defs, seed);
    let t1 = Instant::now();
    let report = run_serial("benchmark", "quick", &specs);
    let rendered = report.to_json_string();
    let run_wall_s = t1.elapsed().as_secs_f64();
    let rep = Rep {
        setup_s,
        run_wall_s,
        work: defs.len() as f64,
        outcome: Outcome::of_suite(&rendered),
    };
    (rep, report)
}

/// Seconds per `suite_specs` construction, averaged over one batch.
pub fn suite_setup_sample(defs: &[ExperimentDef], seed: u64) -> f64 {
    let t0 = Instant::now();
    for _ in 0..SUITE_SETUP_BATCH {
        std::hint::black_box(suite_specs(std::hint::black_box(defs), seed));
    }
    t0.elapsed().as_secs_f64() / SUITE_SETUP_BATCH as f64
}

// ---------------------------------------------------------------------------
// Outputs and their checks
// ---------------------------------------------------------------------------

/// The deterministic outputs of one repetition.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// FNV-1a over the run's simulated statistics (see [`Outcome::of_sim`]).
    pub digest: u64,
    /// Events processed (`None` for the suite: its report has no total).
    pub events: Option<u64>,
    pub peak_queue_depth: u64,
    /// Simulated milliseconds the run took to meet its event budget.
    pub end_ms: u64,
    /// Whether the run met its event budget before the horizon cap.
    pub budget_met: bool,
    pub sigma: SigmaTotals,
    /// Attacked workloads only: `(attacker, static honest mean)` goodput
    /// in bit/s once the defence has had time to react — from a sixth of
    /// the horizon after the onset to the end of the run.
    pub containment: Option<(f64, f64)>,
    pub report_bytes: u64,
}

/// SIGMA counters summed over every edge module of a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SigmaTotals {
    pub data_granted: u64,
    pub subscriptions: u64,
    pub accepted_keys: u64,
    pub rejected_keys: u64,
    pub session_joins_locked_out: u64,
    pub guard_false_positives: u64,
    pub guess_alarm_fired: bool,
    pub grant_ifaces: u64,
    pub grant_tables: u64,
}

fn digest_sigma(h: &mut Fnv, s: &SigmaStats) {
    for x in [
        s.specials,
        s.tuples_installed,
        s.session_joins,
        s.session_joins_locked_out,
        s.subscriptions,
        s.accepted_keys,
        s.rejected_keys,
        s.guard_false_positives,
        s.unsubscriptions,
        s.raw_igmp_blocked,
        s.data_granted,
        s.data_grace,
        s.data_denied,
        s.prunes,
        // `None` and slot 0 must differ.
        s.first_lockout_slot.map_or(0, |x| x + 1),
        s.first_guess_alarm_slot.map_or(0, |x| x + 1),
    ] {
        h.u64(x);
    }
}

impl Outcome {
    /// Digest and check inputs of a finished simulation: processed
    /// events, peak queue depth, simulated end time, every link's
    /// counters (per-flow drops in flow order), every SIGMA module's
    /// counters, and each session's count-weighted goodput over the
    /// second half of the run.
    pub fn of_sim(net: &BuiltTopology, job: &SimJob, end_ms: u64) -> Outcome {
        let world = &net.sim.world;
        let mut h = Fnv::new();
        let events = world.processed_events();
        let peak = world.peak_pending_events() as u64;
        h.u64(events);
        h.u64(peak);
        h.u64(end_ms);
        for l in 0..world.links.len() {
            let s = world.link_stats(LinkId(l as u32));
            for x in [s.tx_packets, s.tx_bits, s.drops, s.marks] {
                h.u64(x);
            }
            let mut by_flow: Vec<(u32, u64)> =
                s.drops_by_flow.iter().map(|(f, n)| (f.0, *n)).collect();
            by_flow.sort_unstable();
            for (flow, n) in by_flow {
                h.u64(u64::from(flow));
                h.u64(n);
            }
        }
        let mut sigma = SigmaTotals::default();
        for m in net.sigmas() {
            digest_sigma(&mut h, &m.stats);
            let (ifaces, tables) = m.grant_interning();
            sigma.data_granted += m.stats.data_granted;
            sigma.subscriptions += m.stats.subscriptions;
            sigma.accepted_keys += m.stats.accepted_keys;
            sigma.rejected_keys += m.stats.rejected_keys;
            sigma.session_joins_locked_out += m.stats.session_joins_locked_out;
            sigma.guard_false_positives += m.stats.guard_false_positives;
            sigma.guess_alarm_fired |= m.stats.first_guess_alarm_slot.is_some();
            sigma.grant_ifaces += ifaces as u64;
            sigma.grant_tables += tables as u64;
        }
        // Goodput windows are whole monitor bins (seconds).
        let to = (end_ms / 1000).max(1);
        for session in &net.sessions {
            h.u64(net.session_mean_receiver_bps(session, to / 2, to).to_bits());
        }
        let from = job.horizon / 3 + job.horizon / 6;
        let containment = (job.attacked && from < to).then(|| {
            let session = &net.sessions[0];
            let honest = &session.receivers[1..=STATIC_HONEST];
            let honest_bps: f64 = honest
                .iter()
                .map(|&r| net.throughput_bps(r, from, to))
                .sum();
            (
                net.throughput_bps(session.receivers[0], from, to),
                honest_bps / STATIC_HONEST as f64,
            )
        });
        Outcome {
            digest: h.finish(),
            events: Some(events),
            peak_queue_depth: peak,
            end_ms,
            budget_met: events >= job.budget,
            sigma,
            containment,
            report_bytes: 0,
        }
    }

    /// The suite's outputs are its rendered report.
    pub fn of_suite(rendered: &str) -> Outcome {
        let mut h = Fnv::new();
        h.bytes(rendered.as_bytes());
        Outcome {
            digest: h.finish(),
            events: None,
            peak_queue_depth: 0,
            end_ms: 0,
            budget_met: true,
            sigma: SigmaTotals::default(),
            containment: None,
            report_bytes: rendered.len() as u64,
        }
    }
}

/// One correctness check, counted as one operation.
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

pub fn check(name: &str, ok: bool, detail: String) -> Check {
    Check {
        name: name.into(),
        ok,
        detail,
    }
}

/// The attacker may take at most this multiple of the static honest
/// receivers' mean goodput once the defence has reacted.
const CONTAINMENT_FACTOR: f64 = 1.5;

/// Checks over the repetitions of one workload — each repetition a
/// different scenario seed; a check passes when every repetition does.
/// `rerun` is one scenario run twice: the outputs must repeat exactly.
pub fn check_outcomes(w: &Workload, outcomes: &[Outcome], rerun: &[Outcome; 2]) -> Vec<Check> {
    let reps = outcomes.len();
    let mut checks = vec![check(
        "rerun_reproduces_outputs",
        rerun[0] == rerun[1],
        format!(
            "digest {:016x} then {:016x}",
            rerun[0].digest, rerun[1].digest
        ),
    )];
    let Kind::Sim { attacked, .. } = w.kind else {
        return checks;
    };
    let sparsest = outcomes
        .iter()
        .max_by_key(|o| o.end_ms)
        .expect("a repetition");
    checks.push(check(
        "event_budget_met",
        outcomes.iter().all(|o| o.budget_met),
        format!(
            "{reps} reps; the sparsest took {:.1} simulated s for {} events",
            sparsest.end_ms as f64 / 1e3,
            sparsest.events.unwrap_or(0),
        ),
    ));
    let locked_out: u64 = outcomes
        .iter()
        .map(|o| o.sigma.session_joins_locked_out)
        .sum();
    checks.push(check(
        "honest_never_locked_out",
        locked_out == 0,
        format!("session_joins_locked_out = {locked_out} over {reps} reps"),
    ));
    let false_positives: u64 = outcomes.iter().map(|o| o.sigma.guard_false_positives).sum();
    checks.push(check(
        "guard_never_rejects_valid_key",
        false_positives == 0,
        format!("guard_false_positives = {false_positives} over {reps} reps"),
    ));
    if attacked {
        let alarms = outcomes
            .iter()
            .filter(|o| o.sigma.guess_alarm_fired)
            .count();
        checks.push(check(
            "key_guess_alarm_fired",
            alarms == reps,
            format!("first_guess_alarm_slot set in {alarms} of {reps} reps"),
        ));
        // attacker ÷ static honest mean, worst repetition.
        let worst = outcomes
            .iter()
            .map(|o| match o.containment {
                Some((attacker, honest)) if honest > 0.0 => attacker / honest,
                _ => f64::INFINITY,
            })
            .fold(0.0, f64::max);
        checks.push(check(
            "attacker_contained",
            worst <= CONTAINMENT_FACTOR,
            format!(
                "attacker at most {worst:.2}x the static honest mean over {reps} reps \
                 (limit {CONTAINMENT_FACTOR}x)"
            ),
        ));
    }
    checks
}

/// At the canonical seed the suite ran the registered seeds, so its four
/// golden-pinned experiments must byte-equal the repository's pins. The
/// pins are read from the checkout, never copied here: a deliberate
/// behaviour change re-blesses them without touching the benchmark.
pub fn check_goldens(report: &Report, golden_dir: &std::path::Path) -> Vec<Check> {
    GOLDEN_IDS
        .iter()
        .map(|id| {
            let name = format!("golden_{id}");
            let path = golden_dir.join(format!("{id}_quick.json"));
            let Some(record) = report.records.iter().find(|r| r.name == *id) else {
                return check(&name, false, "experiment missing from the suite".into());
            };
            // The pin is a one-experiment report of suite "pin".
            let got = Report {
                suite: "pin".into(),
                mode: "quick".into(),
                records: vec![robust_multicast::core::ExperimentRecord {
                    name: record.name.clone(),
                    seed: record.seed,
                    data: record.data.clone(),
                    elapsed: record.elapsed,
                }],
            }
            .to_json_string();
            match std::fs::read_to_string(&path) {
                Ok(want) => check(
                    &name,
                    got == want,
                    format!("{} bytes vs {}", got.len(), path.display()),
                ),
                Err(e) => check(&name, false, format!("{}: {e}", path.display())),
            }
        })
        .collect()
}
