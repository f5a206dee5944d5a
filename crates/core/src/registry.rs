//! The experiment registry: every figure and ablation of the evaluation
//! as a registered, enumerable object.
//!
//! Each entry implements [`Experiment`] — an `id`, the paper figure it
//! reproduces, a one-line description and a registered seed — and carries
//! a body that maps the parameter bag to canonical JSON; [`specs`] is the
//! one way to run it. [`REGISTRY`] is the single source of truth consumed
//! by `runner::figure_experiments`, the `figures` CLI in `mcc-bench`, and
//! the registry tests; adding a scenario is one [`ExperimentDef`] row
//! here instead of a new binary.
//!
//! The twelve figure entries reproduce the exact names, seeds and JSON
//! bodies of the pre-registry `figure_experiments` suite, so a default
//! run stays byte-identical to the historical
//! `results/BENCH_all_figures.json` (pinned by `tests/registry.rs`).

use crate::config::Params;
use crate::experiments;
use crate::runner::{series_json, ExperimentSpec, Json};
use crate::scenario::Variant;

/// What a registry entry reproduces.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A figure of the paper's §5 evaluation.
    Figure,
    /// A design-choice ablation (`DESIGN.md` §Ablations).
    Ablation,
    /// A robustness matrix (adversary strategies × defense variants).
    Matrix,
    /// A non-dumbbell topology experiment (trees, parking lots): scenario
    /// diversity beyond the paper's §5.1 shape.
    Topology,
}

/// A registered experiment's enumerable metadata; [`specs`] turns rows
/// into runnable [`ExperimentSpec`]s.
pub trait Experiment: Send + Sync {
    /// Unique registry id, e.g. `fig08a_dl_throughput`.
    fn id(&self) -> &'static str;
    /// The paper figure this reproduces (empty for ablations).
    fn figure(&self) -> &'static str;
    /// One-line description for `figures --list`.
    fn describe(&self) -> &'static str;
    /// Figure or ablation.
    fn kind(&self) -> Kind;
    /// The registered (default) seed.
    fn seed(&self) -> u64;
}

/// A registry row: plain data plus a function pointer, so entries are
/// `Copy` and the table is a `static`.
#[derive(Clone, Copy)]
pub struct ExperimentDef {
    id: &'static str,
    figure: &'static str,
    describe: &'static str,
    kind: Kind,
    seed: u64,
    body: fn(&Params, u64) -> Json,
}

impl Experiment for ExperimentDef {
    fn id(&self) -> &'static str {
        self.id
    }
    fn figure(&self) -> &'static str {
        self.figure
    }
    fn describe(&self) -> &'static str {
        self.describe
    }
    fn kind(&self) -> Kind {
        self.kind
    }
    fn seed(&self) -> u64 {
        self.seed
    }
}

// ---------------------------------------------------------------------------
// JSON encodings shared by the figure entries
// ---------------------------------------------------------------------------

fn sessions_rows_json(rows: &[experiments::SessionsRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("n", Json::U64(r.n as u64)),
                    ("avg_bps", Json::Num(r.avg_bps)),
                    (
                        "individual_bps",
                        Json::nums(r.individual_bps.iter().copied()),
                    ),
                ])
            })
            .collect(),
    )
}

fn overhead_rows_json(rows: &[experiments::OverheadRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("x", Json::Num(r.x)),
                    ("delta_analytic", Json::Num(r.delta_analytic)),
                    ("sigma_analytic", Json::Num(r.sigma_analytic)),
                    ("delta_measured", Json::Num(r.delta_measured)),
                    ("sigma_measured", Json::Num(r.sigma_measured)),
                ])
            })
            .collect(),
    )
}

fn attack_json(r: &experiments::AttackResult, attack_at: u64) -> Json {
    Json::obj([
        ("attack_at_secs", Json::U64(attack_at)),
        (
            "series",
            Json::Arr(r.series.iter().map(series_json).collect()),
        ),
        (
            "post_attack_avg_bps",
            Json::nums(r.post_attack_avg_bps.iter().copied()),
        ),
    ])
}

fn convergence_json(r: &experiments::ConvergenceResult) -> Json {
    Json::obj([
        (
            "throughput",
            Json::Arr(r.throughput.iter().map(series_json).collect()),
        ),
        (
            "levels",
            Json::Arr(r.levels.iter().map(series_json).collect()),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Figure bodies
// ---------------------------------------------------------------------------

fn attack_body(variant: Variant, p: &Params, seed: u64) -> Json {
    let dur = p.duration(200);
    let attack_at = dur / 2;
    attack_json(
        &experiments::attack_experiment(variant, dur, attack_at, seed, p),
        attack_at,
    )
}

fn sessions_body(variant: Variant, cross: bool, p: &Params, seed: u64) -> Json {
    sessions_rows_json(&experiments::throughput_vs_sessions(
        variant,
        &p.session_counts(),
        cross,
        p.duration(200),
        seed,
    ))
}

fn sessions_pair_body(cross: bool, p: &Params, seed: u64) -> Json {
    Json::obj([
        ("flid_dl", sessions_body(Variant::FlidDl, cross, p, seed)),
        ("flid_ds", sessions_body(Variant::FlidDs, cross, p, seed)),
    ])
}

fn responsiveness_body(p: &Params, seed: u64) -> Json {
    let dur = p.duration(100);
    let (from, to) = (dur * 45 / 100, dur * 75 / 100);
    Json::obj([
        (
            "burst_secs",
            Json::Arr(vec![Json::U64(from), Json::U64(to)]),
        ),
        (
            "series",
            Json::Arr(
                Variant::BOTH
                    .iter()
                    .map(|&v| series_json(&experiments::responsiveness(v, dur, from, to, seed, p)))
                    .collect(),
            ),
        ),
    ])
}

fn rtt_body(p: &Params, seed: u64) -> Json {
    let dur = p.duration(200);
    let pairs = |variant| {
        Json::Arr(
            experiments::rtt_experiment(variant, dur, seed)
                .into_iter()
                .map(|(rtt, bps)| Json::Arr(vec![Json::Num(rtt), Json::Num(bps)]))
                .collect(),
        )
    };
    Json::obj([
        ("flid_dl", pairs(Variant::FlidDl)),
        ("flid_ds", pairs(Variant::FlidDs)),
    ])
}

fn convergence_body(variant: Variant, p: &Params, seed: u64) -> Json {
    let dur = p.duration(40).max(40);
    convergence_json(&experiments::convergence(variant, dur, seed))
}

fn overhead_groups_body(p: &Params, seed: u64) -> Json {
    let ns: Vec<u32> = (1..=10).map(|i| 2 * i).collect();
    overhead_rows_json(&experiments::overhead_vs_groups(&ns, p.duration(60), seed))
}

fn overhead_slot_body(p: &Params, seed: u64) -> Json {
    let slots = [200u64, 300, 400, 500, 600, 700, 800, 900, 1000];
    overhead_rows_json(&experiments::overhead_vs_slot(&slots, p.duration(60), seed))
}

// ---------------------------------------------------------------------------
// Ablation bodies
// ---------------------------------------------------------------------------

fn ablation_sharing_body(_p: &Params, _seed: u64) -> Json {
    use mcc_delta::overhead::{delta_overhead, naive_delta_overhead, OverheadParams};
    Json::Arr(
        [2u32, 5, 10, 20]
            .iter()
            .map(|&n| {
                let p = OverheadParams::paper(n, 0.25);
                Json::obj([
                    ("n_groups", Json::U64(n as u64)),
                    ("shared", Json::Num(delta_overhead(&p))),
                    ("naive", Json::Num(naive_delta_overhead(&p))),
                ])
            })
            .collect(),
    )
}

fn ablation_fec_body(p: &Params, seed: u64) -> Json {
    let slots = if p.quick { 500 } else { 2000 };
    let rows = experiments::fec_ablation(&[1, 2, 3], &[0.1, 0.3, 0.5], slots, seed);
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("repeat", Json::U64(r.repeat as u64)),
                    ("loss", Json::Num(r.loss)),
                    ("slot_miss_rate", Json::Num(r.slot_miss_rate)),
                    ("expansion", Json::Num(r.expansion)),
                ])
            })
            .collect(),
    )
}

fn ablation_slot_body(p: &Params, seed: u64) -> Json {
    let slots: &[u64] = if p.quick {
        &[250, 1000]
    } else {
        &[125, 250, 500, 1000]
    };
    let rows = experiments::slot_ablation(slots, seed);
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("slot_ms", Json::U64(r.slot_ms)),
                    ("goodput_bps", Json::Num(r.goodput_bps)),
                    ("reaction_secs", Json::Num(r.reaction_secs)),
                    ("sigma_overhead", Json::Num(r.sigma_overhead)),
                ])
            })
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// Matrix bodies
// ---------------------------------------------------------------------------

fn matrix_robustness_body(p: &Params, seed: u64) -> Json {
    let dur = p.duration(60);
    let onset = dur / 3;
    let m = experiments::robustness_matrix(dur, onset, seed);
    Json::obj([
        ("onset_secs", Json::U64(m.onset_secs)),
        ("duration_secs", Json::U64(m.duration_secs)),
        ("fair_share_bps", Json::Num(m.fair_share_bps)),
        (
            "defenses",
            Json::Arr(
                m.defenses
                    .iter()
                    .map(|d| Json::Str(d.to_string()))
                    .collect(),
            ),
        ),
        (
            "strategies",
            Json::Arr(
                m.strategies
                    .iter()
                    .map(|s| Json::Str(s.to_string()))
                    .collect(),
            ),
        ),
        (
            "cells",
            Json::Arr(
                m.cells
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("defense", Json::Str(c.defense.to_string())),
                            ("strategy", Json::Str(c.strategy.to_string())),
                            ("attacker_bps", Json::Num(c.attacker_bps)),
                            ("honest_bps", Json::Num(c.honest_bps)),
                            ("tcp_bps", Json::Num(c.tcp_bps)),
                            ("baseline_honest_bps", Json::Num(c.baseline_honest_bps)),
                            ("honest_loss_pct", Json::Num(c.damage.honest_loss_pct)),
                            (
                                "attacker_excess_pct",
                                Json::Num(c.damage.attacker_excess_pct),
                            ),
                            (
                                "time_to_lockout_secs",
                                c.damage
                                    .time_to_lockout_secs
                                    .map(Json::Num)
                                    .unwrap_or(Json::Null),
                            ),
                            ("rejected_keys", Json::U64(c.rejected_keys)),
                            ("raw_igmp_blocked", Json::U64(c.raw_igmp_blocked)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn churn_robustness_body(p: &Params, seed: u64) -> Json {
    let dur = p.duration(60);
    let onset = dur / 3;
    // `--set churn_rate=R` pins the sweep to one point; `--set
    // flash_factor=F` rescales the flash crowd (which rides the top
    // point of a multi-point sweep only).
    let rates: Vec<f64> = match p.churn_rate {
        Some(r) => vec![r],
        None => experiments::CHURN_RATES.to_vec(),
    };
    let flash_factor = p.flash_factor.unwrap_or(experiments::CHURN_FLASH_FACTOR);
    let m = experiments::churn_robustness(dur, onset, seed, &rates, flash_factor);
    Json::obj([
        ("onset_secs", Json::U64(m.onset_secs)),
        ("duration_secs", Json::U64(m.duration_secs)),
        ("mean_dwell_secs", Json::U64(m.mean_dwell_secs)),
        ("flash_factor", Json::Num(m.flash_factor)),
        (
            "defenses",
            Json::Arr(
                m.defenses
                    .iter()
                    .map(|d| Json::Str(d.to_string()))
                    .collect(),
            ),
        ),
        (
            "churn_rates",
            Json::Arr(m.churn_rates.iter().map(|&r| Json::Num(r)).collect()),
        ),
        (
            "cells",
            Json::Arr(
                m.cells
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("defense", Json::Str(c.defense.to_string())),
                            ("churn_rate", Json::Num(c.churn_rate)),
                            ("flash", Json::Bool(c.flash)),
                            ("churn_receivers", Json::U64(c.churn_receivers)),
                            ("attacker_bps", Json::Num(c.attacker_bps)),
                            ("honest_bps", Json::Num(c.honest_bps)),
                            ("baseline_honest_bps", Json::Num(c.baseline_honest_bps)),
                            ("honest_loss_pct", Json::Num(c.damage.honest_loss_pct)),
                            (
                                "attacker_excess_pct",
                                Json::Num(c.damage.attacker_excess_pct),
                            ),
                            (
                                "time_to_lockout_secs",
                                c.damage
                                    .time_to_lockout_secs
                                    .map(Json::Num)
                                    .unwrap_or(Json::Null),
                            ),
                            ("rejected_keys", Json::U64(c.rejected_keys)),
                            ("guard_false_positives", Json::U64(c.guard_false_positives)),
                            ("tuples_installed", Json::U64(c.tuples_installed)),
                            ("session_joins", Json::U64(c.session_joins)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Topology bodies
// ---------------------------------------------------------------------------

fn tree_placement_body(p: &Params, seed: u64) -> Json {
    let (depth, fanout) = if p.quick { (2, 2) } else { (3, 2) };
    let dur = p.duration(60);
    let onset = dur / 3;
    let r = experiments::tree_placement(depth, fanout, dur, onset, seed);
    Json::obj([
        ("depth", Json::U64(r.depth as u64)),
        ("fanout", Json::U64(r.fanout as u64)),
        ("onset_secs", Json::U64(r.onset_secs)),
        ("duration_secs", Json::U64(r.duration_secs)),
        (
            "rows",
            Json::Arr(
                r.rows
                    .iter()
                    .map(|row| {
                        Json::obj([
                            ("defense", Json::Str(row.defense.to_string())),
                            ("attacker_depth", Json::U64(row.attacker_depth as u64)),
                            ("attacker_bps", Json::Num(row.attacker_bps)),
                            (
                                "attacker_baseline_bps",
                                Json::Num(row.attacker_baseline_bps),
                            ),
                            ("honest_mean_bps", Json::Num(row.honest_mean_bps)),
                            ("baseline_mean_bps", Json::Num(row.baseline_mean_bps)),
                            ("honest_loss_pct", Json::Num(row.honest_loss_pct)),
                            ("subtree_loss_pct", Json::Num(row.subtree_loss_pct)),
                            ("outside_loss_pct", Json::Num(row.outside_loss_pct)),
                            ("rejected_keys", Json::U64(row.rejected_keys)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn parking_lot_body(p: &Params, seed: u64) -> Json {
    let bottlenecks = if p.quick { 2 } else { 3 };
    let dur = p.duration(60);
    let onset = dur / 3;
    let r = experiments::parking_lot_fairness(bottlenecks, 100_000, dur, onset, seed);
    Json::obj([
        ("bottlenecks", Json::U64(r.bottlenecks as u64)),
        ("per_hop_cbr_bps", Json::U64(r.per_hop_cbr_bps)),
        ("onset_secs", Json::U64(r.onset_secs)),
        ("duration_secs", Json::U64(r.duration_secs)),
        (
            "variants",
            Json::Arr(
                r.variants
                    .iter()
                    .map(|v| {
                        Json::obj([
                            ("variant", Json::Str(v.variant.to_string())),
                            ("attacker_bps", Json::Num(v.attacker_bps)),
                            ("attacker_baseline_bps", Json::Num(v.attacker_baseline_bps)),
                            (
                                "hops",
                                Json::Arr(
                                    v.hops
                                        .iter()
                                        .map(|h| {
                                            Json::obj([
                                                ("hop", Json::U64(h.hop as u64)),
                                                ("honest_bps", Json::Num(h.honest_bps)),
                                                ("baseline_bps", Json::Num(h.baseline_bps)),
                                                ("honest_loss_pct", Json::Num(h.honest_loss_pct)),
                                                ("cbr_bps", Json::Num(h.cbr_bps)),
                                                ("cbr_baseline_bps", Json::Num(h.cbr_baseline_bps)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// Every registered experiment: the twelve §5 figures in suite order,
/// then the three ablations, the two robustness matrices and the two
/// topology experiments. Every payload is byte-reproducible from its seed
/// — nothing registered here reads a clock (speed and memory are measured
/// by the standalone `benchmark/` package).
pub static REGISTRY: &[ExperimentDef] = &[
    ExperimentDef {
        id: "fig01_attack",
        figure: "Figure 1",
        describe: "impact of inflated subscription (FLID-DL)",
        kind: Kind::Figure,
        seed: 1,
        body: |p, s| attack_body(Variant::FlidDl, p, s),
    },
    ExperimentDef {
        id: "fig07_protection",
        figure: "Figure 7",
        describe: "protection with DELTA and SIGMA (FLID-DS)",
        kind: Kind::Figure,
        seed: 1,
        body: |p, s| attack_body(Variant::FlidDs, p, s),
    },
    ExperimentDef {
        id: "fig08a_dl_throughput",
        figure: "Figure 8a",
        describe: "FLID-DL throughput vs sessions, no cross traffic",
        kind: Kind::Figure,
        seed: 8,
        body: |p, s| sessions_body(Variant::FlidDl, false, p, s),
    },
    ExperimentDef {
        id: "fig08b_ds_throughput",
        figure: "Figure 8b",
        describe: "FLID-DS throughput vs sessions, no cross traffic",
        kind: Kind::Figure,
        seed: 8,
        body: |p, s| sessions_body(Variant::FlidDs, false, p, s),
    },
    ExperimentDef {
        id: "fig08c_avg_no_cross",
        figure: "Figure 8c",
        describe: "average throughput, DL vs DS, no cross traffic",
        kind: Kind::Figure,
        seed: 8,
        body: |p, s| sessions_pair_body(false, p, s),
    },
    ExperimentDef {
        id: "fig08d_avg_cross",
        figure: "Figure 8d",
        describe: "average throughput with TCP + on-off CBR cross traffic",
        kind: Kind::Figure,
        seed: 8,
        body: |p, s| sessions_pair_body(true, p, s),
    },
    ExperimentDef {
        id: "fig08e_responsiveness",
        figure: "Figure 8e",
        describe: "responsiveness to an 800 Kbps CBR burst",
        kind: Kind::Figure,
        seed: 3,
        body: responsiveness_body,
    },
    ExperimentDef {
        id: "fig08f_rtt",
        figure: "Figure 8f",
        describe: "throughput under heterogeneous round-trip times",
        kind: Kind::Figure,
        seed: 13,
        body: rtt_body,
    },
    ExperimentDef {
        id: "fig08g_convergence_dl",
        figure: "Figure 8g",
        describe: "subscription convergence of staggered joiners (FLID-DL)",
        kind: Kind::Figure,
        seed: 11,
        body: |p, s| convergence_body(Variant::FlidDl, p, s),
    },
    ExperimentDef {
        id: "fig08h_convergence_ds",
        figure: "Figure 8h",
        describe: "subscription convergence of staggered joiners (FLID-DS)",
        kind: Kind::Figure,
        seed: 11,
        body: |p, s| convergence_body(Variant::FlidDs, p, s),
    },
    ExperimentDef {
        id: "fig09a_overhead_groups",
        figure: "Figure 9a",
        describe: "DELTA/SIGMA overhead vs group count",
        kind: Kind::Figure,
        seed: 5,
        body: overhead_groups_body,
    },
    ExperimentDef {
        id: "fig09b_overhead_slot",
        figure: "Figure 9b",
        describe: "DELTA/SIGMA overhead vs slot duration",
        kind: Kind::Figure,
        seed: 5,
        body: overhead_slot_body,
    },
    ExperimentDef {
        id: "ablation_sharing",
        figure: "",
        describe: "component sharing vs naive per-key layout (§3.1.1)",
        kind: Kind::Ablation,
        seed: 0,
        body: ablation_sharing_body,
    },
    ExperimentDef {
        id: "ablation_fec",
        figure: "",
        describe: "FEC repetition factor vs router slot-miss rate",
        kind: Kind::Ablation,
        seed: 9,
        body: ablation_fec_body,
    },
    ExperimentDef {
        id: "ablation_slot",
        figure: "",
        describe: "slot duration: responsiveness vs SIGMA overhead",
        kind: Kind::Ablation,
        seed: 4,
        body: ablation_slot_body,
    },
    ExperimentDef {
        id: "matrix_robustness",
        figure: "",
        describe: "adversary strategies x defense variants: damage + containment",
        kind: Kind::Matrix,
        seed: 17,
        body: matrix_robustness_body,
    },
    ExperimentDef {
        id: "churn_robustness",
        figure: "",
        describe: "defense variants under membership churn and flash crowds",
        kind: Kind::Matrix,
        seed: 29,
        body: churn_robustness_body,
    },
    ExperimentDef {
        id: "tree_placement",
        figure: "",
        describe: "honest damage vs attacker depth on a balanced multicast tree",
        kind: Kind::Topology,
        seed: 21,
        body: tree_placement_body,
    },
    ExperimentDef {
        id: "parking_lot_fairness",
        figure: "",
        describe: "per-hop goodput shares on chained bottlenecks under InflateTo",
        kind: Kind::Topology,
        seed: 23,
        body: parking_lot_body,
    },
];

/// The figure entries, in suite order.
pub fn figures() -> Vec<ExperimentDef> {
    REGISTRY
        .iter()
        .filter(|d| d.kind == Kind::Figure)
        .copied()
        .collect()
}

/// The ablation entries.
pub fn ablations() -> Vec<ExperimentDef> {
    REGISTRY
        .iter()
        .filter(|d| d.kind == Kind::Ablation)
        .copied()
        .collect()
}

/// The robustness-matrix entries.
pub fn matrices() -> Vec<ExperimentDef> {
    REGISTRY
        .iter()
        .filter(|d| d.kind == Kind::Matrix)
        .copied()
        .collect()
}

/// The non-dumbbell topology entries.
pub fn topologies() -> Vec<ExperimentDef> {
    REGISTRY
        .iter()
        .filter(|d| d.kind == Kind::Topology)
        .copied()
        .collect()
}

/// Look an experiment up by exact id.
pub fn find(id: &str) -> Option<ExperimentDef> {
    REGISTRY.iter().find(|d| d.id == id).copied()
}

/// Registry entries matching a CLI selector: an exact id
/// (`fig08a_dl_throughput`) or a figure-style prefix (`fig08a`, matching
/// `<prefix>_…`).
pub fn matching(selector: &str) -> Vec<ExperimentDef> {
    REGISTRY
        .iter()
        .filter(|d| {
            d.id == selector
                || (d.id.starts_with(selector) && d.id[selector.len()..].starts_with('_'))
        })
        .copied()
        .collect()
}

/// Runner specs for a set of entries under `params`: the bridge between
/// the registry and `runner::{run_serial, run_parallel}`. Spec names are
/// registry ids (optionally suffixed by the caller for sweeps), seeds are
/// the effective `params` seeds, and bodies run the registered
/// experiment — so registry runs serialize exactly like the historical
/// hand-built suite.
pub fn specs(defs: &[ExperimentDef], params: &Params) -> Vec<ExperimentSpec> {
    defs.iter()
        .map(|d| {
            let def = *d;
            let p = params.clone();
            ExperimentSpec::new(def.id, params.seed_for(def.seed), move |seed| {
                (def.body)(&p, seed)
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_enumerates_figures_ablations_and_matrices() {
        assert_eq!(
            REGISTRY.len(),
            19,
            "12 figures + 3 ablations + 2 matrices + 2 topologies"
        );
        assert_eq!(figures().len(), 12);
        assert_eq!(ablations().len(), 3);
        assert_eq!(matrices().len(), 2);
        assert_eq!(topologies().len(), 2);
        let mut ids: Vec<&str> = REGISTRY.iter().map(|d| d.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), REGISTRY.len(), "ids must be unique");
    }

    #[test]
    fn matrix_entry_is_selectable_but_not_a_default_figure() {
        let def = find("matrix_robustness").expect("registered");
        assert_eq!(def.kind(), Kind::Matrix);
        assert!(figures().iter().all(|d| d.id() != "matrix_robustness"));
        assert_eq!(matching("matrix").len(), 1, "prefix selector works");
    }

    #[test]
    fn topology_entries_are_selectable_but_not_default_figures() {
        for id in ["tree_placement", "parking_lot_fairness"] {
            let def = find(id).expect("registered");
            assert_eq!(def.kind(), Kind::Topology);
            assert!(figures().iter().all(|d| d.id() != id));
        }
        assert_eq!(matching("tree").len(), 1, "prefix selector works");
        assert_eq!(matching("parking_lot").len(), 1);
    }

    #[test]
    fn selectors_match_exact_ids_and_figure_prefixes() {
        assert_eq!(matching("fig01").len(), 1);
        assert_eq!(matching("fig01")[0].id, "fig01_attack");
        assert_eq!(matching("fig08a_dl_throughput").len(), 1);
        assert_eq!(matching("fig08a")[0].id, "fig08a_dl_throughput");
        assert!(matching("fig08").is_empty(), "no underscore boundary");
        assert!(matching("nope").is_empty());
    }

    #[test]
    fn seed_override_flows_into_outputs() {
        let def = find("ablation_sharing").expect("registered");
        assert_eq!(specs(&[def], &Params::default())[0].seed, 0);
        let p = Params::default().with_override("seed", "77").unwrap();
        assert_eq!(specs(&[def], &p)[0].seed, 77);
    }

    /// The analytic ablation is cheap enough to run in tests and pins the
    /// §3.1.1 claim: sharing beats the naive layout at every group count.
    #[test]
    fn sharing_ablation_reports_the_telescope_win() {
        let def = find("ablation_sharing").unwrap();
        let Json::Arr(rows) = (def.body)(&Params::default(), def.seed) else {
            panic!("array payload")
        };
        assert_eq!(rows.len(), 4);
        for row in rows {
            let Json::Obj(fields) = row else {
                panic!("object rows")
            };
            let get = |k: &str| -> f64 {
                match fields.iter().find(|(key, _)| key == k) {
                    Some((_, Json::Num(x))) => *x,
                    other => panic!("missing {k}: {other:?}"),
                }
            };
            assert!(get("naive") > get("shared"), "sharing must win");
        }
    }
}
