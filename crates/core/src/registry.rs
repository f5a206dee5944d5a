//! The experiment registry: every figure and ablation of the evaluation
//! as a registered, enumerable object.
//!
//! Each entry implements [`Experiment`] — an `id`, the paper figure it
//! reproduces, a one-line description and a registered seed — and carries
//! a `fn` body that maps the parameter bag to canonical JSON; [`specs`] is
//! the one way to run it, copying each row into a plain-data
//! [`ExperimentSpec`]. [`REGISTRY`] is the single source of truth consumed
//! by the `figures` CLI in `mcc-bench`, the repo benchmark and the
//! registry tests; adding a scenario is one [`ExperimentDef`] row here
//! instead of a new binary.
//!
//! What an experiment reports is declared with its result type in
//! [`crate::experiments`] (`record!` renders a struct's fields, in order,
//! under their own names); a body here only picks the quick/full
//! parameters. Every payload is pinned byte for byte by
//! `tests/golden/<id>_quick.json` (`tests/registry.rs`).

use crate::config::Params;
use crate::experiments;
use crate::runner::{memo, ExperimentSpec, Json, ToJson};
use crate::scenario::Variant;
use crate::workload::MAX_ARRIVALS;

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

impl Kind {
    /// Every kind, in registry order.
    pub const ALL: [Kind; 4] = [Kind::Figure, Kind::Ablation, Kind::Matrix, Kind::Topology];

    /// The kind's group name: its `figures --only` selector and its
    /// heading in `--list`.
    pub fn group(self) -> &'static str {
        match self {
            Kind::Figure => "figures",
            Kind::Ablation => "ablations",
            Kind::Matrix => "matrices",
            Kind::Topology => "topologies",
        }
    }

    /// What one entry of this kind is called — `--list` shows it in the
    /// figure column of entries that reproduce no paper figure.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Figure => "figure",
            Kind::Ablation => "ablation",
            Kind::Matrix => "matrix",
            Kind::Topology => "topology",
        }
    }
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
// Figure bodies
// ---------------------------------------------------------------------------

fn attack_body(variant: Variant, p: &Params, seed: u64) -> Json {
    let dur = p.duration(200);
    experiments::attack_experiment(variant, dur, dur / 2, seed).to_json()
}

/// One session-count sweep, computed once per runner call: Figure 8c is
/// Figures 8a and 8b side by side at their seed, so a suite run reads
/// both sweeps back from the memo (DESIGN.md "One computation per run").
fn sessions_body(variant: Variant, cross: bool, p: &Params, seed: u64) -> Json {
    let (counts, dur) = (p.session_counts(), p.duration(200));
    let key = format!("sessions {variant:?} cross={cross} n={counts:?} dur={dur} seed={seed}");
    memo(key, || {
        experiments::throughput_vs_sessions(variant, &counts, cross, dur, seed).to_json()
    })
}

/// The same experiment once per variant, under the keys of Figures 8c,
/// 8d and 8f.
fn dl_ds_pair(body: impl Fn(Variant) -> Json) -> Json {
    Json::obj([
        ("flid_dl", body(Variant::FlidDl)),
        ("flid_ds", body(Variant::FlidDs)),
    ])
}

fn responsiveness_body(p: &Params, seed: u64) -> Json {
    let dur = p.duration(100);
    let (from, to) = (dur * 45 / 100, dur * 75 / 100);
    let series: Vec<_> = Variant::BOTH
        .iter()
        .map(|&v| experiments::responsiveness(v, dur, from, to, seed))
        .collect();
    Json::obj([
        ("burst_secs", vec![from, to].to_json()),
        ("series", series.to_json()),
    ])
}

fn convergence_body(variant: Variant, p: &Params, seed: u64) -> Json {
    let dur = p.duration(40).max(40);
    experiments::convergence(variant, dur, seed).to_json()
}

fn overhead_groups_body(p: &Params, seed: u64) -> Json {
    let ns: Vec<u32> = (1..=10).map(|i| 2 * i).collect();
    experiments::overhead_vs_groups(&ns, p.duration(60), seed).to_json()
}

fn overhead_slot_body(p: &Params, seed: u64) -> Json {
    let slots = [200u64, 300, 400, 500, 600, 700, 800, 900, 1000];
    experiments::overhead_vs_slot(&slots, p.duration(60), seed).to_json()
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
    experiments::fec_ablation(&[1, 2, 3], &[0.1, 0.3, 0.5], slots, seed).to_json()
}

fn ablation_slot_body(p: &Params, seed: u64) -> Json {
    let slots: &[u64] = if p.quick {
        &[250, 1000]
    } else {
        &[125, 250, 500, 1000]
    };
    experiments::slot_ablation(slots, seed).to_json()
}

// ---------------------------------------------------------------------------
// Matrix and topology bodies: 60 s runs, attack onset a third of the way in
// ---------------------------------------------------------------------------

fn matrix_robustness_body(p: &Params, seed: u64) -> Json {
    let dur = p.duration(60);
    experiments::robustness_matrix(dur, dur / 3, seed).to_json()
}

/// The duration, rate points and flash-crowd factor `churn_robustness`
/// runs under `p`: `--sweep churn_rate=R` pins the sweep to one point;
/// `--sweep flash_factor=F` rescales the flash crowd (which rides the top
/// point of a multi-point sweep only).
fn churn_axes(p: &Params) -> (u64, Vec<f64>, f64) {
    let rates = match p.churn_rate {
        Some(r) => vec![r],
        None => experiments::CHURN_RATES.to_vec(),
    };
    let flash_factor = p.flash_factor.unwrap_or(experiments::CHURN_FLASH_FACTOR);
    (p.duration(60), rates, flash_factor)
}

fn churn_robustness_body(p: &Params, seed: u64) -> Json {
    let (dur, rates, flash_factor) = churn_axes(p);
    experiments::churn_robustness(dur, dur / 3, seed, &rates, flash_factor).to_json()
}

fn tree_placement_body(p: &Params, seed: u64) -> Json {
    let (depth, fanout) = if p.quick { (2, 2) } else { (3, 2) };
    let dur = p.duration(60);
    experiments::tree_placement(depth, fanout, dur, dur / 3, seed).to_json()
}

fn parking_lot_body(p: &Params, seed: u64) -> Json {
    let bottlenecks = if p.quick { 2 } else { 3 };
    let dur = p.duration(60);
    experiments::parking_lot_fairness(bottlenecks, 100_000, dur, dur / 3, seed).to_json()
}

/// Check the composed `params` — every override applied, since quick mode
/// halves the run a `churn_rate` is multiplied by — against what the
/// workload-driven experiments will ask of the workload engine, so an
/// oversized `churn_rate` / `flash_factor` is an error before anything
/// runs instead of a panic in `WorkloadSpec::apply`. Expected arrivals may
/// use nine tenths of the cap: at 90,000 the Poisson tail would need a
/// 33-sigma excursion to reach the engine's assert.
pub fn check_params(params: &Params) -> Result<(), String> {
    let (key, value) = match (params.churn_rate, params.flash_factor) {
        // A pinned rate is a one-point sweep, which no flash crowd rides.
        (Some(rate), _) => ("churn_rate", rate),
        (None, Some(factor)) => ("flash_factor", factor),
        (None, None) => return Ok(()),
    };
    let (dur, rates, flash_factor) = churn_axes(params);
    let arrivals = experiments::churn_peak_arrivals(dur, &rates, flash_factor);
    let fits = MAX_ARRIVALS as f64 * 0.9;
    if arrivals > fits {
        return Err(format!(
            "{key} {value}: about {arrivals:.0} workload arrivals in a {dur} s run, over the \
             {fits:.0} that safely fit the {MAX_ARRIVALS}-arrival workload cap"
        ));
    }
    Ok(())
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
        body: |p, s| dl_ds_pair(|v| sessions_body(v, false, p, s)),
    },
    ExperimentDef {
        id: "fig08d_avg_cross",
        figure: "Figure 8d",
        describe: "average throughput with TCP + on-off CBR cross traffic",
        kind: Kind::Figure,
        seed: 8,
        body: |p, s| dl_ds_pair(|v| sessions_body(v, true, p, s)),
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
        body: |p, s| dl_ds_pair(|v| experiments::rtt_experiment(v, p.duration(200), s).to_json()),
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

/// The entries of one kind, in registry order.
pub fn of_kind(kind: Kind) -> Vec<ExperimentDef> {
    REGISTRY
        .iter()
        .filter(|d| d.kind == kind)
        .copied()
        .collect()
}

/// The figure entries, in suite order.
pub fn figures() -> Vec<ExperimentDef> {
    of_kind(Kind::Figure)
}

/// The ablation entries.
pub fn ablations() -> Vec<ExperimentDef> {
    of_kind(Kind::Ablation)
}

/// The robustness-matrix entries.
pub fn matrices() -> Vec<ExperimentDef> {
    of_kind(Kind::Matrix)
}

/// The non-dumbbell topology entries.
pub fn topologies() -> Vec<ExperimentDef> {
    of_kind(Kind::Topology)
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
/// the registry and `runner::{run_serial, run_parallel}`. Each spec borrows
/// its registry id as its name (a sweep assigns an owned `id@key=value`),
/// runs at the effective `params` seed and carries the row's body, so
/// registry runs serialize exactly like the historical hand-built suite.
pub fn specs(defs: &[ExperimentDef], params: &Params) -> Vec<ExperimentSpec> {
    defs.iter()
        .map(|d| ExperimentSpec {
            name: d.id.into(),
            seed: params.seed_for(d.seed),
            params: params.clone(),
            body: d.body,
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

    /// A sweep value the composed run cannot fit under the arrival cap is
    /// refused before anything runs, naming the key, the value and the cap;
    /// `with_override` only parses it.
    #[test]
    fn check_params_refuses_values_over_the_arrival_cap() {
        let p = Params::default();
        for (key, bad) in [("churn_rate", "100000"), ("flash_factor", "1000000")] {
            let err = check_params(&p.with_override(key, bad).unwrap()).unwrap_err();
            assert!(
                err.contains(key) && err.contains(bad) && err.contains("100000-arrival"),
                "{err}"
            );
        }
        for (key, fits) in [("churn_rate", "1"), ("flash_factor", "100")] {
            assert!(check_params(&p.with_override(key, fits).unwrap()).is_ok());
        }
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
