//! The experiment registry's contract, exercised through the umbrella
//! crate: every registered experiment's quick-mode payload reproduces
//! its golden file byte for byte. (`DESIGN.md`'s experiment index is
//! checked against `figures --list` in `mcc-bench`'s `cli` tests.)

use robust_multicast::core::registry;
use robust_multicast::core::runner::{run_serial, Report};
use robust_multicast::core::Params;

fn golden_path(id: &str) -> String {
    format!(
        "{}/tests/golden/{id}_quick.json",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// Run the experiments `ids` in one quick-mode `run_serial`, so they
/// share its memo, and compare each record, as its own one-record
/// `"pin"` report, against its golden file. `MCC_BLESS` regenerates the
/// pins instead.
fn assert_quick_json_pinned(ids: &[&str]) {
    let defs: Vec<_> = ids
        .iter()
        .map(|id| registry::find(id).expect("registered"))
        .collect();
    let report = run_serial(
        "pin",
        "quick",
        &registry::specs(&defs, &Params::quick(true)),
    );
    for record in report.records {
        let id = record.name.clone();
        let golden_path = golden_path(&id);
        let got = Report {
            suite: "pin".into(),
            mode: "quick".into(),
            records: vec![record],
        }
        .to_json_string();
        #[expect(
            clippy::disallowed_methods,
            reason = "test-only switch that rewrites the golden instead of comparing; no simulation reads it"
        )]
        let bless = std::env::var("MCC_BLESS").is_ok();
        if bless {
            std::fs::write(&golden_path, &got).expect("write golden");
        }
        let want = std::fs::read_to_string(&golden_path)
            .expect("golden file missing — regenerate with MCC_BLESS=1");
        assert_eq!(got, want, "{id} quick JSON drifted from the golden pin");
    }
}

/// Byte pin of the robustness matrix: the quick-mode JSON of
/// `matrix_robustness` (every cell's damage and containment numbers) must
/// not drift across refactors — the simulator rework that introduced
/// zero-copy fan-out and the flat-state hot path was verified against
/// exactly these bytes. Regenerate deliberately with `MCC_BLESS=1 cargo
/// test --test registry matrix_robustness_quick`.
#[test]
fn matrix_robustness_quick_json_is_byte_pinned() {
    assert_quick_json_pinned(&["matrix_robustness"]);
}

/// Byte pin of the churn sweep: the quick-mode JSON of
/// `churn_robustness` (every defense × churn-rate cell, including the
/// flash-crowd point) must not drift — it is the headline evidence that
/// the workload engine's membership dynamics are deterministic.
/// Regenerate deliberately with `MCC_BLESS=1 cargo test --test registry
/// churn_robustness_quick`.
#[test]
fn churn_robustness_quick_json_is_byte_pinned() {
    assert_quick_json_pinned(&["churn_robustness"]);
}

/// Byte pins of the topology experiments: the quick-mode JSON of the
/// balanced-tree placement sweep and the parking-lot fairness breakdown.
/// These cover the generic `mcc_core::topology` builder the same way the
/// matrix pin covers the dumbbell path. Regenerate deliberately with
/// `MCC_BLESS=1 cargo test --test registry quick_json_is_byte_pinned`.
#[test]
fn tree_placement_quick_json_is_byte_pinned() {
    assert_quick_json_pinned(&["tree_placement"]);
}

#[test]
fn parking_lot_fairness_quick_json_is_byte_pinned() {
    assert_quick_json_pinned(&["parking_lot_fairness"]);
}

/// Byte pins of the cheap figure and ablation payloads (under a second of
/// release-mode simulation together): generated on the code that still
/// hand-wrote every encoder, so the row types that now render themselves
/// reproduce those bytes. Regenerate deliberately with `MCC_BLESS=1 cargo
/// test --test registry figures_and_ablations_quick`.
#[test]
fn figures_and_ablations_quick_json_is_byte_pinned() {
    assert_quick_json_pinned(&[
        "fig01_attack",
        "fig07_protection",
        "fig08e_responsiveness",
        "fig08f_rtt",
        "fig08g_convergence_dl",
        "fig08h_convergence_ds",
        "fig09a_overhead_groups",
        "fig09b_overhead_slot",
        "ablation_fec",
        "ablation_slot",
    ]);
}

/// The `data` of an experiment's golden: its one record's payload.
fn golden_data(id: &str) -> String {
    let golden = std::fs::read_to_string(golden_path(id)).expect("golden file");
    let head = format!(
        r#"{{"suite":"pin","mode":"quick","experiments":[{{"name":"{id}","seed":8,"data":"#
    );
    golden
        .strip_prefix(&head)
        .and_then(|rest| rest.strip_suffix("}]}"))
        .unwrap_or_else(|| panic!("{id}'s golden is not one seed-8 record"))
        .to_string()
}

/// Figure 8c is Figures 8a and 8b side by side: its pinned payload is
/// `{flid_dl: 8a, flid_ds: 8b}` byte for byte. The runner's memo serves
/// 8c from the 8a and 8b sweeps on exactly this identity; this reads the
/// goldens only, no simulation.
#[test]
fn fig08c_golden_is_the_fig08a_and_fig08b_goldens_side_by_side() {
    let dl = golden_data("fig08a_dl_throughput");
    let ds = golden_data("fig08b_ds_throughput");
    assert_eq!(
        golden_data("fig08c_avg_no_cross"),
        format!(r#"{{"flid_dl":{dl},"flid_ds":{ds}}}"#)
    );
}

/// Pins that need an optimised build; CI runs them with `cargo test
/// --release --test registry -- --ignored`. The session-count sweeps of
/// Figures 8a–d take about 16 s unoptimised on a 2-vCPU box, 2 s
/// optimised. They run in one `run_serial`, so `fig08c_avg_no_cross` is
/// pinned on the memo's hit path: both of its sweeps are read back from
/// 8a and 8b. `ablation_sharing` is analytic and instant, but its `naive` column at N = 5 differs in the last digit between
/// optimised and unoptimised builds (LLVM folds `powi` over the constant
/// group counts at compile time), and the pin holds the bytes the release
/// `figures` binary writes.
#[test]
#[ignore = "needs --release: the 8a-d sweeps are slow unoptimised, and ablation_sharing's last digit is build-profile dependent"]
fn release_only_quick_json_is_byte_pinned() {
    assert_quick_json_pinned(&[
        "fig08a_dl_throughput",
        "fig08b_ds_throughput",
        "fig08c_avg_no_cross",
        "fig08d_avg_cross",
        "ablation_sharing",
    ]);
}

/// A spec carries the effective seed: the registered one, or the
/// `Params` override.
#[test]
fn experiment_outputs_respect_seed_overrides() {
    let def = registry::find("ablation_sharing").expect("registered");
    assert_eq!(registry::specs(&[def], &Params::default())[0].seed, 0);
    let swept = Params::default().with_override("seed", "123").unwrap();
    assert_eq!(registry::specs(&[def], &swept)[0].seed, 123);
}
