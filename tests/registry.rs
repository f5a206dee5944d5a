//! The experiment registry's contract, exercised through the umbrella
//! crate: every registered experiment's quick-mode payload reproduces
//! its golden file byte for byte. (`DESIGN.md`'s experiment index is
//! checked against `figures --list` in `mcc-bench`'s `cli` tests.)

use robust_multicast::core::registry;
use robust_multicast::core::runner::run_serial;
use robust_multicast::core::Params;

/// Compare one experiment's quick-mode serial JSON against its golden
/// file, regenerating the pin when `MCC_BLESS` is set.
fn assert_quick_json_pinned(id: &str) {
    let params = Params::quick(true);
    let def = registry::find(id).expect("registered");
    let specs = registry::specs(&[def], &params);
    let got = run_serial("pin", "quick", &specs).to_json_string();
    let golden_path = format!(
        "{}/tests/golden/{id}_quick.json",
        env!("CARGO_MANIFEST_DIR")
    );
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

/// Byte pin of the robustness matrix: the quick-mode JSON of
/// `matrix_robustness` (every cell's damage and containment numbers) must
/// not drift across refactors — the simulator rework that introduced
/// zero-copy fan-out and the flat-state hot path was verified against
/// exactly these bytes. Regenerate deliberately with `MCC_BLESS=1 cargo
/// test --test registry matrix_robustness_quick`.
#[test]
fn matrix_robustness_quick_json_is_byte_pinned() {
    assert_quick_json_pinned("matrix_robustness");
}

/// Byte pin of the churn sweep: the quick-mode JSON of
/// `churn_robustness` (every defense × churn-rate cell, including the
/// flash-crowd point) must not drift — it is the headline evidence that
/// the workload engine's membership dynamics are deterministic.
/// Regenerate deliberately with `MCC_BLESS=1 cargo test --test registry
/// churn_robustness_quick`.
#[test]
fn churn_robustness_quick_json_is_byte_pinned() {
    assert_quick_json_pinned("churn_robustness");
}

/// Byte pins of the topology experiments: the quick-mode JSON of the
/// balanced-tree placement sweep and the parking-lot fairness breakdown.
/// These cover the generic `mcc_core::topology` builder the same way the
/// matrix pin covers the dumbbell path. Regenerate deliberately with
/// `MCC_BLESS=1 cargo test --test registry quick_json_is_byte_pinned`.
#[test]
fn tree_placement_quick_json_is_byte_pinned() {
    assert_quick_json_pinned("tree_placement");
}

#[test]
fn parking_lot_fairness_quick_json_is_byte_pinned() {
    assert_quick_json_pinned("parking_lot_fairness");
}

/// Byte pins of the cheap figure and ablation payloads (under a second of
/// release-mode simulation together): generated on the code that still
/// hand-wrote every encoder, so the row types that now render themselves
/// reproduce those bytes. Regenerate deliberately with `MCC_BLESS=1 cargo
/// test --test registry figures_and_ablations_quick`.
#[test]
fn figures_and_ablations_quick_json_is_byte_pinned() {
    for id in [
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
    ] {
        assert_quick_json_pinned(id);
    }
}

/// Pins that need an optimised build; CI runs them with `cargo test
/// --release --test registry -- --ignored`. The four session-count sweeps
/// take a minute unoptimised. `ablation_sharing` is analytic and instant,
/// but its `naive` column at N = 5 differs in the last digit between
/// optimised and unoptimised builds (LLVM folds `powi` over the constant
/// group counts at compile time), and the pin holds the bytes the release
/// `figures` binary writes.
#[test]
#[ignore = "needs --release: a minute unoptimised, and ablation_sharing's last digit is build-profile dependent"]
fn release_only_quick_json_is_byte_pinned() {
    for id in [
        "fig08a_dl_throughput",
        "fig08b_ds_throughput",
        "fig08c_avg_no_cross",
        "fig08d_avg_cross",
        "ablation_sharing",
    ] {
        assert_quick_json_pinned(id);
    }
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
