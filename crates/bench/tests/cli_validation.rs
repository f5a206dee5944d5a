//! `--sweep` bounds validation of the `figures` binary: a `churn_rate` /
//! `flash_factor` that cannot fit the workload arrival cap exits with
//! status 1 and one line naming the key, the value and the cap — before
//! any experiment runs, and never as a panic.

use std::process::Command;

fn sweep(value: &str) -> std::process::Output {
    sweep_in_mode(value, true)
}

/// Without `--quick` the sweep runs at its full 60 s length.
fn sweep_in_mode(value: &str, quick: bool) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_figures"));
    cmd.args(["--only", "churn_robustness", "--sweep", value])
        .arg("--out")
        .arg(std::env::temp_dir().join("mcc_cli_validation"));
    if quick {
        cmd.arg("--quick");
    }
    cmd.output().expect("spawn figures")
}

fn assert_rejected(key: &str, value: &str) {
    assert_rejected_in_mode(key, value, true);
}

fn assert_rejected_in_mode(key: &str, value: &str, quick: bool) {
    let out = sweep_in_mode(&format!("{key}={value}"), quick);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains(key) && err.contains(value) && err.contains("100000-arrival"),
        "stderr names the key, the value and the cap: {err}"
    );
    assert!(
        !err.contains("panicked"),
        "a typed error, not a panic: {err}"
    );
    assert_eq!(err.lines().count(), 1, "one line: {err}");
    assert!(out.stdout.is_empty(), "rejected before any experiment ran");
}

#[test]
fn figures_rejects_a_churn_rate_over_the_arrival_cap() {
    assert_rejected("churn_rate", "100000");
}

#[test]
fn figures_rejects_a_flash_factor_over_the_arrival_cap() {
    assert_rejected("flash_factor", "1000000");
}

/// 2000/s fits a 30 s quick run but not the 60 s full-length one: the
/// bound is checked against the run the composed parameters really make.
#[test]
fn figures_rejects_a_churn_rate_over_the_cap_at_full_length() {
    assert_rejected_in_mode("churn_rate", "2000", false);
}

/// The crowd multiplies the churn runs' standing population of two.
#[test]
fn figures_rejects_a_flash_factor_over_the_cap_for_two_standing_receivers() {
    assert_rejected("flash_factor", "60000");
}

#[test]
fn figures_still_runs_an_in_range_churn_rate() {
    let out = sweep("churn_rate=1");
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("churn_robustness@churn_rate=1"));
}
