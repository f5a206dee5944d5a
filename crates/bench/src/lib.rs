//! # mcc-bench — the `figures` CLI and micro-benchmarks
//!
//! The experiment surface is registry-driven (`mcc_core::registry`): one
//! [`cli`] front end enumerates and runs all twelve paper figures and the
//! three design-choice ablations.
//!
//! ```text
//! cargo run --release -p mcc-bench --bin figures -- --list
//! MCC_QUICK=1 cargo run --release -p mcc-bench --bin figures
//! cargo run --release -p mcc-bench --bin figures -- --only fig07,fig08a
//! cargo run --release -p mcc-bench --bin figures -- --only ablations
//! cargo run --release -p mcc-bench --bin figures -- --sweep seed=1,2,3
//! ```
//!
//! The flagless run writes `results/BENCH_all_figures.json`. The
//! per-figure binaries (`fig01_attack` … `fig09b_overhead_slot`,
//! `ablations`) are gone — `figures --only <id>` replaces them; see
//! `DESIGN.md` for the deprecation table.
//!
//! Criterion benches (`cargo bench`) cover the mechanism costs the paper
//! argues are negligible: key precomputation and reconstruction, Shamir
//! share generation/interpolation, SIGMA validation and filtering, FEC
//! encoding, and raw simulator event throughput.

use std::path::PathBuf;

use mcc_core::RunConfig;

pub mod cli;
pub mod perf_log;
pub mod trace;

/// Where reports and CSVs land (`MCC_OUT`, else `results`), created on
/// first use.
pub fn out_dir() -> PathBuf {
    let p = RunConfig::from_env().out_dir;
    std::fs::create_dir_all(&p).expect("create results dir");
    p
}

/// Whether shortened runs were requested. Delegates to
/// [`RunConfig::from_env`] — the single `MCC_QUICK` reader.
pub fn quick_mode() -> bool {
    RunConfig::from_env().quick
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_handling_is_centralized() {
        // The bench helpers and the core RunConfig must agree — they are
        // the same parse.
        let cfg = RunConfig::from_env();
        assert_eq!(quick_mode(), cfg.quick);
        assert_eq!(out_dir(), cfg.out_dir);
    }
}
