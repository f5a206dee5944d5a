//! # mcc-bench — the `figures` CLI and the `trace` summarizer
//!
//! The experiment surface is registry-driven (`mcc_core::registry`): one
//! [`cli`] front end enumerates and runs every registered experiment — the
//! twelve paper figures, three design-choice ablations, two robustness
//! matrices and two topology experiments — each byte-reproducible from its
//! seed. [`trace`] summarizes the JSONL sinks `--trace` writes.
//!
//! ```text
//! cargo run --release -p mcc-bench --bin figures -- --list
//! cargo run --release -p mcc-bench --bin figures -- --quick
//! cargo run --release -p mcc-bench --bin figures -- --only fig07,fig08a
//! cargo run --release -p mcc-bench --bin figures -- --only ablations
//! cargo run --release -p mcc-bench --bin figures -- --sweep seed=1,2,3
//! ```
//!
//! The flagless run writes `results/BENCH_all_figures.json`.
//!
//! Nothing here reads a clock for a result: speed and memory are measured
//! by the standalone `benchmark/` package (see `benchmark/README.md`).

pub mod cli;
pub mod trace;
