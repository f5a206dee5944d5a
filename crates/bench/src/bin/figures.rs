//! The one figure CLI: every registered experiment (12 figures, 3
//! ablations, 2 matrices, 2 topologies) behind `--list` / `--only` /
//! `--quick` / `--threads` / `--out` / `--sweep`. See `mcc_bench::cli` for the flag reference.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    mcc_bench::cli::main_with_args(&args);
}
