//! End-to-end contract of `figures --trace`, exercised through the real
//! binary: the canonical trace files written by independent processes
//! under different `--threads` counts are byte-identical, they land
//! beside the report, and the CLI front end fails loudly (distinct exit
//! codes) on bad flags.
//!
//! These spawn subprocesses on purpose — the trace config is pinned
//! once per process (`OnceLock`), so cross-thread-mode byte-identity can
//! only be demonstrated across process boundaries.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn figures() -> Command {
    Command::new(env!("CARGO_BIN_EXE_figures"))
}

fn run_ok(cmd: &mut Command) -> Output {
    let out = cmd.output().expect("spawn figures");
    assert!(
        out.status.success(),
        "figures failed ({:?}):\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    out
}

/// A per-test scratch directory under the target-adjacent temp root,
/// recreated empty on entry and removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("mcc_figures_trace_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn read(dir: &Path, name: &str) -> Vec<u8> {
    std::fs::read(dir.join(name)).unwrap_or_else(|e| panic!("{}/{name}: {e}", dir.display()))
}

/// The end-to-end guarantee: `figures --quick --only fig01 --trace`
/// writes byte-identical `TRACE_fig01_attack.jsonl` and `.pcapng` files
/// whether the run executed on one thread or on two experiment workers —
/// two separate processes, compared byte for byte.
#[test]
fn trace_files_are_byte_identical_across_thread_modes() {
    let modes = ["1", "2"];
    let mut jsonls: Vec<Vec<u8>> = Vec::new();
    let mut pcaps: Vec<Vec<u8>> = Vec::new();
    for mode in modes {
        let scratch = Scratch::new(&format!("mode{mode}"));
        let dir = scratch.path();
        run_ok(
            figures()
                .args(["--quick", "--only", "fig01", "--trace", "all"])
                .args(["--threads", mode])
                .arg("--out")
                .arg(dir),
        );
        let jsonl = read(dir, "TRACE_fig01_attack.jsonl");
        assert!(!jsonl.is_empty(), "--threads {mode}: empty trace");
        let pcap = read(dir, "TRACE_fig01_attack.pcapng");
        // pcapng sanity: SHB magic, then the byte-order magic little-endian.
        assert_eq!(&pcap[0..4], &[0x0a, 0x0d, 0x0d, 0x0a], "--threads {mode}");
        assert_eq!(&pcap[8..12], &[0x4d, 0x3c, 0x2b, 0x1a], "--threads {mode}");
        // The metrics registry is always written alongside the sinks.
        assert!(
            dir.join("OBS_fig01_attack.json").exists(),
            "--threads {mode}: OBS json missing"
        );
        jsonls.push(jsonl);
        pcaps.push(pcap);
    }
    for (i, mode) in modes.iter().enumerate().skip(1) {
        assert_eq!(
            jsonls[0], jsonls[i],
            "TRACE jsonl bytes diverged between --threads 1 and --threads {mode}"
        );
        assert_eq!(
            pcaps[0], pcaps[i],
            "TRACE pcapng bytes diverged between --threads 1 and --threads {mode}"
        );
    }
}

/// Without a `:DIR`, `--trace` writes beside the report in `--out` —
/// never into the default `results/` of the working directory.
#[test]
fn trace_files_follow_out() {
    let scratch = Scratch::new("follow_out");
    let root = scratch.path();
    run_ok(
        figures()
            .args([
                "--quick", "--only", "fig08e", "--out", "o", "--trace", "jsonl",
            ])
            .current_dir(root),
    );
    let out = root.join("o");
    for name in [
        "BENCH_figures.json",
        "TRACE_fig08e_responsiveness.jsonl",
        "OBS_fig08e_responsiveness.json",
    ] {
        assert!(out.join(name).exists(), "{name} missing from --out");
    }
    assert!(
        !root.join("results").exists(),
        "nothing may land in the default results/"
    );
}

/// Satellite (a): an `--only` token that selects nothing exits non-zero
/// and names the near-matches instead of silently running nothing.
#[test]
fn unknown_only_token_fails_with_suggestions() {
    let out = figures()
        .args(["--only", "fig9"])
        .output()
        .expect("spawn figures");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("did you mean"), "{err}");
    assert!(err.contains("fig09a_overhead_groups"), "{err}");
    assert!(err.contains("--list"), "{err}");
}

/// A malformed `--trace` spec is a usage error: exit 2 before any
/// experiment runs, with the offending spec echoed back.
#[test]
fn bad_trace_spec_is_a_usage_error() {
    let out = figures()
        .args(["--trace", "bogus-format"])
        .output()
        .expect("spawn figures");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--trace"), "{err}");
    assert!(err.contains("bogus-format"), "{err}");
}
