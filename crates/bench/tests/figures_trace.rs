//! End-to-end contract of `figures --trace`, exercised through the real
//! binary: the canonical trace files written by independent processes
//! under different `MCC_THREADS` splits are byte-identical, and the CLI
//! front end fails loudly (distinct exit codes) on bad flags.
//!
//! These spawn subprocesses on purpose — the trace config is pinned
//! per-process (`OnceLock`, first set wins), so cross-thread-mode
//! byte-identity can only be demonstrated across process boundaries.

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
        let trace = format!("all:{}", dir.display());
        run_ok(
            figures()
                .args(["--quick", "--only", "fig01", "--trace", &trace])
                .arg("--out")
                .arg(dir)
                .env("MCC_THREADS", mode)
                .env_remove("MCC_TRACE")
                .env_remove("MCC_QUICK"),
        );
        let jsonl = read(dir, "TRACE_fig01_attack.jsonl");
        assert!(!jsonl.is_empty(), "MCC_THREADS={mode}: empty trace");
        let pcap = read(dir, "TRACE_fig01_attack.pcapng");
        // pcapng sanity: SHB magic, then the byte-order magic little-endian.
        assert_eq!(&pcap[0..4], &[0x0a, 0x0d, 0x0d, 0x0a], "MCC_THREADS={mode}");
        assert_eq!(
            &pcap[8..12],
            &[0x4d, 0x3c, 0x2b, 0x1a],
            "MCC_THREADS={mode}"
        );
        // The metrics registry is always written alongside the sinks.
        assert!(
            dir.join("OBS_fig01_attack.json").exists(),
            "MCC_THREADS={mode}: OBS json missing"
        );
        jsonls.push(jsonl);
        pcaps.push(pcap);
    }
    for (i, mode) in modes.iter().enumerate().skip(1) {
        assert_eq!(
            jsonls[0], jsonls[i],
            "TRACE jsonl bytes diverged between MCC_THREADS=1 and MCC_THREADS={mode}"
        );
        assert_eq!(
            pcaps[0], pcaps[i],
            "TRACE pcapng bytes diverged between MCC_THREADS=1 and MCC_THREADS={mode}"
        );
    }
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
