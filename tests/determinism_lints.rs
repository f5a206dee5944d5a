//! The determinism contract's static gate (DESIGN.md): `clippy.toml`'s
//! disallowed methods/types, `iter_over_hash_type`, `forbid(unsafe_code)`
//! and every `#[expect(..., reason)]` hold over the whole workspace — run
//! under tier-1 so a violation cannot land from a machine that skips CI.

use std::process::Command;

#[test]
fn workspace_passes_the_clippy_gate() {
    let cargo = env!("CARGO");
    let has_clippy = Command::new(cargo)
        .args(["clippy", "--version"])
        .output()
        .is_ok_and(|out| out.status.success());
    if !has_clippy {
        eprintln!("skipped: the clippy component is not installed");
        return;
    }
    let out = Command::new(cargo)
        .args(["clippy", "--workspace", "--all-targets", "--offline"])
        .args(["--quiet", "--", "-D", "warnings"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("cargo clippy runs");
    assert!(
        out.status.success(),
        "cargo clippy -D warnings failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
