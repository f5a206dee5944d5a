//! The parallel experiment runner's contract, exercised through the
//! umbrella crate: same seeds ⇒ byte-identical JSON, whether experiments
//! run serially or concurrently (the determinism invariant inherited from
//! `simcore::DetRng` — a seed fully determines a run, and the runner keeps
//! scheduling out of both results and report order).

use robust_multicast::core::experiments::{attack_experiment, overhead_vs_groups};
use robust_multicast::core::runner::{run_parallel, run_serial, ExperimentSpec, Json, ToJson};
use robust_multicast::core::{Params, Variant};
use std::borrow::Cow;

/// A spec named `name` at `seed`, running `body` under default params.
fn spec(
    name: impl Into<Cow<'static, str>>,
    seed: u64,
    body: fn(&Params, u64) -> Json,
) -> ExperimentSpec {
    ExperimentSpec {
        name: name.into(),
        seed,
        params: Params::default(),
        body,
    }
}

/// A fast mixed workload: one real simulation (a shortened Figure-1
/// attack), one analytic sweep, and toy bodies of lopsided cost so the
/// parallel completion order differs from spec order.
fn specs() -> Vec<ExperimentSpec> {
    let mut v = vec![
        spec("attack_short", 42, |_, seed| {
            attack_experiment(Variant::FlidDl, 12, 6, seed).to_json()
        }),
        spec("overhead", 5, |_, seed| {
            overhead_vs_groups(&[2, 4], 5, seed).to_json()
        }),
    ];
    for i in 0..6u64 {
        // Each toy reads its index from its seed.
        v.push(spec(format!("toy{i}"), i, |_, seed| {
            let spins = if seed % 2 == 0 { 200_000 } else { 10 };
            let mut acc = seed;
            for k in 0..spins {
                acc = acc.wrapping_mul(2862933555777941757).wrapping_add(k);
            }
            Json::U64(acc)
        }));
    }
    v
}

#[test]
fn serial_and_parallel_json_are_byte_identical() {
    let serial = run_serial("umbrella", "test", &specs()).to_json_string();
    for threads in [2, 4] {
        let parallel = run_parallel("umbrella", "test", &specs(), threads).to_json_string();
        assert_eq!(serial, parallel, "threads={threads}");
    }
    // The payload is real JSON with the BENCH_* report shape.
    assert!(serial.starts_with(r#"{"suite":"umbrella","mode":"test","experiments":["#));
    assert!(serial.contains(r#""name":"attack_short","seed":42"#));
}

#[test]
fn repeated_runs_are_reproducible() {
    let a = run_parallel("umbrella", "test", &specs(), 3).to_json_string();
    let b = run_parallel("umbrella", "test", &specs(), 3).to_json_string();
    assert_eq!(a, b);
}
