//! Parallel experiment runner: executes independent figure experiments
//! concurrently and emits machine-readable JSON.
//!
//! The figure experiments in [`crate::experiments`] are embarrassingly
//! parallel — each one is a self-contained simulation deterministic in its
//! own seed — so running them strictly in sequence, like re-running NS-2
//! scripts one by one, wastes the machine. This module runs them
//! across a thread pool instead (in the spirit of the batched
//! point-to-multipoint evaluations of Fahmy et al.), while keeping the
//! output *byte-identical* to a serial run:
//!
//! * every experiment gets its own fixed seed up front (no shared RNG, so
//!   scheduling cannot leak into results — the determinism contract of
//!   `simcore::DetRng`),
//! * results land in pre-assigned slots, so report order is spec order, not
//!   completion order,
//! * the JSON serializer is deliberately canonical (insertion-ordered keys,
//!   shortest-round-trip floats, non-finite numbers as `null`), so equal
//!   results serialize to equal bytes.
//!
//! `run_serial` and `run_parallel` therefore produce the same
//! `BENCH_*.json` payload — a property pinned by this module's tests and
//! relied on by the `figures` CLI (`crates/bench/src/cli.rs`).

use std::io;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::metrics::Series;

// ---------------------------------------------------------------------------
// Canonical JSON
// ---------------------------------------------------------------------------

/// A JSON value with a canonical, deterministic serialization.
///
/// Object keys keep insertion order; floats print via Rust's shortest
/// round-trip `Display`; NaN and infinities (which JSON cannot represent)
/// serialize as `null`.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Integers keep full `u64` precision (seeds!) instead of going
    /// through `f64`.
    U64(u64),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, preserving order.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// An array of numbers.
    pub fn nums(values: impl IntoIterator<Item = f64>) -> Json {
        Json::Arr(values.into_iter().map(Json::Num).collect())
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(n) => out.push_str(&n.to_string()),
            Json::Num(x) => {
                if x.is_finite() {
                    // `Display` for f64 is the deterministic shortest
                    // representation that round-trips.
                    out.push_str(&x.to_string());
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => {
                            out.push_str(&format!("\\u{:04x}", c as u32));
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Canonical compact serialization (`value.to_string()` via [`ToString`]).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// A [`Series`] as `{label, points: [[x, y], ...]}`.
pub fn series_json(s: &Series) -> Json {
    Json::obj([
        ("label", Json::Str(s.label.clone())),
        (
            "points",
            Json::Arr(
                s.points
                    .iter()
                    .map(|&(x, y)| Json::Arr(vec![Json::Num(x), Json::Num(y)]))
                    .collect(),
            ),
        ),
    ])
}

// ---------------------------------------------------------------------------
// Specs, records, reports
// ---------------------------------------------------------------------------

/// One independent experiment: a name, its own deterministic seed, and a
/// body mapping that seed to a JSON payload.
pub struct ExperimentSpec {
    pub name: String,
    pub seed: u64,
    body: Box<dyn Fn(u64) -> Json + Send + Sync>,
}

impl ExperimentSpec {
    pub fn new(
        name: impl Into<String>,
        seed: u64,
        body: impl Fn(u64) -> Json + Send + Sync + 'static,
    ) -> Self {
        ExperimentSpec {
            name: name.into(),
            seed,
            body: Box::new(body),
        }
    }
}

/// The outcome of one experiment.
pub struct ExperimentRecord {
    pub name: String,
    pub seed: u64,
    pub data: Json,
    /// Wall-clock duration. Informational only — deliberately *not* part of
    /// the JSON payload, so serial and parallel runs serialize identically.
    pub elapsed: Duration,
}

/// An ordered collection of experiment outcomes.
pub struct Report {
    pub suite: String,
    pub mode: String,
    pub records: Vec<ExperimentRecord>,
}

impl Report {
    /// The canonical `BENCH_*.json` payload.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("suite", Json::Str(self.suite.clone())),
            ("mode", Json::Str(self.mode.clone())),
            (
                "experiments",
                Json::Arr(
                    self.records
                        .iter()
                        .map(|r| {
                            Json::obj([
                                ("name", Json::Str(r.name.clone())),
                                ("seed", Json::U64(r.seed)),
                                ("data", r.data.clone()),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Write the JSON payload to `path`, creating parent directories.
    pub fn write_json(&self, path: impl AsRef<Path>) -> io::Result<()> {
        if let Some(parent) = path.as_ref().parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.to_json_string())
    }

    pub fn total_elapsed(&self) -> Duration {
        self.records.iter().map(|r| r.elapsed).sum()
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

#[expect(
    clippy::disallowed_methods,
    reason = "per-experiment elapsed reporting only"
)]
fn run_spec(spec: &ExperimentSpec) -> ExperimentRecord {
    let start = Instant::now();
    // Tracing capture brackets the body on this worker thread; both are
    // no-ops unless `--trace`/`MCC_TRACE` is set.
    crate::obs::begin(&spec.name);
    let data = (spec.body)(spec.seed);
    crate::obs::finish(&spec.name);
    ExperimentRecord {
        name: spec.name.clone(),
        seed: spec.seed,
        data,
        elapsed: start.elapsed(),
    }
}

/// Run every spec on the calling thread, in order.
pub fn run_serial(suite: &str, mode: &str, specs: &[ExperimentSpec]) -> Report {
    Report {
        suite: suite.to_string(),
        mode: mode.to_string(),
        records: specs.iter().map(run_spec).collect(),
    }
}

/// Run the specs across `threads` worker threads.
///
/// Work is pulled from a shared index, so long experiments don't convoy
/// behind short ones; each result lands in its spec's pre-assigned slot, so
/// the report order (and therefore the JSON byte stream) is identical to
/// [`run_serial`]. A panicking experiment propagates out of the scope, and
/// the failure flag stops the other workers from *starting* further
/// experiments (in-flight ones finish first), so a broken suite fails fast
/// instead of simulating to the end.
pub fn run_parallel(suite: &str, mode: &str, specs: &[ExperimentSpec], threads: usize) -> Report {
    let workers = threads.clamp(1, specs.len().max(1));
    if workers <= 1 {
        return run_serial(suite, mode, specs);
    }
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let slots: Vec<Mutex<Option<ExperimentRecord>>> =
        specs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if failed.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                match catch_unwind(AssertUnwindSafe(|| run_spec(spec))) {
                    Ok(record) => *slots[i].lock().expect("slot lock") = Some(record),
                    Err(payload) => {
                        failed.store(true, Ordering::Relaxed);
                        resume_unwind(payload);
                    }
                }
            });
        }
    });
    let records = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot lock")
                .expect("every slot filled")
        })
        .collect();
    Report {
        suite: suite.to_string(),
        mode: mode.to_string(),
        records,
    }
}

// ---------------------------------------------------------------------------
// The figure suite (registry-driven)
// ---------------------------------------------------------------------------

/// The full figure-regeneration suite (Figures 1, 7, 8a-8h, 9a, 9b):
/// every `Kind::Figure` entry of [`crate::registry`], in suite order,
/// with its registered seed. Independent by construction, so safe for
/// [`run_parallel`].
pub fn figure_experiments(quick: bool) -> Vec<ExperimentSpec> {
    let params = crate::config::Params::quick(quick);
    crate::registry::specs(&crate::registry::figures(), &params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments;

    fn toy_specs() -> Vec<ExperimentSpec> {
        // Bodies of very different cost, so parallel completion order is
        // scrambled relative to spec order.
        (0..12u64)
            .map(|i| {
                ExperimentSpec::new(format!("toy{i:02}"), 1000 + i, move |seed| {
                    let spins = if i % 3 == 0 { 400_000 } else { 50 };
                    let mut acc = seed;
                    for k in 0..spins {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
                    }
                    Json::obj([
                        ("acc", Json::U64(acc)),
                        ("i", Json::U64(i)),
                        ("half", Json::Num(seed as f64 / 2.0)),
                    ])
                })
            })
            .collect()
    }

    #[test]
    fn json_serialization_is_canonical() {
        let v = Json::obj([
            ("s", Json::Str("a\"b\\c\nd".into())),
            ("n", Json::Num(0.1)),
            ("u", Json::U64(u64::MAX)),
            ("inf", Json::Num(f64::INFINITY)),
            ("nan", Json::Num(f64::NAN)),
            ("arr", Json::Arr(vec![Json::Null, Json::Bool(true)])),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"s":"a\"b\\c\nd","n":0.1,"u":18446744073709551615,"inf":null,"nan":null,"arr":[null,true]}"#
        );
    }

    /// The determinism invariant the whole module exists to keep: same
    /// seeds ⇒ byte-identical JSON, serially or across any thread count.
    #[test]
    fn serial_and_parallel_reports_are_byte_identical() {
        let serial = run_serial("toys", "test", &toy_specs()).to_json_string();
        for threads in [2, 3, 8] {
            let parallel = run_parallel("toys", "test", &toy_specs(), threads).to_json_string();
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    /// Same invariant on real figure experiments end to end (a fast
    /// subset: the two overhead sweeps shortened to a few seconds).
    #[test]
    fn real_experiments_serial_vs_parallel() {
        fn rows_json(rows: &[experiments::OverheadRow]) -> Json {
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj([
                            ("x", Json::Num(r.x)),
                            ("delta_measured", Json::Num(r.delta_measured)),
                            ("sigma_measured", Json::Num(r.sigma_measured)),
                        ])
                    })
                    .collect(),
            )
        }
        let specs = || {
            vec![
                ExperimentSpec::new("overhead_groups", 5, |seed| {
                    rows_json(&experiments::overhead_vs_groups(&[2, 6], 5, seed))
                }),
                ExperimentSpec::new("overhead_slot", 5, |seed| {
                    rows_json(&experiments::overhead_vs_slot(&[250, 500], 5, seed))
                }),
                ExperimentSpec::new("fec_ablation", 9, |seed| {
                    let rows = experiments::fec_ablation(&[1, 2], &[0.25, 0.5], 200, seed);
                    Json::Arr(
                        rows.iter()
                            .map(|r| {
                                Json::obj([
                                    ("repeat", Json::U64(r.repeat as u64)),
                                    ("loss", Json::Num(r.loss)),
                                    ("slot_miss_rate", Json::Num(r.slot_miss_rate)),
                                    ("expansion", Json::Num(r.expansion)),
                                ])
                            })
                            .collect(),
                    )
                }),
            ]
        };
        let serial = run_serial("figs", "test", &specs()).to_json_string();
        let parallel = run_parallel("figs", "test", &specs(), 3).to_json_string();
        assert_eq!(serial, parallel);
        // And the payload really is machine-readable JSON with our fields.
        assert!(serial.contains(r#""suite":"figs""#));
        assert!(serial.contains(r#""name":"overhead_groups""#));
        assert!(serial.contains(r#""seed":5"#));
    }

    #[test]
    fn report_order_is_spec_order_not_completion_order() {
        let report = run_parallel("toys", "test", &toy_specs(), 4);
        let names: Vec<&str> = report.records.iter().map(|r| r.name.as_str()).collect();
        let expected: Vec<String> = (0..12).map(|i| format!("toy{i:02}")).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn figure_suite_is_complete_and_uniquely_named() {
        let specs = figure_experiments(true);
        assert_eq!(specs.len(), 12);
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 12, "duplicate experiment names");
        assert!(names.contains(&"fig01_attack"));
        assert!(names.contains(&"fig09b_overhead_slot"));
    }

    /// A panicking experiment fails the whole run (and the failure flag
    /// keeps other workers from starting new experiments behind it).
    #[test]
    fn panicking_experiment_propagates() {
        let specs: Vec<ExperimentSpec> = (0..8u64)
            .map(|i| {
                ExperimentSpec::new(format!("p{i}"), i, move |_| {
                    if i == 2 {
                        panic!("experiment p2 exploded");
                    }
                    Json::U64(i)
                })
            })
            .collect();
        let result = catch_unwind(AssertUnwindSafe(|| run_parallel("boom", "test", &specs, 4)));
        assert!(result.is_err(), "panic must propagate out of run_parallel");
    }

    #[test]
    fn single_thread_parallel_degenerates_to_serial() {
        let a = run_parallel("toys", "test", &toy_specs(), 1).to_json_string();
        let b = run_serial("toys", "test", &toy_specs()).to_json_string();
        assert_eq!(a, b);
    }
}
