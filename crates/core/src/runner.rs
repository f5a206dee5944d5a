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
//! * experiments of one call may share a sub-result through `memo`: the
//!   first to ask computes it, the others read a copy. The memo lives for
//!   one `run_serial`/`run_parallel` call, its key renders every input of
//!   the sub-result, and a traced experiment bypasses it — so whether an
//!   experiment computed a sub-result or read it, and which worker got
//!   there first, changes no byte of the report or of a trace.
//!
//! `run_serial` and `run_parallel` therefore produce the same
//! `BENCH_*.json` payload — a property pinned by this module's tests and
//! relied on by the `figures` CLI (`crates/bench/src/cli.rs`).
//!
//! A spec is plain data: a name, a seed, the [`Params`] it runs under and
//! a `fn` body. Building a suite copies registry rows; only a sweep's
//! renamed spec owns its name.

use crate::config::Params;
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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

/// A value that renders its own canonical JSON. Result rows get their
/// impl from `record!`, so what an experiment reports — which fields,
/// under which names, in which order — is declared once, with the struct.
pub trait ToJson {
    fn to_json(&self) -> Json;
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::U64(*self)
    }
}

impl ToJson for u32 {
    fn to_json(&self) -> Json {
        Json::U64(u64::from(*self))
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::U64(*self as u64)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for &'static str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

/// An `(x, y)` point as a two-element array.
impl ToJson for (f64, f64) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![Json::Num(self.0), Json::Num(self.1)])
    }
}

/// The value, or `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_json)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
}

/// Declare a result struct and its JSON rendering in one place: the object
/// has one key per field, named like the field, in declaration order. A
/// field marked `@splice` is itself a record whose keys land inline, in
/// its place, instead of under the field's name.
macro_rules! record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $(@$splice:ident)? $fvis:vis $field:ident : $ty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field : $ty ),*
        }

        impl $crate::runner::ToJson for $name {
            fn to_json(&self) -> $crate::runner::Json {
                $crate::runner::Json::Obj(
                    std::iter::empty()
                        $( .chain($crate::runner::record!(@field $($splice)? $field, self.$field)) )*
                        .collect(),
                )
            }
        }
    };
    // The `(key, value)` pairs one field contributes.
    (@field splice $field:ident, $value:expr) => {
        match $crate::runner::ToJson::to_json(&$value) {
            $crate::runner::Json::Obj(inner) => inner,
            other => vec![(stringify!($field).to_string(), other)],
        }
    };
    (@field $field:ident, $value:expr) => {
        [(
            stringify!($field).to_string(),
            $crate::runner::ToJson::to_json(&$value),
        )]
    };
}
pub(crate) use record;

// ---------------------------------------------------------------------------
// Specs, records, reports
// ---------------------------------------------------------------------------

/// One independent experiment, as plain data: a name, its own
/// deterministic seed, the parameters it runs under and the body mapping
/// them to a JSON payload. [`crate::registry::specs`] builds these from
/// registry rows; a sweep renames a spec by assigning an owned `name`.
pub struct ExperimentSpec {
    pub name: Cow<'static, str>,
    pub seed: u64,
    pub params: Params,
    pub body: fn(&Params, u64) -> Json,
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
    pub(crate) fn to_json(&self) -> Json {
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
// The run-scoped memo
// ---------------------------------------------------------------------------

/// Sub-results of one `run_serial`/`run_parallel` call, by key. The call
/// creates it, shares it with its worker threads and drops it on return.
type Memo = Arc<Mutex<BTreeMap<String, Json>>>;

thread_local! {
    /// The memo of the runner call this thread is working for.
    static MEMO: RefCell<Option<Memo>> = const { RefCell::new(None) };
}

/// Installs a memo on this thread and, when dropped (a panicking
/// experiment included), puts back whatever was installed before.
struct MemoScope(Option<Memo>);

impl MemoScope {
    fn install(memo: &Memo) -> Self {
        MemoScope(MEMO.with(|m| m.replace(Some(Arc::clone(memo)))))
    }
}

impl Drop for MemoScope {
    fn drop(&mut self) {
        let prev = self.0.take();
        MEMO.with(|m| *m.borrow_mut() = prev);
    }
}

/// The sub-result stored under `key` by an earlier experiment of this
/// runner call, or `f()`, stored for the later ones. `key` must render
/// every input `f` reads, so a hit is the value `f` would return.
///
/// Outside a runner call, and while an `obs` trace capture is active on
/// this thread (a traced experiment records every simulation it runs),
/// this is just `f()`. A miss computes without holding the lock, so two
/// workers of one `run_parallel` may both compute a key; they get the
/// same bytes, and neither waits for the other.
pub(crate) fn memo(key: String, f: impl FnOnce() -> Json) -> Json {
    let Some(table) = MEMO.with(|m| m.borrow().clone()) else {
        return f();
    };
    if crate::obs::capturing() {
        return f();
    }
    if let Some(hit) = table.lock().expect("memo lock").get(&key) {
        return hit.clone();
    }
    let value = f();
    table.lock().expect("memo lock").insert(key, value.clone());
    value
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
    // no-ops unless `--trace` is set.
    crate::obs::begin();
    let data = (spec.body)(&spec.params, spec.seed);
    crate::obs::finish(&spec.name);
    ExperimentRecord {
        name: spec.name.to_string(),
        seed: spec.seed,
        data,
        elapsed: start.elapsed(),
    }
}

/// Run every spec on the calling thread, in order, sharing one `memo`.
pub fn run_serial(suite: &str, mode: &str, specs: &[ExperimentSpec]) -> Report {
    let _memo = MemoScope::install(&Memo::default());
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
/// instead of simulating to the end. The workers share one `memo`.
pub fn run_parallel(suite: &str, mode: &str, specs: &[ExperimentSpec], threads: usize) -> Report {
    let workers = threads.clamp(1, specs.len().max(1));
    if workers <= 1 {
        return run_serial(suite, mode, specs);
    }
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let memo = Memo::default();
    let slots: Vec<Mutex<Option<ExperimentRecord>>> =
        specs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _memo = MemoScope::install(&memo);
                loop {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{experiments, registry};

    record! {
        /// A record spliced into [`Outer`].
        struct Inner {
            b: u64,
            c: Option<f64>,
        }
    }

    record! {
        struct Outer {
            a: &'static str,
            @splice inner: Inner,
            d: Vec<(f64, f64)>,
        }
    }

    /// `record!`'s contract: keys in declaration order, a spliced record's
    /// keys inline in its place, `None` as `null`.
    #[test]
    fn record_renders_fields_in_declaration_order() {
        let v = Outer {
            a: "x",
            inner: Inner { b: 7, c: None },
            d: vec![(0.5, 2.0)],
        };
        assert_eq!(
            v.to_json().to_string(),
            r#"{"a":"x","b":7,"c":null,"d":[[0.5,2]]}"#
        );
    }

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

    fn toy_specs() -> Vec<ExperimentSpec> {
        // Bodies of very different cost, so parallel completion order is
        // scrambled relative to spec order; each reads its index from its
        // seed.
        (0..12u64)
            .map(|i| {
                spec(format!("toy{i:02}"), 1000 + i, |_, seed| {
                    let i = seed - 1000;
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
        let specs = || {
            vec![
                spec("overhead_groups", 5, |_, seed| {
                    experiments::overhead_vs_groups(&[2, 6], 5, seed).to_json()
                }),
                spec("overhead_slot", 5, |_, seed| {
                    experiments::overhead_vs_slot(&[250, 500], 5, seed).to_json()
                }),
                spec("fec_ablation", 9, |_, seed| {
                    experiments::fec_ablation(&[1, 2], &[0.25, 0.5], 200, seed).to_json()
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
        let specs = registry::specs(&registry::figures(), &Params::quick(true));
        assert_eq!(specs.len(), 12);
        let mut names: Vec<&str> = specs.iter().map(|s| &*s.name).collect();
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
                spec(format!("p{i}"), i, |_, seed| {
                    if seed == 2 {
                        panic!("experiment p2 exploded");
                    }
                    Json::U64(seed)
                })
            })
            .collect();
        let result = catch_unwind(AssertUnwindSafe(|| run_parallel("boom", "test", &specs, 4)));
        assert!(result.is_err(), "panic must propagate out of run_parallel");
    }

    /// Two specs running `body`, which asks the memo for one key and
    /// counts its computations in a per-test static.
    fn memo_specs(body: fn(&Params, u64) -> Json) -> Vec<ExperimentSpec> {
        (0..2).map(|i| spec(format!("m{i}"), i, body)).collect()
    }

    /// Two specs asking for one key compute it once per runner call, and
    /// the next call computes it again: the memo never outlives a call.
    #[test]
    fn memo_computes_a_key_once_per_run() {
        static COMPUTED: AtomicUsize = AtomicUsize::new(0);
        let specs = memo_specs(|_, _| {
            memo("once per run".to_string(), || {
                COMPUTED.fetch_add(1, Ordering::Relaxed);
                Json::U64(7)
            })
        });
        let first = run_serial("memo", "test", &specs).to_json_string();
        assert_eq!(COMPUTED.load(Ordering::Relaxed), 1, "the second spec hits");
        let second = run_serial("memo", "test", &specs).to_json_string();
        assert_eq!(
            COMPUTED.load(Ordering::Relaxed),
            2,
            "a new run starts empty"
        );
        assert_eq!(first, second);
        assert_eq!(first.matches(r#""data":7"#).count(), 2);
    }

    /// A traced experiment records every simulation it runs, so an
    /// active capture bypasses the memo.
    #[test]
    fn memo_stands_aside_under_a_trace_capture() {
        static COMPUTED: AtomicUsize = AtomicUsize::new(0);
        let specs = memo_specs(|_, _| {
            memo("traced".to_string(), || {
                COMPUTED.fetch_add(1, Ordering::Relaxed);
                Json::U64(7)
            })
        });
        crate::obs::capture("memo", || run_serial("memo", "test", &specs));
        assert_eq!(COMPUTED.load(Ordering::Relaxed), 2);
    }

    /// Outside a runner call `memo` just computes.
    #[test]
    fn memo_outside_a_run_just_computes() {
        let computed = AtomicUsize::new(0);
        for _ in 0..2 {
            let v = memo("outside".to_string(), || {
                computed.fetch_add(1, Ordering::Relaxed);
                Json::Null
            });
            assert_eq!(v, Json::Null);
        }
        assert_eq!(computed.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn single_thread_parallel_degenerates_to_serial() {
        let a = run_parallel("toys", "test", &toy_specs(), 1).to_json_string();
        let b = run_serial("toys", "test", &toy_specs()).to_json_string();
        assert_eq!(a, b);
    }
}
