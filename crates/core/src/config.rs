//! Run-wide configuration: one place that reads the environment, one
//! typed bag of knobs that every experiment receives.
//!
//! [`RunConfig::from_env`] is the single reader of `MCC_QUICK`,
//! `MCC_THREADS`, `MCC_OUT` and `MCC_TRACE`, and [`Params`] is the value
//! the registry hands to every [`crate::registry::Experiment`] — so a
//! figure run and a test run agree on seeds, durations and smoothing *by
//! construction*.

use crate::workload::MAX_ARRIVALS;
use mcc_obs::TraceSpec;
use std::path::PathBuf;
use std::sync::OnceLock;

/// Environment-derived run configuration. The only place in the
/// workspace that reads `MCC_QUICK`, `MCC_THREADS`, `MCC_OUT` and
/// `MCC_TRACE`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunConfig {
    /// Shortened runs (`MCC_QUICK` set non-empty to anything but `0`).
    pub quick: bool,
    /// Experiment-level worker threads (`MCC_THREADS`, else available
    /// parallelism). Each simulation runs on one of them.
    pub threads: usize,
    /// Where reports and CSVs land (`MCC_OUT`, else `results`).
    pub out_dir: PathBuf,
    /// Flight-recorder tracing (`MCC_TRACE`, or the figures CLI's
    /// `--trace`); `None` = off, the default.
    pub trace: Option<TraceSpec>,
}

impl RunConfig {
    /// Parse the environment once. `MCC_QUICK=1` requests shortened
    /// runs, `MCC_OUT=DIR` redirects output, and `MCC_THREADS=N` runs
    /// `N` experiments in flight.
    ///
    /// A malformed `MCC_THREADS` (non-numeric, such as `4x2`, or `0`) is
    /// rejected *loudly*: a stderr warning names the bad value before the
    /// available-parallelism fallback kicks in, so a typo in a sweep
    /// script cannot silently run at the wrong parallelism. It never
    /// panics.
    pub fn from_env() -> RunConfig {
        let quick = quick_from(env_var("MCC_QUICK").as_deref());
        let (threads, warning) = threads_from(env_var("MCC_THREADS").as_deref());
        if let Some(warning) = warning {
            eprintln!("warning: {warning}");
        }
        let out_dir = out_dir_from(env_var("MCC_OUT").as_deref());
        let (trace, warning) = trace_from(env_var("MCC_TRACE").as_deref());
        if let Some(warning) = warning {
            eprintln!("warning: {warning}");
        }
        RunConfig {
            quick,
            threads,
            out_dir,
            trace,
        }
    }

    /// The [`Params`] this configuration implies.
    pub fn params(&self) -> Params {
        Params {
            quick: self.quick,
            ..Params::default()
        }
    }
}

/// The process-wide trace specification, read once and cached — the
/// `run_spec` hook consults this on every experiment, so it must not
/// re-read the environment each time. `None` = tracing off (the
/// default, and the fallback for a malformed `MCC_TRACE`; the loud
/// warning lives in [`RunConfig::from_env`]).
pub fn trace_spec() -> Option<&'static TraceSpec> {
    TRACE
        .get_or_init(|| trace_from(env_var("MCC_TRACE").as_deref()).0)
        .as_ref()
}

/// Pin the trace specification before any experiment runs — the
/// `figures` CLI's `--trace` override. First setting wins (the
/// `OnceLock` semantics); a no-op once [`trace_spec`] has been read.
pub fn set_trace(spec: Option<TraceSpec>) {
    let _ = TRACE.set(spec);
}

static TRACE: OnceLock<Option<TraceSpec>> = OnceLock::new();

/// The trace spec implied by an `MCC_TRACE` value (`None` = unset),
/// plus the warning to print when the value was present but malformed.
/// Malformed specs disable tracing rather than aborting a sweep.
fn trace_from(var: Option<&str>) -> (Option<TraceSpec>, Option<String>) {
    match var {
        None => (None, None),
        Some(v) => match TraceSpec::parse(v) {
            Ok(spec) => (Some(spec), None),
            Err(e) => (
                None,
                Some(format!("MCC_TRACE={v:?}: {e}; tracing disabled")),
            ),
        },
    }
}

/// The single audited environment read of the simulation crates —
/// `clippy.toml` disallows `std::env::{var, vars, var_os}` everywhere
/// else, so auditing determinism means auditing the callers of
/// this one function. An unset *or empty* variable is `None`: a sweep
/// script clearing a knob with `MCC_QUICK= cmd` must behave like unset,
/// not like "quick mode on" (the raw reads this replaces treated empty
/// as set).
#[expect(
    clippy::disallowed_methods,
    reason = "the one audited environment chokepoint; every caller is in this file"
)]
fn env_var(name: &str) -> Option<String> {
    std::env::var(name).ok().filter(|v| !v.is_empty())
}

/// Whether a (present, non-empty) `MCC_QUICK` value requests shortened
/// runs: anything but `"0"` does.
fn quick_from(var: Option<&str>) -> bool {
    var.is_some_and(|v| v != "0")
}

/// The output directory implied by an `MCC_OUT` value (`None` = unset).
fn out_dir_from(var: Option<&str>) -> PathBuf {
    var.map_or_else(|| PathBuf::from("results"), PathBuf::from)
}

/// The run's output directory (`MCC_OUT`, else `results`) without the
/// rest of [`RunConfig::from_env`] — for sinks that only need a place to
/// write (re-parsing the full config would repeat its loud warnings once
/// per experiment).
pub fn out_dir() -> PathBuf {
    out_dir_from(env_var("MCC_OUT").as_deref())
}

/// The experiment worker count implied by an `MCC_THREADS` value
/// (`None` = unset), plus the warning to print when the value was present
/// but malformed. Split from [`RunConfig::from_env`] so the rejection
/// paths are unit testable without touching the process environment.
fn threads_from(var: Option<&str>) -> (usize, Option<String>) {
    let fallback = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    match var {
        None => (fallback(), None),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n > 0 => (n, None),
            Ok(_) => (
                fallback(),
                Some(format!(
                    "MCC_THREADS={v:?} must be at least 1; using available parallelism"
                )),
            ),
            Err(e) => (
                fallback(),
                Some(format!(
                    "MCC_THREADS={v:?} is not a thread count ({e}); using available parallelism"
                )),
            ),
        },
    }
}

/// The parameter bag every registered experiment runs under.
///
/// Defaults reproduce the paper figures exactly; the `figures` CLI can
/// override single fields for registry-driven sweeps (`--sweep
/// seed=1,2,3`).
#[derive(Clone, Debug, PartialEq)]
pub struct Params {
    /// Shortened runs: durations pass through [`Params::duration`] and
    /// session sweeps through [`Params::session_counts`].
    pub quick: bool,
    /// Window (in 1 s bins) of the moving average applied to throughput
    /// series — the paper-style plot smoothing. Defaults to
    /// [`Params::SMOOTHING_WINDOW`].
    pub smoothing: usize,
    /// When set, replaces every experiment's registered seed.
    pub seed_override: Option<u64>,
    /// When set, overrides the churn-rate axis of workload-driven
    /// experiments (`churn_robustness`): mean receiver arrivals per
    /// second. `None` = each experiment's registered rate points.
    pub churn_rate: Option<f64>,
    /// When set, overrides the flash-crowd multiplier of workload-driven
    /// experiments: the crowd is `factor ×` the standing population.
    /// `None` = each experiment's registered factor.
    pub flash_factor: Option<f64>,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            quick: false,
            smoothing: Params::SMOOTHING_WINDOW,
            seed_override: None,
            churn_rate: None,
            flash_factor: None,
        }
    }
}

impl Params {
    /// The moving-average window of the attack/responsiveness figures
    /// (previously a magic `5` inside `attack_experiment`).
    pub const SMOOTHING_WINDOW: usize = 5;
    /// The narrower window of the convergence figures (8g/8h).
    pub const CONVERGENCE_SMOOTHING: usize = 3;
    /// Every key `--sweep` / [`Params::with_override`] accepts — the CLI
    /// validates against this list up front, before any experiment runs.
    pub const SWEEP_KEYS: &'static [&'static str] =
        &["seed", "smoothing", "quick", "churn_rate", "flash_factor"];

    /// Paper-exact parameters with the given quick flag.
    pub fn quick(quick: bool) -> Params {
        Params {
            quick,
            ..Params::default()
        }
    }

    /// Experiment duration: `full` seconds normally, a shortened run in
    /// quick mode.
    pub fn duration(&self, full: u64) -> u64 {
        if self.quick {
            (full / 4).max(MIN_DURATION_SECS)
        } else {
            full
        }
    }

    /// The session counts swept by Figures 8a–8d.
    pub fn session_counts(&self) -> Vec<u32> {
        if self.quick {
            vec![1, 2, 6, 10]
        } else {
            vec![1, 2, 4, 6, 8, 10, 12, 14, 16, 18]
        }
    }

    /// The effective seed for an experiment registered with `base`.
    pub fn seed_for(&self, base: u64) -> u64 {
        self.seed_override.unwrap_or(base)
    }

    /// Apply one `--sweep key=value` override. Supported keys
    /// ([`Params::SWEEP_KEYS`]): `seed` (u64), `smoothing` (bins), `quick`
    /// (exactly `0` or `1`), `churn_rate` (arrivals/s) and `flash_factor` (× the standing
    /// population) — the last two finite, non-negative and small enough to
    /// fit the workload arrival cap.
    pub fn with_override(&self, key: &str, value: &str) -> Result<Params, String> {
        let mut p = self.clone();
        match key {
            "seed" => {
                p.seed_override = Some(value.parse().map_err(|e| format!("seed {value:?}: {e}"))?);
            }
            "smoothing" => {
                p.smoothing = value
                    .parse()
                    .map_err(|e| format!("smoothing {value:?}: {e}"))?;
            }
            "quick" => {
                p.quick = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("quick {value:?}: expected 0 or 1")),
                };
            }
            "churn_rate" => {
                // Poisson arrivals over the shortest run any experiment makes.
                let shortest = MIN_DURATION_SECS as f64;
                p.churn_rate = Some(parse_rate("churn_rate", value, shortest)?);
            }
            "flash_factor" => {
                // The crowd multiplies a standing population of at least one.
                p.flash_factor = Some(parse_rate("flash_factor", value, 1.0)?);
            }
            other => {
                return Err(format!(
                    "unknown sweep key {other:?} (valid keys: {})",
                    Params::SWEEP_KEYS.join(", ")
                ))
            }
        }
        Ok(p)
    }
}

/// The shortest run [`Params::duration`] hands any experiment, seconds.
const MIN_DURATION_SECS: u64 = 30;

/// Parse a non-negative finite rate/factor sweep value that generates at
/// least `min_arrivals_per_unit` workload arrivals per unit. Rejecting NaN
/// and infinities here keeps them out of workload sampling (where they
/// would produce degenerate arrival streams instead of a loud error);
/// rejecting a value that cannot fit [`MAX_ARRIVALS`] turns the panic in
/// `WorkloadSpec::apply` into a parse error.
fn parse_rate(key: &str, value: &str, min_arrivals_per_unit: f64) -> Result<f64, String> {
    let v: f64 = value.parse().map_err(|e| format!("{key} {value:?}: {e}"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("{key} {value:?}: must be finite and non-negative"));
    }
    let arrivals = v * min_arrivals_per_unit;
    if arrivals > MAX_ARRIVALS as f64 {
        return Err(format!(
            "{key} {value:?}: at least {arrivals:.0} arrivals, over the {MAX_ARRIVALS}-arrival workload cap"
        ));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_reproduce_the_paper() {
        let p = Params::default();
        assert!(!p.quick);
        assert_eq!(p.smoothing, 5);
        assert_eq!(p.duration(200), 200);
        assert_eq!(p.session_counts().len(), 10);
        assert_eq!(p.seed_for(8), 8);
    }

    #[test]
    fn quick_mode_scales_durations_and_sweeps() {
        let p = Params::quick(true);
        assert_eq!(p.duration(200), 50);
        assert_eq!(p.duration(40), 30, "floor at 30 s");
        assert_eq!(p.session_counts(), vec![1, 2, 6, 10]);
    }

    #[test]
    fn sweep_overrides_parse_and_apply() {
        let p = Params::default();
        assert_eq!(p.with_override("seed", "9").unwrap().seed_for(8), 9);
        assert_eq!(p.with_override("smoothing", "3").unwrap().smoothing, 3);
        assert!(p.with_override("quick", "1").unwrap().quick);
        assert!(!p.with_override("quick", "0").unwrap().quick);
        for bad in ["false", "yes", "2"] {
            let err = p.with_override("quick", bad).unwrap_err();
            assert!(err.contains("quick") && err.contains(bad), "{err}");
        }
        assert!(p.with_override("seed", "x").is_err());
        assert!(p.with_override("bogus", "1").is_err());
    }

    /// The workload axes parse like the existing keys: decimals work,
    /// NaN/negative/malformed values are loud errors at parse time.
    #[test]
    fn workload_sweep_axes_validate_at_parse_time() {
        let p = Params::default();
        assert_eq!(
            p.with_override("churn_rate", "2.5").unwrap().churn_rate,
            Some(2.5)
        );
        assert_eq!(
            p.with_override("flash_factor", "100").unwrap().flash_factor,
            Some(100.0)
        );
        assert_eq!(
            p.with_override("churn_rate", "0").unwrap().churn_rate,
            Some(0.0)
        );
        for bad in ["x", "-1", "NaN", "inf"] {
            assert!(p.with_override("churn_rate", bad).is_err(), "{bad}");
            assert!(p.with_override("flash_factor", bad).is_err(), "{bad}");
        }
        // A value that cannot fit the arrival cap names key, value and cap.
        for (key, bad) in [("churn_rate", "100000"), ("flash_factor", "1000000")] {
            let err = p.with_override(key, bad).unwrap_err();
            assert!(
                err.contains(key) && err.contains(bad) && err.contains("100000-arrival"),
                "{err}"
            );
        }
        assert!(p.with_override("churn_rate", "3333").is_ok());
        assert!(p.with_override("flash_factor", "100000").is_ok());
    }

    /// `SWEEP_KEYS` (what the CLI validates against) and `with_override`'s
    /// match arms are the same list: every advertised key must round-trip,
    /// and the rejection message must advertise exactly these keys.
    #[test]
    fn sweep_keys_round_trip_through_with_override() {
        let p = Params::default();
        for key in Params::SWEEP_KEYS {
            assert!(
                p.with_override(key, "1").is_ok(),
                "advertised sweep key {key:?} must be accepted"
            );
        }
        let err = p.with_override("nope", "1").unwrap_err();
        for key in Params::SWEEP_KEYS {
            assert!(err.contains(key), "error must advertise {key:?}: {err}");
        }
    }

    /// Malformed `MCC_THREADS` values — `AxB` splits among them — fall
    /// back to available parallelism *with* one warning naming the bad
    /// value, never silently as something else.
    #[test]
    fn malformed_thread_counts_warn_and_fall_back() {
        for bad in ["abc", "1x4", "4x2"] {
            let (n, warn) = threads_from(Some(bad));
            assert!(n >= 1, "{bad}");
            let warn = warn.unwrap_or_else(|| panic!("{bad:?} must warn"));
            assert!(warn.contains(bad), "warning must name the value: {warn}");
            assert!(!warn.contains('\n'), "one line: {warn}");
        }

        let (n, warn) = threads_from(Some("0"));
        assert!(n >= 1);
        let warn = warn.expect("zero must warn");
        assert!(warn.contains("at least 1"), "{warn}");

        assert_eq!(threads_from(Some("3")), (3, None), "valid values pin");
        let (n, warn) = threads_from(None);
        assert!(n >= 1);
        assert!(warn.is_none(), "unset is not an error");
    }

    /// The pure halves of `from_env`: quick-mode parsing treats `"0"` as
    /// off and anything else (non-empty — `env_var` filters empties) as
    /// on, and the output dir falls back to `results`.
    #[test]
    fn quick_and_out_dir_parse_purely() {
        assert!(!quick_from(None), "unset is not quick");
        assert!(!quick_from(Some("0")), "explicit off");
        assert!(quick_from(Some("1")));
        assert!(quick_from(Some("yes")), "any other value opts in");

        assert_eq!(out_dir_from(None), PathBuf::from("results"));
        assert_eq!(out_dir_from(Some("/tmp/mcc")), PathBuf::from("/tmp/mcc"));
    }

    /// `MCC_TRACE` parsing: unset is off, valid specs pin formats and
    /// directory, malformed specs warn (naming the value) and disable
    /// tracing instead of aborting.
    #[test]
    fn trace_specs_parse_and_fall_back() {
        assert_eq!(trace_from(None), (None, None), "unset is off, silently");
        let (spec, warn) = trace_from(Some("jsonl"));
        assert!(warn.is_none());
        let spec = spec.expect("valid spec");
        assert!(spec.jsonl && !spec.pcapng && spec.dir.is_none());
        let (spec, _) = trace_from(Some("all:/tmp/tr"));
        assert_eq!(spec.expect("valid").dir, Some("/tmp/tr".to_string()));

        let (spec, warn) = trace_from(Some("csv"));
        assert!(spec.is_none(), "malformed spec disables tracing");
        let warn = warn.expect("malformed spec must warn");
        assert!(warn.contains("csv"), "warning must name the value: {warn}");
    }

    /// The cached accessor agrees with a fresh parse of the same
    /// environment.
    #[test]
    fn trace_spec_accessor_is_stable() {
        let cached = trace_spec();
        assert_eq!(cached, trace_spec(), "cached value is stable");
        let (fresh, _) = trace_from(env_var("MCC_TRACE").as_deref());
        assert_eq!(cached, fresh.as_ref());
    }

    #[test]
    fn from_env_has_sane_fallbacks() {
        // Whatever the ambient environment, the parse must not panic and
        // the fallbacks must hold their contracts.
        let cfg = RunConfig::from_env();
        assert!(cfg.threads >= 1);
        assert!(!cfg.out_dir.as_os_str().is_empty());
        assert_eq!(cfg.params().quick, cfg.quick);
    }
}
