//! Run-wide configuration: the trace specification the `figures` CLI
//! pins, and the typed bag of knobs that every experiment receives.
//!
//! [`Params`] is the value the registry hands to every
//! [`crate::registry::Experiment`] — so a figure run and a test run agree
//! on seeds and durations *by construction*. Nothing here reads the
//! environment: a run is configured by the `figures` flags alone.

use mcc_obs::TraceSpec;
use std::sync::OnceLock;

/// The process-wide trace specification, if [`set_trace`] pinned one —
/// the `run_spec` hook consults this on every experiment. `None` =
/// tracing off, the default.
pub(crate) fn trace_spec() -> Option<&'static TraceSpec> {
    TRACE.get()
}

/// Turn tracing on for the rest of the process, before any experiment
/// runs — the `figures` CLI's `--trace`. `spec.dir` is where the trace
/// files land (the CLI resolves it to the `:DIR` of `--trace`, else
/// `--out`). Later calls are ignored: the first spec stays pinned.
pub fn set_trace(spec: TraceSpec) {
    let _ = TRACE.set(spec);
}

static TRACE: OnceLock<TraceSpec> = OnceLock::new();

/// The parameter bag every registered experiment runs under.
///
/// Defaults reproduce the paper figures exactly; the `figures` CLI can
/// override single fields for registry-driven sweeps (`--sweep
/// seed=1,2,3`).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Params {
    /// Shortened runs: durations pass through `Params::duration` and
    /// session sweeps through `Params::session_counts`.
    pub quick: bool,
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

impl Params {
    /// Window (in 1 s bins) of the moving average applied to the
    /// throughput series of the attack and responsiveness figures — the
    /// paper-style plot smoothing.
    pub const SMOOTHING_WINDOW: usize = 5;
    /// The narrower window of the convergence figures (8g/8h).
    pub(crate) const CONVERGENCE_SMOOTHING: usize = 3;
    /// Every key `--sweep` / [`Params::with_override`] accepts — the CLI
    /// validates against this list up front, before any experiment runs.
    pub const SWEEP_KEYS: &'static [&'static str] = &["seed", "churn_rate", "flash_factor"];

    /// Paper-exact parameters with the given quick flag.
    pub fn quick(quick: bool) -> Params {
        Params {
            quick,
            ..Params::default()
        }
    }

    /// Experiment duration: `full` seconds normally, a shortened run in
    /// quick mode.
    pub(crate) fn duration(&self, full: u64) -> u64 {
        if self.quick {
            (full / 4).max(MIN_DURATION_SECS)
        } else {
            full
        }
    }

    /// The session counts swept by Figures 8a–8d.
    pub(crate) fn session_counts(&self) -> Vec<u32> {
        if self.quick {
            vec![1, 2, 6, 10]
        } else {
            vec![1, 2, 4, 6, 8, 10, 12, 14, 16, 18]
        }
    }

    /// The effective seed for an experiment registered with `base`.
    pub(crate) fn seed_for(&self, base: u64) -> u64 {
        self.seed_override.unwrap_or(base)
    }

    /// Apply one `--sweep key=value` override. Supported keys
    /// ([`Params::SWEEP_KEYS`]): `seed` (u64), `churn_rate` (arrivals/s) and
    /// `flash_factor` (× the standing population) — the last two finite and
    /// non-negative. Whether a value fits the workload arrival cap depends
    /// on the composed run; `registry::check_params` decides that.
    pub fn with_override(&self, key: &str, value: &str) -> Result<Params, String> {
        let mut p = self.clone();
        match key {
            "seed" => {
                p.seed_override = Some(value.parse().map_err(|e| format!("seed {value:?}: {e}"))?);
            }
            "churn_rate" => p.churn_rate = Some(parse_rate("churn_rate", value)?),
            "flash_factor" => p.flash_factor = Some(parse_rate("flash_factor", value)?),
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

/// Parse a non-negative finite rate/factor sweep value. Rejecting NaN and
/// infinities here keeps them out of workload sampling, where they would
/// produce degenerate arrival streams instead of a loud error.
fn parse_rate(key: &str, value: &str) -> Result<f64, String> {
    let v: f64 = value.parse().map_err(|e| format!("{key} {value:?}: {e}"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("{key} {value:?}: must be finite and non-negative"));
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
}
