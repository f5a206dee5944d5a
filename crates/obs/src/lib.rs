//! `mcc-obs` — deterministic observability for the simulator workspace.
//!
//! A sim-time-keyed structured tracing and metrics subsystem that is
//! off-by-default and provably inert: when no recorder is attached the
//! only cost at an instrumentation site is one `Option::is_some` branch,
//! and when tracing *is* on, every event is stamped with
//! [`mcc_simcore::SimTime`] — never wall clock — so traces are
//! byte-identical across `--threads` values (see DESIGN.md,
//! "Observability layer").
//!
//! Pieces:
//!
//! * [`event::TraceEvent`] — the typed event taxonomy (packet lifecycle,
//!   SIGMA guard decisions, FLID layer transitions, membership churn).
//! * [`recorder::Recorder`] — the per-run ring-buffer flight recorder
//!   plus the [`recorder::Metrics`] counter registry.
//! * [`jsonl`] / [`pcapng`] — the two trace sinks.
//! * [`TraceSpec`] — the parsed `--trace <spec>` surface.
//!
//! This crate deliberately depends only on `mcc-simcore` (for the
//! [`mcc_simcore::SimTime`] every ring entry is keyed by) so any crate in
//! the workspace can emit events without dependency cycles; file I/O and JSON serialization
//! stay in `mcc-core`'s `obs` module.

pub(crate) mod event;
pub mod jsonl;
pub mod pcapng;
pub(crate) mod recorder;

pub use event::{DropReason, PktRef, TraceEvent, GROUP_NONE};
pub use recorder::{Metrics, Recorder, DEFAULT_RING_CAP};

/// What to trace and where to put it: the parsed form of
/// `--trace <spec>`.
///
/// Grammar: `FORMATS[:DIR]` where `FORMATS` is a comma-separated subset of
/// `jsonl`, `pcapng` — or `all` (both sinks). `DIR` overrides the output directory (default: the
/// `figures` report directory, `--out`). The metrics registry (`OBS_<experiment>.json`) is
/// always written when tracing is enabled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceSpec {
    pub jsonl: bool,
    pub pcapng: bool,
    pub dir: Option<String>,
}

impl TraceSpec {
    /// Both sinks, default directory.
    #[cfg(test)]
    pub(crate) fn all() -> Self {
        TraceSpec {
            jsonl: true,
            pcapng: true,
            dir: None,
        }
    }

    /// Parse a spec string. Empty input is an error.
    pub fn parse(spec: &str) -> Result<TraceSpec, String> {
        let (formats, dir) = match spec.split_once(':') {
            Some((f, d)) if !d.is_empty() => (f, Some(d.to_string())),
            Some((f, _)) => (f, None),
            None => (spec, None),
        };
        let mut out = TraceSpec {
            jsonl: false,
            pcapng: false,
            dir,
        };
        for fmt in formats.split(',') {
            match fmt.trim() {
                "jsonl" => out.jsonl = true,
                "pcapng" => out.pcapng = true,
                "all" => {
                    out.jsonl = true;
                    out.pcapng = true;
                }
                other => {
                    return Err(format!(
                        "unknown trace format {other:?} (expected jsonl, pcapng, or all, \
                         optionally followed by :DIR)"
                    ))
                }
            }
        }
        if !out.jsonl && !out.pcapng {
            return Err("empty trace spec".to_string());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_formats_and_dir() {
        assert_eq!(
            TraceSpec::parse("jsonl").expect("valid"),
            TraceSpec {
                jsonl: true,
                pcapng: false,
                dir: None
            }
        );
        assert_eq!(
            TraceSpec::parse("pcapng:/tmp/tr").expect("valid"),
            TraceSpec {
                jsonl: false,
                pcapng: true,
                dir: Some("/tmp/tr".to_string())
            }
        );
        assert_eq!(
            TraceSpec::parse("jsonl,pcapng").expect("valid"),
            TraceSpec::all()
        );
        assert_eq!(TraceSpec::parse("all").expect("valid"), TraceSpec::all());
        assert_eq!(
            TraceSpec::parse("all:results/traces").expect("valid").dir,
            Some("results/traces".to_string())
        );
    }

    #[test]
    fn rejects_junk() {
        assert!(TraceSpec::parse("").is_err());
        assert!(TraceSpec::parse("csv").is_err());
        assert!(TraceSpec::parse("jsonl,bogus").is_err());
        // Only the documented `jsonl|pcapng|all` grammar parses.
        for alias in ["on", "1", "true", "pcap", "jsonl,pcap:/tmp/tr"] {
            assert!(
                TraceSpec::parse(alias).is_err(),
                "{alias:?} is not a format"
            );
        }
    }
}
