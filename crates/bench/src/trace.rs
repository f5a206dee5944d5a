//! Summarize a `TRACE_*.jsonl` file: event census, top talkers, drop
//! timeline, and the SIGMA guard log.
//!
//! The summarizer consumes the *file format*, not the in-memory event
//! type — it is the first downstream consumer of the canonical JSONL
//! sink, so it doubles as a living check that the format carries enough
//! to answer the questions the paper's figures ask ("who got the bits",
//! "when did the queue shed load", "what did the guard decide").
//!
//! Lines are flat canonical JSON (fixed key order, integers, one event
//! per line), so a tiny field extractor suffices; a full JSON parser
//! would be a new dependency for no new information. Output is
//! deterministic: everything is keyed by sim-time or flow id and
//! rendered from ordered maps.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Aggregates of one trace file. All counters are sim-time-derived, so a
/// summary is as deterministic as the trace it came from.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Summary {
    /// Total lines consumed (malformed lines are counted and skipped).
    pub(crate) lines: u64,
    /// Lines that carried no recognizable `ev` field.
    pub(crate) malformed: u64,
    /// Events by kind, ordered by kind name.
    pub(crate) by_kind: BTreeMap<String, u64>,
    /// Delivered payload bits by flow id.
    pub(crate) delivered_bits: BTreeMap<u64, u64>,
    /// Drops per whole simulated second, with per-reason splits.
    pub(crate) drops_by_sec: BTreeMap<u64, u64>,
    /// Drops by reason string.
    pub(crate) drops_by_reason: BTreeMap<String, u64>,
    /// SIGMA guard log: `(t_ns, line)` for every lockout and alarm, in
    /// time order.
    pub(crate) sigma_log: Vec<(u64, String)>,
}

/// Extract an integer field from a canonical JSONL line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract a string field from a canonical JSONL line. Canonical strings
/// (event kinds, drop reasons) never contain escapes.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let i = line.find(&pat)? + pat.len();
    let rest = &line[i..];
    rest.split('"').next()
}

/// The `OBS_<id>.json` a run writes beside its `TRACE_<id>.jsonl`.
pub fn obs_sibling(trace: &Path) -> Option<PathBuf> {
    let id = trace
        .file_name()?
        .to_str()?
        .strip_prefix("TRACE_")?
        .strip_suffix(".jsonl")?;
    Some(trace.with_file_name(format!("OBS_{id}.json")))
}

/// The warning a truncated trace earns: `obs` is the sibling
/// `OBS_<id>.json`, whose first `"trace_overflow"` is the run total of
/// events the flight recorder's ring evicted. `None` when nothing was.
pub fn overflow_warning(obs: &str) -> Option<String> {
    let evicted = field_u64(obs, "trace_overflow").filter(|&n| n > 0)?;
    Some(format!(
        "warning: truncated trace — the flight recorder evicted {evicted} older events \
         (\"trace_overflow\"); the summary covers only what was kept"
    ))
}

/// Fold a trace file (or any concatenation of canonical lines) into a
/// [`Summary`].
pub fn summarize(input: &str) -> Summary {
    let mut s = Summary::default();
    for line in input.lines() {
        if line.is_empty() {
            continue;
        }
        s.lines += 1;
        let Some(kind) = field_str(line, "ev") else {
            s.malformed += 1;
            continue;
        };
        *s.by_kind.entry(kind.to_string()).or_default() += 1;
        let t = field_u64(line, "t").unwrap_or(0);
        match kind {
            "pkt_deliver" => {
                if let (Some(flow), Some(bits)) = (field_u64(line, "flow"), field_u64(line, "bits"))
                {
                    // Saturate: `bits` comes from the file, and a crafted
                    // line must not panic or wrap the total.
                    let total = s.delivered_bits.entry(flow).or_default();
                    *total = total.saturating_add(bits);
                }
            }
            "pkt_drop" => {
                *s.drops_by_sec.entry(t / 1_000_000_000).or_default() += 1;
                let reason = field_str(line, "reason").unwrap_or("unknown");
                *s.drops_by_reason.entry(reason.to_string()).or_default() += 1;
            }
            "sigma_lockout" | "sigma_alarm" => {
                s.sigma_log.push((t, line.to_string()));
            }
            _ => {}
        }
    }
    s
}

impl Summary {
    /// Render the human-facing report. `top` bounds the talker table and
    /// the guard-log excerpt.
    pub fn render(&self, top: usize) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} events ({} malformed lines skipped)",
            self.lines - self.malformed,
            self.malformed
        );
        for (kind, n) in &self.by_kind {
            let _ = writeln!(out, "  {kind:<16} {n:>10}");
        }

        if !self.delivered_bits.is_empty() {
            let mut talkers: Vec<(&u64, &u64)> = self.delivered_bits.iter().collect();
            // Descending by bits; flow id breaks ties so the table is
            // stable across runs of the same trace.
            talkers.sort_by_key(|&(flow, bits)| (std::cmp::Reverse(*bits), *flow));
            let _ = writeln!(out, "\ntop talkers (delivered bits by flow):");
            for (flow, bits) in talkers.into_iter().take(top.max(1)) {
                let _ = writeln!(out, "  flow {flow:<6} {bits:>14} bits");
            }
        }

        if !self.drops_by_sec.is_empty() {
            let _ = writeln!(out, "\ndrop timeline (per simulated second):");
            for (sec, n) in &self.drops_by_sec {
                let _ = writeln!(out, "  [{sec:>4}s] {n:>8}");
            }
            let reasons: Vec<String> = self
                .drops_by_reason
                .iter()
                .map(|(r, n)| format!("{r}={n}"))
                .collect();
            let _ = writeln!(out, "  reasons: {}", reasons.join(", "));
        }

        if !self.sigma_log.is_empty() {
            let _ = writeln!(
                out,
                "\nSIGMA guard log ({} entries, first {}):",
                self.sigma_log.len(),
                top.max(1).min(self.sigma_log.len())
            );
            for (_, line) in self.sigma_log.iter().take(top.max(1)) {
                let _ = writeln!(out, "  {line}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
{\"run\":0,\"t\":1000000000,\"ev\":\"pkt_enqueue\",\"node\":1,\"link\":0,\"flow\":7,\"src\":2,\"bits\":8000}\n\
{\"run\":0,\"t\":1500000000,\"ev\":\"pkt_deliver\",\"node\":3,\"flow\":7,\"src\":2,\"agent\":9,\"bits\":8000}\n\
{\"run\":0,\"t\":1600000000,\"ev\":\"pkt_deliver\",\"node\":3,\"flow\":8,\"src\":2,\"agent\":9,\"bits\":2000}\n\
{\"run\":0,\"t\":2100000000,\"ev\":\"pkt_drop\",\"node\":1,\"link\":0,\"flow\":7,\"src\":2,\"bits\":8000,\"reason\":\"queue_full\"}\n\
{\"run\":0,\"t\":2200000000,\"ev\":\"pkt_drop\",\"node\":1,\"link\":0,\"flow\":7,\"src\":2,\"bits\":8000,\"reason\":\"edge_filter\"}\n\
{\"run\":0,\"t\":3000000000,\"ev\":\"sigma_lockout\",\"node\":4,\"iface\":1,\"group\":900,\"until_slot\":12}\n\
not json\n";

    #[test]
    fn summarize_counts_and_classifies() {
        let s = summarize(SAMPLE);
        assert_eq!(s.lines, 7);
        assert_eq!(s.malformed, 1);
        assert_eq!(s.by_kind["pkt_deliver"], 2);
        assert_eq!(s.delivered_bits[&7], 8000);
        assert_eq!(s.delivered_bits[&8], 2000);
        assert_eq!(s.drops_by_sec[&2], 2);
        assert_eq!(s.drops_by_reason["queue_full"], 1);
        assert_eq!(s.drops_by_reason["edge_filter"], 1);
        assert_eq!(s.sigma_log.len(), 1);
        assert_eq!(s.sigma_log[0].0, 3_000_000_000);
    }

    #[test]
    fn delivered_bits_saturate_instead_of_wrapping() {
        let s = summarize(
            "{\"t\":1,\"ev\":\"pkt_deliver\",\"flow\":1,\"bits\":18446744073709551615}\n\
             {\"t\":2,\"ev\":\"pkt_deliver\",\"flow\":1,\"bits\":2}\n",
        );
        assert_eq!(s.delivered_bits[&1], u64::MAX);
    }

    #[test]
    fn render_orders_talkers_by_bits_then_flow() {
        let s = summarize(SAMPLE);
        let text = s.render(10);
        let f7 = text.find("flow 7").expect("flow 7 listed");
        let f8 = text.find("flow 8").expect("flow 8 listed");
        assert!(f7 < f8, "bigger talker first:\n{text}");
        assert!(
            text.contains("queue_full=1, edge_filter=1")
                || text.contains("edge_filter=1, queue_full=1")
        );
    }

    #[test]
    fn field_extractors_ignore_lookalike_keys() {
        let line = r#"{"t":5,"ev":"pkt_drop","slot":9,"until_slot":12}"#;
        assert_eq!(field_u64(line, "slot"), Some(9));
        assert_eq!(field_u64(line, "until_slot"), Some(12));
        assert_eq!(field_u64(line, "missing"), None);
        assert_eq!(field_str(line, "ev"), Some("pkt_drop"));
    }

    /// A 2-slot ring fed five events keeps two and counts three evicted;
    /// the OBS payload rendered beside the trace carries the count.
    #[test]
    fn overflowed_ring_earns_a_warning() {
        use mcc_obs::{PktRef, Recorder, TraceEvent};
        let record = |cap: usize| {
            let mut rec = Recorder::new(0, cap);
            for flow in 1..=5 {
                let pkt = PktRef {
                    node: 0,
                    link: 1,
                    flow,
                    src: 3,
                    group: 4,
                    agent: u32::MAX,
                    size_bits: 8,
                };
                rec.record(
                    mcc_simcore::SimTime::from_nanos(flow.into()),
                    TraceEvent::PktEnqueue(pkt),
                );
            }
            mcc_core::obs::render_runs("ring", &mut [rec])
        };
        let out = record(2);
        assert_eq!(
            summarize(&out.jsonl).lines,
            2,
            "the file holds the kept two"
        );
        let warning = overflow_warning(&out.obs.to_string()).expect("overflow warns");
        assert!(warning.contains("evicted 3 "), "{warning}");
        assert_eq!(overflow_warning(&record(8).obs.to_string()), None);
    }

    #[test]
    fn obs_sibling_swaps_prefix_and_extension() {
        assert_eq!(
            obs_sibling(Path::new("/tmp/t1/TRACE_fig01_attack.jsonl")),
            Some(PathBuf::from("/tmp/t1/OBS_fig01_attack.json"))
        );
        assert_eq!(obs_sibling(Path::new("notes.jsonl")), None);
    }

    #[test]
    fn empty_input_renders_cleanly() {
        let s = summarize("");
        assert_eq!(s.render(5), "0 events (0 malformed lines skipped)\n");
    }
}
