//! The experiment-level face of the observability layer: capture
//! lifecycle, canonical rendering, and file sinks.
//!
//! `mcc-obs` owns the event taxonomy and the flight recorder; this module
//! owns everything that needs the core crate — the runner hook
//! (`begin`/`finish` around each experiment body), the `run_secs`
//! chokepoint (`run_sim`), JSON serialization through the runner's
//! canonical [`Json`] writer, and the output files:
//!
//! * `TRACE_<experiment>.jsonl` — every event in canonical order.
//! * `TRACE_<experiment>.pcapng` — packet-lifecycle events as pcapng.
//! * `OBS_<experiment>.json` — the counter metrics registry plus
//!   wall-clock run timing (reporting-only).
//!
//! Canonical order is `(run, sim-time, rendered line)`. Rendered lines
//! carry no sequence or uid fields, so the order of same-instant events
//! is fixed by their content. The pcapng sink walks the *same* sorted
//! sequence.
//!
//! The capture state is thread-local: the runner executes each experiment
//! body on exactly one worker thread, so `begin`/`run_sim`/`finish` always
//! meet on the thread that owns the capture.

use crate::config;
use crate::runner::Json;
use mcc_netsim::Sim;
use mcc_obs::{jsonl, pcapng, Metrics, Recorder, TraceEvent, TraceSpec, DEFAULT_RING_CAP};
use mcc_simcore::SimTime;
use std::cell::RefCell;
use std::path::Path;

thread_local! {
    static ACTIVE: RefCell<Option<Capture>> = const { RefCell::new(None) };
}

/// One experiment's worth of flight recorders — one per [`run_sim`] call,
/// in call order (the "run" index of the rendered lines).
struct Capture {
    runs: Vec<Recorder>,
}

/// Start a capture if tracing is configured. Runner hook; no-op (and no
/// cost beyond one `OnceLock` read) without `--trace`.
pub(crate) fn begin() {
    if config::trace_spec().is_none() {
        return;
    }
    ACTIVE.with(|a| *a.borrow_mut() = Some(Capture { runs: Vec::new() }));
}

/// Finish the capture for `name`: render the sinks and write them next to
/// the experiment's results. Write failures warn and continue — tracing
/// must never take a run down.
pub(crate) fn finish(name: &str) {
    // Check the config gate *before* taking the capture: a forced capture
    // (see [`capture`]) may be active around a runner call even though
    // tracing is off, and it belongs to the caller, not to us.
    let Some(spec) = config::trace_spec() else {
        return;
    };
    let cap = ACTIVE.with(|a| a.borrow_mut().take());
    let Some(mut cap) = cap else { return };
    let out = render_runs(name, &mut cap.runs);
    if let Err(e) = write_outputs(name, spec, &out) {
        eprintln!("warning: trace output for {name} not written: {e}");
    }
}

/// Is a capture active on this thread? While one is, every simulation
/// must really run so the trace records it: the runner's memo
/// ([`crate::runner::memo`]) checks this and stands aside.
pub(crate) fn capturing() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// Run `sim` to `until` — and, when a capture is active on this thread,
/// ride a flight recorder on the run.
///
/// This is the scenario chokepoint: `run_secs` in every topology builder
/// routes here, so `--trace` covers each figure experiment without the
/// experiments knowing tracing exists. Without an active capture the
/// traced branch is never entered and the run is byte-for-byte the
/// pre-observability code path.
pub(crate) fn run_sim(sim: &mut Sim, until: SimTime) {
    if !capturing() {
        sim.run_until(until);
        return;
    }
    sim.world.attach_tracer(Recorder::new(0, DEFAULT_RING_CAP));
    let before = sim.world.processed_events();
    #[expect(clippy::disallowed_methods, reason = "run busy timing, reporting only")]
    let t0 = std::time::Instant::now();
    sim.run_until(until);
    #[expect(clippy::disallowed_methods, reason = "run busy timing, reporting only")]
    let elapsed_ns = t0.elapsed().as_nanos() as u64;
    let mut rec = sim
        .world
        .take_tracer()
        .expect("the recorder survives the run it rode on");
    rec.metrics.events_executed = sim.world.processed_events() - before;
    rec.metrics.busy_ns = elapsed_ns;
    rec.metrics.queue_high_water = sim.world.peak_pending_events() as u64;
    ACTIVE.with(|a| {
        if let Some(cap) = a.borrow_mut().as_mut() {
            cap.runs.push(rec);
        }
    });
}

/// The rendered sinks of one capture — what `finish` writes to disk and
/// what [`capture`] hands back to in-process tests.
pub struct TraceOutput {
    /// Canonical JSONL (byte-compared across thread modes).
    pub jsonl: String,
    /// pcapng stream over the packet-lifecycle subset, same canonical
    /// order as `jsonl`.
    pub pcapng: Vec<u8>,
    /// The `OBS_<experiment>.json` payload (counters, wall-clock run
    /// timing).
    pub obs: Json,
}

/// Force-capture every `run_sim` call inside `f`, whether or not
/// `--trace` is set, and hand back the rendered sinks instead of writing
/// files — the in-process hook the determinism tests use. Any capture
/// already active on this thread is restored afterwards.
pub fn capture<R>(label: &str, f: impl FnOnce() -> R) -> (R, TraceOutput) {
    let prev = ACTIVE.with(|a| a.borrow_mut().replace(Capture { runs: Vec::new() }));
    let value = f();
    let cap = ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        let cap = slot.take();
        *slot = prev;
        cap
    });
    let mut cap = cap.expect("capture stays active across f");
    (value, render_runs(label, &mut cap.runs))
}

/// Render recorders (one per run, in run order) through the canonical
/// pipeline: what `finish` writes to disk, what [`capture`] hands back,
/// and what the benchmark's traced pass times.
pub fn render_runs(label: &str, runs: &mut [Recorder]) -> TraceOutput {
    let mut events: Vec<(u32, SimTime, String, TraceEvent)> = Vec::new();
    for (i, rec) in runs.iter_mut().enumerate() {
        let run = i as u32;
        for (at, ev) in rec.take_events() {
            events.push((run, at, jsonl::render(run, at, &ev), ev));
        }
    }
    // Canonical order: each ring is already in time order, and the line
    // breaks ties between same-instant events by content.
    events.sort_by(|a, b| (a.0, a.1, a.2.as_str()).cmp(&(b.0, b.1, b.2.as_str())));

    let mut jsonl_out = String::new();
    let mut pcapng_out = pcapng::header();
    for (run, at, line, ev) in &events {
        jsonl_out.push_str(line);
        jsonl_out.push('\n');
        if let Some(record) = pcapng::record(*run, ev) {
            pcapng::push_packet(&mut pcapng_out, *at, &record);
        }
    }
    TraceOutput {
        jsonl: jsonl_out,
        pcapng: pcapng_out,
        obs: obs_json(label, runs),
    }
}

fn metrics_obj(m: &Metrics) -> Json {
    Json::Obj(
        m.pairs()
            .into_iter()
            .map(|(k, v)| (k.to_string(), Json::U64(v)))
            .collect(),
    )
}

/// The `OBS_<experiment>.json` payload: metrics totalled over the runs,
/// and the wall-clock time spent running them (`wall_ns.run`, the total
/// `busy_ns`). The wall figures are reporting-only and vary run to run —
/// this file is deliberately *not* part of the byte-identity contract.
fn obs_json(label: &str, runs: &[Recorder]) -> Json {
    let mut total = Metrics::default();
    for rec in runs {
        total.add(&rec.metrics);
    }
    Json::obj([
        ("experiment", Json::Str(label.to_string())),
        ("runs", Json::U64(runs.len() as u64)),
        ("metrics", metrics_obj(&total)),
        ("wall_ns", Json::obj([("run", Json::U64(total.busy_ns))])),
    ])
}

/// File names embed the experiment name; anything outside `[A-Za-z0-9._-]`
/// becomes `-` so sweep-suffixed names (`fig04 cross=2`) stay one path
/// component.
fn sanitize(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '-'
            }
        })
        .collect()
}

/// Write the sinks `spec` selects into `spec.dir` (the current directory
/// when unset; the `figures` CLI always sets it).
fn write_outputs(name: &str, spec: &TraceSpec, out: &TraceOutput) -> std::io::Result<()> {
    let dir = Path::new(spec.dir.as_deref().unwrap_or("."));
    std::fs::create_dir_all(dir)?;
    let stem = sanitize(name);
    if spec.jsonl {
        std::fs::write(dir.join(format!("TRACE_{stem}.jsonl")), &out.jsonl)?;
    }
    if spec.pcapng {
        std::fs::write(dir.join(format!("TRACE_{stem}.pcapng")), &out.pcapng)?;
    }
    std::fs::write(dir.join(format!("OBS_{stem}.json")), out.obs.to_string())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_obs::PktRef;
    use mcc_simcore::SimDuration;

    fn pkt(flow: u32) -> TraceEvent {
        TraceEvent::PktEnqueue(PktRef {
            node: 0,
            link: 1,
            flow,
            src: 3,
            group: 4,
            agent: u32::MAX,
            size_bits: 8,
        })
    }

    #[test]
    fn sanitize_keeps_names_one_path_component() {
        assert_eq!(sanitize("fig01"), "fig01");
        assert_eq!(sanitize("fig04 cross=2"), "fig04-cross-2");
        assert_eq!(sanitize("a/b\\c"), "a-b-c");
    }

    #[test]
    fn render_orders_events_and_feeds_both_sinks() {
        let mut rec = Recorder::new(0, 64);
        rec.record(SimTime::from_nanos(20), pkt(1));
        rec.record(SimTime::from_nanos(10), pkt(2));
        rec.record(
            SimTime::from_nanos(5),
            TraceEvent::Join { agent: 1, group: 4 },
        );
        let out = render_runs("t", &mut [rec]);
        let lines: Vec<&str> = out.jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"t\":5"), "time-sorted: {}", lines[0]);
        assert!(lines[1].contains("\"t\":10"));
        assert!(lines[2].contains("\"t\":20"));
        assert_eq!(
            out.pcapng.len(),
            pcapng::HEADER_LEN + 2 * pcapng::EPB_LEN,
            "one EPB per packet event"
        );
    }

    #[test]
    fn obs_json_folds_totals_across_runs() {
        let mut first = Recorder::new(0, 64);
        first.record(SimTime::from_nanos(1), pkt(1));
        let mut second = Recorder::new(0, 64);
        second.record(SimTime::from_nanos(2), pkt(2));
        second.record(SimTime::from_nanos(3), pkt(3));
        second.metrics.busy_ns = 7;
        let json = obs_json("x", &[first, second]).to_string();
        assert!(json.starts_with(r#"{"experiment":"x","runs":2,"metrics":{"#));
        assert!(json.contains(r#""enqueues":3"#), "total folds runs: {json}");
        assert!(json.ends_with(r#""wall_ns":{"run":7}}"#), "{json}");
    }

    /// The forcing API captures a run without `--trace`, and the
    /// recorder rides even a run that executes zero interesting events.
    #[test]
    fn capture_forces_a_recorder_onto_run_sim() {
        let ((), out) = capture("empty", || {
            let mut sim = Sim::new(7, SimDuration::from_secs(1));
            sim.add_node();
            sim.finalize();
            run_sim(&mut sim, SimTime::from_secs(1));
        });
        assert!(out.jsonl.is_empty(), "no packets, no lines");
        assert_eq!(out.pcapng.len(), pcapng::HEADER_LEN);
        assert!(out.obs.to_string().contains(r#""runs":1"#));
    }

    #[test]
    fn run_sim_without_capture_leaves_no_tracer() {
        let mut sim = Sim::new(7, SimDuration::from_secs(1));
        sim.add_node();
        sim.finalize();
        run_sim(&mut sim, SimTime::from_secs(1));
        assert!(!sim.world.tracing());
    }
}
