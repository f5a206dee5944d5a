//! The experiment-level face of the observability layer: capture
//! lifecycle, canonical rendering, and file sinks.
//!
//! `mcc-obs` owns the event taxonomy and the per-shard flight recorder;
//! this module owns everything that needs the core crate — the runner
//! hook (`begin`/`finish` around each experiment body), the `run_secs`
//! chokepoint ([`run_sim`]), JSON serialization through the runner's
//! canonical [`Json`] writer, and the output files:
//!
//! * `TRACE_<experiment>.jsonl` — sim-class events in canonical order.
//! * `TRACE_<experiment>.exec.jsonl` — exec-class (shard lifecycle)
//!   events; describes the executor, excluded from byte comparison.
//! * `TRACE_<experiment>.pcapng` — packet-lifecycle events as pcapng.
//! * `OBS_<experiment>.json` — the counter metrics registry plus
//!   wall-clock phase timing (reporting-only).
//!
//! Canonical order is the pivot of the byte-identity contract: each run's
//! events go through [`merge_stamped`] (the same discipline cross-shard
//! packet exchange trusts), then a global stable sort on `(run, sim-time,
//! rendered line)`. Rendered lines carry no shard, source-shard, sequence
//! or uid fields, so a serial and a sharded execution of the same scenario
//! render the same multiset of lines at every instant — and therefore the
//! same file bytes. The pcapng sink walks the *same* sorted sequence.
//!
//! The capture state is thread-local: the runner executes each experiment
//! body on exactly one worker thread, so `begin`/`run_sim`/`finish` always
//! meet on the thread that owns the capture.

use crate::config;
use crate::runner::Json;
use mcc_netsim::Sim;
use mcc_obs::{jsonl, pcapng, Metrics, Recorder, TraceEvent, TraceSpec, DEFAULT_RING_CAP};
use mcc_simcore::{merge_stamped, ShardId, SimTime};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::PathBuf;

thread_local! {
    static ACTIVE: RefCell<Option<Capture>> = const { RefCell::new(None) };
}

/// One experiment's worth of flight recorders — one per [`run_sim`] call,
/// in call order (the "run" index of the rendered lines).
struct Capture {
    runs: Vec<Recorder>,
}

/// Start a capture for `name` if tracing is configured. Runner hook;
/// no-op (and no cost beyond one `OnceLock` read) when `MCC_TRACE` is
/// unset.
pub(crate) fn begin(_name: &str) {
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
    // `MCC_TRACE` is unset, and it belongs to the caller, not to us.
    let Some(spec) = config::trace_spec() else {
        return;
    };
    let cap = ACTIVE.with(|a| a.borrow_mut().take());
    let Some(mut cap) = cap else { return };
    let out = render(name, &mut cap.runs);
    if let Err(e) = write_outputs(name, spec, &out) {
        eprintln!("warning: trace output for {name} not written: {e}");
    }
}

/// Run `sim` to `until`, honoring `MCC_THREADS` — and, when a capture is
/// active on this thread, ride a flight recorder on the run.
///
/// This is the scenario chokepoint: `run_secs` in every topology builder
/// routes here, so `--trace` covers each figure experiment without the
/// experiments knowing tracing exists. Without an active capture the
/// traced branch is never entered and the run is byte-for-byte the
/// pre-observability code path.
pub fn run_sim(sim: &mut Sim, until: SimTime) {
    let workers = config::shard_workers();
    let tracing = ACTIVE.with(|a| a.borrow().is_some());
    if !tracing {
        if workers > 1 {
            mcc_netsim::shard::run_until_sharded(sim, until, workers);
        } else {
            sim.run_until(until);
        }
        return;
    }
    sim.world.attach_tracer(Recorder::new(0, DEFAULT_RING_CAP));
    let before = sim.world.processed_events();
    #[expect(clippy::disallowed_methods, reason = "run busy timing, reporting only")]
    let t0 = std::time::Instant::now();
    let sharded = if workers > 1 {
        mcc_netsim::shard::run_until_sharded(sim, until, workers) > 1
    } else {
        sim.run_until(until);
        false
    };
    #[expect(clippy::disallowed_methods, reason = "run busy timing, reporting only")]
    let elapsed_ns = t0.elapsed().as_nanos() as u64;
    let mut rec = sim
        .world
        .take_tracer()
        .expect("the recorder survives the run it rode on");
    if !sharded {
        // The sharded executor accounts window timing and executed-event
        // counts itself; a serial run (or the serial fallback when the
        // topology is too small to shard) accounts here.
        rec.metrics.events_executed += sim.world.processed_events() - before;
        rec.metrics.busy_ns += elapsed_ns;
        rec.wall.run_ns += elapsed_ns;
    }
    rec.metrics.queue_high_water = rec
        .metrics
        .queue_high_water
        .max(sim.world.peak_pending_events() as u64);
    ACTIVE.with(|a| {
        if let Some(cap) = a.borrow_mut().as_mut() {
            cap.runs.push(rec);
        }
    });
}

/// The rendered sinks of one capture — what [`finish`] writes to disk and
/// what [`capture`] hands back to in-process tests.
pub struct TraceOutput {
    /// Canonical sim-class JSONL (byte-compared across thread modes).
    pub jsonl: String,
    /// Exec-class JSONL (shard lifecycle; excluded from byte comparison).
    pub exec_jsonl: String,
    /// pcapng stream over the packet-lifecycle subset, same canonical
    /// order as `jsonl`.
    pub pcapng: Vec<u8>,
    /// The `OBS_<experiment>.json` payload (counters, per-shard metrics,
    /// wall-clock phase timing).
    pub obs: Json,
}

/// Force-capture every [`run_sim`] call inside `f`, regardless of
/// `MCC_TRACE`, and hand back the rendered sinks instead of writing
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
    (value, render(label, &mut cap.runs))
}

/// Render recorders through the exact canonical pipeline the file sinks
/// use — the hook the workspace determinism tests use to compare sink
/// bytes across shard layouts without touching the filesystem.
pub fn render_runs(label: &str, runs: &mut [Recorder]) -> TraceOutput {
    render(label, runs)
}

fn render(label: &str, runs: &mut [Recorder]) -> TraceOutput {
    let mut sim_events: Vec<(u32, SimTime, String, TraceEvent)> = Vec::new();
    let mut exec_lines: Vec<String> = Vec::new();
    for (i, rec) in runs.iter_mut().enumerate() {
        let run = i as u32;
        let mut evs = rec.take_sim();
        merge_stamped(&mut evs);
        for s in &evs {
            sim_events.push((run, s.at, jsonl::render(run, s.at, &s.msg), s.msg));
        }
        let mut evs = rec.take_exec();
        merge_stamped(&mut evs);
        for s in &evs {
            exec_lines.push(jsonl::render_exec(run, s.src, s.at, &s.msg));
        }
    }
    // Global canonical order; the per-run merge above already sorted by
    // time, so this is a layout-independence sort, not a correctness one.
    sim_events.sort_by(|a, b| (a.0, a.1, a.2.as_str()).cmp(&(b.0, b.1, b.2.as_str())));

    let mut jsonl_out = String::new();
    let mut pcapng_out = pcapng::header();
    for (run, at, line, ev) in &sim_events {
        jsonl_out.push_str(line);
        jsonl_out.push('\n');
        if let Some(record) = pcapng::record(*run, ev) {
            pcapng::push_packet(&mut pcapng_out, *at, &record);
        }
    }
    let mut exec_out = String::new();
    for line in &exec_lines {
        exec_out.push_str(line);
        exec_out.push('\n');
    }
    TraceOutput {
        jsonl: jsonl_out,
        exec_jsonl: exec_out,
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

/// The `OBS_<experiment>.json` payload: totals, per-shard metrics (keyed
/// by shard id across all runs), and wall-clock phase timing. The wall
/// and `busy_ns` figures are reporting-only and vary run to run — this
/// file is deliberately *not* part of the byte-identity contract.
fn obs_json(label: &str, runs: &[Recorder]) -> Json {
    let mut total = Metrics::default();
    let mut per_shard: BTreeMap<ShardId, Metrics> = BTreeMap::new();
    let mut split_ns = 0u64;
    let mut run_ns = 0u64;
    let mut merge_ns = 0u64;
    for rec in runs {
        total.add(&rec.total_metrics());
        per_shard.entry(rec.shard()).or_default().add(&rec.metrics);
        for (id, m) in &rec.shards {
            per_shard.entry(*id).or_default().add(m);
        }
        split_ns += rec.wall.split_ns;
        run_ns += rec.wall.run_ns;
        merge_ns += rec.wall.merge_ns;
    }
    Json::obj([
        ("experiment", Json::Str(label.to_string())),
        ("runs", Json::U64(runs.len() as u64)),
        ("metrics", metrics_obj(&total)),
        (
            "shards",
            Json::Arr(
                per_shard
                    .iter()
                    .map(|(id, m)| {
                        let mut obj = vec![("shard".to_string(), Json::U64(*id as u64))];
                        obj.extend(
                            m.pairs()
                                .into_iter()
                                .map(|(k, v)| (k.to_string(), Json::U64(v))),
                        );
                        Json::Obj(obj)
                    })
                    .collect(),
            ),
        ),
        (
            "wall_ns",
            Json::obj([
                ("split", Json::U64(split_ns)),
                ("run", Json::U64(run_ns)),
                ("merge", Json::U64(merge_ns)),
            ]),
        ),
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

fn write_outputs(name: &str, spec: &TraceSpec, out: &TraceOutput) -> std::io::Result<()> {
    let dir: PathBuf = spec
        .dir
        .as_ref()
        .map(PathBuf::from)
        .unwrap_or_else(config::out_dir);
    std::fs::create_dir_all(&dir)?;
    let stem = sanitize(name);
    if spec.jsonl {
        std::fs::write(dir.join(format!("TRACE_{stem}.jsonl")), &out.jsonl)?;
        if !out.exec_jsonl.is_empty() {
            std::fs::write(
                dir.join(format!("TRACE_{stem}.exec.jsonl")),
                &out.exec_jsonl,
            )?;
        }
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
        rec.record(SimTime::from_nanos(5), TraceEvent::ShardSplit { shards: 2 });
        let out = render("t", &mut [rec]);
        let lines: Vec<&str> = out.jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"t\":10"), "time-sorted: {}", lines[0]);
        assert!(lines[1].contains("\"t\":20"));
        assert_eq!(
            out.pcapng.len(),
            pcapng::HEADER_LEN + 2 * pcapng::EPB_LEN,
            "one EPB per packet event"
        );
        assert_eq!(out.exec_jsonl.lines().count(), 1);
    }

    #[test]
    fn obs_json_folds_totals_and_shards() {
        let mut root = Recorder::new(0, 64);
        root.record(SimTime::from_nanos(1), pkt(1));
        let mut leaf = Recorder::new(2, 64);
        leaf.record(SimTime::from_nanos(2), pkt(2));
        leaf.record(SimTime::from_nanos(3), pkt(3));
        root.absorb(leaf);
        let json = obs_json("x", &[root]).to_string();
        assert!(json.starts_with(r#"{"experiment":"x","runs":1,"metrics":{"#));
        assert!(
            json.contains(r#""enqueues":3"#),
            "total folds shards: {json}"
        );
        assert!(json.contains(r#""shard":0"#) && json.contains(r#""shard":2"#));
        assert!(json.contains(r#""wall_ns":{"split":0,"run":0,"merge":0}"#));
    }

    /// The forcing API captures a run without `MCC_TRACE`, and the
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
