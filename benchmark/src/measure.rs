//! One pass over one workload in this process — the invocation
//! `BENCHMARK.json` names, and what `run` spawns once per workload and
//! pass. Prints every metric by name with its unit, writes a detail file
//! under `--out`, and ends with the one-line result object.

use std::path::Path;
use std::time::Instant;

use robust_multicast::core::experiments::peak_rss_bytes;
use robust_multicast::core::runner::Json;

use crate::json;
use crate::metrics::{metrics_json, per_layer, END_TO_END, RUN_SECONDS};
use crate::report::{checks_json, human, write_json};
use crate::stats::Summary;
use crate::traced::traced_pass;
use crate::workloads::{
    self, check_goldens, check_outcomes, rep_seed, sim_rep, suite_defs, suite_rep,
    suite_setup_sample, timed_build, Check, Rep, Workload, CANONICAL_SEED,
};
use crate::Flags;

/// Timed repetitions: at least `MIN_REPS` whatever `--seconds` says (a
/// median of fewer means little), at most `MAX_REPS`.
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 7;

/// Set-up is cheap next to a run, so build-only samples top the
/// repetitions' own up to this many, within `SETUP_EXTRA_SECS`.
const SETUP_SAMPLES: usize = 201;
const SETUP_EXTRA_SECS: f64 = 1.0;

pub fn cmd_measure(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["smoke"])?;
    flags.only(&["workload", "seed", "seconds", "trace", "out", "smoke"])?;
    if !flags.positional.is_empty() {
        return Err(format!("unexpected argument {:?}", flags.positional[0]));
    }
    let name = flags
        .value("workload")
        .ok_or("usage: --workload NAME --seed N --seconds T --trace 0|1 | run | compare A B")?;
    let w = workloads::find(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?} (known: {})", known.join(", "))
    })?;
    let seed = flags.number("seed", CANONICAL_SEED)?;
    let seconds = flags.number("seconds", RUN_SECONDS)?;
    let traced = match flags.number("trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1 (got {other})")),
    };
    let smoke = flags.has("smoke");
    let out = flags
        .value("out")
        .map_or_else(crate::default_out, Into::into);

    let (pass, metrics, checks, detail) = if traced {
        traced_detail(w, seed, smoke)
    } else {
        timed_detail(w, seed, seconds as f64, smoke)
    };
    let failed = checks.iter().filter(|c| !c.ok).count();
    for c in &checks {
        let verdict = if c.ok { "ok  " } else { "FAIL" };
        println!("{:<16} check {verdict} {:<34} {}", w.name, c.name, c.detail);
    }
    let header = Json::obj([
        ("workload", Json::Str(w.name.into())),
        ("pass", Json::Str(pass.into())),
        ("seed", Json::U64(seed)),
        ("smoke", Json::Bool(smoke)),
        ("checks_total", Json::U64(checks.len() as u64)),
        ("checks_failed", Json::U64(failed as u64)),
        ("checks", checks_json(&checks)),
    ]);
    let fields = [header, detail]
        .iter()
        .flat_map(json::members)
        .cloned()
        .collect();
    write_json(
        &out.join(format!("{}.{pass}.json", w.name)),
        &Json::Obj(fields),
    )?;

    // The result object: always the last line of standard output.
    let result = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::U64(checks.len() as u64)),
        ("failed", Json::U64(failed as u64)),
        ("metrics", metrics),
    ]);
    println!("{result}");
    Ok(failed == 0)
}

/// A pass's name, its `metrics` object, its checks, and the fields it
/// adds to the detail file.
type Detail = (&'static str, Json, Vec<Check>, Json);

fn print_metric(workload: &str, name: &str, value: f64, unit: &str, note: &str) {
    println!(
        "{workload:<16} {name:<52} {:>16} {unit:<9}{note}",
        human(value)
    );
}

// ---------------------------------------------------------------------------
// The timed pass (tracing off): the end-to-end metrics
// ---------------------------------------------------------------------------

/// Run `rep(0)`, `rep(1)`, … until `seconds` are spent — but at least
/// `MIN_REPS` and at most `MAX_REPS` of them (one in smoke mode).
fn timed_reps(seconds: f64, smoke: bool, mut rep: impl FnMut(usize) -> Rep) -> Vec<Rep> {
    let (min, max) = if smoke { (1, 1) } else { (MIN_REPS, MAX_REPS) };
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        reps.push(rep(reps.len()));
        let elapsed = start.elapsed().as_secs_f64();
        let next_ends = elapsed + elapsed / reps.len() as f64;
        if reps.len() >= max || (reps.len() >= min && next_ends > seconds) {
            return reps;
        }
    }
}

/// Top `setups` up to `SETUP_SAMPLES` with build-only samples.
fn extra_setups(setups: &mut Vec<f64>, smoke: bool, mut sample: impl FnMut() -> f64) {
    let start = Instant::now();
    while !smoke && setups.len() < SETUP_SAMPLES && start.elapsed().as_secs_f64() < SETUP_EXTRA_SECS
    {
        setups.push(sample());
    }
}

fn timed_detail(w: &Workload, seed: u64, seconds: f64, smoke: bool) -> Detail {
    let mut checks = Vec::new();
    let (reps, setups, rerun) = match w.sim_job(seed, smoke) {
        Some((job, _)) => {
            // Untimed warm-up: a tenth of the work, so the allocator and
            // the page cache have seen this scenario's shapes — twice,
            // which also shows that a run repeats exactly.
            let rerun = [sim_rep(&job.tenth()).outcome, sim_rep(&job.tenth()).outcome];
            let reps = timed_reps(seconds, smoke, |i| sim_rep(&job.rep(i)));
            let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
            extra_setups(&mut setups, smoke, || timed_build(&job).1);
            (reps, setups, rerun)
        }
        None => {
            let defs = suite_defs(smoke);
            // Untimed warm-up, twice: the three ablations (two analytic,
            // one small simulation sweep).
            let warm_up = || suite_rep(&suite_defs(true), seed).0.outcome;
            let rerun = [warm_up(), warm_up()];
            let mut first_report = None;
            let reps = timed_reps(seconds, smoke, |i| {
                let (rep, report) = suite_rep(&defs, rep_seed(seed, i));
                first_report.get_or_insert(report);
                rep
            });
            let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
            extra_setups(&mut setups, smoke, || suite_setup_sample(&defs, seed));
            // Only the canonical seed runs the registered (pinned) seeds,
            // and only on repetition 0.
            if seed == CANONICAL_SEED && !smoke {
                let golden_dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../tests/golden"));
                let report = first_report.expect("at least one repetition");
                checks.extend(check_goldens(&report, golden_dir));
            }
            (reps, setups, rerun)
        }
    };
    let peak_rss_mib = peak_rss_bytes() as f64 / (1024.0 * 1024.0);
    let outcomes: Vec<_> = reps.iter().map(|r| r.outcome.clone()).collect();
    checks.splice(0..0, check_outcomes(w, &outcomes, &rerun));
    let first = &outcomes[0];

    let runs: Vec<f64> = reps.iter().map(|r| r.run_wall_s).collect();
    let rates: Vec<f64> = reps.iter().map(|r| r.work / r.run_wall_s).collect();
    let summaries = [
        Summary::of(&setups),
        Summary::of(&runs),
        Summary::of(&rates),
        Summary::of(&[peak_rss_mib]),
    ];
    let mut noisy = false;
    for (m, s) in END_TO_END.iter().zip(&summaries) {
        let is_noisy = s.q3 - s.q1 > m.tolerance(s.median);
        noisy |= is_noisy;
        let note = format!(
            "  median of {} (q1 {}, q3 {}){}",
            s.samples.len(),
            human(s.q1),
            human(s.q3),
            if is_noisy { "  NOISY" } else { "" }
        );
        print_metric(w.name, m.name, s.median, m.unit, &note);
    }
    let metrics = metrics_json(
        END_TO_END
            .iter()
            .zip(&summaries)
            .map(|(m, s)| (m.name.to_string(), s.median, m.unit)),
    );
    let end_to_end = Json::Obj(
        END_TO_END
            .iter()
            .zip(&summaries)
            .map(|(m, s)| (m.name.to_string(), s.to_json(m.unit)))
            .collect(),
    );
    let detail = Json::obj([
        ("horizon_s", Json::U64(w.horizon)),
        ("reps", Json::U64(reps.len() as u64)),
        ("sim_digest", Json::Str(format!("{:016x}", first.digest))),
        ("events", first.events.map_or(Json::Null, Json::U64)),
        ("peak_queue_depth", Json::U64(first.peak_queue_depth)),
        ("simulated_s", Json::Num(first.end_ms as f64 / 1e3)),
        ("report_bytes", Json::U64(first.report_bytes)),
        ("noisy", Json::Bool(noisy)),
        ("end_to_end", end_to_end),
    ]);
    println!(
        "{:<16} sim_digest {:016x}  events {}  peak_queue_depth {}  simulated_s {:.1}",
        w.name,
        first.digest,
        first.events.map_or("n/a".into(), |e| e.to_string()),
        first.peak_queue_depth,
        first.end_ms as f64 / 1e3
    );
    ("timed", metrics, checks, detail)
}

// ---------------------------------------------------------------------------
// The traced pass: the per-layer metrics and the span file
// ---------------------------------------------------------------------------

fn traced_detail(w: &Workload, seed: u64, smoke: bool) -> Detail {
    let t = traced_pass(w, seed, smoke);
    let table = per_layer();
    for (name, unit, _) in &table {
        print_metric(w.name, name, t.values.get(name), unit, "");
    }
    let metrics = metrics_json(
        table
            .iter()
            .map(|(name, unit, _)| (name.clone(), t.values.get(name), *unit)),
    );
    let detail = Json::obj([
        ("traced_run_wall_s", Json::Num(t.traced_run_wall_s)),
        ("per_layer", metrics.clone()),
        ("spans", t.spans.to_json(w.name)),
    ]);
    ("traced", metrics, t.checks, detail)
}
