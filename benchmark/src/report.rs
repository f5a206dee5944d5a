//! `run`: both passes over every workload, one child process per
//! workload and pass, assembled into one result file with a provenance
//! and noise header — plus the JSON plumbing the other commands share.

use std::path::{Path, PathBuf};
use std::process::Command;

use robust_multicast::core::runner::Json;

use crate::json;
use crate::metrics::{END_TO_END, RUN_SECONDS};
use crate::workloads::{Check, CANONICAL_SEED, WORKLOADS};
use crate::Flags;

pub fn checks_json(checks: &[Check]) -> Json {
    Json::Arr(
        checks
            .iter()
            .map(|c| {
                Json::obj([
                    ("name", Json::Str(c.name.clone())),
                    ("ok", Json::Bool(c.ok)),
                    ("detail", Json::Str(c.detail.clone())),
                ])
            })
            .collect(),
    )
}

/// A measured value for people: six decimals, or three significant
/// digits in scientific notation below a thousandth.
pub fn human(value: f64) -> String {
    if value == 0.0 || value.abs() >= 1e-3 {
        format!("{value:.6}")
    } else {
        format!("{value:.3e}")
    }
}

/// `value` indented two spaces per level, one member per line.
pub fn pretty(value: &Json) -> String {
    fn write(value: &Json, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth + 1);
        let (open, close, members): (char, char, Vec<String>) = match value {
            Json::Arr(items) if !items.is_empty() => {
                let render = |v| {
                    let mut s = String::new();
                    write(v, depth + 1, &mut s);
                    s
                };
                ('[', ']', items.iter().map(render).collect())
            }
            Json::Obj(pairs) if !pairs.is_empty() => {
                let render = |(k, v): &(String, Json)| {
                    let mut s = format!("{}: ", Json::Str(k.clone()));
                    write(v, depth + 1, &mut s);
                    s
                };
                ('{', '}', pairs.iter().map(render).collect())
            }
            scalar => return out.push_str(&scalar.to_string()),
        };
        // Leaves (an object or array of scalars) stay on one line.
        let flat = members.iter().all(|m| !m.contains('\n'));
        let width: usize = members.iter().map(|m| m.len() + 2).sum();
        if flat && width <= 100 {
            out.push(open);
            out.push_str(&members.join(", "));
            out.push(close);
        } else {
            out.push(open);
            out.push('\n');
            out.push_str(&pad);
            out.push_str(&members.join(&format!(",\n{pad}")));
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
            out.push(close);
        }
    }
    let mut out = String::new();
    write(value, 0, &mut out);
    out
}

pub fn write_json(path: &Path, value: &Json) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    std::fs::write(path, pretty(value) + "\n").map_err(io)
}

pub fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// A command's standard output, when it ran and succeeded.
fn stdout_of(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(output.stdout).ok()?;
    output.status.success().then(|| text.trim().to_string())
}

/// One-minute load average, or -1 where `/proc` has none.
fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(-1.0)
}

/// Run one child pass to completion, its output passed through.
fn child(workload: &str, seed: u64, seconds: u64, traced: bool, out: &Path, smoke: bool) -> bool {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(out);
    if smoke {
        cmd.arg("--smoke");
    }
    // `status` waits for the child; a child that could not even start
    // counts as failed.
    cmd.status().is_ok_and(|s| s.success())
}

pub fn cmd_run(args: &[String]) -> Result<bool, String> {
    let flags = Flags::parse(args, &["smoke"])?;
    flags.only(&["seed", "seconds", "out", "smoke"])?;
    let seed = flags.number("seed", CANONICAL_SEED)?;
    let seconds = flags.number("seconds", RUN_SECONDS)?;
    let smoke = flags.has("smoke");
    let out: PathBuf = flags
        .value("out")
        .map_or_else(crate::default_out, Into::into);
    let repo = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

    let load_before = load_average();
    let mut all_ok = true;
    // The timed pass first, tracing off; then the traced pass.
    for traced in [false, true] {
        for w in &WORKLOADS {
            all_ok &= child(w.name, seed, seconds, traced, &out, smoke);
        }
    }

    let unknown = || "unknown".to_string();
    let provenance = Json::obj([
        (
            "commit",
            Json::Str(
                stdout_of("git", &["-C", repo, "rev-parse", "--short", "HEAD"])
                    .unwrap_or_else(unknown),
            ),
        ),
        (
            "dirty",
            stdout_of("git", &["-C", repo, "status", "--porcelain"])
                .map_or(Json::Null, |changes| Json::Bool(!changes.is_empty())),
        ),
        (
            "rustc",
            Json::Str(stdout_of("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        (
            "nproc",
            Json::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("load_average_before", Json::Num(load_before)),
        ("load_average_after", Json::Num(load_average())),
        ("seed", Json::U64(seed)),
        ("seconds", Json::U64(seconds)),
        ("smoke", Json::Bool(smoke)),
    ]);

    let mut workloads = Vec::new();
    let mut spans = Vec::new();
    println!();
    for w in &WORKLOADS {
        let timed = read_json(&out.join(format!("{}.timed.json", w.name)))?;
        let traced = read_json(&out.join(format!("{}.traced.json", w.name)))?;
        workloads.push((w.name.to_string(), merge_passes(&timed, &traced)));
        // Parents index the workload's own spans; shift them to index the
        // merged file.
        let base = spans.len() as u64;
        for span in json::items(json::get(&traced, "spans").unwrap_or(&Json::Null)) {
            let shifted = json::members(span)
                .iter()
                .map(|(k, v)| match (k.as_str(), v) {
                    ("parent", Json::U64(p)) => (k.clone(), Json::U64(p + base)),
                    _ => (k.clone(), v.clone()),
                });
            spans.push(Json::Obj(shifted.collect()));
        }
        let failed = json::num(&timed, "checks_failed").unwrap_or(1.0)
            + json::num(&traced, "checks_failed").unwrap_or(1.0);
        all_ok &= failed == 0.0;
    }
    let result = Json::obj([
        ("provenance", provenance),
        ("workloads", Json::Obj(workloads)),
    ]);
    print_summary(&result);
    write_json(&out.join("result.json"), &result)?;
    write_json(&out.join("spans.json"), &Json::Arr(spans))?;
    println!(
        "\nresult: {}\nspans:  {}",
        out.join("result.json").display(),
        out.join("spans.json").display()
    );
    Ok(all_ok)
}

/// One workload's entry of the result file: the timed pass's fields,
/// then the traced pass's per-layer metrics, both passes' checks, and
/// the cost of looking.
fn merge_passes(timed: &Json, traced: &Json) -> Json {
    let skip = [
        "workload",
        "pass",
        "seed",
        "smoke",
        "checks",
        "checks_total",
        "checks_failed",
    ];
    let mut fields: Vec<(String, Json)> = json::members(timed)
        .iter()
        .filter(|(k, _)| !skip.contains(&k.as_str()))
        .cloned()
        .collect();
    let checks: Vec<Json> = [timed, traced]
        .iter()
        .flat_map(|pass| json::items(json::get(pass, "checks").unwrap_or(&Json::Null)).to_vec())
        .collect();
    let failed = checks
        .iter()
        .filter(|c| json::get(c, "ok") != Some(&Json::Bool(true)))
        .count();
    let traced_wall = json::num(traced, "traced_run_wall_s").unwrap_or(0.0);
    let timed_wall = json::get(timed, "end_to_end")
        .and_then(|e| json::get(e, "run_wall_s"))
        .and_then(|m| json::num(m, "median"))
        .unwrap_or(0.0);
    fields.extend([
        ("checks_total".to_string(), Json::U64(checks.len() as u64)),
        ("checks_failed".to_string(), Json::U64(failed as u64)),
        ("checks".to_string(), Json::Arr(checks)),
        // Traced run wall over the timed pass's median: what it costs to
        // look (smoke runs compare unequal sizes; read it on full runs).
        (
            "trace_overhead".to_string(),
            Json::Num(traced_wall / timed_wall.max(1e-12)),
        ),
        (
            "per_layer".to_string(),
            json::get(traced, "per_layer")
                .cloned()
                .unwrap_or(Json::Null),
        ),
    ]);
    Json::Obj(fields)
}

fn print_summary(result: &Json) {
    let workloads = json::get(result, "workloads").unwrap_or(&Json::Null);
    println!(
        "{:<16} {:>12} {:>12} {:>16} {:>13} {:>9} {:>7} {:>6}  sim_digest",
        "workload",
        "setup_s",
        "run_wall_s",
        "events_per_sec",
        "peak_rss_mib",
        "overhead",
        "checks",
        "noisy"
    );
    for (name, w) in json::members(workloads) {
        let median = |metric: &str| {
            json::get(w, "end_to_end")
                .and_then(|e| json::get(e, metric))
                .and_then(|m| json::num(m, "median"))
                .unwrap_or(f64::NAN)
        };
        let values: Vec<f64> = END_TO_END.iter().map(|m| median(m.name)).collect();
        println!(
            "{:<16} {:>12} {:>12.4} {:>16.1} {:>13.2} {:>9.3} {:>4}/{:<2} {:>6}  {}",
            name,
            human(values[0]),
            values[1],
            values[2],
            values[3],
            json::num(w, "trace_overhead").unwrap_or(f64::NAN),
            json::num(w, "checks_total").unwrap_or(0.0)
                - json::num(w, "checks_failed").unwrap_or(0.0),
            json::num(w, "checks_total").unwrap_or(0.0),
            json::get(w, "noisy") == Some(&Json::Bool(true)),
            json::str(w, "sim_digest").unwrap_or("?"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    #[test]
    fn pretty_output_parses_back_to_the_same_value() {
        let value = Json::obj([
            ("a", Json::Arr(vec![Json::U64(1), Json::U64(2)])),
            (
                "nested",
                Json::obj([
                    ("long", Json::Arr((0..60).map(Json::U64).collect())),
                    ("empty", Json::Arr(vec![])),
                ]),
            ),
        ]);
        let text = pretty(&value);
        assert!(text.contains('\n'));
        assert_eq!(json::parse(&text).unwrap(), value);
    }

    /// What `run` writes is what `compare` reads: a workload entry
    /// round-trips through the file format with its summaries intact.
    #[test]
    fn result_schema_round_trips() {
        let summary = Summary::of(&[2.5, 2.75, 3.25, 2.625, 2.875]);
        let timed = Json::obj([
            ("workload", Json::Str("fanout_dl".into())),
            ("pass", Json::Str("timed".into())),
            ("checks_total", Json::U64(1)),
            ("checks_failed", Json::U64(0)),
            (
                "checks",
                checks_json(&[crate::workloads::check("a", true, "fine".into())]),
            ),
            ("sim_digest", Json::Str("00ff".into())),
            ("noisy", Json::Bool(false)),
            (
                "end_to_end",
                Json::obj([("run_wall_s", summary.to_json("s"))]),
            ),
        ]);
        let traced = Json::obj([
            (
                "checks",
                checks_json(&[crate::workloads::check("b", false, "broken".into())]),
            ),
            ("traced_run_wall_s", Json::Num(3.4375)),
            (
                "per_layer",
                Json::obj([("netsim.sim.events", Json::obj([("value", Json::Num(7.5))]))]),
            ),
        ]);
        let entry = merge_passes(&timed, &traced);
        let back = json::parse(&pretty(&entry)).unwrap();
        let run_wall = json::get(json::get(&back, "end_to_end").unwrap(), "run_wall_s").unwrap();
        assert_eq!(Summary::from_json(run_wall), Some(summary));
        assert_eq!(json::num(run_wall, "n"), Some(5.0));
        assert_eq!(json::str(run_wall, "unit"), Some("s"));
        assert_eq!(json::str(&back, "sim_digest"), Some("00ff"));
        assert_eq!(json::num(&back, "checks_total"), Some(2.0));
        assert_eq!(json::num(&back, "checks_failed"), Some(1.0));
        assert_eq!(json::num(&back, "trace_overhead"), Some(3.4375 / 2.75));
        assert!(json::get(&back, "pass").is_none());
        assert!(json::get(json::get(&back, "per_layer").unwrap(), "netsim.sim.events").is_some());
    }
}
