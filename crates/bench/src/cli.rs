//! The `figures` CLI: one registry-driven front end replacing the
//! fourteen per-figure binaries.
//!
//! ```text
//! figures                      # regenerate all twelve figures
//! figures --list               # enumerate every registered experiment
//! figures --only fig07,fig08a  # a subset, by id or figure prefix
//! figures --only ablations     # the three design-choice ablations
//! figures --quick --threads 2  # shortened runs on two workers
//! figures --sweep seed=1,2,3   # re-run the selection per override
//! figures --out /tmp/results   # redirect the JSON report
//! ```
//!
//! Selection, seeds and payloads all come from `mcc_core::registry`; the
//! default invocation reproduces the historical
//! `results/BENCH_all_figures.json` byte for byte (suite
//! `robust-multicast-figures`, registered seeds, canonical JSON).

use std::path::PathBuf;

use mcc_core::registry::{self, Experiment, ExperimentDef, Kind};
use mcc_core::runner::{run_parallel, ExperimentSpec};
use mcc_core::{Params, TraceSpec};

/// The suite name of the combined figure report (unchanged across the
/// registry redesign — the byte-compat contract).
pub(crate) const SUITE: &str = "robust-multicast-figures";

/// A parsed `figures` invocation.
#[derive(Clone, Debug, Default)]
pub(crate) struct Cli {
    help: bool,
    list: bool,
    only: Option<Vec<String>>,
    quick: bool,
    threads: Option<usize>,
    out: Option<PathBuf>,
    sweep: Option<(String, Vec<String>)>,
    trace: Option<TraceSpec>,
}

impl Cli {
    /// Parse raw CLI arguments (no `argv[0]`).
    pub(crate) fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut it = args.iter();
        let value = |flag: &str, it: &mut std::slice::Iter<String>| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        // A value flag given twice is a usage error: the second would
        // silently replace the first.
        fn once<T>(slot: &mut Option<T>, flag: &str, v: T) -> Result<(), String> {
            if slot.replace(v).is_some() {
                return Err(format!("{flag} given twice (pass it once)"));
            }
            Ok(())
        }
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--list" | "-l" => cli.list = true,
                "--quick" | "-q" => cli.quick = true,
                "--only" => {
                    let v = value("--only", &mut it)?;
                    let tokens = v.split(',').map(|s| s.trim().to_string()).collect();
                    once(&mut cli.only, "--only", tokens)?;
                }
                "--threads" | "-j" => {
                    let v = value("--threads", &mut it)?;
                    let n: usize = v
                        .parse()
                        .map_err(|e| format!("--threads {v:?}: {e} (expected a worker count)"))?;
                    if n == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                    once(&mut cli.threads, "--threads", n)?;
                }
                "--out" | "-o" => {
                    let v = PathBuf::from(value("--out", &mut it)?);
                    once(&mut cli.out, "--out", v)?;
                }
                "--trace" => {
                    let v = value("--trace", &mut it)?;
                    let spec = TraceSpec::parse(&v).map_err(|e| format!("--trace {v:?}: {e}"))?;
                    once(&mut cli.trace, "--trace", spec)?;
                }
                "--sweep" => {
                    let v = value("--sweep", &mut it)?;
                    let (key, values) = v
                        .split_once('=')
                        .ok_or_else(|| format!("--sweep {v:?}: expected key=a,b,c"))?;
                    let key = key.trim();
                    // Validate the key up front: an unknown key must fail
                    // here, not after half the selection already ran.
                    if !Params::SWEEP_KEYS.contains(&key) {
                        return Err(format!(
                            "--sweep key {key:?} is not supported (valid keys: {})",
                            Params::SWEEP_KEYS.join(", ")
                        ));
                    }
                    let values: Vec<String> =
                        values.split(',').map(|s| s.trim().to_string()).collect();
                    if values.is_empty() || values.iter().any(|s| s.is_empty()) {
                        return Err(format!("--sweep {v:?}: empty value list"));
                    }
                    // Each value names one record (`id@key=value`).
                    if let Some((_, dup)) = values
                        .iter()
                        .enumerate()
                        .find(|&(i, x)| values[..i].contains(x))
                    {
                        return Err(format!("--sweep {v:?}: value {dup:?} repeated"));
                    }
                    once(&mut cli.sweep, "--sweep", (key.to_string(), values))?;
                }
                "--help" | "-h" => cli.help = true,
                other => return Err(format!("unknown argument {other:?}\n\n{}", usage())),
            }
        }
        Ok(cli)
    }

    /// The experiments this invocation selects, in registry order.
    fn selection(&self) -> Result<Vec<ExperimentDef>, String> {
        let Some(tokens) = &self.only else {
            return Ok(registry::figures());
        };
        let mut defs: Vec<ExperimentDef> = Vec::new();
        for token in tokens {
            let group = Kind::ALL.into_iter().find(|k| k.group() == token);
            let matched = match group {
                Some(kind) => registry::of_kind(kind),
                None if token == "all" => registry::REGISTRY.to_vec(),
                None => registry::matching(token),
            };
            if matched.is_empty() {
                let near = suggestions(token);
                return Err(if near.is_empty() {
                    format!("--only {token:?} matches no registered experiment (try --list)")
                } else {
                    format!(
                        "--only {token:?} matches no registered experiment; did you mean {}? \
                         (try --list)",
                        near.join(", ")
                    )
                });
            }
            for def in matched {
                if !defs.iter().any(|d| d.id() == def.id()) {
                    defs.push(def);
                }
            }
        }
        Ok(defs)
    }
}

/// Near-matches for an `--only` token that selected nothing: registered
/// ids and group names ranked by prefix edit distance (trailing id
/// characters are free, so `fig9` is one edit from `fig09a_…`).
fn suggestions(token: &str) -> Vec<&'static str> {
    let threshold = (token.len() / 3).max(1);
    // Between equally-distant candidates, prefer the one the token is a
    // subsequence of: `fig9` should suggest `fig09…`, where every typed
    // character survives, before `fig01…`, where the 9 was "mistyped".
    let subseq = |id: &str| {
        let mut rest = token.chars().peekable();
        for c in id.chars() {
            if rest.peek() == Some(&c) {
                rest.next();
            }
        }
        rest.peek().is_none()
    };
    let mut scored: Vec<(usize, bool, &'static str)> = registry::REGISTRY
        .iter()
        .map(|d| d.id())
        .chain(Kind::ALL.map(Kind::group))
        .chain(["all"])
        .filter_map(|id| {
            let d = prefix_edit_distance(token, id);
            (d <= threshold).then_some((d, !subseq(id), id))
        })
        .collect();
    scored.sort_by_key(|&(d, not_sub, _)| (d, not_sub));
    scored.truncate(3);
    scored.into_iter().map(|(_, _, id)| id).collect()
}

/// Minimum edit distance between `token` and any prefix of `candidate` —
/// the standard Levenshtein DP, taking the minimum over the final row
/// instead of its last cell.
fn prefix_edit_distance(token: &str, candidate: &str) -> usize {
    let t: Vec<char> = token.chars().collect();
    // A token can't be a near-miss of a prefix much longer than itself.
    let c: Vec<char> = candidate.chars().take(t.len() + 2).collect();
    let mut row: Vec<usize> = (0..=c.len()).map(|_| 0).collect();
    let mut prev = row.clone();
    for (i, &tc) in t.iter().enumerate() {
        row[0] = i + 1;
        for (j, &cc) in c.iter().enumerate() {
            let sub = prev[j] + usize::from(tc != cc);
            row[j + 1] = sub.min(prev[j + 1] + 1).min(row[j] + 1);
        }
        std::mem::swap(&mut prev, &mut row);
    }
    prev.into_iter().min().unwrap_or(t.len())
}

fn usage() -> String {
    format!(
        "figures — registry-driven figure and ablation regeneration\n\
         \n\
         USAGE: figures [OPTIONS]\n\
         \n\
         OPTIONS:\n\
         \x20 -l, --list           list registered experiments and exit\n\
         \x20     --only IDS       comma-separated ids or figure prefixes\n\
         \x20                      (fig01, fig08a_dl_throughput, matrix_robustness,\n\
         \x20                      tree_placement, ablations, matrices, topologies, all)\n\
         \x20 -q, --quick          shortened runs\n\
         \x20 -j, --threads N      worker threads (default: available parallelism)\n\
         \x20 -o, --out DIR        output directory (default results)\n\
         \x20     --sweep K=A,B,C  re-run the selection once per override; keys:\n\
         \x20                      {}\n\
         \x20     --trace SPEC     sim-time trace sinks, written to DIR (default: --out);\n\
         \x20                      SPEC = jsonl|pcapng|all[:DIR], e.g. all:results/tr\n\
         \x20 -h, --help           this message\n\
         \n\
         Default: regenerate all twelve figures into results/BENCH_all_figures.json.\n",
        Params::SWEEP_KEYS.join(", ")
    )
}

/// Render `--list`.
pub(crate) fn list() -> String {
    let mut out = String::new();
    let groups = Kind::ALL.map(|k| format!("{} {}", registry::of_kind(k).len(), k.group()));
    out.push_str(&format!(
        "{} registered experiments ({}):\n\n",
        registry::REGISTRY.len(),
        groups.join(", ")
    ));
    out.push_str(&format!(
        "  {:<24} {:<10} {:>4}  {}\n",
        "id", "figure", "seed", "description"
    ));
    for def in registry::REGISTRY {
        let figure = match def.figure() {
            "" => def.kind().label(),
            figure => figure,
        };
        out.push_str(&format!(
            "  {:<24} {:<10} {:>4}  {}\n",
            def.id(),
            figure,
            def.seed(),
            def.describe()
        ));
    }
    out
}

/// Run a parsed invocation. Returns the path of the written report, or
/// `None` for `--list`.
pub(crate) fn run(cli: &Cli) -> Result<Option<PathBuf>, String> {
    if cli.help {
        print!("{}", usage());
        return Ok(None);
    }
    if cli.list {
        print!("{}", list());
        return Ok(None);
    }

    let threads = cli.threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    let out_dir = cli.out.clone().unwrap_or_else(|| PathBuf::from("results"));
    // Pin tracing before any experiment runs; trace files land in the
    // spec's own directory, else beside the report.
    if let Some(spec) = &cli.trace {
        let mut spec = spec.clone();
        spec.dir
            .get_or_insert_with(|| out_dir.display().to_string());
        mcc_core::set_trace(spec);
    }
    let params = Params::quick(cli.quick);
    let selection = cli.selection()?;

    // Assemble the spec list: the plain selection, or one copy per sweep
    // value with `id@key=value` names so sweep reports stay self-describing.
    let (specs, file_name): (Vec<ExperimentSpec>, String) = match &cli.sweep {
        None => {
            // Only the exact figure suite, in registry order, may claim the
            // canonical byte-stable file name.
            let figs = registry::figures();
            let full_suite = selection.len() == figs.len()
                && selection.iter().zip(&figs).all(|(a, b)| a.id() == b.id());
            let file = if full_suite {
                "BENCH_all_figures.json".to_string()
            } else {
                "BENCH_figures.json".to_string()
            };
            (registry::specs(&selection, &params), file)
        }
        Some((key, values)) => {
            let mut specs = Vec::new();
            for value in values {
                let swept = params.with_override(key, value)?;
                registry::check_params(&swept)?;
                let mut batch = registry::specs(&selection, &swept);
                for spec in &mut batch {
                    spec.name = format!("{}@{key}={value}", spec.name).into();
                }
                specs.append(&mut batch);
            }
            (specs, format!("BENCH_sweep_{key}.json"))
        }
    };

    let mode = if cli.quick { "quick" } else { "full" };
    println!(
        "Running {} experiments on {} threads ({} mode)...",
        specs.len(),
        threads,
        mode
    );

    #[expect(clippy::disallowed_methods, reason = "suite wall/cpu reporting only")]
    let start = std::time::Instant::now();
    let report = run_parallel(SUITE, mode, &specs, threads);
    #[expect(clippy::disallowed_methods, reason = "suite wall/cpu reporting only")]
    let wall = start.elapsed();

    for r in &report.records {
        println!("  {:<28} seed {:<3} {:>8.2?}", r.name, r.seed, r.elapsed);
    }
    println!(
        "wall {:.2?}, cpu {:.2?} ({:.1}x speedup)",
        wall,
        report.total_elapsed(),
        report.total_elapsed().as_secs_f64() / wall.as_secs_f64().max(1e-9)
    );

    let path = out_dir.join(file_name);
    report
        .write_json(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("\nReport written to {}.", path.display());
    Ok(Some(path))
}

/// Binary entry point of `figures`.
pub fn main_with_args(args: &[String]) {
    let cli = match Cli::parse(args) {
        Ok(cli) => cli,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    if let Err(msg) = run(&cli) {
        eprintln!("figures: {msg}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_documented_flags() {
        let cli = parse(&[
            "--only",
            "fig07,fig08a",
            "--quick",
            "--threads",
            "3",
            "--out",
            "/tmp/x",
            "--sweep",
            "seed=1,2",
        ])
        .unwrap();
        assert_eq!(cli.only.as_deref().unwrap(), ["fig07", "fig08a"]);
        assert!(cli.quick);
        assert_eq!(cli.threads, Some(3));
        assert_eq!(cli.out.as_deref().unwrap().to_str().unwrap(), "/tmp/x");
        let (key, values) = cli.sweep.unwrap();
        assert_eq!(key, "seed");
        assert_eq!(values, ["1", "2"]);
    }

    #[test]
    fn rejects_malformed_invocations() {
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        for split in ["4x2", "1x4"] {
            let err = parse(&["--threads", split]).unwrap_err();
            assert!(err.contains("--threads") && err.contains(split), "{err}");
        }
        assert!(parse(&["--sweep", "seed"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }

    /// A repeated value flag, or a repeated sweep value, is a usage error
    /// that names it: the second would silently replace the first, and
    /// two records would share one `id@key=value` name.
    #[test]
    fn repeated_flags_and_sweep_values_are_rejected() {
        for (flag, a, b) in [
            ("--only", "ablation_sharing", "fig01"),
            ("--sweep", "churn_rate=0.5", "seed=2"),
            ("--trace", "jsonl", "pcapng"),
            ("--threads", "1", "2"),
            ("--out", "/tmp/a", "/tmp/b"),
        ] {
            let err = parse(&[flag, a, flag, b]).unwrap_err();
            assert!(err.contains(flag) && err.contains("twice"), "{err}");
        }
        let err = parse(&["--sweep", "seed=1,1"]).unwrap_err();
        assert!(
            err.contains("--sweep") && err.contains("\"1\" repeated"),
            "{err}"
        );
        let err = parse(&["--sweep", "churn_rate=0.5, 2,0.5"]).unwrap_err();
        assert!(err.contains("\"0.5\" repeated"), "{err}");
    }

    /// Satellite contract: an unknown `--sweep` key fails at parse time —
    /// before any experiment runs — and names every valid key.
    #[test]
    fn sweep_keys_are_validated_up_front() {
        let err = parse(&["--sweep", "sed=1,2"]).unwrap_err();
        for key in Params::SWEEP_KEYS {
            assert!(err.contains(key), "error must list {key:?}: {err}");
        }
        // Whitespace around a valid key is tolerated.
        let cli = parse(&["--sweep", " seed =1,2"]).unwrap();
        assert_eq!(cli.sweep.unwrap().0, "seed");
    }

    #[test]
    fn matrix_is_selectable_by_prefix() {
        let defs = parse(&["--only", "matrix"]).unwrap().selection().unwrap();
        assert_eq!(defs.len(), 1);
        assert_eq!(defs[0].id(), "matrix_robustness");
        assert_eq!(defs[0].kind(), Kind::Matrix);
    }

    #[test]
    fn selection_defaults_to_the_figure_suite() {
        let defs = parse(&[]).unwrap().selection().unwrap();
        assert_eq!(defs.len(), 12);
        assert!(defs.iter().all(|d| d.kind() == Kind::Figure));
    }

    #[test]
    fn selection_resolves_prefixes_groups_and_rejects_unknowns() {
        let defs = parse(&["--only", "fig01,fig08a"])
            .unwrap()
            .selection()
            .unwrap();
        let ids: Vec<&str> = defs.iter().map(|d| d.id()).collect();
        assert_eq!(ids, ["fig01_attack", "fig08a_dl_throughput"]);

        let abl = parse(&["--only", "ablations"])
            .unwrap()
            .selection()
            .unwrap();
        assert_eq!(abl.len(), 3);

        // Every group `--list` counts is a selector, `matrices` included.
        let mx = parse(&["--only", "matrices"]).unwrap().selection().unwrap();
        let ids: Vec<&str> = mx.iter().map(|d| d.id()).collect();
        assert_eq!(ids, ["matrix_robustness", "churn_robustness"]);

        // `all` is the registry: every entry is byte-reproducible.
        let all = parse(&["--only", "all"]).unwrap().selection().unwrap();
        assert_eq!(all.len(), registry::REGISTRY.len());

        // Duplicates collapse; unknowns fail loudly.
        let dup = parse(&["--only", "fig01,fig01_attack"])
            .unwrap()
            .selection()
            .unwrap();
        assert_eq!(dup.len(), 1);
        assert!(parse(&["--only", "fig99"]).unwrap().selection().is_err());
    }

    #[test]
    fn trace_flag_parses_and_rejects_junk() {
        let cli = parse(&["--trace", "jsonl"]).unwrap();
        assert_eq!(
            cli.trace.unwrap(),
            TraceSpec {
                jsonl: true,
                pcapng: false,
                dir: None
            }
        );
        let cli = parse(&["--trace", "all:/tmp/tr"]).unwrap();
        assert_eq!(cli.trace.unwrap().dir.as_deref(), Some("/tmp/tr"));
        let err = parse(&["--trace", "csv"]).unwrap_err();
        assert!(err.contains("--trace"), "error names the flag: {err}");
        assert!(parse(&["--trace"]).is_err(), "flag needs a value");
    }

    /// Satellite contract: an unknown `--only` token lists near-matches
    /// (and `run` turns the `Err` into a non-zero exit).
    fn selection_err(args: &[&str]) -> String {
        match parse(args).unwrap().selection() {
            Err(e) => e,
            Ok(defs) => panic!("expected a selection error, got {} defs", defs.len()),
        }
    }

    #[test]
    fn unknown_only_token_suggests_near_matches() {
        let err = selection_err(&["--only", "fig9"]);
        assert!(
            err.contains("fig09a_overhead_groups") && err.contains("fig09b_overhead_slot"),
            "near-matches listed: {err}"
        );
        let err = selection_err(&["--only", "ablatons"]);
        assert!(err.contains("ablations"), "group names suggested: {err}");
        // Nothing close: no bogus suggestion, still an error.
        let err = selection_err(&["--only", "qqqqqqqq"]);
        assert!(!err.contains("did you mean"), "no far-fetched guess: {err}");
        assert!(err.contains("--list"));
    }

    #[test]
    fn prefix_edit_distance_ranks_sensibly() {
        assert_eq!(prefix_edit_distance("fig01", "fig01_attack"), 0);
        assert_eq!(prefix_edit_distance("fig9", "fig09a_overhead_groups"), 1);
        assert_eq!(prefix_edit_distance("figs", "figures"), 1);
        assert!(prefix_edit_distance("qqqqqqqq", "fig01_attack") > 2);
    }

    #[test]
    fn list_covers_every_registered_experiment() {
        let text = list();
        for def in registry::REGISTRY {
            assert!(text.contains(def.id()), "--list must mention {}", def.id());
        }
    }

    /// DESIGN.md's "Experiment index" shows `--list` verbatim: editing the
    /// registry without the document (or the reverse) fails here.
    #[test]
    fn design_md_experiment_index_is_the_list_output() {
        let design = include_str!("../../../DESIGN.md");
        let section = design
            .split_once("## Experiment index")
            .expect("DESIGN.md has an experiment index")
            .1;
        let block = section
            .split_once("```\n")
            .and_then(|(_, rest)| rest.split_once("```"))
            .expect("the index holds a fenced block")
            .0;
        assert_eq!(block, list());
    }
}
