//! The repo benchmark. Three ways in:
//!
//! ```text
//! benchmark --workload W --seed S --seconds T --trace 0|1   one pass over one workload
//! benchmark run [--seed S] [--out DIR] [--smoke]            both passes over all five
//! benchmark compare A.json B.json                           verdicts between two runs
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one process, one
//! workload, one pass; its last output line is the result object. `run`
//! re-executes this binary in that form, one child at a time, so each
//! workload's peak RSS is its own. See `README.md`.

mod compare;
mod json;
mod kernels;
mod measure;
mod metrics;
mod report;
mod spans;
mod stats;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

/// Command-line flags: `--name value` pairs and bare `--name` switches.
pub struct Flags {
    pairs: Vec<(String, Option<String>)>,
    pub positional: Vec<String>,
}

impl Flags {
    /// `switches` are the flags that take no value.
    fn parse(args: &[String], switches: &[&str]) -> Result<Flags, String> {
        let mut flags = Flags {
            pairs: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) if switches.contains(&name) => flags.pairs.push((name.into(), None)),
                Some(name) => {
                    let value = it.next().ok_or(format!("--{name} needs a value"))?;
                    flags.pairs.push((name.into(), Some(value.clone())));
                }
                None => flags.positional.push(arg.clone()),
            }
        }
        Ok(flags)
    }

    fn has(&self, name: &str) -> bool {
        self.pairs.iter().any(|(n, _)| n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} must be a whole number (got {v:?})")),
        }
    }

    /// Reject flags outside `known` — a typo must not silently run the
    /// default.
    fn only(&self, known: &[&str]) -> Result<(), String> {
        match self
            .pairs
            .iter()
            .find(|(n, _)| !known.contains(&n.as_str()))
        {
            Some((n, _)) => Err(format!(
                "unknown flag --{n} (known: --{})",
                known.join(", --")
            )),
            None => Ok(()),
        }
    }
}

/// Where results land unless `--out` says otherwise.
fn default_out() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// The `[profile.release]` table of a manifest as sorted `key = value`
/// lines.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut lines: Vec<String> = manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .map(|l| l.split_whitespace().collect::<String>())
        .collect();
    lines.sort();
    lines
}

/// The benchmark must be built like the product: the root manifest
/// records thin LTO + one codegen unit as worth ~15 % on the fan-out
/// workload, so a profile that drifted would measure a different program.
fn check_same_build() -> Result<(), String> {
    let own = release_profile(include_str!("../Cargo.toml"));
    let root = release_profile(include_str!("../../Cargo.toml"));
    if own == root && !own.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "benchmark/Cargo.toml [profile.release] {own:?} differs from the root manifest's {root:?}"
        ))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = check_same_build().and_then(|()| match args.first().map(String::as_str) {
        Some("run") => report::cmd_run(&args[1..]),
        Some("compare") => compare::cmd_compare(&args[1..]),
        Some("manifest") => {
            println!("{}", report::pretty(&metrics::manifest()));
            Ok(true)
        }
        _ => measure::cmd_measure(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn release_profiles_match_and_ignore_comments_and_order() {
        check_same_build().expect("profiles agree");
        let a = "[package]\nname='x'\n[profile.release]\n# why\nlto = \"thin\"\ndebug=true\n[profile.bench]\ndebug = true\n";
        let b = "[profile.release]\ndebug = true   # symbols\nlto=\"thin\"\n";
        assert_eq!(release_profile(a), release_profile(b));
        assert_eq!(release_profile(a), ["debug=true", "lto=\"thin\""]);
        assert!(release_profile("[package]\n").is_empty());
    }

    #[test]
    fn flags_parse_pairs_switches_and_reject_typos() {
        let args: Vec<String> = ["--seed", "7", "--smoke", "a.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = Flags::parse(&args, &["smoke"]).unwrap();
        assert_eq!(f.number("seed", 42), Ok(7));
        assert_eq!(f.number("seconds", 15), Ok(15));
        assert!(f.has("smoke"));
        assert_eq!(f.positional, ["a.json"]);
        assert!(f.only(&["seed", "smoke"]).is_ok());
        assert!(f.only(&["seed"]).is_err());
        assert!(Flags::parse(&args[..1], &[]).is_err());
    }
}
