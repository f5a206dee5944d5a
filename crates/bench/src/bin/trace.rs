//! `trace` — summarize a `TRACE_*.jsonl` flight-recorder file.
//!
//! ```text
//! trace results/TRACE_fig01_attack.jsonl
//! trace --top 20 results/TRACE_tree_placement.jsonl
//! ```

use mcc_bench::trace::{obs_sibling, overflow_warning, summarize};

fn usage() -> String {
    "trace — summarize a TRACE_*.jsonl flight-recorder file\n\
     \n\
     USAGE: trace [--top N] FILE.jsonl\n\
     \n\
     OPTIONS:\n\
     \x20     --top N    rows in the talker table and guard-log excerpt (default 10)\n\
     \x20 -h, --help     this message\n\
     \n\
     Produce trace files with `figures --trace all`.\n"
        .to_string()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut top = 10usize;
    let mut file: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--help" | "-h" => {
                print!("{}", usage());
                return;
            }
            "--top" => {
                let v = it.next().unwrap_or_else(|| {
                    eprintln!("--top needs a value\n\n{}", usage());
                    std::process::exit(2);
                });
                top = v.parse().unwrap_or_else(|e| {
                    eprintln!("--top {v:?}: {e}");
                    std::process::exit(2);
                });
            }
            other if file.is_none() && !other.starts_with('-') => {
                file = Some(other.to_string());
            }
            other => {
                eprintln!("unknown argument {other:?}\n\n{}", usage());
                std::process::exit(2);
            }
        }
    }
    let Some(file) = file else {
        eprintln!("{}", usage());
        std::process::exit(2);
    };
    let input = std::fs::read_to_string(&file).unwrap_or_else(|e| {
        eprintln!("trace: read {file}: {e}");
        std::process::exit(1);
    });
    // A missing or unreadable sibling says nothing either way.
    let warning = obs_sibling(std::path::Path::new(&file))
        .and_then(|obs| std::fs::read_to_string(obs).ok())
        .and_then(|obs| overflow_warning(&obs));
    if let Some(warning) = warning {
        println!("{warning}");
    }
    let summary = summarize(&input);
    print!("{file}:\n{}", summary.render(top));
}
