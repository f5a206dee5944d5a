//! The public surface's guard (DESIGN.md "Public surface"): every `pub fn`
//! and `pub const fn` in `crates/*/src` outside `src/bin` is named, other
//! than where a function of that name is defined, by non-test,
//! non-comment code in `crates/*/src`, `src/`, `examples/` or
//! `benchmark/src/` — or it sits in `ALLOWED` with the reader that keeps
//! it. A function only its own crate calls belongs in `pub(crate)`, where
//! rustc's dead-code lint (the clippy gate) watches it instead. Std only,
//! so it runs in tier-1 without a parser dependency.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Public functions no non-test code names, each with the reader that
/// keeps it public.
const ALLOWED: &[(&str, &str)] = &[
    (
        "decrease_handout",
        "mcc_delta::naive's unit test: the paper's §3.1.1 forgery demonstration",
    ),
    (
        "forge_top_key",
        "mcc_delta::naive's unit test: the paper's §3.1.1 forgery demonstration",
    ),
    (
        "capture",
        "tests/workload_inert.rs and tests/trace_determinism.rs: the in-process trace capture behind their byte-identity proofs",
    ),
    (
        "agent_bits",
        "tests/topology_properties.rs, tests/extensions.rs and tests/trace_determinism.rs read per-receiver bits",
    ),
    (
        "group_entry",
        "tests/topology_properties.rs's membership checks; the reader for ROADMAP 8(b)'s empty-ledger oracle",
    ),
    (
        "lockout_until",
        "tests/protocol_properties.rs's lockout property; the reader for ROADMAP 8(b)'s lockout oracle",
    ),
    (
        "has_grant",
        "tests/protocol_properties.rs's no-grant-from-a-guess property; the reader for ROADMAP 8(b)'s grant oracle",
    ),
];

/// One source file: its path relative to the workspace root and its text
/// with comments, literal contents and `#[cfg(test)]` items blanked.
struct Source {
    path: String,
    code: String,
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Overwrite `out[from..to]` with spaces, keeping newlines so offsets keep
/// their line numbers (and the text stays valid UTF-8).
fn blank(out: &mut [u8], from: usize, to: usize) {
    let to = to.min(out.len());
    for b in &mut out[from..to] {
        if *b != b'\n' {
            *b = b' ';
        }
    }
}

/// `src` with every comment and the contents of every string and char
/// literal blanked.
fn code_only(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let mut i = 0;
    while i < b.len() {
        let next = b.get(i + 1).copied();
        match b[i] {
            b'/' if next == Some(b'/') => {
                let end = b[i..]
                    .iter()
                    .position(|&c| c == b'\n')
                    .map_or(b.len(), |n| i + n);
                blank(&mut out, i, end);
                i = end;
            }
            b'/' if next == Some(b'*') => {
                let (mut depth, mut j) = (1, i + 2);
                while j < b.len() && depth > 0 {
                    if b[j..].starts_with(b"/*") {
                        depth += 1;
                        j += 2;
                    } else if b[j..].starts_with(b"*/") {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                blank(&mut out, i, j);
                i = j;
            }
            b'"' => {
                let mut j = i + 1;
                while j < b.len() && b[j] != b'"' {
                    j += if b[j] == b'\\' { 2 } else { 1 };
                }
                blank(&mut out, i + 1, j);
                i = j + 1;
            }
            b'r' if i == 0
                || !is_ident(b[i - 1])
                || (b[i - 1] == b'b' && (i < 2 || !is_ident(b[i - 2]))) =>
            {
                let hashes = b[i + 1..].iter().take_while(|&&c| c == b'#').count();
                let open = i + 1 + hashes;
                if b.get(open) != Some(&b'"') {
                    i += 1;
                    continue;
                }
                let mut close = vec![b'"'];
                close.extend(std::iter::repeat_n(b'#', hashes));
                let end = b[open + 1..]
                    .windows(close.len())
                    .position(|w| w == close.as_slice())
                    .map_or(b.len(), |n| open + 1 + n);
                blank(&mut out, open + 1, end);
                i = end + close.len();
            }
            b'\'' => {
                // A char literal closes within one (possibly escaped)
                // character; anything else is a lifetime or label.
                let end = if next == Some(b'\\') {
                    b[i + 2..]
                        .iter()
                        .position(|&c| c == b'\'')
                        .map(|n| i + 2 + n)
                } else {
                    let width = src[i + 1..].chars().next().map_or(1, char::len_utf8);
                    (b.get(i + 1 + width) == Some(&b'\'')).then_some(i + 1 + width)
                };
                match end {
                    Some(end) => {
                        blank(&mut out, i + 1, end);
                        i = end + 1;
                    }
                    None => i += 1,
                }
            }
            _ => i += 1,
        }
    }
    String::from_utf8(out).expect("blanking keeps UTF-8")
}

/// Blank every item gated with `#[cfg(test)]`: from the attribute to the
/// `;` or the closing brace that ends the item. Takes `code_only` output.
fn without_test_items(code: String) -> String {
    const GATE: &str = "#[cfg(test)]";
    let mut out = code.into_bytes();
    let mut from = 0;
    while let Some(at) = std::str::from_utf8(&out[from..]).expect("UTF-8").find(GATE) {
        let start = from + at;
        let mut depth = 0i32;
        let mut j = start + GATE.len();
        while j < out.len() {
            match out[j] {
                b'{' | b'(' | b'[' => depth += 1,
                b'}' | b')' | b']' => {
                    depth -= 1;
                    if depth == 0 && out[j] == b'}' {
                        break;
                    }
                }
                b';' if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        blank(&mut out, start, j + 1);
        from = j + 1;
    }
    String::from_utf8(out).expect("blanking keeps UTF-8")
}

fn load(root: &Path, path: &Path) -> Source {
    let text = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    Source {
        path: path
            .strip_prefix(root)
            .unwrap_or(path)
            .display()
            .to_string(),
        code: without_test_items(code_only(&text)),
    }
}

/// Every `.rs` file under `dir`, sorted, skipping directories named in `skip`.
fn rust_files(dir: &Path, skip: &[&str], into: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.map(|e| e.expect("dir entry").path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            if !skip.iter().any(|s| path.ends_with(s)) {
                rust_files(&path, skip, into);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            into.push(path);
        }
    }
}

/// `(path:line, name)` of every `pub fn` / `pub const fn` in `source`.
fn public_fns(source: &Source) -> Vec<(String, String)> {
    let b = source.code.as_bytes();
    let mut found = Vec::new();
    for (at, _) in source.code.match_indices("pub ") {
        if at > 0 && is_ident(b[at - 1]) {
            continue;
        }
        let rest = &source.code[at + 4..];
        let rest = rest.strip_prefix("const ").unwrap_or(rest);
        let Some(rest) = rest.strip_prefix("fn ") else {
            continue;
        };
        let name: String = rest
            .chars()
            .take_while(|&c| c.is_ascii_alphanumeric() || c == '_')
            .collect();
        let line = 1 + b[..at].iter().filter(|&&c| c == b'\n').count();
        found.push((format!("{}:{line}", source.path), name));
    }
    found
}

/// Every identifier `sources` use, not counting the name right after an
/// `fn` keyword (a definition, not a use).
fn uses(sources: &[Source]) -> BTreeSet<String> {
    let mut used = BTreeSet::new();
    for source in sources {
        let mut prev = "";
        for word in source
            .code
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        {
            if word.is_empty() {
                continue;
            }
            if prev != "fn" {
                used.insert(word.to_owned());
            }
            prev = word;
        }
    }
    used
}

/// The guard itself: every problem, one per line, empty when clean.
fn audit(defining: &[Source], corpus: &[Source], allowed: &[(&str, &str)]) -> Vec<String> {
    let used = uses(corpus);
    let defined: Vec<(String, String)> = defining.iter().flat_map(public_fns).collect();
    let allow: BTreeSet<&str> = allowed.iter().map(|&(name, _)| name).collect();
    let mut problems = Vec::new();
    for (at, name) in &defined {
        if !used.contains(name) && !allow.contains(name.as_str()) {
            problems.push(format!("{at} {name}: no non-test caller"));
        }
    }
    for (name, _) in allowed {
        if !defined.iter().any(|(_, n)| n == name) {
            problems.push(format!("ALLOWED entry `{name}` is stale: no such pub fn"));
        } else if used.contains(*name) {
            problems.push(format!(
                "ALLOWED entry `{name}` is stale: non-test code now names it"
            ));
        }
    }
    problems
}

#[test]
fn every_public_fn_has_a_non_test_caller() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut defining_paths = Vec::new();
    let mut crates: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .map(|e| e.expect("dir entry").path().join("src"))
        .collect();
    crates.sort();
    for src in &crates {
        rust_files(src, &["bin"], &mut defining_paths);
    }
    let mut corpus_paths = Vec::new();
    for dir in crates
        .iter()
        .cloned()
        .chain(["src", "examples", "benchmark/src"].map(|d| root.join(d)))
    {
        rust_files(&dir, &[], &mut corpus_paths);
    }
    let defining: Vec<Source> = defining_paths.iter().map(|p| load(root, p)).collect();
    let corpus: Vec<Source> = corpus_paths.iter().map(|p| load(root, p)).collect();
    assert!(
        defining.len() > 50,
        "found only {} source files under crates/",
        defining.len()
    );

    let problems = audit(&defining, &corpus, ALLOWED);
    assert!(
        problems.is_empty(),
        "{} public-surface problem(s):\n  {}\n\nFor each `pub fn` above: delete it, make it `pub(crate)` \
         (rustc's dead-code lint then watches it), or add it to `ALLOWED` in tests/public_api.rs \
         with the reader that needs it. Remove a stale `ALLOWED` entry.",
        problems.len(),
        problems.join("\n  ")
    );
}

#[test]
fn the_audit_sees_through_comments_literals_and_test_items() {
    let lib = Source {
        path: "crates/x/src/lib.rs".into(),
        code: without_test_items(code_only(
            "/// `unused()` in a doc\npub fn unused() {}\npub fn used() {}\npub const fn konst() -> u8 { b'}' }\n\
             pub(crate) fn private() {}\nfn caller() { let _ = \"unused()\"; used(); konst(); }\n\
             #[cfg(test)]\nmod tests { fn t() { super::unused(); let _ = '{'; } }\n\
             #[cfg(test)]\npub fn gated() {}\n",
        )),
    };
    let corpus = [lib];
    assert_eq!(
        audit(&corpus, &corpus, &[]),
        ["crates/x/src/lib.rs:2 unused: no non-test caller"]
    );
    let stale = [
        ("used", "gained a caller"),
        ("gone", "vanished"),
        ("unused", "kept"),
    ];
    assert_eq!(
        audit(&corpus, &corpus, &stale),
        [
            "ALLOWED entry `used` is stale: non-test code now names it",
            "ALLOWED entry `gone` is stale: no such pub fn",
        ]
    );
}
