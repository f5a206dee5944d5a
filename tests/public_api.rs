//! The public surface's guard (DESIGN.md "Public surface"). In
//! `crates/*/src` outside `src/bin`:
//!
//! * every `pub fn` and `pub const fn` is named, other than where a
//!   function of that name is defined, by non-test, non-comment code in
//!   `crates/*/src`, `src/`, `examples/` or `benchmark/src/`;
//! * every `pub struct|enum|trait|type|const|static` is named by that code
//!   other than in its definition and in the `impl` headers about it;
//! * every `pub mod` is reached by a path rooted at its crate
//!   (`mcc_<crate>::m…`, `robust_multicast::<crate>::m…`) from another
//!   package's non-test code: another crate, a `src/bin` target, an
//!   example or the benchmark.
//!
//! An item that fails its rule sits in `ALLOWED`, `ALLOWED_TYPES` or
//! `ALLOWED_MODS` with the reader that keeps it, or it belongs in
//! `pub(crate)`, where rustc's dead-code and `unreachable_pub` lints (the
//! clippy gate) watch it instead. Std only, so it runs in tier-1 without a
//! parser dependency.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// Public functions no non-test code names, each with the reader that
/// keeps it public.
const ALLOWED: &[(&str, &str)] = &[
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

/// Public types, consts, traits and statics no non-test code names, each
/// with the reader that keeps it public.
const ALLOWED_TYPES: &[(&str, &str)] = &[];

/// Public modules no other package's non-test code reaches, each with the
/// doctest or integration test that reads it.
const ALLOWED_MODS: &[(&str, &str)] = &[];

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

/// The kinds of public item the guard audits, each under its own rule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    /// `pub fn` / `pub const fn`: named by non-test code.
    Fn,
    /// `pub struct|enum|trait|type|const|static`: named by non-test code
    /// other than its definition and its `impl` headers.
    Type,
    /// `pub mod`: reached by a path from another package's non-test code.
    Mod,
}

impl Kind {
    fn noun(self) -> &'static str {
        match self {
            Kind::Fn => "pub fn",
            Kind::Type => "pub type, const, trait or static",
            Kind::Mod => "pub mod",
        }
    }
}

/// `(path:line, name)` of every public item of `kind` in `source`.
fn public_items(source: &Source, kind: Kind) -> Vec<(String, String)> {
    let b = source.code.as_bytes();
    let mut found = Vec::new();
    for (at, _) in source.code.match_indices("pub ") {
        if at > 0 && is_ident(b[at - 1]) {
            continue;
        }
        let Some((keyword, mut rest)) = source.code[at + 4..].split_once(' ') else {
            continue;
        };
        let item = match keyword {
            "fn" => Kind::Fn,
            "const" if rest.starts_with("fn ") => {
                rest = &rest[3..];
                Kind::Fn
            }
            "struct" | "enum" | "trait" | "type" | "const" | "static" => Kind::Type,
            "mod" => Kind::Mod,
            _ => continue,
        };
        if item != kind {
            continue;
        }
        let name: String = rest
            .chars()
            .take_while(|&c| c.is_ascii_alphanumeric() || c == '_')
            .collect();
        let line = 1 + b[..at].iter().filter(|&&c| c == b'\n').count();
        found.push((format!("{}:{line}", source.path), name));
    }
    found
}

/// Every identifier in `code` with its byte offset.
fn idents(code: &str) -> impl Iterator<Item = (usize, &str)> {
    let b = code.as_bytes();
    let mut i = 0;
    std::iter::from_fn(move || {
        while i < b.len() && !is_ident(b[i]) {
            i += 1;
        }
        let start = i;
        while i < b.len() && is_ident(b[i]) {
            i += 1;
        }
        (start < b.len()).then(|| (start, &code[start..i]))
    })
}

/// The types an `impl` header is about: the trait and the self type, each
/// the last segment of its path (`impl<K: Rule> fmt::Debug for Sender<K>`
/// is about `Debug` and `Sender`; `K` and `Rule` are uses).
fn impl_subjects(header: &str) -> Vec<&str> {
    let mut rest = header.trim_start();
    if rest.starts_with('<') {
        let mut depth = 0;
        for (i, c) in rest.char_indices() {
            depth += match c {
                '<' => 1,
                '>' => -1,
                _ => 0,
            };
            if depth == 0 {
                rest = &rest[i + 1..];
                break;
            }
        }
    }
    let rest = rest.split(" where ").next().unwrap_or(rest);
    rest.split(" for ")
        .filter_map(|part| {
            let path = part.trim().split(['<', ' ']).next()?;
            path.rsplit("::").next().filter(|s| !s.is_empty())
        })
        .collect()
}

/// Every identifier `sources` use. Not counted: the name right after an
/// item keyword (a definition, not a use) and the trait and self type an
/// item-level `impl` header is about.
fn uses(sources: &[Source]) -> BTreeSet<String> {
    const DEFINING: &[&str] = &[
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
    ];
    let mut used = BTreeSet::new();
    for source in sources {
        let code = &source.code;
        // `(from, to, subjects)` of every item-level `impl` header.
        let headers: Vec<(usize, usize, Vec<&str>)> = idents(code)
            .filter(|&(at, word)| {
                let line_start = code[..at].rfind('\n').map_or(0, |n| n + 1);
                let lead = code[line_start..at].trim();
                word == "impl" && (lead.is_empty() || lead == "unsafe")
            })
            .map(|(at, _)| {
                let to = code[at..].find('{').map_or(code.len(), |n| at + n);
                (at, to, impl_subjects(&code[at + 4..to]))
            })
            .collect();
        let (mut prev, mut prev_at) = ("", 0);
        for (at, word) in idents(code) {
            // `'static` is a lifetime, not an item keyword.
            let defines = DEFINING.contains(&prev) && !code[..prev_at].ends_with('\'');
            let about = headers
                .iter()
                .any(|(from, to, subjects)| (*from..*to).contains(&at) && subjects.contains(&word));
            if !defines && !about {
                used.insert(word.to_owned());
            }
            (prev, prev_at) = (word, at);
        }
    }
    used
}

/// The modules of workspace crate `krate` (its directory under `crates/`)
/// that `sources` reach by a path rooted at the crate: `mcc_<krate>::m…`,
/// `robust_multicast::<krate>::m…`, or a `{…}` use tree under either.
fn reached_modules(sources: &[&Source], krate: &str) -> BTreeSet<String> {
    let roots = [
        format!("mcc_{krate}::"),
        format!("robust_multicast::{krate}::"),
    ];
    let mut reached = BTreeSet::new();
    for source in sources {
        let code = source.code.as_str();
        for root in &roots {
            for (at, _) in code.match_indices(root.as_str()) {
                if at > 0 && is_ident(code.as_bytes()[at - 1]) {
                    continue;
                }
                // Walk the path (and any nested use tree) that follows.
                let mut depth = 0;
                let mut segment = String::new();
                for c in code[at + root.len()..].chars() {
                    if c.is_ascii() && is_ident(c as u8) {
                        segment.push(c);
                        continue;
                    }
                    if !segment.is_empty() {
                        reached.insert(std::mem::take(&mut segment));
                    }
                    match c {
                        '{' => depth += 1,
                        '}' if depth == 1 => break,
                        '}' => depth -= 1,
                        ':' | '*' => {}
                        ',' | ' ' | '\n' if depth > 0 => {}
                        _ => break,
                    }
                }
            }
        }
    }
    reached
}

/// The crate directory a workspace path belongs to, when its code is part
/// of that crate's library (`crates/<krate>/src`, not `src/bin`).
fn library_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    let (krate, rest) = rest.split_once('/')?;
    (rest.starts_with("src/") && !rest.starts_with("src/bin/")).then_some(krate)
}

/// The guard for one kind of item: every problem, one per line, empty
/// when clean.
fn audit(
    kind: Kind,
    defining: &[Source],
    corpus: &[Source],
    allowed: &[(&str, &str)],
) -> Vec<String> {
    let used = uses(corpus);
    let mut defined: Vec<(String, String, bool)> = Vec::new();
    for source in defining {
        let reached = (kind == Kind::Mod).then(|| {
            let krate = library_of(&source.path).unwrap_or("");
            let others: Vec<&Source> = corpus
                .iter()
                .filter(|s| library_of(&s.path) != Some(krate))
                .collect();
            reached_modules(&others, krate)
        });
        for (at, name) in public_items(source, kind) {
            let read = match &reached {
                Some(reached) => reached.contains(&name),
                None => used.contains(&name),
            };
            defined.push((at, name, read));
        }
    }
    let allow: BTreeSet<&str> = allowed.iter().map(|&(name, _)| name).collect();
    let mut problems = Vec::new();
    for (at, name, read) in &defined {
        if !read && !allow.contains(name.as_str()) {
            let why = match kind {
                Kind::Fn => "no non-test caller",
                Kind::Type => "no non-test reader",
                Kind::Mod => "no other package's non-test code reaches it by path",
            };
            problems.push(format!("{at} {name}: {why}"));
        }
    }
    for (name, _) in allowed {
        let mut same = defined.iter().filter(|(_, n, _)| n == name).peekable();
        if same.peek().is_none() {
            problems.push(format!(
                "ALLOWED entry `{name}` is stale: no such {}",
                kind.noun()
            ));
        } else if same.all(|(_, _, read)| *read) {
            let now = match kind {
                Kind::Fn | Kind::Type => "non-test code now names it",
                Kind::Mod => "another package now reaches it",
            };
            problems.push(format!("ALLOWED entry `{name}` is stale: {now}"));
        }
    }
    problems
}

/// The defining sources (`crates/*/src` outside `src/bin`) and the corpus
/// that may read them (those plus `src/bin`, `src/`, `examples/` and
/// `benchmark/src/`).
fn workspace() -> (Vec<Source>, Vec<Source>) {
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
    (defining, corpus)
}

/// Fail with every problem and what to do about each.
fn assert_clean(kind: Kind, problems: Vec<String>, remedy: &str) {
    assert!(
        problems.is_empty(),
        "{} public-surface problem(s):\n  {}\n\nFor each `{}` above: {remedy} Remove a stale \
         `ALLOWED` entry.",
        problems.len(),
        problems.join("\n  "),
        kind.noun()
    );
}

#[test]
fn every_public_fn_has_a_non_test_caller() {
    let (defining, corpus) = workspace();
    assert_clean(
        Kind::Fn,
        audit(Kind::Fn, &defining, &corpus, ALLOWED),
        "delete it, make it `pub(crate)` (rustc's dead-code lint then watches it), or add it to \
         `ALLOWED` in tests/public_api.rs with the reader that needs it.",
    );
}

#[test]
fn every_public_type_and_const_has_a_non_test_reader() {
    let (defining, corpus) = workspace();
    assert_clean(
        Kind::Type,
        audit(Kind::Type, &defining, &corpus, ALLOWED_TYPES),
        "delete it, make it `pub(crate)` (rustc's dead-code lint then watches it), or add it to \
         `ALLOWED_TYPES` in tests/public_api.rs with the reader that needs it.",
    );
}

#[test]
fn every_public_mod_is_reached_from_another_package() {
    let (defining, corpus) = workspace();
    assert_clean(
        Kind::Mod,
        audit(Kind::Mod, &defining, &corpus, ALLOWED_MODS),
        "make it `pub(crate)` and re-export what other packages need at the crate root, or add \
         it to `ALLOWED_MODS` in tests/public_api.rs naming the doctest or integration test \
         that reads it.",
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
        audit(Kind::Fn, &corpus, &corpus, &[]),
        ["crates/x/src/lib.rs:2 unused: no non-test caller"]
    );
    let stale = [
        ("used", "gained a caller"),
        ("gone", "vanished"),
        ("unused", "kept"),
    ];
    assert_eq!(
        audit(Kind::Fn, &corpus, &corpus, &stale),
        [
            "ALLOWED entry `used` is stale: non-test code now names it",
            "ALLOWED entry `gone` is stale: no such pub fn",
        ]
    );
}

#[test]
fn the_type_and_module_audits_see_definitions_impls_and_packages() {
    let source = |path: &str, text: &str| Source {
        path: path.into(),
        code: without_test_items(code_only(text)),
    };
    let lib = source(
        "crates/x/src/lib.rs",
        "pub mod reached;\npub mod own_use;\npub mod by_brace;\npub mod idle;\n\
         pub struct Lonely;\nimpl Lonely { fn f() {} }\nimpl fmt::Debug for Lonely {}\n\
         pub trait Rule: Send + 'static + Marker {}\npub trait Marker {}\n\
         pub struct Shell<K: Rule>(K);\n\
         impl<K: Rule> Shell<K> {}\npub const LIMIT: u8 = 1;\n\
         fn f() { let _ = LIMIT; own_use::g(); }\n\
         #[cfg(test)]\nmod tests { fn t() { let _ = super::Lonely; super::idle::h(); } }\n",
    );
    let other = source(
        "crates/y/src/lib.rs",
        "use mcc_x::reached::Thing;\nuse mcc_x::{by_brace::{a, b}, Shell};\n",
    );
    let corpus = [lib, other];
    let defining = &corpus[..1];
    assert_eq!(
        audit(Kind::Type, defining, &corpus, &[]),
        ["crates/x/src/lib.rs:5 Lonely: no non-test reader"]
    );
    assert_eq!(
        audit(Kind::Mod, defining, &corpus, &[("idle", "a doctest")]),
        ["crates/x/src/lib.rs:2 own_use: no other package's non-test code reaches it by path"]
    );
    assert_eq!(
        audit(
            Kind::Mod,
            defining,
            &corpus,
            &[("reached", "kept"), ("gone", "vanished")]
        ),
        [
            "crates/x/src/lib.rs:2 own_use: no other package's non-test code reaches it by path",
            "crates/x/src/lib.rs:4 idle: no other package's non-test code reaches it by path",
            "ALLOWED entry `reached` is stale: another package now reaches it",
            "ALLOWED entry `gone` is stale: no such pub mod",
        ]
    );
}
