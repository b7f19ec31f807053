//! The docs name only what exists. In README.md, DESIGN.md, EXPERIMENTS.md
//! and docs/MODEL.md, a backticked `*.rs` path is a file of the repository
//! (or the tail of one, as `wal.rs`), a `DbOptions::<name>` a field or
//! associated fn in `crates/lsm/src/options.rs`, and a `MONKEY_*` variable
//! a string literal in the source. A backticked `Type::name` names a type
//! the workspace declares (or one of [`EXTERNAL`]) and a fn, field,
//! variant or constant its declaration or one of its `impl` blocks
//! declares. A commit-prefixed path, as in
//! `e09d004:crates/bench/benches/io.rs`, names git history and is skipped.

use std::path::Path;

/// Names of deleted code that a retirement note keeps on purpose.
const RETIRED: &[&str] = &[
    "DbOptions::value_separation",
    "Db::migrate_to",
    "Navigator::retune",
    "Backend::read_batch",
    "Disk::read_pages",
    "OpMix::from_measured",
];

/// Types from outside the workspace that the docs name.
const EXTERNAL: &[&str] = &["Instant"];

fn rust_files(dir: &Path, out: &mut Vec<String>) {
    for path in std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
        let name = path.file_name().unwrap().to_string_lossy();
        if path.is_dir() && name != "target" && !name.starts_with('.') {
            rust_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path.to_string_lossy().into_owned());
        }
    }
}

/// Runs of identifier characters and `./-:`, trailing punctuation trimmed.
fn words(text: &str) -> impl Iterator<Item = &str> {
    let word = |c: char| c.is_ascii_alphanumeric() || "_./-:".contains(c);
    text.split(move |c| !word(c))
        .map(|w| w.trim_end_matches(['.', ':', '-', '/']))
}

/// The `*.rs` path a word of a code span names, unless it is in history.
fn rs_path(word: &str) -> Option<&str> {
    let path = &word[..word.find(".rs")? + 3];
    let (commit, path) = path.rsplit_once(':').unwrap_or(("", path));
    let history = commit.len() >= 7 && commit.bytes().all(|b| b.is_ascii_hexdigit());
    (!history && path.len() > 3).then(|| path.trim_start_matches("../"))
}

/// Each `Type::name` in a word of a code span, with its type and name, as
/// `Db::get` in `monkey_lsm::Db::get`.
fn members(word: &str) -> impl Iterator<Item = (&str, &str, &str)> {
    let ident = |s: &str| !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    word.match_indices("::").filter_map(move |(at, _)| {
        let start = word[..at].rfind("::").map_or(0, |i| i + 2);
        let end = word[at + 2..].find("::").map_or(word.len(), |i| at + 2 + i);
        let (ty, name) = (&word[start..at], &word[at + 2..end]);
        let upper = ty.starts_with(|c: char| c.is_ascii_uppercase());
        (upper && ident(ty) && ident(name)).then(|| (&word[start..end], ty, name))
    })
}

/// The bodies of `ty`'s declarations (`struct`, `enum`, `trait`, `union`)
/// and `impl` blocks in `source`, braces matched naively.
fn bodies<'a>(source: &'a str, ty: &str) -> Vec<&'a str> {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut out = Vec::new();
    for (at, _) in source.match_indices(ty) {
        let (before, after) = (&source[..at], &source[at + ty.len()..]);
        if before.ends_with(is_ident) || after.starts_with(is_ident) {
            continue;
        }
        let line = before[before.rfind('\n').map_or(0, |i| i + 1)..].trim_start();
        let line = line
            .trim_start_matches("pub(crate) ")
            .trim_start_matches("pub ");
        let declaration = ["struct ", "enum ", "trait ", "union "].contains(&line);
        let implementation = line.starts_with("impl")
            && line.ends_with(' ')
            && (line.ends_with(" for ") || !line.contains(" for "));
        if !(declaration || implementation) {
            continue;
        }
        // A unit or tuple struct ends at `;` before any brace.
        let Some(open) = after
            .find(['{', ';'])
            .filter(|&i| after[i..].starts_with('{'))
        else {
            continue;
        };
        let mut depth = 0;
        let close = after[open..].char_indices().find_map(|(i, c)| {
            depth += match c {
                '{' => 1,
                '}' => -1,
                _ => 0,
            };
            (depth == 0).then_some(open + i)
        });
        out.extend(close.map(|close| &after[open..close]));
    }
    out
}

/// Whether one of `bodies` declares `name`: a fn or field when it is
/// snake case, a variant or constant otherwise.
fn declares(bodies: &[&str], name: &str) -> bool {
    let forms = match name.starts_with(|c: char| c.is_ascii_uppercase()) {
        true => [
            format!(" {name},"),
            format!(" {name}("),
            format!(" {name} {{"),
            format!(" {name} ="),
            format!("const {name}:"),
        ],
        false => [
            format!("fn {name}("),
            format!("fn {name}<"),
            format!(" {name}:"),
            format!("const {name}:"),
            format!("type {name}"),
        ],
    };
    bodies
        .iter()
        .any(|body| forms.iter().any(|form| body.contains(form)))
}

#[test]
fn the_docs_name_only_what_exists() {
    let (root, mut files) = (Path::new(env!("CARGO_MANIFEST_DIR")).join("../.."), vec![]);
    rust_files(&root, &mut files);
    let read = |f: &String| std::fs::read_to_string(f).unwrap();
    let sources: String = files.iter().map(read).collect();
    let options = include_str!("../crates/lsm/src/options.rs");
    let block = |head: &str| -> String {
        let bodies = options.split(head).skip(1);
        bodies.map(|b| &b[..b.find("\n}").unwrap()]).collect()
    };
    let (fields, fns) = (block("pub struct DbOptions {"), block("impl DbOptions {"));
    let member =
        |m: &str| fields.contains(&format!("pub {m}:")) || fns.contains(&format!("fn {m}("));
    let file = |p: &str| files.iter().any(|f| f.ends_with(&format!("/{p}")));
    let (mut found, mut missing) = ([0; 4], Vec::new());
    for (doc, text) in [
        ("README.md", include_str!("../README.md")),
        ("DESIGN.md", include_str!("../DESIGN.md")),
        ("EXPERIMENTS.md", include_str!("../EXPERIMENTS.md")),
        ("docs/MODEL.md", include_str!("../docs/MODEL.md")),
    ] {
        let spans = text.split('`').skip(1).step_by(2);
        let paths = spans.clone().flat_map(words).filter_map(rs_path);
        let paths = paths.map(|p| (0, p, file(p)));
        let options = words(text).filter_map(|w| Some(&w[w.find("DbOptions::")?..]));
        let options = options.map(|o| (1, o, member(&o["DbOptions::".len()..])));
        let vars = words(text).filter(|w| w.starts_with("MONKEY_") && w.len() > 7);
        let vars = vars.map(|v| (2, v, sources.contains(&format!("\"{v}\""))));
        let named = spans.flat_map(words).flat_map(members);
        let named = named.map(|(member, ty, name)| {
            let blocks = bodies(&sources, ty);
            let exists = match blocks.is_empty() {
                true => EXTERNAL.contains(&ty),
                false => declares(&blocks, name),
            };
            (3, member, exists)
        });
        for (kind, name, exists) in paths.chain(options).chain(vars).chain(named) {
            found[kind] += 1;
            if !exists && !RETIRED.contains(&name) {
                missing.push(format!("{doc}: {name}"));
            }
        }
    }
    assert!(found.iter().all(|&n| n > 0), "{found:?}");
    assert!(missing.is_empty(), "not in the tree: {missing:#?}");
}
