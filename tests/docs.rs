//! The docs name only what exists. In README.md, DESIGN.md, EXPERIMENTS.md
//! and docs/MODEL.md, a backticked `*.rs` path is a file of the repository
//! (or the tail of one, as `wal.rs`), a `DbOptions::<name>` a field or
//! associated fn in `crates/lsm/src/options.rs`, and a `MONKEY_*` variable
//! a string literal in the source. A commit-prefixed path, as in
//! `e09d004:crates/bench/benches/io.rs`, names git history and is skipped.

use std::path::Path;

/// Names of deleted code that a retirement note keeps on purpose.
const RETIRED: &[&str] = &["DbOptions::value_separation"];

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
    let (mut found, mut missing) = ([0; 3], Vec::new());
    for (doc, text) in [
        ("README.md", include_str!("../README.md")),
        ("DESIGN.md", include_str!("../DESIGN.md")),
        ("EXPERIMENTS.md", include_str!("../EXPERIMENTS.md")),
        ("docs/MODEL.md", include_str!("../docs/MODEL.md")),
    ] {
        let spans = text.split('`').skip(1).step_by(2);
        let paths = spans.flat_map(words).filter_map(rs_path);
        let paths = paths.map(|p| (0, p, file(p)));
        let options = words(text).filter_map(|w| Some(&w[w.find("DbOptions::")?..]));
        let options = options.map(|o| (1, o, member(&o["DbOptions::".len()..])));
        let vars = words(text).filter(|w| w.starts_with("MONKEY_") && w.len() > 7);
        let vars = vars.map(|v| (2, v, sources.contains(&format!("\"{v}\""))));
        for (kind, name, exists) in paths.chain(options).chain(vars) {
            found[kind] += 1;
            if !exists && !RETIRED.contains(&name) {
                missing.push(format!("{doc}: {name}"));
            }
        }
    }
    assert!(found.iter().all(|&n| n > 0), "{found:?}");
    assert!(missing.is_empty(), "not in the tree: {missing:#?}");
}
