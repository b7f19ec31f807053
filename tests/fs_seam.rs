//! Every durable byte crosses one seam. No code of the engine crate
//! (`crates/lsm/src`) outside `#[cfg(test)]` reaches the filesystem on its
//! own — no `std::fs`, no `OpenOptions`: the engine's files are created,
//! written, synced, renamed, listed and removed through
//! `monkey_storage::Fs`, whose OS implementation is the one place that
//! calls `std::fs` for them.

use std::path::Path;

/// What the engine's code may not name.
const FORBIDDEN: [&str; 2] = ["std::fs", "OpenOptions"];

fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    for path in std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// `source` with every `#[cfg(test)]` item cut out: the attribute and the
/// item it gates, to its first `;` or, when a brace comes first, to the
/// brace that closes it (braces matched naively).
fn without_tests(source: &str) -> String {
    let (mut kept, mut rest) = (String::new(), source);
    while let Some(at) = rest.find("#[cfg(test)]") {
        kept.push_str(&rest[..at]);
        let item = &rest[at + "#[cfg(test)]".len()..];
        let open = item.find(['{', ';']).expect("a gated item ends");
        let mut depth = 0;
        let end = item[open..].char_indices().find_map(|(i, c)| {
            depth += match c {
                '{' => 1,
                '}' => -1,
                _ => 0,
            };
            (depth == 0).then_some(open + i + 1)
        });
        rest = &item[end.expect("braces close")..];
    }
    kept.push_str(rest);
    kept
}

/// The lines of `source`, outside `#[cfg(test)]` code, that name a
/// forbidden item.
fn offenders(source: &str) -> Vec<String> {
    let code = without_tests(source);
    let lines = code.lines().map(str::trim);
    let lines = lines.filter(|line| FORBIDDEN.iter().any(|f| line.contains(f)));
    lines.map(String::from).collect()
}

#[test]
fn test_code_is_cut_and_the_rest_is_read() {
    let source = "use std::fs::File;\n\
        #[cfg(test)]\nuse std::fs::OpenOptions;\n\
        fn f() { #[cfg(test)] { let _ = std::fs::read(\"x\"); } }\n\
        #[cfg(test)]\nmod tests { fn g() { if true { std::fs::remove_file(\"x\"); } } }\n\
        fn h() -> OpenOptions { todo!() }\n";
    assert_eq!(
        offenders(source),
        ["use std::fs::File;", "fn h() -> OpenOptions { todo!() }"]
    );
}

#[test]
fn the_engine_reaches_files_only_through_the_seam() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("../lsm/src");
    let mut files = Vec::new();
    rust_files(&src, &mut files);
    assert!(
        files.len() > 10,
        "{} files under {}",
        files.len(),
        src.display()
    );
    let mut found = Vec::new();
    for file in files {
        let source = std::fs::read_to_string(&file).unwrap();
        for line in offenders(&source) {
            found.push(format!("{}: {line}", file.display()));
        }
    }
    assert!(
        found.is_empty(),
        "filesystem use outside the seam: {found:#?}"
    );
}
