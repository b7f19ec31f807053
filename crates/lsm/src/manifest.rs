//! The manifest: durable record of the tree's structure.
//!
//! After every structural change (flush, merge cascade) the engine writes a
//! complete snapshot of the level layout — which run ids live at which
//! level, in age order — plus the sequence-number high-water mark and the
//! tuning parameters the layout was built with. The snapshot is written to
//! a temp file, synced and atomically renamed, so a crash leaves either the
//! old or the new manifest, never a torn one; the directory is synced after
//! the rename, so once a store returns, a crash leaves the new one. Every
//! step goes through the store's [`Fs`] seam.
//!
//! The format is plain text for debuggability:
//!
//! ```text
//! monkey-manifest v1
//! seq <next-seq>
//! policy <leveling|tiering>
//! ratio <T>
//! run <id> <level> <age> <filter-bits-per-entry> <filter-flavor>
//! ```
//!
//! The filter flavor is `standard` or `blocked`. A line that does not
//! parse — a missing field, a level outside `1..=MAX_LEVEL` — makes the
//! whole manifest [`LsmError::Corruption`].

use crate::error::{LsmError, Result};
use crate::policy::MergePolicy;
use monkey_bloom::FilterVariant;
use monkey_storage::{Fs, IoStats, OsFs, SyncKind};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// One run's position in the tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunRecord {
    /// Storage id of the run.
    pub id: u64,
    /// 1-based level index.
    pub level: usize,
    /// Age within the level: 0 = youngest.
    pub age: usize,
    /// Bits-per-entry the run's Bloom filter was built with, so recovery
    /// reproduces the exact allocation (Monkey's varies per level).
    pub bits_per_entry: f64,
    /// Filter layout the run was built with, so recovery rebuilds the same
    /// variant.
    pub flavor: FilterVariant,
}

/// The deepest level a manifest may name. A level holds `T` times the
/// one above it, `T ≥ 2`, so level 65 would hold more than 2^64 bytes: a
/// larger number is damage, and recovery would allocate a level table of
/// that length.
const MAX_LEVEL: usize = 64;

/// A decoded manifest snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ManifestState {
    /// Next sequence number to assign.
    pub next_seq: u64,
    /// Merge policy the layout was built with.
    pub policy: Option<MergePolicy>,
    /// Size ratio the layout was built with.
    pub size_ratio: Option<usize>,
    /// Every run in the tree.
    pub runs: Vec<RunRecord>,
}

/// Writer/reader for the manifest file.
pub struct Manifest {
    fs: Arc<dyn Fs>,
    /// The store's I/O counters: each sync is counted there by kind.
    io: Arc<IoStats>,
    path: PathBuf,
}

impl Manifest {
    /// Creates a manifest handle at `path` (file need not exist yet).
    pub fn at(path: impl Into<PathBuf>) -> Self {
        Self::with_fs(Arc::new(OsFs), Arc::default(), path)
    }

    /// [`at`](Self::at), reached through `fs` and counting syncs in `io`.
    pub(crate) fn with_fs(fs: Arc<dyn Fs>, io: Arc<IoStats>, path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        Self { fs, io, path }
    }

    /// Loads the current snapshot; `None` when no manifest exists yet.
    pub fn load(&self) -> Result<Option<ManifestState>> {
        let bytes = match self.fs.read(&self.path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let text = String::from_utf8(bytes)
            .map_err(|e| LsmError::Corruption(format!("manifest is not UTF-8: {e}")))?;
        parse(&text).map(Some)
    }

    /// Replaces the manifest with `state`: written to a temporary file,
    /// synced, renamed over the manifest, and the directory synced.
    pub fn store(&self, state: &ManifestState) -> Result<()> {
        let tmp = self.path.with_extension("tmp");
        let file = match self.fs.create(&tmp) {
            // What a store that failed or crashed part-way left.
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                self.fs.remove(&tmp)?;
                self.fs.create(&tmp)?
            }
            created => created?,
        };
        self.fs.write_at(&file, 0, render(state).as_bytes())?;
        self.fs.sync(&file)?;
        self.io.add_sync(SyncKind::Manifest);
        drop(file);
        self.fs.rename(&tmp, &self.path)?;
        let dir = (self.path.parent()).filter(|dir| !dir.as_os_str().is_empty());
        self.fs.sync_dir(dir.unwrap_or(Path::new(".")))?;
        self.io.add_sync(SyncKind::Dir);
        Ok(())
    }
}

/// The manifest's text for `state`. One buffer, formatted into in place:
/// the manifest is rewritten on every flush, a line per run.
fn render(state: &ManifestState) -> String {
    let mut text = String::from("monkey-manifest v1\n");
    let infallible = "formatting into a String cannot fail";
    writeln!(text, "seq {}", state.next_seq).expect(infallible);
    if let Some(policy) = state.policy {
        writeln!(text, "policy {}", policy.name()).expect(infallible);
    }
    if let Some(ratio) = state.size_ratio {
        writeln!(text, "ratio {ratio}").expect(infallible);
    }
    for run in &state.runs {
        writeln!(
            text,
            "run {} {} {} {} {}",
            run.id,
            run.level,
            run.age,
            run.bits_per_entry,
            run.flavor.name()
        )
        .expect(infallible);
    }
    text
}

fn parse(text: &str) -> Result<ManifestState> {
    let mut lines = text.lines();
    match lines.next() {
        Some("monkey-manifest v1") => {}
        other => {
            return Err(LsmError::Corruption(format!(
                "bad manifest header: {other:?}"
            )))
        }
    }
    let mut state = ManifestState::default();
    for (no, line) in lines.enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let bad = || LsmError::Corruption(format!("bad manifest line {}: {line:?}", no + 2));
        match parts.next() {
            Some("seq") => {
                state.next_seq = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
            }
            Some("policy") => {
                state.policy = Some(parts.next().and_then(MergePolicy::parse).ok_or_else(bad)?);
            }
            Some("ratio") => {
                state.size_ratio = Some(parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?);
            }
            Some("run") => {
                let id = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
                let level = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .filter(|level| (1..=MAX_LEVEL).contains(level))
                    .ok_or_else(bad)?;
                let age = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
                let bits_per_entry = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
                let flavor = parts
                    .next()
                    .and_then(FilterVariant::parse)
                    .ok_or_else(bad)?;
                state.runs.push(RunRecord {
                    id,
                    level,
                    age,
                    bits_per_entry,
                    flavor,
                });
            }
            _ => return Err(bad()),
        }
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("monkey-manifest-{}-{name}", std::process::id()))
    }

    fn sample() -> ManifestState {
        ManifestState {
            next_seq: 42,
            policy: Some(MergePolicy::Tiering),
            size_ratio: Some(4),
            runs: vec![
                RunRecord {
                    id: 7,
                    level: 1,
                    age: 0,
                    bits_per_entry: 12.5,
                    flavor: FilterVariant::Standard,
                },
                RunRecord {
                    id: 3,
                    level: 1,
                    age: 1,
                    bits_per_entry: 0.1875,
                    flavor: FilterVariant::Blocked,
                },
                RunRecord {
                    id: 1,
                    level: 2,
                    age: 0,
                    bits_per_entry: 0.0,
                    flavor: FilterVariant::Standard,
                },
            ],
        }
    }

    #[test]
    fn store_load_roundtrip() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let m = Manifest::at(&path);
        assert!(m.load().unwrap().is_none());
        m.store(&sample()).unwrap();
        assert_eq!(m.load().unwrap().unwrap(), sample());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn store_overwrites_atomically() {
        let path = tmp("overwrite");
        let _ = std::fs::remove_file(&path);
        let m = Manifest::at(&path);
        m.store(&sample()).unwrap();
        let mut next = sample();
        next.next_seq = 100;
        next.runs.clear();
        // A temporary a failed store left behind is replaced.
        std::fs::write(path.with_extension("tmp"), b"a torn store").unwrap();
        m.store(&next).unwrap();
        assert_eq!(m.load().unwrap().unwrap(), next);
        assert!(!path.with_extension("tmp").exists(), "temp file cleaned up");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejects_bad_header() {
        assert!(parse("not a manifest\n").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn rejects_bad_lines() {
        assert!(parse("monkey-manifest v1\nseq notanumber\n").is_err());
        assert!(parse("monkey-manifest v1\nrun 1\n").is_err());
        assert!(
            parse("monkey-manifest v1\nrun 1 2 0\n").is_err(),
            "missing bpe field"
        );
        assert!(
            parse("monkey-manifest v1\nrun 1 2 0 5.0\n").is_err(),
            "missing flavor field"
        );
        assert!(
            parse("monkey-manifest v1\nrun 1 2 0 5.0 sideways\n").is_err(),
            "bad flavor"
        );
        assert!(parse("monkey-manifest v1\nwhatever 1 2\n").is_err());
        assert!(parse("monkey-manifest v1\npolicy sideways\n").is_err());
    }

    #[test]
    fn rejects_levels_no_tree_reaches() {
        // Recovery sizes its level table by the deepest level it reads: a
        // level of 2^40 must stop here, not abort the process there.
        for level in ["0", "65", "1099511627776", "-1"] {
            let text = format!("monkey-manifest v1\nrun 14 {level} 0 10 standard\n");
            assert!(parse(&text).is_err(), "level {level}");
        }
        let deepest = parse("monkey-manifest v1\nrun 14 64 0 10 standard\n").unwrap();
        assert_eq!(deepest.runs[0].level, MAX_LEVEL);
    }

    #[test]
    fn minimal_manifest_parses() {
        let state = parse("monkey-manifest v1\nseq 0\n").unwrap();
        assert_eq!(state.next_seq, 0);
        assert!(state.runs.is_empty());
        assert!(state.policy.is_none());
    }

    #[test]
    fn blank_lines_ignored() {
        let state = parse("monkey-manifest v1\n\nseq 5\n\nrun 1 1 0 2.5 standard\n").unwrap();
        assert_eq!(state.next_seq, 5);
        assert_eq!(state.runs.len(), 1);
    }

    /// A word a manifest line might hold: its keywords and names, numbers
    /// on both sides of every bound, and junk.
    fn word(pick: u8, n: u64) -> String {
        match pick % 9 {
            0 => ["run", "seq", "policy", "ratio"][n as usize % 4].into(),
            1 => ["standard", "blocked", "leveling", "tiering"][n as usize % 4].into(),
            2 => (n % (MAX_LEVEL as u64 + 4)).to_string(),
            3 => n.to_string(),
            4 => format!("{}.{}", n % 100, n % 7),
            5 => format!("-{}", n % 3),
            6 => "\n".into(),
            7 => "monkey-manifest v1\n".into(),
            _ => char::from_u32((n % 0x3000) as u32).map_or("?".into(), String::from),
        }
    }

    /// `parse` returns, and whatever it accepts names only levels a tree
    /// can have.
    fn accepts_only_real_levels(text: &str) -> std::result::Result<(), TestCaseError> {
        if let Ok(state) = parse(text) {
            for run in &state.runs {
                prop_assert!(
                    (1..=MAX_LEVEL).contains(&run.level),
                    "level {} accepted from {text:?}",
                    run.level
                );
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn parse_never_panics_on_arbitrary_text(
            bytes in collection::vec(any::<u8>(), 0..120),
            words in collection::vec((any::<u8>(), any::<u64>()), 0..40),
            headed in any::<bool>(),
        ) {
            accepts_only_real_levels(&String::from_utf8_lossy(&bytes))?;
            let mut text = String::from(if headed { "monkey-manifest v1\n" } else { "" });
            for &(pick, n) in &words {
                text.push_str(&word(pick, n));
                text.push(' ');
            }
            accepts_only_real_levels(&text)?;
        }

        #[test]
        fn parse_never_panics_on_mutated_manifests(
            runs in collection::vec(
                (any::<u64>(), 1..=MAX_LEVEL, 0usize..20, 0u16..400, any::<bool>()),
                0..8,
            ),
            mutation in 0u8..4,
            at in any::<u16>(),
            pick in any::<u8>(),
            n in any::<u64>(),
        ) {
            let state = ManifestState {
                next_seq: n,
                policy: Some(MergePolicy::Leveling),
                size_ratio: Some(1 + pick as usize),
                runs: runs
                    .iter()
                    .map(|&(id, level, age, bits, blocked)| RunRecord {
                        id,
                        level,
                        age,
                        bits_per_entry: f64::from(bits) / 16.0,
                        flavor: if blocked { FilterVariant::Blocked } else { FilterVariant::Standard },
                    })
                    .collect(),
            };
            let text = render(&state);
            prop_assert_eq!(parse(&text).unwrap(), state.clone(), "a valid manifest round-trips");
            let mut bytes = text.into_bytes();
            let at = at as usize % bytes.len();
            let mutated = match mutation {
                0 => {
                    bytes.truncate(at);
                    String::from_utf8_lossy(&bytes).into_owned()
                }
                1 => {
                    bytes[at] ^= 1 << (n % 8);
                    String::from_utf8_lossy(&bytes).into_owned()
                }
                // A word of the manifest replaced, or one inserted before it.
                _ => {
                    let text = String::from_utf8_lossy(&bytes).into_owned();
                    let mut words: Vec<String> = text.split(' ').map(String::from).collect();
                    let i = at as usize % words.len();
                    if mutation == 2 {
                        words[i] = word(pick, n);
                    } else {
                        words.insert(i, word(pick, n));
                    }
                    words.join(" ")
                }
            };
            accepts_only_real_levels(&mutated)?;
        }
    }
}
