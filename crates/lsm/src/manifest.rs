//! The manifest: durable record of the tree's structure.
//!
//! After every structural change (flush, merge cascade) the engine writes a
//! complete snapshot of the level layout — which run ids live at which
//! level, in age order — plus the sequence-number high-water mark and the
//! tuning parameters the layout was built with. The snapshot is written to
//! a temp file and atomically renamed, so a crash leaves either the old or
//! the new manifest, never a torn one.
//!
//! The format is plain text for debuggability:
//!
//! ```text
//! monkey-manifest v1
//! seq <next-seq>
//! policy <leveling|tiering>
//! ratio <T>
//! run <id> <level> <age> <filter-bits-per-entry> [<filter-flavor>]
//! ```
//!
//! The trailing filter-flavor field (`standard` or `blocked`) was added
//! with the blocked-filter variant; manifests written before it omit the
//! field and parse as `standard`, so old stores recover unchanged.

use crate::error::{LsmError, Result};
use crate::policy::MergePolicy;
use monkey_bloom::FilterVariant;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;

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
    /// variant (absent in pre-flavor manifests ⇒ standard).
    pub flavor: FilterVariant,
}

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
    path: PathBuf,
}

impl Manifest {
    /// Creates a manifest handle at `path` (file need not exist yet).
    pub fn at(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into() }
    }

    /// Loads the current snapshot; `None` when no manifest exists yet.
    pub fn load(&self) -> Result<Option<ManifestState>> {
        let text = match std::fs::read_to_string(&self.path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        parse(&text).map(Some)
    }

    /// Atomically replaces the manifest with `state`.
    pub fn store(&self, state: &ManifestState) -> Result<()> {
        // One buffer, formatted into in place: the manifest is rewritten
        // on every flush, a line per run.
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
        let tmp = self.path.with_extension("tmp");
        {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(text.as_bytes())?;
            file.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        Ok(())
    }
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
                let level = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
                let age = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
                let bits_per_entry = parts.next().and_then(|s| s.parse().ok()).ok_or_else(bad)?;
                let flavor = match parts.next() {
                    None => FilterVariant::Standard, // pre-flavor manifest
                    Some(s) => FilterVariant::parse(s).ok_or_else(bad)?,
                };
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
            parse("monkey-manifest v1\nrun 1 2 0 5.0 sideways\n").is_err(),
            "bad flavor"
        );
        assert!(parse("monkey-manifest v1\nwhatever 1 2\n").is_err());
        assert!(parse("monkey-manifest v1\npolicy sideways\n").is_err());
    }

    #[test]
    fn pre_flavor_manifest_parses_as_standard() {
        // A manifest written before the filter-flavor field existed.
        let state = parse("monkey-manifest v1\nseq 9\nrun 4 1 0 7.5\n").unwrap();
        assert_eq!(state.runs.len(), 1);
        assert_eq!(state.runs[0].bits_per_entry, 7.5);
        assert_eq!(state.runs[0].flavor, FilterVariant::Standard);
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
        let state = parse("monkey-manifest v1\n\nseq 5\n\nrun 1 1 0 2.5\n").unwrap();
        assert_eq!(state.next_seq, 5);
        assert_eq!(state.runs.len(), 1);
    }
}
