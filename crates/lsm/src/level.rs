//! Levels: the exponentially growing tiers of the tree.
//!
//! Level `i` (1-based, disk-resident) has a capacity of `M_buffer · Tⁱ`
//! bytes. Under leveling it holds at most one run; under tiering up to
//! `T−1` resident runs, ordered youngest first so lookups probe the most
//! recent data first (§2).

use crate::run::Run;
use std::sync::Arc;

/// One disk level: its runs, youngest first.
#[derive(Debug, Default, Clone)]
pub struct Level {
    runs: Vec<Arc<Run>>,
}

impl Level {
    /// Creates an empty level.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs in the level, youngest (most recently created) first.
    pub fn runs(&self) -> &[Arc<Run>] {
        &self.runs
    }

    /// Adds a freshly created run as the youngest.
    pub fn push_youngest(&mut self, run: Arc<Run>) {
        self.runs.insert(0, run);
    }

    /// Removes and returns all runs (for a tiering merge or a leveling
    /// cascade), oldest last.
    pub fn take_all(&mut self) -> Vec<Arc<Run>> {
        std::mem::take(&mut self.runs)
    }

    /// Replaces the run at `idx` (same data, e.g. a rebuilt filter).
    pub fn replace_run(&mut self, idx: usize, run: Arc<Run>) {
        self.runs[idx] = run;
    }

    /// Number of runs.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// True when the level holds no runs.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Total entries across the level's runs.
    pub fn entries(&self) -> u64 {
        self.runs.iter().map(|r| r.entries()).sum()
    }

    /// Total payload bytes across the level's runs.
    pub fn bytes(&self) -> u64 {
        self.runs.iter().map(|r| r.bytes()).sum()
    }
}

/// An immutable snapshot of the tree's disk-resident shape: the level/run
/// lists at one instant.
///
/// The engine keeps the current version behind an `Arc` and publishes
/// changes by building a *new* version off to the side and swapping the
/// pointer — readers that cloned the `Arc` keep iterating their snapshot
/// while a merge cascade installs its successor, so `get`/`range` never
/// block on compaction. Runs are themselves `Arc`ed and copy-on-write at
/// the level granularity, so cloning a version is cheap (a `Vec` of
/// refcount bumps).
#[derive(Debug, Default, Clone)]
pub struct Version {
    levels: Vec<Level>,
}

impl Version {
    /// A version with no disk levels (fresh database).
    pub fn empty() -> Self {
        Self::default()
    }

    /// A version wrapping existing levels (recovery path).
    pub fn from_levels(levels: Vec<Level>) -> Self {
        Self { levels }
    }

    /// Disk levels, shallowest first. Index 0 is the paper's level 1.
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// Mutable access for cascade construction (only ever called on a
    /// private clone that has not been published yet).
    pub fn levels_mut(&mut self) -> &mut Vec<Level> {
        &mut self.levels
    }

    /// Ensures at least `n` levels exist, growing with empty ones.
    pub fn ensure_levels(&mut self, n: usize) {
        while self.levels.len() < n {
            self.levels.push(Level::new());
        }
    }

    /// Number of disk levels (including empty trailing ones).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Deepest non-empty level (1-based), 0 when the disk is empty.
    pub fn deepest(&self) -> usize {
        self.levels
            .iter()
            .rposition(|l| !l.is_empty())
            .map_or(0, |i| i + 1)
    }

    /// Total entries across all disk runs.
    pub fn disk_entries(&self) -> u64 {
        self.levels.iter().map(|l| l.entries()).sum()
    }

    /// Total runs across all levels.
    pub fn run_count(&self) -> usize {
        self.levels.iter().map(|l| l.run_count()).sum()
    }
}

/// Capacity in bytes of disk level `i` (1-based): `buffer_bytes · Tⁱ`
/// (Figure 2's `P·B·Tⁱ` schedule, expressed in bytes so entry sizes may
/// vary).
pub fn level_capacity_bytes(buffer_bytes: usize, size_ratio: usize, level: usize) -> u64 {
    let mut cap = buffer_bytes as u64;
    for _ in 0..level {
        cap = cap.saturating_mul(size_ratio as u64);
    }
    cap
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::Entry;
    use crate::run::RunBuilder;
    use monkey_storage::Disk;

    fn tiny_run(disk: &Arc<Disk>, key: &str) -> Arc<Run> {
        let mut b = RunBuilder::new(Arc::clone(disk));
        b.push(&Entry::put(key.as_bytes().to_vec(), b"v".to_vec(), 0))
            .unwrap();
        Arc::new(b.finish(10.0).unwrap().unwrap())
    }

    #[test]
    fn youngest_first_ordering() {
        let disk = Disk::mem(64);
        let mut level = Level::new();
        let a = tiny_run(&disk, "a");
        let b = tiny_run(&disk, "b");
        level.push_youngest(a);
        level.push_youngest(Arc::clone(&b));
        assert_eq!(level.run_count(), 2);
        assert_eq!(level.runs()[0].id(), b.id(), "youngest run probed first");
    }

    #[test]
    fn take_all_empties_level() {
        let disk = Disk::mem(64);
        let mut level = Level::new();
        level.push_youngest(tiny_run(&disk, "a"));
        level.push_youngest(tiny_run(&disk, "b"));
        let taken = level.take_all();
        assert_eq!(taken.len(), 2);
        assert!(level.is_empty());
    }

    #[test]
    fn aggregates() {
        let disk = Disk::mem(64);
        let mut level = Level::new();
        level.push_youngest(tiny_run(&disk, "a"));
        level.push_youngest(tiny_run(&disk, "b"));
        assert_eq!(level.entries(), 2);
        assert!(level.bytes() > 0);
    }

    #[test]
    fn capacity_schedule_is_exponential() {
        // Figure 2: level i holds P·B·T^i entries; in bytes, buffer · T^i.
        assert_eq!(level_capacity_bytes(1000, 3, 1), 3_000);
        assert_eq!(level_capacity_bytes(1000, 3, 2), 9_000);
        assert_eq!(level_capacity_bytes(1000, 3, 3), 27_000);
        assert_eq!(level_capacity_bytes(1000, 2, 10), 1_024_000);
    }

    #[test]
    fn capacity_saturates_instead_of_overflowing() {
        let cap = level_capacity_bytes(usize::MAX, 1000, 10);
        assert_eq!(cap, u64::MAX);
    }

    #[test]
    fn version_snapshot_is_immutable_under_successor_edits() {
        let disk = Disk::mem(64);
        let mut v = Version::empty();
        v.ensure_levels(2);
        v.levels_mut()[0].push_youngest(tiny_run(&disk, "a"));
        let snapshot = v.clone();
        // Mutating the successor must not disturb the snapshot.
        v.levels_mut()[0].take_all();
        v.levels_mut()[1].push_youngest(tiny_run(&disk, "b"));
        assert_eq!(snapshot.levels()[0].run_count(), 1);
        assert_eq!(snapshot.disk_entries(), 1);
        assert_eq!(v.levels()[0].run_count(), 0);
        assert_eq!(v.run_count(), 1);
        assert_eq!(v.depth(), 2);
    }
}
