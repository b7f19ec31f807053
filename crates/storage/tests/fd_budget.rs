//! The descriptor budget of the run-handle table, from outside.
//!
//! A process's live runs outgrow any fixed number (16 tiered shards at
//! `T = 10` with 5 levels hold 720), so resident descriptors are bounded
//! instead: past the budget a sealed run's handle leaves the table and its
//! next read reopens it. This file holds one test on purpose — the budget
//! is process-wide, and a test binary is one process.

use monkey_storage::{FileBackend, OsFs, StorageError};
use std::path::Path;
use std::sync::Arc;

const PAGE: usize = 4096;
/// `RESIDENT_MAX` in `src/handles.rs`.
const BUDGET: usize = 512;
const RUNS: u64 = BUDGET as u64 + 200;

fn page(run: u64, page_no: u32) -> Vec<u8> {
    vec![(run as u8).wrapping_mul(31).wrapping_add(page_no as u8); PAGE]
}

/// Open descriptors of this process on `.run` files under `dir`.
fn run_fds(dir: &Path) -> usize {
    let dir = dir.canonicalize().unwrap();
    std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .flatten()
        .filter_map(|fd| std::fs::read_link(fd.path()).ok())
        .filter(|target| target.starts_with(&dir) && target.to_string_lossy().contains(".run"))
        .count()
}

fn exercise(b: &FileBackend, dir: &Path) {
    // A run under construction from before the pressure to after it.
    let building = RUNS + 1;
    b.append_pages(building, 0, &page(building, 0)).unwrap();
    for run in 0..RUNS {
        b.append_pages(run, 0, &page(run, 0)).unwrap();
        b.append_pages(run, 1, &page(run, 1)).unwrap();
        b.seal(run).unwrap();
        assert!(
            run_fds(dir) <= BUDGET,
            "{} fds after run {run}",
            run_fds(dir)
        );
    }
    assert!(run_fds(dir) >= BUDGET / 2, "the budget is used, not dodged");
    // Every run reads back, resident or not, and the writer's descriptor
    // was never the one given up.
    for round in 0..2 {
        for run in (0..RUNS).rev() {
            assert_eq!(b.pages(run).unwrap(), 2);
            assert_eq!(&b.read_page(run, round).unwrap()[..], &page(run, round)[..]);
        }
        assert!(run_fds(dir) <= BUDGET);
    }
    b.append_pages(building, 1, &page(building, 1)).unwrap();
    b.seal(building).unwrap();
    assert_eq!(
        &b.read_page(building, 1).unwrap()[..],
        &page(building, 1)[..]
    );
    // Deleting works on resident and non-resident runs alike.
    for run in (0..RUNS).chain([building]) {
        b.delete(run).unwrap();
        assert!(matches!(
            b.read_page(run, 0),
            Err(StorageError::NotFound { page: None, .. })
        ));
    }
    assert_eq!(run_fds(dir), 0);
    assert!(b.list().unwrap().is_empty());
}

#[test]
fn resident_descriptors_stay_under_the_budget() {
    if !Path::new("/proc/self/fd").exists() {
        eprintln!("skipping: no /proc/self/fd here");
        return;
    }
    let dir = std::env::temp_dir().join(format!("monkey-fd-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    exercise(
        &FileBackend::open(Arc::new(OsFs), &dir, PAGE).unwrap(),
        &dir,
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
