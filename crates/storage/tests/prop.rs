//! Property-based tests for the storage layer.

use bytes::Bytes;
use monkey_storage::{BlockCache, Disk, Fs, FsFile, MemFs, OsFs};
use proptest::prelude::*;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// The files and directories a replayed operation may name, under a root.
const FILES: [&str; 4] = ["a", "b", "c", "s/e"];
const DIRS: [&str; 2] = ["s", "s/t"];

/// What an operation returned, as compared across filesystems: its value,
/// rendered, or the kind of its error.
type Outcome = Result<String, io::ErrorKind>;

fn outcome<T: std::fmt::Debug>(result: io::Result<T>) -> Outcome {
    result.map(|v| format!("{v:?}")).map_err(|e| e.kind())
}

/// Applies operation `(kind, i, j, n)` to `fs` under `root`: the files
/// `FILES[i]` and `FILES[j]`, the directory `DIRS[i % 2]`, `n` an offset
/// or a length. `open` holds the handle each file was last created or
/// opened with; an operation on a handle never taken returns `None`.
fn apply(
    fs: &dyn Fs,
    root: &Path,
    open: &mut HashMap<usize, FsFile>,
    (kind, i, j, n): (u8, usize, usize, u16),
) -> Option<Outcome> {
    let (file, other, dir) = (
        root.join(FILES[i]),
        root.join(FILES[j]),
        root.join(DIRS[i % 2]),
    );
    let (offset, n) = (u64::from(n % 97), usize::from(n % 50));
    let mut take = |f: io::Result<FsFile>| f.map(|f| drop(open.insert(i, f)));
    Some(match kind {
        0 => outcome(take(fs.create(&file))),
        1 => outcome(take(fs.open(&file))),
        2 => outcome(fs.write_at(open.get(&i)?, offset, &vec![j as u8 + 1; n])),
        3 => {
            let mut buf = vec![0u8; n];
            outcome(fs.read_at(open.get(&i)?, offset, &mut buf).map(|()| buf))
        }
        4 => outcome(fs.len(open.get(&i)?)),
        5 => outcome(fs.read(&file)),
        6 => outcome(fs.rename(&file, &other)),
        7 => outcome(fs.remove(&file)),
        8 => {
            let listed = fs.list(if j % 2 == 0 { root } else { &dir });
            outcome(listed.map(|mut names| {
                names.sort();
                names
            }))
        }
        9 => outcome(fs.create_dir(&dir)),
        10 => outcome(fs.sync(open.get(&i)?)),
        _ => outcome(fs.sync_dir(&dir)),
    })
}

static CASE: AtomicU64 = AtomicU64::new(0);

proptest! {
    /// Pages written through a RunWriter read back verbatim through the
    /// counted read path, for any page pattern.
    #[test]
    fn run_roundtrip(pages in proptest::collection::vec(any::<u8>(), 1..40), page_size in 1usize..256) {
        let disk = Disk::mem(page_size);
        let mut w = disk.begin_run();
        for &fill in &pages {
            w.append(&vec![fill; page_size]).unwrap();
        }
        let id = w.seal().unwrap();
        prop_assert_eq!(disk.run_pages(id).unwrap() as usize, pages.len());
        for (i, &fill) in pages.iter().enumerate() {
            let got = disk.read_page(id, i as u32).unwrap();
            prop_assert!(got.iter().all(|&b| b == fill));
        }
    }

    /// I/O accounting is exact: N appends = N writes, M random reads =
    /// M reads and M seeks (no cache).
    #[test]
    fn io_counts_exact(n_pages in 1u32..30, reads in proptest::collection::vec(any::<u32>(), 0..50)) {
        let disk = Disk::mem(32);
        let mut w = disk.begin_run();
        for _ in 0..n_pages {
            w.append(&[0u8; 32]).unwrap();
        }
        let id = w.seal().unwrap();
        let io = disk.io();
        prop_assert_eq!(io.page_writes, n_pages as u64);
        disk.reset_io();
        for &r in &reads {
            disk.read_page(id, r % n_pages).unwrap();
        }
        let io = disk.io();
        prop_assert_eq!(io.page_reads, reads.len() as u64);
        prop_assert_eq!(io.seeks, reads.len() as u64);
        prop_assert_eq!(io.cache_hits, 0);
    }

    /// Sequential reads return the same bytes as page-at-a-time reads but
    /// cost exactly one seek.
    #[test]
    fn sequential_matches_random(n_pages in 2u32..30, start in 0u32..29, len in 1u32..30) {
        let disk = Disk::mem(16);
        let mut w = disk.begin_run();
        for i in 0..n_pages {
            w.append(&[i as u8; 16]).unwrap();
        }
        let id = w.seal().unwrap();
        let start = start % n_pages;
        let len = len.min(n_pages - start);
        disk.reset_io();
        let mut scanned = vec![disk.read_page(id, start).unwrap()];
        for p in start + 1..start + len {
            scanned.push(disk.read_page_sequential(id, p).unwrap());
        }
        prop_assert_eq!(disk.io().seeks, 1);
        prop_assert_eq!(disk.io().page_reads, len as u64);
        for (i, p) in scanned.iter().enumerate() {
            prop_assert_eq!(p[0], (start as usize + i) as u8);
        }
    }

    /// The cache never exceeds its capacity and never returns wrong bytes.
    #[test]
    fn cache_capacity_and_correctness(
        ops in proptest::collection::vec((0u64..8, 0u32..16, any::<u8>()), 1..200),
        capacity in 0usize..4096,
    ) {
        let cache = BlockCache::new(capacity);
        let mut model = std::collections::HashMap::new();
        for &(run, page, fill) in &ops {
            let data = Bytes::from(vec![fill; 64]);
            cache.insert(run, page, data.clone());
            model.insert((run, page), data);
            // The byte budget is enforced per shard and rounds up, so the
            // total may exceed the configured capacity by up to one byte
            // per shard (16).
            prop_assert!(cache.used_bytes() <= capacity.div_ceil(16) * 16);
            if let Some(got) = cache.get(run, page) {
                prop_assert_eq!(&got, model.get(&(run, page)).unwrap());
            }
        }
    }

    /// With an unbounded cache, re-reading any previously read page is a
    /// cache hit, never an I/O.
    #[test]
    fn warm_cache_absorbs_rereads(reads in proptest::collection::vec(0u32..20, 1..100)) {
        let disk = Disk::mem_cached(32, usize::MAX / 2);
        let mut w = disk.begin_run();
        for i in 0..20u32 {
            w.append(&[i as u8; 32]).unwrap();
        }
        let id = w.seal().unwrap();
        disk.reset_io();
        let mut seen = std::collections::HashSet::new();
        for &r in &reads {
            disk.read_page(id, r).unwrap();
            seen.insert(r);
        }
        let io = disk.io();
        prop_assert_eq!(io.page_reads, seen.len() as u64, "each page faulted once");
        prop_assert_eq!(io.cache_hits, (reads.len() - seen.len()) as u64);
    }

    /// A memory fs answers every operation as the OS's filesystem does:
    /// the same values — names listed, bytes read, lengths — and the same
    /// error kinds: `AlreadyExists` on a second `create`, `NotFound` on an
    /// `open`, `remove` or `rename` of a missing file, `UnexpectedEof` on a
    /// short positional read. A `rename` replaces its target, a handle
    /// outlives its file's name, and creating a directory that exists is
    /// not an error.
    #[test]
    fn mem_fs_answers_as_the_os_fs_does(
        ops in proptest::collection::vec((0u8..12, 0usize..4, 0usize..4, 0u16..200), 1..60),
    ) {
        let case = CASE.fetch_add(1, Ordering::Relaxed);
        let root = std::env::temp_dir().join(format!("monkey-fs-parity-{}-{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (mem, os) = (MemFs::new(), OsFs);
        mem.create_dir(&root).unwrap();
        os.create_dir(&root).unwrap();
        let (mut mem_open, mut os_open) = (HashMap::new(), HashMap::new());
        for (step, &op) in ops.iter().enumerate() {
            let want = apply(&os, &root, &mut os_open, op);
            let got = apply(&mem, &root, &mut mem_open, op);
            prop_assert_eq!(got, want, "step {} of {:?}", step, ops);
        }
        std::fs::remove_dir_all(&root).unwrap();
    }
}
