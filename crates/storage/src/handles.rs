//! Run-handle table: the open files of a directory's runs.
//!
//! The file backend keeps its runs as `<id>.run` files in a directory.
//! A page read must cost one positional read on an already-open file — no
//! `open`, `fstat`, `lseek`, `close`, or path formatting — so every run's
//! [`FsFile`] and, once the run is sealed, its page count live here from
//! the run's first append (or its first read after a reopen) until
//! [`RunHandles::delete`].
//!
//! The hit path is a shared-lock map lookup plus an `Arc` clone. Readers
//! keep the `Arc` across the read, so a concurrent delete never waits for
//! them: it drops the table's reference, unlinks the file, and the last
//! reader closes the descriptor (reading an unlinked inode is POSIX-safe).
//! Run ids are never reused, so a leaked entry could only pin a
//! descriptor, never alias another run's data.
//!
//! One tree's runs are few (`≤ (T−1)·L` under tiering), but a process
//! holds every shard of every store it opens: 16 tiered shards at `T = 10`
//! with 5 levels are 16 × 9 × 5 = 720 live runs. So resident descriptors
//! are bounded by the process, not by the tree: past [`RESIDENT_MAX`] open
//! run files, installing a handle drops some sealed run's entry from the
//! same table, and that run's next read reopens it like a run found after
//! a restart. Which entry goes is arbitrary, and a miss costs one `open`.
//! A [`MemFs`](crate::MemFs) file counts as well though it holds no
//! descriptor: its miss is a map lookup, and the budget exists for
//! processes whose runs are files.

use crate::backend::{extent_pages, RunId};
use crate::error::{Result, StorageError};
use crate::frames::FramePool;
use crate::fs::{Fs, FsFile};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Run files the process keeps open across all its tables (every shard
/// has one): half the usual 1024-descriptor soft limit, an order of
/// magnitude above any tree's live runs. Not a knob — reads are correct
/// at any value, and only a process whose open stores together hold more
/// live runs than this ever reaches it.
const RESIDENT_MAX: usize = 512;

/// Run files currently open in this process.
static OPEN_RUN_FILES: AtomicUsize = AtomicUsize::new(0);

/// An open run file. Sealed runs are immutable, so their page count is
/// fixed at seal (or at the first read after a reopen); a run still under
/// construction is measured on every call.
pub(crate) struct RunHandle {
    pub(crate) file: FsFile,
    sealed_pages: OnceLock<u32>,
}

impl Drop for RunHandle {
    fn drop(&mut self) {
        OPEN_RUN_FILES.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The table itself: `RunId → Arc<RunHandle>` over one directory.
pub(crate) struct RunHandles {
    /// Where the run files are created, synced, listed and removed.
    fs: Arc<dyn Fs>,
    dir: PathBuf,
    page_size: usize,
    /// Where every page and extent read from these files lands.
    frames: FramePool,
    table: RwLock<HashMap<RunId, Arc<RunHandle>>>,
    /// Serialises the two cold paths that pair a table update with a
    /// directory operation — the lazy open of a run found on disk, and
    /// delete — so an open that raced an unlink cannot install an entry
    /// for a file that is already gone. Never taken on a table hit.
    cold: Mutex<()>,
    /// `open(2)` calls issued: the tests prove the warm read path issues
    /// none.
    #[cfg(test)]
    opens: std::sync::atomic::AtomicU64,
}

impl RunHandles {
    /// A table over `dir` on `fs` whose files are read into page and
    /// extent frames.
    pub(crate) fn new(fs: Arc<dyn Fs>, dir: PathBuf, page_size: usize) -> Self {
        let extent = extent_pages(page_size) as usize * page_size;
        Self {
            fs,
            dir,
            page_size,
            frames: FramePool::with_extent(page_size, extent),
            table: RwLock::new(HashMap::new()),
            cold: Mutex::new(()),
            #[cfg(test)]
            opens: Default::default(),
        }
    }

    /// The pool this table's page and extent frames come from.
    pub(crate) fn frames(&self) -> &FramePool {
        &self.frames
    }

    /// The seam this table's files are reached through.
    pub(crate) fn fs(&self) -> &dyn Fs {
        &*self.fs
    }

    fn path(&self, run: RunId) -> PathBuf {
        self.dir.join(format!("{run:016x}.run"))
    }

    /// Whole pages in the file behind `handle`, measured.
    fn file_pages(&self, handle: &RunHandle) -> std::io::Result<u32> {
        Ok((self.fs.len(&handle.file)? / self.page_size as u64) as u32)
    }

    /// Whole pages in the run behind `handle`.
    pub(crate) fn pages(&self, handle: &RunHandle) -> Result<u32> {
        match handle.sealed_pages.get() {
            Some(&pages) => Ok(pages),
            None => Ok(self.file_pages(handle)?),
        }
    }

    fn not_found(run: RunId, e: std::io::Error) -> StorageError {
        if e.kind() == std::io::ErrorKind::NotFound {
            StorageError::NotFound { run, page: None }
        } else {
            StorageError::Io(e)
        }
    }

    fn open(&self, run: RunId, create: bool) -> std::io::Result<RunHandle> {
        #[cfg(test)]
        self.opens.fetch_add(1, Ordering::Relaxed);
        let file = match create {
            true => self.fs.create(&self.path(run))?,
            false => self.fs.open(&self.path(run))?,
        };
        OPEN_RUN_FILES.fetch_add(1, Ordering::Relaxed);
        Ok(RunHandle {
            file,
            sealed_pages: OnceLock::new(),
        })
    }

    /// Puts a freshly opened handle in the table. When the process is
    /// over its budget of open run files, as many sealed entries leave the
    /// table — possibly this one, which its caller still holds. A run
    /// under construction always stays: its descriptor is the writer's.
    fn install(&self, run: RunId, handle: RunHandle) -> Arc<RunHandle> {
        let handle = Arc::new(handle);
        let mut table = self.table.write();
        table.insert(run, Arc::clone(&handle));
        let over = OPEN_RUN_FILES
            .load(Ordering::Relaxed)
            .saturating_sub(RESIDENT_MAX);
        let evict: Vec<RunId> = table
            .iter()
            .filter(|(_, h)| h.sealed_pages.get().is_some())
            .map(|(&id, _)| id)
            .take(over)
            .collect();
        for id in evict {
            table.remove(&id);
        }
        handle
    }

    /// The handle to append `run`'s pages from `page_no` on through,
    /// creating the file on page 0.
    pub(crate) fn for_append(&self, run: RunId, page_no: u32) -> Result<Arc<RunHandle>> {
        if let Some(handle) = self.table.read().get(&run) {
            if handle.sealed_pages.get().is_some() {
                return Err(StorageError::Corruption(format!(
                    "run {run} is sealed (append of page {page_no})"
                )));
            }
            return Ok(Arc::clone(handle));
        }
        if page_no != 0 {
            return Err(StorageError::Corruption(format!(
                "run {run} is not under construction (page {page_no})"
            )));
        }
        Ok(self.install(run, self.open(run, true)?))
    }

    /// Makes a run under construction durable and fixes its page count.
    pub(crate) fn seal(&self, run: RunId) -> Result<()> {
        let Some(handle) = self.table.read().get(&run).cloned() else {
            return Ok(());
        };
        if handle.sealed_pages.get().is_none() {
            self.fs.sync(&handle.file)?;
            let _ = handle.sealed_pages.set(self.file_pages(&handle)?);
        }
        Ok(())
    }

    /// The handle to read `run` through. A sealed run with no entry — one
    /// found on disk after a restart, or one whose entry went to the
    /// descriptor budget — is opened here and stays open.
    pub(crate) fn get(&self, run: RunId) -> Result<Arc<RunHandle>> {
        if let Some(handle) = self.table.read().get(&run) {
            return Ok(Arc::clone(handle));
        }
        let _cold = self.cold.lock();
        if let Some(handle) = self.table.read().get(&run) {
            return Ok(Arc::clone(handle));
        }
        // A run under construction is always in the table, so nothing
        // appends to this one: whatever is on disk is the whole run.
        let handle = self.open(run, false).map_err(|e| Self::not_found(run, e))?;
        let _ = handle.sealed_pages.set(self.file_pages(&handle)?);
        Ok(self.install(run, handle))
    }

    /// Drops the table's handle, then unlinks the file.
    pub(crate) fn delete(&self, run: RunId) -> Result<()> {
        let _cold = self.cold.lock();
        self.table.write().remove(&run);
        (self.fs.remove(&self.path(run))).map_err(|e| Self::not_found(run, e))
    }

    /// Ids of the `.run` files in the directory, ascending.
    pub(crate) fn list(&self) -> Result<Vec<RunId>> {
        let names = self.fs.list(&self.dir)?;
        let mut ids: Vec<RunId> = (names.iter())
            .filter_map(|name| RunId::from_str_radix(name.strip_suffix(".run")?, 16).ok())
            .collect();
        ids.sort_unstable();
        Ok(ids)
    }

    /// Makes the directory's set of run files durable.
    pub(crate) fn sync_dir(&self) -> Result<()> {
        Ok(self.fs.sync_dir(&self.dir)?)
    }

    #[cfg(test)]
    pub(crate) fn opens(&self) -> u64 {
        self.opens.load(Ordering::Relaxed)
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.table.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FileBackend, OsFs};
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    const PAGE: usize = 4096;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("monkey-handles-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn open(dir: &std::path::Path) -> FileBackend {
        FileBackend::open(Arc::new(OsFs), dir, PAGE).unwrap()
    }

    fn page(run: RunId, page_no: u32) -> Vec<u8> {
        vec![(run as u8).wrapping_mul(31).wrapping_add(page_no as u8); PAGE]
    }

    fn build(b: &FileBackend, run: RunId, pages: u32) {
        for p in 0..pages {
            b.append_pages(run, p, &page(run, p)).unwrap();
        }
        b.seal(run).unwrap();
    }

    #[test]
    fn warm_reads_open_nothing() {
        let dir = tmp("warm");
        let b = open(&dir);
        let (big, small) = (1, 2);
        build(&b, big, 8);
        build(&b, small, 3);
        // Sealing installed both handles: that is all the warm-up.
        assert_eq!(b.handles.opens(), 2, "one open per run, at creation");
        for i in 0..10_000u32 {
            let (run, pages) = if i % 3 == 0 { (small, 3) } else { (big, 8) };
            let got = b.read_page(run, i % pages).unwrap();
            assert_eq!(&got[..], &page(run, i % pages)[..]);
        }
        assert_eq!(b.pages(big).unwrap(), 8);
        assert_eq!(b.handles.opens(), 2, "the warm read path opens nothing");
        assert_eq!(b.handles.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn not_found_names_the_missing_run_or_page() {
        let dir = tmp("not-found");
        let b = open(&dir);
        let run = 5;
        build(&b, run, 4);
        let page_of = |e: StorageError| match e {
            StorageError::NotFound { run: r, page } => (r, page),
            other => panic!("expected NotFound, got {other:?}"),
        };
        assert_eq!(page_of(b.read_page(99, 0).unwrap_err()), (99, None));
        assert_eq!(page_of(b.pages(99).unwrap_err()), (99, None));
        assert_eq!(page_of(b.read_page(run, 4).unwrap_err()), (run, Some(4)));
        assert_eq!(page_of(b.read_page(run, 40).unwrap_err()), (run, Some(40)));
        b.delete(run).unwrap();
        assert_eq!(page_of(b.read_page(run, 0).unwrap_err()), (run, None));
        assert_eq!(page_of(b.pages(run).unwrap_err()), (run, None));
        assert_eq!(page_of(b.delete(run).unwrap_err()), (run, None));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_under_construction_is_measured_not_cached() {
        let dir = tmp("building");
        let b = open(&dir);
        let run = 3;
        b.append_pages(run, 0, &page(run, 0)).unwrap();
        assert_eq!(b.pages(run).unwrap(), 1);
        b.append_pages(run, 1, &page(run, 1)).unwrap();
        assert_eq!(b.pages(run).unwrap(), 2, "length re-read while building");
        assert_eq!(&b.read_page(run, 1).unwrap()[..], &page(run, 1)[..]);
        assert!(matches!(
            b.read_page(run, 2),
            Err(StorageError::NotFound { page: Some(2), .. })
        ));
        b.seal(run).unwrap();
        assert_eq!(b.pages(run).unwrap(), 2);
        assert!(
            b.append_pages(run, 2, &page(run, 2)).is_err(),
            "a sealed run's length is cached, so it must stay fixed"
        );
        assert_eq!(b.handles.opens(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_installs_handles_on_first_read() {
        let dir = tmp("reopen");
        build(&open(&dir), 10, 6);
        let b = open(&dir);
        let handles = &b.handles;
        assert_eq!((handles.len(), handles.opens()), (0, 0), "nothing eager");
        assert_eq!(b.list().unwrap(), vec![10]);
        let on_disk = std::fs::metadata(handles.path(10)).unwrap().len();
        assert_eq!(b.pages(10).unwrap() as u64, on_disk / PAGE as u64);
        assert_eq!((handles.len(), handles.opens()), (1, 1), "first use opens");
        assert_eq!(&b.read_page(10, 5).unwrap()[..], &page(10, 5)[..]);
        assert!(b.read_page(10, 6).is_err());
        assert_eq!((handles.len(), handles.opens()), (1, 1), "then it is warm");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Readers hammer a run while it is deleted under them: every read
    /// returns the run's bytes or `NotFound { page: None }`, and afterwards
    /// the table holds no entry for the run — also when the readers' first
    /// touch is the lazy open after a reopen.
    #[test]
    fn readers_racing_delete_see_right_bytes_and_leave_no_entry() {
        const RUNS: u64 = 24;
        const READERS: usize = 3;
        let dir = tmp("race");
        let seed = open(&dir);
        for run in 0..RUNS {
            build(&seed, run, 4);
        }
        drop(seed);
        let b = open(&dir);
        // Even runs are cold (the first touch races the delete), odd ones
        // warmed first.
        for run in 0..RUNS {
            if run % 2 == 1 {
                b.read_page(run, 0).unwrap();
            }
            let start = Barrier::new(READERS + 1);
            let deleted = AtomicBool::new(false);
            std::thread::scope(|s| {
                for t in 0..READERS {
                    let (b, start, deleted) = (&b, &start, &deleted);
                    s.spawn(move || {
                        start.wait();
                        for p in t as u32.. {
                            // Read the flag first: a read issued after the
                            // delete returned must fail.
                            let after = deleted.load(Ordering::Acquire);
                            match b.read_page(run, p % 4) {
                                Ok(got) => {
                                    assert!(!after, "run {run} read after its delete");
                                    assert_eq!(&got[..], &page(run, p % 4)[..]);
                                }
                                Err(StorageError::NotFound { page: None, .. }) => break,
                                Err(e) => panic!("run {run}: {e:?}"),
                            }
                        }
                    });
                }
                start.wait();
                b.delete(run).unwrap();
                deleted.store(true, Ordering::Release);
            });
            assert!(!b.handles.path(run).exists());
        }
        assert_eq!(b.handles.len(), 0, "no entry survives its run");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
