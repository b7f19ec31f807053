//! Fault injection for testing: a backend wrapper that fails I/O on
//! command.
//!
//! Storage failures are rare but inevitable; the engine above must surface
//! them as errors without corrupting in-memory state or leaking storage.
//! [`FlakyBackend`] wraps any [`Backend`] — or any [`Fs`], the seam every
//! durable file of a store crosses — and injects I/O errors according to a
//! budget: fail everything after the first `n` operations, fail reads
//! only, or fail writes only.

use crate::backend::{Backend, RunId};
use crate::error::Result;
use crate::fs::{Fs, FsFile};
use bytes::Bytes;
use std::fmt::Arguments;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Which operations the fault plan applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail page reads, and the seam's opens, reads and listings.
    Reads,
    /// Fail page appends, run seals and backend directory syncs, and every
    /// seam operation that changes a file or a directory: create, write,
    /// sync, rename, remove, directory create and directory sync.
    Writes,
    /// Fail both.
    All,
}

/// A backend, or a filesystem seam, that starts failing after a configured
/// number of operations.
pub struct FlakyBackend<B> {
    inner: B,
    kind: FaultKind,
    /// Operations (of the targeted kind) still allowed to succeed.
    budget: AtomicU64,
    armed: AtomicBool,
    injected: AtomicU64,
}

impl<B> FlakyBackend<B> {
    /// Wraps `inner`; faults are disarmed until [`arm`](Self::arm) is called.
    pub fn new(inner: B, kind: FaultKind) -> Arc<Self> {
        Arc::new(Self {
            inner,
            kind,
            budget: AtomicU64::new(u64::MAX),
            armed: AtomicBool::new(false),
            injected: AtomicU64::new(0),
        })
    }

    /// Starts failing targeted operations after `allow` more of them.
    pub fn arm(&self, allow: u64) {
        self.budget.store(allow, Ordering::SeqCst);
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Stops injecting faults.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
    }

    /// Number of faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::SeqCst)
    }

    fn maybe_fail(&self, op: FaultKind, what: Arguments) -> io::Result<()> {
        if !self.armed.load(Ordering::SeqCst) {
            return Ok(());
        }
        let applies = self.kind == FaultKind::All || self.kind == op;
        if !applies {
            return Ok(());
        }
        // Consume one unit of budget; fail once it is exhausted.
        let prev = self
            .budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| {
                Some(b.saturating_sub(1))
            })
            .unwrap();
        if prev == 0 {
            self.injected.fetch_add(1, Ordering::SeqCst);
            return Err(io::Error::other(format!("injected fault on {what}")));
        }
        Ok(())
    }
}

impl<B: Backend> Backend for FlakyBackend<B> {
    fn append_page(&self, run: RunId, page_no: u32, data: &[u8]) -> Result<()> {
        self.maybe_fail(FaultKind::Writes, format_args!("append_page"))?;
        self.inner.append_page(run, page_no, data)
    }

    fn seal(&self, run: RunId) -> Result<()> {
        self.maybe_fail(FaultKind::Writes, format_args!("seal of run {run}"))?;
        self.inner.seal(run)
    }

    fn sync_dir(&self) -> Result<()> {
        self.maybe_fail(FaultKind::Writes, format_args!("sync_dir"))?;
        self.inner.sync_dir()
    }

    fn read_page(&self, run: RunId, page_no: u32) -> Result<Bytes> {
        self.maybe_fail(FaultKind::Reads, format_args!("read_page"))?;
        self.inner.read_page(run, page_no)
    }

    fn pages(&self, run: RunId) -> Result<u32> {
        self.inner.pages(run)
    }

    fn delete(&self, run: RunId) -> Result<()> {
        self.inner.delete(run)
    }

    fn list(&self) -> Vec<RunId> {
        self.inner.list()
    }
}

impl<F: Fs> Fs for FlakyBackend<F> {
    fn create(&self, path: &Path, direct: bool) -> io::Result<FsFile> {
        let what = format_args!("create of {}", path.display());
        self.maybe_fail(FaultKind::Writes, what)?;
        self.inner.create(path, direct)
    }

    fn open(&self, path: &Path, direct: bool) -> io::Result<FsFile> {
        self.maybe_fail(FaultKind::Reads, format_args!("open of {}", path.display()))?;
        self.inner.open(path, direct)
    }

    fn write_at(&self, file: &FsFile, offset: u64, data: &[u8]) -> io::Result<()> {
        let what = format_args!("write to {}", file.path().display());
        self.maybe_fail(FaultKind::Writes, what)?;
        self.inner.write_at(file, offset, data)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.maybe_fail(FaultKind::Reads, format_args!("read of {}", path.display()))?;
        self.inner.read(path)
    }

    fn sync(&self, file: &FsFile) -> io::Result<()> {
        let what = format_args!("sync of {}", file.path().display());
        self.maybe_fail(FaultKind::Writes, what)?;
        self.inner.sync(file)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let what = format_args!("rename of {}", from.display());
        self.maybe_fail(FaultKind::Writes, what)?;
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let what = format_args!("remove of {}", path.display());
        self.maybe_fail(FaultKind::Writes, what)?;
        self.inner.remove(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.maybe_fail(FaultKind::Reads, format_args!("list of {}", dir.display()))?;
        self.inner.list(dir)
    }

    fn create_dir(&self, dir: &Path) -> io::Result<()> {
        let what = format_args!("create_dir of {}", dir.display());
        self.maybe_fail(FaultKind::Writes, what)?;
        self.inner.create_dir(dir)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        let what = format_args!("sync_dir of {}", dir.display());
        self.maybe_fail(FaultKind::Writes, what)?;
        self.inner.sync_dir(dir)
    }
}

/// A backend that sleeps before each page read/write — a stand-in for a
/// slow device, used to make background flushes and merge cascades take
/// real wall-clock time so concurrency tests can observe that foreground
/// operations keep making progress while maintenance work is in flight.
pub struct SlowBackend<B> {
    inner: B,
    read_delay_us: AtomicU64,
    write_delay_us: AtomicU64,
    sync_delay_us: AtomicU64,
}

impl<B: Backend> SlowBackend<B> {
    /// Wraps `inner` with zero delay (set delays later, even while I/O is
    /// running — the knobs are atomic).
    pub fn new(inner: B) -> Arc<Self> {
        Arc::new(Self {
            inner,
            read_delay_us: AtomicU64::new(0),
            write_delay_us: AtomicU64::new(0),
            sync_delay_us: AtomicU64::new(0),
        })
    }

    /// Sleeps `micros` before every page read.
    pub fn set_read_delay_micros(&self, micros: u64) {
        self.read_delay_us.store(micros, Ordering::SeqCst);
    }

    /// Sleeps `micros` before every page append.
    pub fn set_write_delay_micros(&self, micros: u64) {
        self.write_delay_us.store(micros, Ordering::SeqCst);
    }

    /// Sleeps `micros` before every seal (the durability barrier) — models
    /// a device with expensive flushes, so tests can observe that batching
    /// coalesces rather than multiplies them.
    pub fn set_sync_delay_micros(&self, micros: u64) {
        self.sync_delay_us.store(micros, Ordering::SeqCst);
    }

    fn nap(&self, micros: &AtomicU64) {
        let us = micros.load(Ordering::SeqCst);
        if us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(us));
        }
    }
}

impl<B: Backend> Backend for SlowBackend<B> {
    fn append_page(&self, run: RunId, page_no: u32, data: &[u8]) -> Result<()> {
        self.nap(&self.write_delay_us);
        self.inner.append_page(run, page_no, data)
    }

    fn seal(&self, run: RunId) -> Result<()> {
        self.nap(&self.sync_delay_us);
        self.inner.seal(run)
    }

    fn sync_dir(&self) -> Result<()> {
        self.inner.sync_dir()
    }

    fn read_page(&self, run: RunId, page_no: u32) -> Result<Bytes> {
        self.nap(&self.read_delay_us);
        self.inner.read_page(run, page_no)
    }

    fn pages(&self, run: RunId) -> Result<u32> {
        self.inner.pages(run)
    }

    fn delete(&self, run: RunId) -> Result<()> {
        self.inner.delete(run)
    }

    fn list(&self) -> Vec<RunId> {
        self.inner.list()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    #[test]
    fn disarmed_passes_through() {
        let b = FlakyBackend::new(MemBackend::new(), FaultKind::All);
        b.append_page(1, 0, &[0u8; 8]).unwrap();
        assert_eq!(&b.read_page(1, 0).unwrap()[..], &[0u8; 8]);
        assert_eq!(b.injected(), 0);
    }

    #[test]
    fn fails_after_budget() {
        let b = FlakyBackend::new(MemBackend::new(), FaultKind::Writes);
        b.arm(2);
        b.append_page(1, 0, &[0u8; 8]).unwrap();
        b.append_page(1, 1, &[0u8; 8]).unwrap();
        assert!(b.append_page(1, 2, &[0u8; 8]).is_err());
        assert_eq!(b.injected(), 1);
        // Reads unaffected by a writes-only plan.
        assert!(b.read_page(1, 0).is_ok());
    }

    #[test]
    fn a_writes_plan_fails_seals_and_the_seams_syncs() {
        let b = FlakyBackend::new(MemBackend::new(), FaultKind::Writes);
        b.append_page(1, 0, &[0u8; 8]).unwrap();
        b.arm(1);
        b.seal(1).unwrap();
        let err = b.sync_dir().unwrap_err();
        assert!(
            err.to_string().contains("injected fault on sync_dir"),
            "{err}"
        );
        assert!(b.seal(1).is_err(), "the budget stays spent");

        let dir = std::env::temp_dir().join(format!("monkey-flaky-fs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = FlakyBackend::new(crate::OsFs, FaultKind::Writes);
        fs.create_dir(&dir).unwrap();
        let file = fs.create(&dir.join("f"), false).unwrap();
        fs.arm(1);
        fs.write_at(&file, 0, b"x").unwrap();
        assert!(fs.sync(&file).is_err());
        assert!(fs.sync_dir(&dir).is_err());
        assert_eq!(fs.injected(), 2);
        // A writes plan leaves reads alone.
        assert_eq!(fs.read(&dir.join("f")).unwrap(), b"x");
        assert_eq!(fs.list(&dir).unwrap(), ["f"]);
        fs.disarm();
        fs.sync(&file).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reads_only_plan() {
        let b = FlakyBackend::new(MemBackend::new(), FaultKind::Reads);
        b.append_page(1, 0, &[0u8; 8]).unwrap();
        b.arm(0);
        assert!(b.read_page(1, 0).is_err());
        assert!(b.append_page(1, 1, &[0u8; 8]).is_ok());
        b.disarm();
        assert!(b.read_page(1, 0).is_ok());
    }

    #[test]
    fn slow_backend_delays_syncs() {
        let b = SlowBackend::new(MemBackend::new());
        b.append_page(1, 0, &[0u8; 8]).unwrap();
        b.set_sync_delay_micros(2_000);
        let t0 = std::time::Instant::now();
        b.seal(1).unwrap();
        assert!(t0.elapsed() >= std::time::Duration::from_micros(2_000));
    }

    #[test]
    fn slow_backend_delays_then_passes_through() {
        let b = SlowBackend::new(MemBackend::new());
        b.append_page(1, 0, &[7u8; 8]).unwrap();
        b.set_read_delay_micros(2_000);
        let t0 = std::time::Instant::now();
        assert_eq!(&b.read_page(1, 0).unwrap()[..], &[7u8; 8]);
        assert!(t0.elapsed() >= std::time::Duration::from_micros(2_000));
        b.set_read_delay_micros(0);
        assert_eq!(b.list(), vec![1]);
        b.delete(1).unwrap();
        assert!(b.list().is_empty());
    }
}
