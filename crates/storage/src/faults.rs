//! Fault injection for testing: a wrapper of the storage seam that fails
//! or delays its operations on command.
//!
//! Storage failures are rare but inevitable; the engine above must surface
//! them as errors without corrupting in-memory state or leaking storage.
//! [`FlakyBackend`] wraps any [`Fs`] — the seam every file of a store,
//! volatile or durable, crosses — and injects I/O errors according to a
//! budget: fail every targeted operation after the first `n`, or only the
//! one after them, on reads, on writes, or on both. It also sleeps before
//! page reads, writes and syncs on command, a stand-in for a slow device.

use crate::fs::{Fs, FsFile};
use std::fmt::Arguments;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Which operations the fault plan applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail every seam operation that reads: open, positional read,
    /// length, whole-file read and listing.
    Reads,
    /// Fail every seam operation that changes a file or a directory:
    /// create, write, sync, rename, remove, directory create and directory
    /// sync.
    Writes,
    /// Fail both.
    All,
}

/// A filesystem seam that starts failing after a configured number of
/// operations, and that can be slowed down.
pub struct FlakyBackend<F> {
    inner: F,
    kind: FaultKind,
    /// Operations (of the targeted kind) still allowed to succeed.
    budget: AtomicU64,
    armed: AtomicBool,
    /// Whether the plan disarms itself once it has injected a fault.
    once: AtomicBool,
    injected: AtomicU64,
    read_delay_us: AtomicU64,
    write_delay_us: AtomicU64,
    sync_delay_us: AtomicU64,
}

impl<F> FlakyBackend<F> {
    /// Wraps `inner`; faults are disarmed until [`arm`](Self::arm) is
    /// called, and there is no delay until one is set.
    pub fn new(inner: F, kind: FaultKind) -> Arc<Self> {
        Arc::new(Self {
            inner,
            kind,
            budget: AtomicU64::new(u64::MAX),
            armed: AtomicBool::new(false),
            once: AtomicBool::new(false),
            injected: AtomicU64::new(0),
            read_delay_us: AtomicU64::new(0),
            write_delay_us: AtomicU64::new(0),
            sync_delay_us: AtomicU64::new(0),
        })
    }

    /// Starts failing targeted operations after `allow` more of them: a
    /// dying disk.
    pub fn arm(&self, allow: u64) {
        self.arm_with(allow, false);
    }

    /// Fails the one targeted operation after `allow` more of them, and
    /// none after it: a fault the operations that follow do not see.
    pub fn arm_once(&self, allow: u64) {
        self.arm_with(allow, true);
    }

    fn arm_with(&self, allow: u64, once: bool) {
        self.budget.store(allow, Ordering::SeqCst);
        self.once.store(once, Ordering::SeqCst);
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

    /// Sleeps `micros` before every positional read — a page read.
    /// The delays can be changed while I/O is running.
    pub fn set_read_delay_micros(&self, micros: u64) {
        self.read_delay_us.store(micros, Ordering::SeqCst);
    }

    /// Sleeps `micros` before every write — one extent of a run.
    pub fn set_write_delay_micros(&self, micros: u64) {
        self.write_delay_us.store(micros, Ordering::SeqCst);
    }

    /// Sleeps `micros` before every file sync — a run's seal among them —
    /// modelling a device with expensive flushes, so tests can observe
    /// that batching coalesces rather than multiplies them.
    pub fn set_sync_delay_micros(&self, micros: u64) {
        self.sync_delay_us.store(micros, Ordering::SeqCst);
    }

    fn nap(&self, micros: &AtomicU64) {
        let us = micros.load(Ordering::SeqCst);
        if us > 0 {
            std::thread::sleep(Duration::from_micros(us));
        }
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
            if self.once.load(Ordering::SeqCst) {
                self.disarm();
            }
            self.injected.fetch_add(1, Ordering::SeqCst);
            return Err(io::Error::other(format!("injected fault on {what}")));
        }
        Ok(())
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
        self.nap(&self.write_delay_us);
        let what = format_args!("write to {}", file.path().display());
        self.maybe_fail(FaultKind::Writes, what)?;
        self.inner.write_at(file, offset, data)
    }

    fn read_at(&self, file: &FsFile, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.nap(&self.read_delay_us);
        let what = format_args!("read from {}", file.path().display());
        self.maybe_fail(FaultKind::Reads, what)?;
        self.inner.read_at(file, offset, buf)
    }

    fn len(&self, file: &FsFile) -> io::Result<u64> {
        let what = format_args!("length of {}", file.path().display());
        self.maybe_fail(FaultKind::Reads, what)?;
        self.inner.len(file)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.maybe_fail(FaultKind::Reads, format_args!("read of {}", path.display()))?;
        self.inner.read(path)
    }

    fn sync(&self, file: &FsFile) -> io::Result<()> {
        self.nap(&self.sync_delay_us);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemFs;
    use std::time::Instant;

    /// A plan over a memory fs holding the empty file `f`, and `f` open.
    fn flaky(kind: FaultKind) -> (Arc<FlakyBackend<MemFs>>, FsFile) {
        let fs = FlakyBackend::new(MemFs::new(), kind);
        let file = fs.create(Path::new("f"), false).unwrap();
        (fs, file)
    }

    #[test]
    fn disarmed_passes_through() {
        let (b, f) = flaky(FaultKind::All);
        b.write_at(&f, 0, &[0u8; 8]).unwrap();
        let mut page = [1u8; 8];
        b.read_at(&f, 0, &mut page).unwrap();
        assert_eq!(page, [0u8; 8]);
        assert_eq!(b.injected(), 0);
    }

    #[test]
    fn fails_after_budget() {
        let (b, f) = flaky(FaultKind::Writes);
        b.arm(2);
        b.write_at(&f, 0, &[0u8; 8]).unwrap();
        b.write_at(&f, 8, &[0u8; 8]).unwrap();
        assert!(b.write_at(&f, 16, &[0u8; 8]).is_err());
        assert!(b.write_at(&f, 16, &[0u8; 8]).is_err(), "a dying disk");
        assert_eq!(b.injected(), 2);
        // Reads unaffected by a writes-only plan.
        assert!(b.read_at(&f, 0, &mut [0u8; 8]).is_ok());
        // A single fault: the operations after it pass.
        b.arm_once(1);
        b.sync(&f).unwrap();
        assert!(b.remove(Path::new("f")).is_err());
        b.remove(Path::new("f")).unwrap();
        assert_eq!(b.injected(), 3);
    }

    #[test]
    fn a_writes_plan_fails_seals_and_the_seams_syncs() {
        let (b, f) = flaky(FaultKind::Writes);
        b.create_dir(Path::new("d")).unwrap();
        b.arm(1);
        b.sync(&f).unwrap();
        let err = b.sync_dir(Path::new("d")).unwrap_err();
        assert!(
            err.to_string().contains("injected fault on sync_dir"),
            "{err}"
        );
        assert!(b.sync(&f).is_err(), "the budget stays spent");

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
        let (b, f) = flaky(FaultKind::Reads);
        b.write_at(&f, 0, &[0u8; 8]).unwrap();
        b.arm(0);
        assert!(b.read_at(&f, 0, &mut [0u8; 8]).is_err());
        assert!(b.len(&f).is_err());
        assert!(b.list(Path::new("")).is_err());
        assert!(b.write_at(&f, 8, &[0u8; 8]).is_ok());
        b.disarm();
        assert!(b.read_at(&f, 0, &mut [0u8; 8]).is_ok());
    }

    #[test]
    fn slow_backend_delays_syncs() {
        let (b, f) = flaky(FaultKind::All);
        b.write_at(&f, 0, &[0u8; 8]).unwrap();
        b.set_sync_delay_micros(2_000);
        let t0 = Instant::now();
        b.sync(&f).unwrap();
        assert!(t0.elapsed() >= Duration::from_micros(2_000));
    }

    #[test]
    fn slow_backend_delays_then_passes_through() {
        let (b, f) = flaky(FaultKind::All);
        b.write_at(&f, 0, &[7u8; 8]).unwrap();
        b.set_read_delay_micros(2_000);
        let t0 = Instant::now();
        let mut page = [0u8; 8];
        b.read_at(&f, 0, &mut page).unwrap();
        assert_eq!(page, [7u8; 8]);
        assert!(t0.elapsed() >= Duration::from_micros(2_000));
        b.set_read_delay_micros(0);
        assert_eq!(b.list(Path::new("")).unwrap(), ["f"]);
        b.remove(Path::new("f")).unwrap();
        assert!(b.list(Path::new("")).unwrap().is_empty());
    }
}
