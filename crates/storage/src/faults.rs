//! Fault injection for testing: a backend wrapper that fails I/O on
//! command.
//!
//! Storage failures are rare but inevitable; the engine above must surface
//! them as errors without corrupting in-memory state or leaking storage.
//! [`FlakyBackend`] wraps any [`Backend`] and injects [`StorageError::Io`]
//! failures according to a budget: fail everything after the first `n`
//! operations, fail reads only, or fail writes only.

use crate::backend::{Backend, RunId};
use crate::error::{Result, StorageError};
use bytes::Bytes;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Which operations the fault plan applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail page reads.
    Reads,
    /// Fail page appends.
    Writes,
    /// Fail both.
    All,
}

/// A backend that starts failing after a configured number of operations.
pub struct FlakyBackend<B> {
    inner: B,
    kind: FaultKind,
    /// Operations (of the targeted kind) still allowed to succeed.
    budget: AtomicU64,
    armed: AtomicBool,
    injected: AtomicU64,
}

impl<B: Backend> FlakyBackend<B> {
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

    fn maybe_fail(&self, op: FaultKind, what: &str) -> Result<()> {
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
            return Err(StorageError::Io(std::io::Error::other(format!(
                "injected fault on {what}"
            ))));
        }
        Ok(())
    }
}

impl<B: Backend> Backend for FlakyBackend<B> {
    fn append_page(&self, run: RunId, page_no: u32, data: &[u8]) -> Result<()> {
        self.maybe_fail(FaultKind::Writes, "append_page")?;
        self.inner.append_page(run, page_no, data)
    }

    fn seal(&self, run: RunId) -> Result<()> {
        self.inner.seal(run)
    }

    fn read_page(&self, run: RunId, page_no: u32) -> Result<Bytes> {
        self.maybe_fail(FaultKind::Reads, "read_page")?;
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
