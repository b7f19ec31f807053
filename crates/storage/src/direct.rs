//! O_DIRECT file backend: device-true I/O beside the buffered one.
//!
//! The buffered [`FileBackend`](crate::FileBackend) measures the kernel
//! page cache as much as the device; this backend opens every run file
//! with `O_DIRECT`, so each counted page read/write is a real device
//! transfer and the latency histograms collapse to the device's one mode.
//!
//! Alignment is discovered per directory with a read probe — `O_DIRECT`
//! requires buffer address, length, and file offset aligned to the
//! filesystem's logical block size, and the probe walks the ladder
//! 512 B → 4 KiB. Unsupported filesystems (tmpfs rejects `O_DIRECT` at
//! `open`) and page sizes that are not a multiple of the discovered
//! alignment report a fallback reason instead of failing, so callers
//! degrade to the buffered backend and surface the reason once.
//!
//! All buffers are frames of the run-handle table's [`AlignedPool`] — the
//! same frame path the buffered backend reads through, at the device's
//! alignment — and freeze into zero-copy [`Bytes`]; with the `uring` feature on Linux, batched reads submit
//! multi-SQE `io_uring` batches and fall back to `pread` loops when the
//! ring is unavailable or contended.

use crate::aligned::{AlignedPool, PoolStats};
use crate::backend::{Backend, RunId};
use crate::error::{Result, StorageError};
use crate::handles::{RunHandle, RunHandles};
use bytes::Bytes;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::os::unix::fs::OpenOptionsExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[cfg(all(feature = "uring", target_os = "linux"))]
use crate::uring::{ReadOp, Uring};

/// `O_DIRECT` differs per architecture (it is one of the few fcntl flags
/// that does).
#[cfg(any(target_arch = "arm", target_arch = "aarch64"))]
const O_DIRECT: i32 = 0o200000;
#[cfg(not(any(target_arch = "arm", target_arch = "aarch64")))]
const O_DIRECT: i32 = 0o40000;

/// Submission-queue depth of the optional io_uring ring: deep enough for
/// a full readahead batch, small enough to set up instantly.
#[cfg(all(feature = "uring", target_os = "linux"))]
const URING_DEPTH: u32 = 32;

/// Which physical I/O path the storage layer should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoBackend {
    /// Plain buffered `pread`/`pwrite` through the OS page cache (the
    /// historical default; cache-contaminated latencies).
    #[default]
    Buffered,
    /// `O_DIRECT` transfers that bypass the page cache. Falls back to
    /// buffered — with a surfaced reason — where unsupported.
    Direct,
    /// Try direct, silently accept buffered: the deployment default for
    /// code that must run on any filesystem.
    Auto,
}

impl IoBackend {
    /// Label used in options debug output and the backend-info gauge.
    pub fn name(self) -> &'static str {
        match self {
            IoBackend::Buffered => "buffered",
            IoBackend::Direct => "direct",
            IoBackend::Auto => "auto",
        }
    }

    /// Parses the `MONKEY_IO_BACKEND` environment convention.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "buffered" => Some(IoBackend::Buffered),
            "direct" => Some(IoBackend::Direct),
            "auto" => Some(IoBackend::Auto),
            _ => None,
        }
    }
}

/// What the disk actually runs on, after fallback resolution. Surfaced
/// through `Disk::backend_info`, the one-time fallback event, and the
/// `monkey_io_backend_info` gauge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendInfo {
    /// The backend the options asked for.
    pub requested: IoBackend,
    /// The active path: `"mem"`, `"buffered"`, `"direct"`, or
    /// `"direct+uring"`.
    pub kind: &'static str,
    /// Discovered logical-block alignment in bytes (0 when not direct).
    pub align: usize,
    /// Why the requested backend was not activated, when it wasn't.
    pub fallback: Option<String>,
}

impl BackendInfo {
    /// Info for the in-memory simulated disk.
    pub fn mem() -> Self {
        Self {
            requested: IoBackend::Buffered,
            kind: "mem",
            align: 0,
            fallback: None,
        }
    }

    /// Info for a caller-supplied backend the disk knows nothing about.
    pub fn custom() -> Self {
        Self {
            requested: IoBackend::Buffered,
            kind: "custom",
            align: 0,
            fallback: None,
        }
    }

    /// True when the active path reaches the device directly.
    pub fn is_direct(&self) -> bool {
        self.kind.starts_with("direct")
    }
}

/// Walks the alignment ladder for `dir`: open a probe file with
/// `O_DIRECT`, then try reads of 512 and 4096 bytes. Returns the first
/// granularity the filesystem accepts, or the reason none did.
pub(crate) fn discover_alignment(dir: &Path) -> std::result::Result<usize, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create_dir_all: {e}"))?;
    let probe_path = dir.join(".dio-probe");
    let outcome = (|| {
        {
            let mut f = File::create(&probe_path).map_err(|e| format!("probe create: {e}"))?;
            f.write_all(&[0u8; 8192])
                .map_err(|e| format!("probe write: {e}"))?;
            f.sync_all().map_err(|e| format!("probe sync: {e}"))?;
        }
        let f = OpenOptions::new()
            .read(true)
            .custom_flags(O_DIRECT)
            .open(&probe_path)
            .map_err(|e| format!("O_DIRECT open rejected ({e}) — page cache it is"))?;
        let pool = AlignedPool::new(4096, 4096);
        let mut buf = pool.acquire();
        for align in [512usize, 4096] {
            match f.read_at(&mut buf.as_mut_slice()[..align], 0) {
                Ok(n) if n == align => return Ok(align),
                Ok(n) => return Err(format!("probe read returned {n} of {align} bytes")),
                Err(e) if e.raw_os_error() == Some(22) => continue, // EINVAL: finer than the device allows
                Err(e) => return Err(format!("probe read: {e}")),
            }
        }
        Err("no supported O_DIRECT alignment at or below 4096".to_string())
    })();
    let _ = std::fs::remove_file(&probe_path);
    outcome
}

/// One file per run (same layout as the buffered backend — `<id>.run` in
/// a directory, so the two backends are freely interchangeable over the
/// same data), every handle in the [`RunHandles`] table opened with
/// `O_DIRECT`.
pub struct DirectFileBackend {
    page_size: usize,
    align: usize,
    pub(crate) handles: RunHandles,
    /// Set when a runtime EINVAL forced a buffered retry (filesystem
    /// changed its mind after the probe — rare, but never fatal).
    degraded: AtomicBool,
    #[cfg(all(feature = "uring", target_os = "linux"))]
    ring: Option<parking_lot::Mutex<Uring>>,
    #[cfg(all(feature = "uring", target_os = "linux"))]
    ring_reason: Option<String>,
}

impl DirectFileBackend {
    /// Opens a direct backend at `dir`, discovering the filesystem's
    /// alignment. `Err(reason)` in the inner result means "unsupported
    /// here" — the caller should fall back to the buffered backend and
    /// surface the reason; hard I/O errors come back as the outer error.
    pub fn open(
        dir: impl Into<PathBuf>,
        page_size: usize,
    ) -> Result<std::result::Result<Self, String>> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let align = match discover_alignment(&dir) {
            Ok(align) => align,
            Err(reason) => return Ok(Err(reason)),
        };
        if !page_size.is_multiple_of(align) {
            return Ok(Err(format!(
                "page size {page_size} is not a multiple of the device alignment {align}"
            )));
        }
        #[cfg(all(feature = "uring", target_os = "linux"))]
        let (ring, ring_reason) = match Uring::new(URING_DEPTH) {
            Ok(ring) => (Some(parking_lot::Mutex::new(ring)), None),
            Err(e) => (None, Some(format!("io_uring unavailable: {e}"))),
        };
        Ok(Ok(Self {
            page_size,
            align,
            handles: RunHandles::new(dir, page_size, O_DIRECT, align.max(4096)),
            degraded: AtomicBool::new(false),
            #[cfg(all(feature = "uring", target_os = "linux"))]
            ring,
            #[cfg(all(feature = "uring", target_os = "linux"))]
            ring_reason,
        }))
    }

    /// The discovered logical-block alignment.
    pub fn align(&self) -> usize {
        self.align
    }

    /// True when batched reads go through an io_uring ring.
    pub fn uring_active(&self) -> bool {
        #[cfg(all(feature = "uring", target_os = "linux"))]
        {
            self.ring.is_some()
        }
        #[cfg(not(all(feature = "uring", target_os = "linux")))]
        {
            false
        }
    }

    /// Why the ring was not set up, when it wasn't (and the feature is
    /// compiled in).
    pub fn uring_fallback_reason(&self) -> Option<&str> {
        #[cfg(all(feature = "uring", target_os = "linux"))]
        {
            self.ring_reason.as_deref()
        }
        #[cfg(not(all(feature = "uring", target_os = "linux")))]
        {
            None
        }
    }

    /// True when any op had to retry through the page cache.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// One positioned page read into a pooled buffer. EINVAL (the
    /// filesystem reneging on the probe) retries through the page cache
    /// instead of failing the lookup.
    fn pread_page(&self, handle: &RunHandle, run: RunId, page_no: u32) -> Result<Bytes> {
        let mut buf = self.handles.frames().acquire();
        match handle.read_page(page_no, buf.as_mut_slice()) {
            Err(e) if e.raw_os_error() == Some(22) => {
                self.degraded.store(true, Ordering::Relaxed);
                // By path, so a run deleted since the lookup is `NotFound`
                // here, as it is to every later read.
                File::open(self.handles.path(run))
                    .map_err(|e| RunHandles::not_found(run, e))?
                    .read_exact_at(buf.as_mut_slice(), page_no as u64 * self.page_size as u64)?;
            }
            other => other?,
        }
        Ok(buf.freeze(self.page_size))
    }

    /// Batched reads of `(handle-index, page_no)` pairs against `files`,
    /// through the ring when it is available and uncontended, else a
    /// `pread` loop. Shared by [`Backend::read_batch`] (one run) and
    /// [`Backend::read_scattered`] (one handle per distinct run).
    fn batched_read(
        &self,
        files: &[(RunId, Arc<RunHandle>)],
        reqs: &[(usize, u32)],
    ) -> Result<Vec<Bytes>> {
        #[cfg(all(feature = "uring", target_os = "linux"))]
        if let Some(ring) = &self.ring {
            // Contended ring (a concurrent merge's batch in flight): the
            // pread loop below is always correct, so never wait.
            if let Some(mut ring) = ring.try_lock() {
                use std::os::fd::AsRawFd;
                let mut bufs: Vec<crate::aligned::AlignedBuf> = (0..reqs.len())
                    .map(|_| self.handles.frames().acquire())
                    .collect();
                let mut ops: Vec<ReadOp> = reqs
                    .iter()
                    .zip(bufs.iter_mut())
                    .map(|(&(fi, page_no), buf)| ReadOp {
                        fd: files[fi].1.file().as_raw_fd(),
                        offset: page_no as u64 * self.page_size as u64,
                        buf: buf.as_mut_slice().as_mut_ptr(),
                        len: self.page_size as u32,
                        result: 0,
                    })
                    .collect();
                // SAFETY: `bufs` outlive the call, are page_size long,
                // and each op points at a distinct buffer.
                unsafe { ring.submit_reads(&mut ops).map_err(StorageError::Io)? };
                drop(ring);
                let mut out = Vec::with_capacity(reqs.len());
                for ((op, buf), &(fi, page_no)) in ops.iter().zip(bufs).zip(reqs) {
                    if op.result == self.page_size as i32 {
                        out.push(buf.freeze(self.page_size));
                    } else {
                        // Short read or per-op errno (e.g. -EINVAL from a
                        // kernel without IORING_OP_READ): redo just this
                        // page through the plain path.
                        let (run, handle) = &files[fi];
                        drop(buf);
                        out.push(self.pread_page(handle, *run, page_no)?);
                    }
                }
                return Ok(out);
            }
        }
        reqs.iter()
            .map(|&(fi, page_no)| {
                let (run, handle) = &files[fi];
                self.pread_page(handle, *run, page_no)
            })
            .collect()
    }
}

impl Backend for DirectFileBackend {
    fn append_page(&self, run: RunId, page_no: u32, data: &[u8]) -> Result<()> {
        if data.len() != self.page_size {
            return Err(StorageError::BadPageSize {
                got: data.len(),
                want: self.page_size,
            });
        }
        let handle = self.handles.for_append(run, page_no)?;
        // Bounce through an aligned buffer: the caller's page has no
        // alignment guarantee, O_DIRECT demands one.
        let mut buf = self.handles.frames().acquire();
        buf.as_mut_slice().copy_from_slice(data);
        match handle.write_pages(page_no, buf.as_ref()) {
            Err(e) if e.raw_os_error() == Some(22) => {
                self.degraded.store(true, Ordering::Relaxed);
                OpenOptions::new()
                    .write(true)
                    .open(self.handles.path(run))?
                    .write_all_at(data, page_no as u64 * self.page_size as u64)?;
                Ok(())
            }
            other => Ok(other?),
        }
    }

    fn seal(&self, run: RunId) -> Result<()> {
        // O_DIRECT already put the data on the device; the fsync makes
        // the file *metadata* (its length) durable.
        self.handles.seal(run)
    }

    fn read_page(&self, run: RunId, page_no: u32) -> Result<Bytes> {
        let handle = self.handles.get(run)?;
        handle.check_range(run, page_no, 1)?;
        self.pread_page(&handle, run, page_no)
    }

    fn read_batch(&self, run: RunId, start: u32, count: u32) -> Result<Vec<Bytes>> {
        if count == 0 {
            return Ok(Vec::new());
        }
        let handle = self.handles.get(run)?;
        handle.check_range(run, start, count)?;
        let reqs: Vec<(usize, u32)> = (start..start + count).map(|p| (0, p)).collect();
        self.batched_read(&[(run, handle)], &reqs)
    }

    fn read_scattered(&self, reqs: &[(RunId, u32)]) -> Result<Vec<Bytes>> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        // One handle per distinct run (a batch names a few runs at most),
        // every address validated before any device I/O is issued.
        let mut files: Vec<(RunId, Arc<RunHandle>)> = Vec::new();
        let mut flat: Vec<(usize, u32)> = Vec::with_capacity(reqs.len());
        for &(run, page_no) in reqs {
            let fi = match files.iter().position(|(r, _)| *r == run) {
                Some(fi) => fi,
                None => {
                    files.push((run, self.handles.get(run)?));
                    files.len() - 1
                }
            };
            files[fi].1.check_range(run, page_no, 1)?;
            flat.push((fi, page_no));
        }
        self.batched_read(&files, &flat)
    }

    fn pages(&self, run: RunId) -> Result<u32> {
        self.handles.get(run)?.pages()
    }

    fn delete(&self, run: RunId) -> Result<()> {
        self.handles.delete(run)
    }

    fn list(&self) -> Vec<RunId> {
        self.handles.list()
    }

    fn frame_stats(&self) -> Option<PoolStats> {
        Some(self.handles.frames().stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("monkey-direct-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// Opens a direct backend or skips the test where the filesystem
    /// (e.g. tmpfs) rejects O_DIRECT.
    fn open_or_skip(dir: &Path, page_size: usize) -> Option<DirectFileBackend> {
        match DirectFileBackend::open(dir, page_size).unwrap() {
            Ok(b) => Some(b),
            Err(reason) => {
                eprintln!("skipping: {reason}");
                None
            }
        }
    }

    #[test]
    fn io_backend_parse_and_names() {
        assert_eq!(IoBackend::parse("direct"), Some(IoBackend::Direct));
        assert_eq!(IoBackend::parse("BUFFERED"), Some(IoBackend::Buffered));
        assert_eq!(IoBackend::parse("Auto"), Some(IoBackend::Auto));
        assert_eq!(IoBackend::parse("mmap"), None);
        assert_eq!(IoBackend::Direct.name(), "direct");
        assert_eq!(IoBackend::default(), IoBackend::Buffered);
        assert!(!BackendInfo::mem().is_direct());
    }

    #[test]
    fn direct_roundtrip_and_batches() {
        let dir = tmp("rt");
        let Some(b) = open_or_skip(&dir, 4096) else {
            return;
        };
        assert!(b.align() == 512 || b.align() == 4096, "align {}", b.align());
        let pages: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i + 1; 4096]).collect();
        for (i, p) in pages.iter().enumerate() {
            b.append_page(3, i as u32, p).unwrap();
        }
        b.seal(3).unwrap();
        assert_eq!(b.pages(3).unwrap(), 6);
        assert_eq!(&b.read_page(3, 4).unwrap()[..], &pages[4][..]);
        let batch = b.read_batch(3, 1, 4).unwrap();
        assert_eq!(batch.len(), 4);
        for (i, page) in batch.iter().enumerate() {
            assert_eq!(&page[..], &pages[i + 1][..]);
        }
        let scattered = b.read_scattered(&[(3, 5), (3, 0), (3, 2)]).unwrap();
        assert_eq!(&scattered[0][..], &pages[5][..]);
        assert_eq!(&scattered[1][..], &pages[0][..]);
        assert_eq!(&scattered[2][..], &pages[2][..]);
        assert!(!b.degraded(), "probe-validated ops must not degrade");
        // Reads recycled pool buffers once the Bytes dropped.
        let frames = b.frame_stats().unwrap();
        assert!(frames.recycled > 0);
        assert_eq!(frames.outstanding, 7, "the batch of 4 and the 3 scattered");
        drop((batch, scattered));
        assert_eq!(b.frame_stats().unwrap().outstanding, 0);
        assert!(matches!(
            b.read_page(3, 6),
            Err(StorageError::NotFound {
                run: 3,
                page: Some(6)
            })
        ));
        assert!(matches!(
            b.read_batch(3, 4, 4),
            Err(StorageError::NotFound {
                run: 3,
                page: Some(6)
            })
        ));
        assert!(matches!(
            b.read_page(9, 0),
            Err(StorageError::NotFound { run: 9, page: None })
        ));
        b.delete(3).unwrap();
        assert!(b.list().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn misaligned_page_size_reports_fallback() {
        let dir = tmp("misaligned");
        // 96-byte pages can never satisfy a 512-byte block granularity.
        match DirectFileBackend::open(&dir, 96).unwrap() {
            Ok(b) => panic!("96-byte pages accepted with align {}", b.align()),
            Err(reason) => assert!(reason.contains("96"), "{reason}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn layout_is_interchangeable_with_buffered() {
        let dir = tmp("interop");
        let Some(b) = open_or_skip(&dir, 4096) else {
            return;
        };
        b.append_page(7, 0, &vec![9u8; 4096]).unwrap();
        b.seal(7).unwrap();
        drop(b);
        let buffered = crate::FileBackend::open(&dir, 4096).unwrap();
        assert_eq!(buffered.list(), vec![7]);
        assert_eq!(&buffered.read_page(7, 0).unwrap()[..], &[9u8; 4096][..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
