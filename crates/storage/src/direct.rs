//! `O_DIRECT`: which I/O path a file disk takes, and whether the
//! directory's filesystem can serve it.
//!
//! Buffered reads measure the kernel page cache as much as the device;
//! a [`FileBackend`](crate::FileBackend) opened direct has every run file
//! `O_DIRECT`, so each counted page read/write is a real device transfer
//! and the latency histograms collapse to the device's one mode. That is
//! what the direct path is for — device-true latencies for measurement —
//! and it pays for it in throughput (DESIGN.md §5i has the numbers).
//!
//! Alignment is discovered per directory with a read probe — `O_DIRECT`
//! requires buffer address, length, and file offset aligned to the
//! filesystem's logical block size, and the probe walks the ladder
//! 512 B → 4 KiB. Unsupported filesystems (tmpfs rejects `O_DIRECT` at
//! `open`) and page sizes that are not a multiple of the discovered
//! alignment report a fallback reason instead of failing, so callers
//! degrade to the buffered backend and surface the reason once.

use crate::aligned::AlignedPool;
use crate::fs::Fs;
use std::path::Path;

/// What an `O_DIRECT` transfer fails with when buffer, length or offset is
/// finer than the device allows — from the probe, or from a filesystem
/// that changes its mind after it.
pub(crate) const EINVAL: i32 = 22;

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
}

impl IoBackend {
    /// Label used in options debug output and the backend-info gauge.
    pub fn name(self) -> &'static str {
        match self {
            IoBackend::Buffered => "buffered",
            IoBackend::Direct => "direct",
        }
    }

    /// Parses the `MONKEY_IO_BACKEND` environment convention.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "buffered" => Some(IoBackend::Buffered),
            "direct" => Some(IoBackend::Direct),
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
    /// The active path: `"mem"`, `"buffered"`, `"direct"`, or `"custom"`.
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
        self.kind == "direct"
    }
}

/// Walks the alignment ladder for `dir`, which exists on `fs`: open a probe
/// file with `O_DIRECT`, then try reads of 512 and 4096 bytes. Returns the
/// first granularity the filesystem accepts, or the reason none did.
pub(crate) fn discover_alignment(fs: &dyn Fs, dir: &Path) -> std::result::Result<usize, String> {
    let probe_path = dir.join(".dio-probe");
    let _ = fs.remove(&probe_path); // one a crash left behind
    let outcome = (|| {
        {
            let f = (fs.create(&probe_path, false)).map_err(|e| format!("probe create: {e}"))?;
            (fs.write_at(&f, 0, &[0u8; 8192])).map_err(|e| format!("probe write: {e}"))?;
            fs.sync(&f).map_err(|e| format!("probe sync: {e}"))?;
        }
        let f = (fs.open(&probe_path, true))
            .map_err(|e| format!("O_DIRECT open rejected ({e}) — page cache it is"))?;
        let pool = AlignedPool::new(4096, 4096);
        let mut buf = pool.acquire();
        for align in [512usize, 4096] {
            match f.read_at(&mut buf.as_mut_slice()[..align], 0) {
                Ok(n) if n == align => return Ok(align),
                Ok(n) => return Err(format!("probe read returned {n} of {align} bytes")),
                Err(e) if e.raw_os_error() == Some(EINVAL) => continue,
                Err(e) => return Err(format!("probe read: {e}")),
            }
        }
        Err("no supported O_DIRECT alignment at or below 4096".to_string())
    })();
    let _ = fs.remove(&probe_path);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, FileBackend, OsFs, StorageError};
    use std::path::PathBuf;
    use std::sync::Arc;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("monkey-direct-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// Opens a direct backend or skips the test where the filesystem
    /// (e.g. tmpfs) rejects O_DIRECT.
    fn open_or_skip(dir: &Path, page_size: usize) -> Option<FileBackend> {
        match FileBackend::open_direct(Arc::new(OsFs), dir, page_size).unwrap() {
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
        assert_eq!(IoBackend::parse("auto"), None);
        assert_eq!(IoBackend::parse("mmap"), None);
        assert_eq!(IoBackend::Direct.name(), "direct");
        assert_eq!(IoBackend::default(), IoBackend::Buffered);
        assert!(!BackendInfo::mem().is_direct());
    }

    #[test]
    fn direct_roundtrip() {
        let dir = tmp("rt");
        let Some(b) = open_or_skip(&dir, 4096) else {
            return;
        };
        assert!(b.align() == 512 || b.align() == 4096, "align {}", b.align());
        let pages: Vec<Vec<u8>> = (0..6u8).map(|i| vec![i + 1; 4096]).collect();
        // A single page, then an extent: both bounce through aligned frames.
        b.append_page(3, 0, &pages[0]).unwrap();
        b.append_pages(3, 1, &pages[1..].concat(), 4096).unwrap();
        b.seal(3).unwrap();
        assert_eq!(b.pages(3).unwrap(), 6);
        let read: Vec<_> = (0..6).map(|p| b.read_page(3, p).unwrap()).collect();
        for (got, want) in read.iter().zip(&pages) {
            assert_eq!(&got[..], &want[..]);
        }
        // Reads recycled the frames the appends bounced through, and hold
        // theirs until the `Bytes` drop.
        let frames = b.frame_stats().unwrap();
        assert!(frames.recycled > 0);
        assert_eq!(frames.outstanding, 6);
        drop(read);
        assert_eq!(b.frame_stats().unwrap().outstanding, 0);
        assert!(matches!(
            b.read_page(3, 6),
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
        match FileBackend::open_direct(Arc::new(OsFs), &dir, 96).unwrap() {
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
        let buffered = FileBackend::open(Arc::new(OsFs), &dir, 4096).unwrap();
        assert_eq!(buffered.list(), vec![7]);
        assert_eq!(&buffered.read_page(7, 0).unwrap()[..], &[9u8; 4096][..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
