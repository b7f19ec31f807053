//! Value-log separation (the WiscKey technique the paper's §6 discusses:
//! "decouples values from keys and stores values on a separate log. This
//! technique is compatible with Monkey's core design, but it would require
//! adapting the cost models to account for (1) only merging keys, and
//! (2) having to access the log during lookups").
//!
//! Values at or above a configurable threshold are appended to an
//! append-only log; the tree stores a fixed-width pointer instead. Merges
//! then move pointers (tens of bytes) instead of values (kilobytes), which
//! divides the `E` in the update-cost model by the value size — at the
//! price of one extra I/O on lookups that hit a separated value.
//!
//! Log page layout — the run pages' envelope, sealed and checked by the
//! same [`page::seal`]/[`page::check`] pair (the disk checks a page once,
//! as it is read; see [`crate::page`]):
//!
//! ```text
//! [u16 slot_count][u64 checksum]
//! slot_count × [u32 len][bytes]
//! [zero padding to the page size]
//! ```
//!
//! A pointer names `(log run id, page, slot)` and encodes in 14 bytes.
//!
//! Garbage collection: superseded values become dead space in sealed log
//! runs. [`crate::Db::migrate_to`] acts as an offline GC — it streams live
//! key-value pairs (resolving pointers) into a fresh store, which
//! re-separates them into a compact new log.

use crate::error::{LsmError, Result};
use crate::page::{self, PAGE_HEADER_LEN};
use bytes::Bytes;
use monkey_storage::{Disk, RunId};
use parking_lot::Mutex;
use std::sync::Arc;

/// A pointer into the value log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValuePointer {
    /// Storage id of the log run.
    pub run: RunId,
    /// Page within the run.
    pub page: u32,
    /// Slot within the page.
    pub slot: u16,
}

impl ValuePointer {
    /// Encoded size on a page / in the WAL.
    pub const ENCODED_LEN: usize = 8 + 4 + 2;

    /// Encodes the pointer.
    pub fn encode(&self) -> [u8; Self::ENCODED_LEN] {
        let mut buf = [0u8; Self::ENCODED_LEN];
        buf[..8].copy_from_slice(&self.run.to_le_bytes());
        buf[8..12].copy_from_slice(&self.page.to_le_bytes());
        buf[12..14].copy_from_slice(&self.slot.to_le_bytes());
        buf
    }

    /// Decodes a pointer, or `None` on bad length.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        if buf.len() != Self::ENCODED_LEN {
            return None;
        }
        Some(Self {
            run: RunId::from_le_bytes(buf[..8].try_into().unwrap()),
            page: u32::from_le_bytes(buf[8..12].try_into().unwrap()),
            slot: u16::from_le_bytes(buf[12..14].try_into().unwrap()),
        })
    }
}

struct OpenPage {
    buf: Vec<u8>,
    slots: u16,
}

struct VlogState {
    writer: Option<monkey_storage::RunWriter>,
    open: OpenPage,
    /// Pages already appended to the current run.
    pages_flushed: u32,
}

/// The append-only value log.
pub struct ValueLog {
    disk: Arc<Disk>,
    state: Mutex<VlogState>,
    /// Log runs are rotated once they reach this many pages.
    run_pages_limit: u32,
}

impl ValueLog {
    /// Creates a log on `disk`, rotating runs every `run_pages_limit` pages.
    /// Attaches [`page::check`] to `disk`, so every log page it reads is
    /// checked once.
    pub fn new(disk: Arc<Disk>, run_pages_limit: u32) -> Self {
        assert!(run_pages_limit >= 1);
        disk.attach_page_check(page::check);
        Self {
            disk,
            state: Mutex::new(VlogState {
                writer: None,
                open: OpenPage {
                    buf: empty_page_buf(),
                    slots: 0,
                },
                pages_flushed: 0,
            }),
            run_pages_limit,
        }
    }

    fn page_size(&self) -> usize {
        self.disk.page_size()
    }

    /// Largest value the log can hold (one page minus headers).
    pub fn max_value_len(&self) -> usize {
        self.page_size() - PAGE_HEADER_LEN - 4
    }

    /// Appends a value, returning its pointer. The value becomes readable
    /// immediately (partially filled pages are served from memory) and
    /// durable once its page fills or [`sync`](Self::sync) runs.
    pub fn append(&self, value: &[u8]) -> Result<ValuePointer> {
        if value.len() > self.max_value_len() {
            return Err(LsmError::EntryTooLarge {
                encoded: value.len(),
                max: self.max_value_len(),
            });
        }
        let mut state = self.state.lock();
        // Close the open page if the value does not fit.
        if state.open.buf.len() + 4 + value.len() > self.page_size() {
            self.flush_open_page(&mut state)?;
        }
        let slot = state.open.slots;
        state
            .open
            .buf
            .extend_from_slice(&(value.len() as u32).to_le_bytes());
        state.open.buf.extend_from_slice(value);
        state.open.slots += 1;
        let count = state.open.slots;
        state.open.buf[0..2].copy_from_slice(&count.to_le_bytes());

        let writer = match &state.writer {
            Some(w) => w.id(),
            None => {
                let w = self.disk.begin_run();
                let id = w.id();
                state.writer = Some(w);
                id
            }
        };
        Ok(ValuePointer {
            run: writer,
            page: state.pages_flushed,
            slot,
        })
    }

    fn flush_open_page(&self, state: &mut VlogState) -> Result<()> {
        if state.open.slots == 0 {
            return Ok(());
        }
        let mut page = std::mem::replace(&mut state.open.buf, empty_page_buf());
        state.open.slots = 0;
        page.resize(self.page_size(), 0);
        page::seal(&mut page);
        let writer = match &mut state.writer {
            Some(w) => w,
            None => {
                state.writer = Some(self.disk.begin_run());
                state.writer.as_mut().unwrap()
            }
        };
        writer.append(&page)?;
        state.pages_flushed += 1;
        if state.pages_flushed >= self.run_pages_limit {
            let w = state.writer.take().expect("writer present");
            w.seal()?;
            state.pages_flushed = 0;
        }
        Ok(())
    }

    /// Forces the open page (if any) to storage and **seals the current
    /// run**, so everything referenced by already-handed-out pointers
    /// survives a crash (an unsealed run is treated as aborted and cleaned
    /// up on drop). Subsequent appends open a fresh run — the log rotates
    /// once per sync (i.e. per buffer flush) or per `run_pages_limit`
    /// pages, whichever comes first.
    pub fn sync(&self) -> Result<()> {
        let mut state = self.state.lock();
        self.flush_open_page(&mut state)?;
        if let Some(w) = state.writer.take() {
            if w.pages_written() > 0 {
                w.seal()?;
            }
            state.pages_flushed = 0;
        }
        Ok(())
    }

    /// Reads the value behind `ptr`. One page I/O (cache-eligible) when the
    /// page has been flushed; free when it is still the open page.
    pub fn get(&self, ptr: ValuePointer) -> Result<Bytes> {
        {
            let state = self.state.lock();
            let open_run = state.writer.as_ref().map(|w| w.id());
            if Some(ptr.run) == open_run && ptr.page == state.pages_flushed {
                // Still in the open page: serve from memory.
                return read_slot(&state.open.buf, state.open.slots, ptr.slot);
            }
        }
        let page = self.disk.read_page(ptr.run, ptr.page)?;
        decode_slot(&page, ptr.slot)
    }
}

fn empty_page_buf() -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(&0u16.to_le_bytes());
    buf.extend_from_slice(&0u64.to_le_bytes());
    buf
}

fn read_slot(buf: &[u8], count: u16, slot: u16) -> Result<Bytes> {
    if slot >= count {
        return Err(LsmError::Corruption(format!(
            "value-log slot {slot} out of {count} (open page)"
        )));
    }
    let mut off = PAGE_HEADER_LEN;
    for _ in 0..slot {
        let len = u32::from_le_bytes(buf[off..off + 4].try_into().unwrap()) as usize;
        off += 4 + len;
    }
    let len = u32::from_le_bytes(buf[off..off + 4].try_into().unwrap()) as usize;
    Ok(Bytes::copy_from_slice(&buf[off + 4..off + 4 + len]))
}

/// The value in `slot` of a page the disk has already checked; the slot
/// walk is still bounds-checked at every step.
fn decode_slot(page: &Bytes, slot: u16) -> Result<Bytes> {
    if page.len() < PAGE_HEADER_LEN {
        return Err(LsmError::Corruption(
            "value-log page shorter than header".into(),
        ));
    }
    let count = u16::from_le_bytes(page[0..2].try_into().unwrap());
    if slot >= count {
        return Err(LsmError::Corruption(format!(
            "value-log slot {slot} out of {count}"
        )));
    }
    let mut off = PAGE_HEADER_LEN;
    for _ in 0..slot {
        if off + 4 > page.len() {
            return Err(LsmError::Corruption(
                "value-log slot walk overran page".into(),
            ));
        }
        let len = u32::from_le_bytes(page[off..off + 4].try_into().unwrap()) as usize;
        off += 4 + len;
    }
    if off + 4 > page.len() {
        return Err(LsmError::Corruption(
            "value-log slot header overran page".into(),
        ));
    }
    let len = u32::from_le_bytes(page[off..off + 4].try_into().unwrap()) as usize;
    if off + 4 + len > page.len() {
        return Err(LsmError::Corruption("value-log value overran page".into()));
    }
    Ok(page.slice(off + 4..off + 4 + len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use monkey_storage::StorageError;

    fn vlog() -> ValueLog {
        ValueLog::new(Disk::mem(256), 4)
    }

    #[test]
    fn pointer_roundtrip() {
        let p = ValuePointer {
            run: 77,
            page: 3,
            slot: 9,
        };
        assert_eq!(ValuePointer::decode(&p.encode()), Some(p));
        assert_eq!(ValuePointer::decode(&[0u8; 3]), None);
    }

    #[test]
    fn append_get_roundtrip_across_pages() {
        let log = vlog();
        let values: Vec<Vec<u8>> = (0..40).map(|i| vec![i as u8; 50]).collect();
        let ptrs: Vec<ValuePointer> = values.iter().map(|v| log.append(v).unwrap()).collect();
        // Values span multiple pages and runs (256B pages, 4-page runs).
        assert!(ptrs.iter().any(|p| p.page > 0));
        assert!(ptrs.iter().any(|p| p.run != ptrs[0].run), "run rotation");
        for (v, p) in values.iter().zip(&ptrs) {
            assert_eq!(log.get(*p).unwrap().as_ref(), &v[..], "{p:?}");
        }
    }

    #[test]
    fn open_page_values_readable_before_flush() {
        let log = vlog();
        let ptr = log.append(b"unflushed").unwrap();
        assert_eq!(log.get(ptr).unwrap().as_ref(), b"unflushed");
        log.sync().unwrap();
        assert_eq!(log.get(ptr).unwrap().as_ref(), b"unflushed");
    }

    #[test]
    fn sync_seals_and_rotates_runs() {
        let disk = Disk::mem(256);
        let log = ValueLog::new(Arc::clone(&disk), 1024);
        let a = log.append(b"first-batch").unwrap();
        log.sync().unwrap();
        let b = log.append(b"second-batch").unwrap();
        log.sync().unwrap();
        assert_ne!(a.run, b.run, "each sync rotates to a new run");
        assert_eq!(log.get(a).unwrap().as_ref(), b"first-batch");
        assert_eq!(log.get(b).unwrap().as_ref(), b"second-batch");
        // Sealed runs survive the log itself being dropped.
        drop(log);
        assert!(disk.run_pages(a.run).is_ok());
    }

    #[test]
    fn oversized_value_rejected() {
        let log = vlog();
        assert!(matches!(
            log.append(&vec![0u8; 300]),
            Err(LsmError::EntryTooLarge { .. })
        ));
    }

    #[test]
    fn variable_sizes_in_one_page() {
        let log = vlog();
        let a = log.append(b"x").unwrap();
        let b = log.append(&[b'y'; 100]).unwrap();
        let c = log.append(b"").unwrap();
        log.sync().unwrap();
        assert_eq!(log.get(a).unwrap().as_ref(), b"x");
        assert_eq!(log.get(b).unwrap().len(), 100);
        assert!(log.get(c).unwrap().is_empty());
    }

    #[test]
    fn bad_slot_is_corruption_not_panic() {
        let log = vlog();
        let p = log.append(b"only").unwrap();
        log.sync().unwrap();
        let bad = ValuePointer { slot: 5, ..p };
        assert!(matches!(log.get(bad), Err(LsmError::Corruption(_))));
    }

    #[test]
    fn a_flipped_slot_count_high_byte_is_corruption() {
        // The count's high byte lies outside the hashed range, so only the
        // seed can cover it: left out of the seed, this page reads back
        // with 257 slots instead of 1 and serves the value.
        let disk = Disk::mem(256);
        let log = ValueLog::new(Arc::clone(&disk), 4);
        let ptr = log.append(b"value").unwrap();
        log.sync().unwrap();
        let mut page = disk.read_page(ptr.run, ptr.page).unwrap().to_vec();
        page[1] ^= 1;
        let mut w = disk.begin_run();
        w.append(&page).unwrap();
        let flipped = ValuePointer {
            run: w.seal().unwrap(),
            ..ptr
        };
        assert_eq!(log.get(ptr).unwrap().as_ref(), b"value");
        let err = log.get(flipped).unwrap_err();
        assert!(
            matches!(&err, LsmError::Storage(StorageError::Corruption(why)) if why.contains("checksum")),
            "{err}"
        );
    }

    #[test]
    fn io_cost_one_read_per_flushed_lookup() {
        let disk = Disk::mem(256);
        let log = ValueLog::new(Arc::clone(&disk), 100);
        let ptr = log.append(&[b'v'; 100]).unwrap();
        log.sync().unwrap();
        disk.reset_io();
        log.get(ptr).unwrap();
        assert_eq!(
            disk.io().page_reads,
            1,
            "exactly the one extra I/O the model charges"
        );
    }
}
