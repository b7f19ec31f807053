//! Segmented write-ahead log with group commit.
//!
//! The buffer (memtable) holds the newest updates in volatile memory; the
//! WAL makes them durable. The log is a sequence of **segments**
//! (`wal-NNNNNN.log`), one per memtable generation: when the active
//! memtable rotates into the immutable flush queue, the current segment is
//! sealed and a fresh one is opened, so each queued memtable is covered by
//! a closed set of segments. After the background pipeline flushes a
//! memtable into a run, exactly the segments at or below its seal point
//! are deleted ([`Wal::prune_upto`]) — segments for younger, still-queued
//! memtables survive, which is what makes crash recovery with a non-empty
//! immutable queue correct.
//!
//! Appends use **group commit** (leader/follower): a put encodes its
//! record and enqueues it under the engine's write lock
//! ([`Wal::enqueue`]), then — outside that lock — calls [`Wal::commit`].
//! The first committer to take the file lock becomes the *leader*: it
//! drains every pending record into one `write` (plus one `sync_data` in
//! fsync-per-append mode) and publishes the durable high-water mark.
//! Followers whose records rode that batch return without touching the
//! file. Records are enqueued in sequence order under the write lock and
//! drained in order under the file lock, so the on-disk record order
//! always matches sequence order.
//!
//! Record wire format:
//!
//! ```text
//! [u64 checksum][u8 kind][u64 seq][u16 key_len][u32 val_len][key][value]
//! ```
//!
//! where the checksum is XXH64 over the bytes that follow it. Replay stops
//! at the first torn or corrupt record — everything before it is
//! recovered, which is the standard contract for a crash mid-append.

use crate::entry::{Entry, EntryKind};
use crate::error::{LsmError, Result};
use bytes::Bytes;
use monkey_bloom::hash::xxh64;
use monkey_obs::{EventKind, Telemetry};
use parking_lot::Mutex;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Condvar;
use std::sync::{Arc, OnceLock};

const WAL_SEED: u64 = 0x57414C5F4D4F4E4B; // "WAL_MONK"

/// Lifetime counters of the group-commit protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStats {
    /// Physical write batches issued (each one `write` + at most one
    /// `sync`).
    pub group_commits: u64,
    /// Records that rode those batches. `batched_appends / group_commits`
    /// is the mean batch size — above 1.0 means concurrent writers shared
    /// commits.
    pub batched_appends: u64,
    /// Physical `sync_data` calls this log issued (or triggered through a
    /// shared [`WalSyncCoordinator`]). In fsync-per-append mode,
    /// `syncs / batched_appends` is the syncs-per-commit ratio — group
    /// commit alone pushes it below 1 under load, and cross-shard fsync
    /// batching pushes it further.
    pub syncs: u64,
}

/// Counters of a [`WalSyncCoordinator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SyncStats {
    /// Physical `sync_data` calls the coordinator performed.
    pub syncs: u64,
    /// Sync tickets handed out — one per batch that asked for durability.
    /// `syncs / tickets < 1` means batches shared in-flight fsyncs.
    pub tickets: u64,
}

struct SyncState {
    /// Next ticket to hand out (the first is 1).
    next_ticket: u64,
    /// Every ticket at or below this mark is durable.
    completed: u64,
    /// Files carrying writes not yet covered by a completed sync, each
    /// with the newest ticket that dirtied it.
    dirty: Vec<(u64, Arc<File>)>,
    /// A sync leader is currently fsyncing outside the lock.
    syncing: bool,
    /// Tickets at or below `.0` rode an epoch whose fsync failed.
    failed: Option<(u64, String)>,
    syncs: u64,
    tickets: u64,
}

/// Cross-segment, cross-shard fsync coalescing — the sync-ticket
/// protocol.
///
/// A committer that has already written its bytes takes a **ticket** and
/// registers its file as dirty, in one critical section. The first waiter
/// to find no sync in flight becomes the **sync leader**: it notes the
/// highest ticket handed out (`upto`), drains the dirty set, and fsyncs
/// each distinct file once, outside the lock. Every ticket ≤ `upto` had
/// registered its file before the drain, so one epoch covers them all;
/// when the leader publishes `completed = upto`, those waiters return
/// without ever touching the device. Tickets taken while the leader was
/// syncing stay dirty and wake the next leader.
///
/// One coordinator is shared by every shard's WAL, so under load `N`
/// shards' group commits collapse into one fsync wave instead of `N`
/// serial `sync_data` calls — this is what cuts syncs-per-commit below 1.
pub struct WalSyncCoordinator {
    state: Mutex<SyncState>,
    cv: Condvar,
}

impl WalSyncCoordinator {
    /// A fresh coordinator (shared across WALs via the returned `Arc`).
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(SyncState {
                next_ticket: 1,
                completed: 0,
                dirty: Vec::new(),
                syncing: false,
                failed: None,
                syncs: 0,
                tickets: 0,
            }),
            cv: Condvar::new(),
        })
    }

    /// Makes every byte already written to `file` durable, coalescing
    /// with concurrent callers. Returns the number of physical fsyncs
    /// this call performed itself — 0 means it piggybacked on another
    /// batch's in-flight sync.
    pub fn sync_after_write(&self, file: &Arc<File>) -> std::io::Result<u64> {
        let mut state = self.state.lock();
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.tickets += 1;
        match state.dirty.iter_mut().find(|(_, f)| Arc::ptr_eq(f, file)) {
            Some(entry) => entry.0 = ticket,
            None => state.dirty.push((ticket, Arc::clone(file))),
        }
        loop {
            if state.completed >= ticket {
                if let Some((upto, msg)) = &state.failed {
                    if *upto >= ticket {
                        return Err(std::io::Error::other(msg.clone()));
                    }
                }
                return Ok(0);
            }
            if !state.syncing {
                // Become the sync leader: every ticket handed out so far
                // has its file in the dirty set, so this epoch covers
                // them all.
                state.syncing = true;
                let upto = state.next_ticket - 1;
                let batch = std::mem::take(&mut state.dirty);
                drop(state);
                let mut err = None;
                let mut syncs = 0u64;
                for (_, f) in &batch {
                    match f.sync_data() {
                        Ok(()) => syncs += 1,
                        Err(e) => {
                            err = Some(e);
                            break;
                        }
                    }
                }
                let mut state = self.state.lock();
                state.syncs += syncs;
                state.completed = state.completed.max(upto);
                if let Some(e) = &err {
                    state.failed = Some((upto, e.to_string()));
                }
                state.syncing = false;
                drop(state);
                self.cv.notify_all();
                return match err {
                    Some(e) => Err(e),
                    None => Ok(syncs),
                };
            }
            // The parking_lot shim hands out genuine `std` guards, so the
            // std Condvar composes with it; poisoning cannot occur (no
            // panics while the coordinator lock is held).
            state = self.cv.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Coalescing counters since creation.
    pub fn stats(&self) -> SyncStats {
        let state = self.state.lock();
        SyncStats {
            syncs: state.syncs,
            tickets: state.tickets,
        }
    }
}

/// One encoded record waiting for a leader to write it.
struct PendingRecord {
    seq: u64,
    body: Vec<u8>,
}

/// A batch written to the active segment but (in fsync-per-append mode)
/// not yet durable: the hand-off from the under-lock write phase
/// ([`Wal::stage_pending_locked`]) to the lock-free sync phase
/// ([`Wal::finish_batch`]). Holding the segment `File` by `Arc` keeps the
/// sync valid even if the segment seals and rotates in between.
struct StagedBatch {
    commit_no: u64,
    last_seq: u64,
    records: u64,
    file: Arc<File>,
}

struct ActiveSegment {
    id: u64,
    /// Shared so the sync coordinator can fsync the file after the
    /// segment lock moved on to a newer batch.
    file: Arc<File>,
}

struct WalInner {
    dir: PathBuf,
    /// Records enqueued (in seq order) but not yet written to the file.
    pending: Mutex<Vec<PendingRecord>>,
    /// The open segment. Leaders hold this lock while draining `pending`,
    /// which is what serializes batches and keeps file order = seq order.
    segment: Mutex<ActiveSegment>,
    /// `seq + 1` of the newest record written (and, in
    /// fsync-per-append mode, synced); 0 = nothing written yet.
    durable_mark: AtomicU64,
    group_commits: AtomicU64,
    batched_appends: AtomicU64,
    syncs: AtomicU64,
}

/// The write-ahead log. A disabled WAL (for in-memory experiment
/// databases) accepts appends and does nothing.
pub struct Wal {
    inner: Option<WalInner>,
    sync_each_append: bool,
    /// When set, fsyncs route through the shared coordinator so
    /// concurrent batches (including other shards') ride one fsync.
    sync_coord: Option<Arc<WalSyncCoordinator>>,
    /// Optional telemetry sink: group commits emit an
    /// [`EventKind::WalGroupCommit`] event carrying the batch size —
    /// always for multi-record batches, 1-in-64 for single-record ones.
    events: OnceLock<Arc<Telemetry>>,
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("wal-{id:06}.log"))
}

/// Parses a directory entry name into a segment id.
fn segment_id_of(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

impl Wal {
    /// A no-op WAL for volatile databases.
    pub fn disabled() -> Self {
        Self {
            inner: None,
            sync_each_append: false,
            sync_coord: None,
            events: OnceLock::new(),
        }
    }

    /// Routes group-commit events into `telemetry`. First attachment
    /// wins; later calls are ignored.
    pub fn attach_telemetry(&self, telemetry: Arc<Telemetry>) {
        let _ = self.events.set(telemetry);
    }

    /// Opens the log rooted at directory `dir`, replaying every complete
    /// record from every segment in segment order. Returns the WAL (with a
    /// fresh active segment) and the replayed entries in append order.
    pub fn open(dir: impl AsRef<Path>, sync_each_append: bool) -> Result<(Self, Vec<Entry>)> {
        Self::open_with(dir, sync_each_append, None)
    }

    /// [`open`](Self::open), with fsyncs routed through a shared
    /// [`WalSyncCoordinator`] — the multi-shard configuration, where every
    /// shard's WAL hands its durability barriers to one coalescing
    /// coordinator.
    pub fn open_with(
        dir: impl AsRef<Path>,
        sync_each_append: bool,
        sync_coord: Option<Arc<WalSyncCoordinator>>,
    ) -> Result<(Self, Vec<Entry>)> {
        let dir = dir.as_ref().to_path_buf();
        let mut ids: Vec<u64> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .filter_map(|e| segment_id_of(&e.file_name().to_string_lossy()))
            .collect();
        ids.sort_unstable();
        let mut entries = Vec::new();
        for &id in &ids {
            let buf = std::fs::read(segment_path(&dir, id))?;
            let (mut seg_entries, clean) = replay(&buf);
            entries.append(&mut seg_entries);
            if !clean {
                // A torn/corrupt record: nothing after it (including later
                // segments) can be trusted.
                break;
            }
        }
        let next_id = ids.last().map_or(1, |id| id + 1);
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(&dir, next_id))?;
        Ok((
            Self {
                inner: Some(WalInner {
                    dir,
                    pending: Mutex::new(Vec::new()),
                    segment: Mutex::new(ActiveSegment {
                        id: next_id,
                        file: Arc::new(file),
                    }),
                    durable_mark: AtomicU64::new(0),
                    group_commits: AtomicU64::new(0),
                    batched_appends: AtomicU64::new(0),
                    syncs: AtomicU64::new(0),
                }),
                sync_each_append,
                sync_coord,
                events: OnceLock::new(),
            },
            entries,
        ))
    }

    /// Encodes `entry` and queues it for the next group commit. Called
    /// under the engine's write lock, which is what keeps the pending
    /// queue in sequence order; the encoding itself is a couple of
    /// memcpys — the checksum is computed later, by the leader, off the
    /// hot lock.
    pub fn enqueue(&self, entry: &Entry) -> Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if entry.key.len() > u16::MAX as usize {
            return Err(LsmError::KeyTooLarge(entry.key.len()));
        }
        let mut body = Vec::with_capacity(15 + entry.key.len() + entry.value.len());
        body.push(entry.kind.to_byte());
        body.extend_from_slice(&entry.seq.to_le_bytes());
        body.extend_from_slice(&(entry.key.len() as u16).to_le_bytes());
        body.extend_from_slice(&(entry.value.len() as u32).to_le_bytes());
        body.extend_from_slice(&entry.key);
        body.extend_from_slice(&entry.value);
        inner.pending.lock().push(PendingRecord {
            seq: entry.seq,
            body,
        });
        Ok(())
    }

    /// Ensures the record carrying `seq` has been written to the log (and
    /// synced, in fsync-per-append mode). The caller becomes the batch
    /// leader if no other committer got there first.
    pub fn commit(&self, seq: u64) -> Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if inner.durable_mark.load(Ordering::Acquire) > seq {
            return Ok(()); // a leader already wrote our record
        }
        let mut segment = inner.segment.lock();
        if inner.durable_mark.load(Ordering::Acquire) > seq {
            return Ok(()); // committed while we waited
        }
        match self.stage_pending_locked(inner, &mut segment)? {
            Some(staged) => {
                // Sync (and publish durability) off the segment lock: the
                // next leader can stage its batch onto the same file while
                // this one waits at the coordinator, which is what lets
                // consecutive same-WAL group commits share one fsync.
                drop(segment);
                self.finish_batch(inner, staged)
            }
            None => {
                // A leader drained our record while we waited for the
                // segment lock but has not finished its sync yet (the
                // durable mark still trails `seq`). Sync the segment
                // ourselves rather than return a not-yet-durable commit;
                // the coordinator dedups this with the in-flight epoch.
                let file = Arc::clone(&segment.file);
                drop(segment);
                if self.sync_each_append {
                    self.sync_file(inner, &file)?;
                    inner.durable_mark.fetch_max(seq + 1, Ordering::AcqRel);
                }
                Ok(())
            }
        }
    }

    /// Convenience single-record append: enqueue + commit.
    pub fn append(&self, entry: &Entry) -> Result<()> {
        self.enqueue(entry)?;
        self.commit(entry.seq)
    }

    /// Drains the pending queue into the active segment as one batch and
    /// finishes it (sync + durable-mark publication) with the lock still
    /// held. The seal/sync/shutdown paths use this single-phase form; the
    /// commit hot path splits the phases so the sync runs off the segment
    /// lock.
    fn write_pending_locked(&self, inner: &WalInner, segment: &mut ActiveSegment) -> Result<()> {
        match self.stage_pending_locked(inner, segment)? {
            Some(staged) => self.finish_batch(inner, staged),
            None => Ok(()),
        }
    }

    /// Phase 1, under the segment lock: drains the pending queue into the
    /// active segment as one `write`, assigns the batch its commit number
    /// (lock order = file order = commit order), and returns the staged
    /// batch for [`Wal::finish_batch`]. `None` when nothing was pending.
    fn stage_pending_locked(
        &self,
        inner: &WalInner,
        segment: &mut ActiveSegment,
    ) -> Result<Option<StagedBatch>> {
        let batch = std::mem::take(&mut *inner.pending.lock());
        if batch.is_empty() {
            return Ok(None);
        }
        let total: usize = batch.iter().map(|r| 8 + r.body.len()).sum();
        let mut buf = Vec::with_capacity(total);
        for record in &batch {
            let checksum = xxh64(&record.body, WAL_SEED);
            buf.extend_from_slice(&checksum.to_le_bytes());
            buf.extend_from_slice(&record.body);
        }
        (&*segment.file).write_all(&buf)?;
        let last_seq = batch.last().expect("non-empty batch").seq;
        let commit_no = inner.group_commits.fetch_add(1, Ordering::Relaxed) + 1;
        inner
            .batched_appends
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        Ok(Some(StagedBatch {
            commit_no,
            last_seq,
            records: batch.len() as u64,
            file: Arc::clone(&segment.file),
        }))
    }

    /// Phase 2, lock-free: makes a staged batch durable (in
    /// fsync-per-append mode), publishes the durable mark, and emits the
    /// batch's telemetry. Batches may finish out of order — the mark is a
    /// `fetch_max`, and a later batch's sync covers an earlier one's bytes
    /// because both were written to the file in lock order.
    fn finish_batch(&self, inner: &WalInner, staged: StagedBatch) -> Result<()> {
        if self.sync_each_append {
            self.sync_file(inner, &staged.file)?;
        }
        inner
            .durable_mark
            .fetch_max(staged.last_seq + 1, Ordering::AcqRel);
        // Real groups (>1 record) always make the timeline; single-record
        // commits — every sync-mode put — are sampled 1-in-64 so the event
        // ring shows WAL cadence without a clock read and ring push on the
        // put hot path. The stats counters above stay exact regardless.
        if staged.records > 1 || (staged.commit_no - 1).is_multiple_of(64) {
            if let Some(t) = self.events.get() {
                t.event(EventKind::WalGroupCommit {
                    records: staged.records,
                });
            }
        }
        Ok(())
    }

    /// One durability barrier for `file`: through the coordinator when
    /// attached (so it coalesces with concurrent batches, possibly from
    /// other shards' WALs) or a direct `sync_data` otherwise. Physical
    /// syncs this call performed are attributed to this WAL's counter.
    fn sync_file(&self, inner: &WalInner, file: &Arc<File>) -> Result<()> {
        match &self.sync_coord {
            Some(coord) => {
                let syncs = coord.sync_after_write(file)?;
                inner.syncs.fetch_add(syncs, Ordering::Relaxed);
            }
            None => {
                file.sync_data()?;
                inner.syncs.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(())
    }

    /// Seals the active segment — flushing any pending records into it —
    /// and opens the next one. Returns the sealed segment's id; entries
    /// enqueued so far live in segments at or below that id. Called at
    /// memtable rotation, under the engine's write lock.
    pub fn seal_current(&self) -> Result<Option<u64>> {
        let Some(inner) = &self.inner else {
            return Ok(None);
        };
        let mut segment = inner.segment.lock();
        self.write_pending_locked(inner, &mut segment)?;
        segment.file.sync_data()?;
        inner.syncs.fetch_add(1, Ordering::Relaxed);
        let sealed = segment.id;
        let next = sealed + 1;
        segment.file = Arc::new(
            OpenOptions::new()
                .create(true)
                .append(true)
                .open(segment_path(&inner.dir, next))?,
        );
        segment.id = next;
        Ok(Some(sealed))
    }

    /// Deletes every segment with id ≤ `id` — called after the memtable
    /// those segments covered has been flushed into a durable run.
    pub fn prune_upto(&self, id: u64) -> Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        // The active segment is never pruned (its id is always > any seal
        // point handed to a flush).
        for dirent in std::fs::read_dir(&inner.dir)? {
            let dirent = dirent?;
            let name = dirent.file_name().to_string_lossy().into_owned();
            if let Some(seg_id) = segment_id_of(&name) {
                if seg_id <= id {
                    std::fs::remove_file(dirent.path())?;
                }
            }
        }
        Ok(())
    }

    /// Writes any pending records and forces them to stable storage.
    pub fn sync(&self) -> Result<()> {
        if let Some(inner) = &self.inner {
            let mut segment = inner.segment.lock();
            self.write_pending_locked(inner, &mut segment)?;
            segment.file.sync_data()?;
            inner.syncs.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Writes any pending records without forcing a sync (shutdown path:
    /// nothing a clean process exit would lose stays buffered in memory).
    pub fn flush_pending(&self) -> Result<()> {
        if let Some(inner) = &self.inner {
            let mut segment = inner.segment.lock();
            self.write_pending_locked(inner, &mut segment)?;
        }
        Ok(())
    }

    /// Group-commit counters since open.
    pub fn stats(&self) -> WalStats {
        match &self.inner {
            Some(inner) => WalStats {
                group_commits: inner.group_commits.load(Ordering::Relaxed),
                batched_appends: inner.batched_appends.load(Ordering::Relaxed),
                syncs: inner.syncs.load(Ordering::Relaxed),
            },
            None => WalStats::default(),
        }
    }
}

/// Decodes complete records from a WAL segment image, stopping at the
/// first corruption or truncation. The second return value is `false` when
/// the segment ended in a torn or corrupt record.
fn replay(buf: &[u8]) -> (Vec<Entry>, bool) {
    let mut entries = Vec::new();
    let mut off = 0usize;
    loop {
        if off == buf.len() {
            return (entries, true); // clean EOF
        }
        if off + 8 + 15 > buf.len() {
            return (entries, false); // header truncated: torn tail
        }
        let checksum = u64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
        let body_start = off + 8;
        let kind = buf[body_start];
        let seq = u64::from_le_bytes(buf[body_start + 1..body_start + 9].try_into().unwrap());
        let klen =
            u16::from_le_bytes(buf[body_start + 9..body_start + 11].try_into().unwrap()) as usize;
        let vlen =
            u32::from_le_bytes(buf[body_start + 11..body_start + 15].try_into().unwrap()) as usize;
        let body_end = body_start + 15 + klen + vlen;
        if body_end > buf.len() {
            return (entries, false); // torn record
        }
        if xxh64(&buf[body_start..body_end], WAL_SEED) != checksum {
            return (entries, false); // corrupt record: stop trusting the tail
        }
        let Some(kind) = EntryKind::from_byte(kind) else {
            return (entries, false);
        };
        let key = Bytes::copy_from_slice(&buf[body_start + 15..body_start + 15 + klen]);
        let value = Bytes::copy_from_slice(&buf[body_start + 15 + klen..body_end]);
        entries.push(Entry {
            key,
            value,
            seq,
            kind,
        });
        off = body_end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("monkey-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn newest_segment(dir: &Path) -> PathBuf {
        let mut segs: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                segment_id_of(&e.file_name().to_string_lossy()).map(|id| (id, e.path()))
            })
            .collect();
        segs.sort();
        segs.pop().unwrap().1
    }

    /// `entry` as one framed record, in the wire format the module doc
    /// gives.
    fn record(entry: &Entry) -> Vec<u8> {
        let mut body = vec![entry.kind.to_byte()];
        body.extend_from_slice(&entry.seq.to_le_bytes());
        body.extend_from_slice(&(entry.key.len() as u16).to_le_bytes());
        body.extend_from_slice(&(entry.value.len() as u32).to_le_bytes());
        body.extend_from_slice(&entry.key);
        body.extend_from_slice(&entry.value);
        let mut framed = xxh64(&body, WAL_SEED).to_le_bytes().to_vec();
        framed.extend_from_slice(&body);
        framed
    }

    /// A segment image of `entries`, and the offset where each record ends.
    fn image(entries: &[Entry]) -> (Vec<u8>, Vec<usize>) {
        let mut buf = Vec::new();
        let mut ends = Vec::new();
        for entry in entries {
            buf.extend_from_slice(&record(entry));
            ends.push(buf.len());
        }
        (buf, ends)
    }

    /// Puts and tombstones, keys and values of a few bytes.
    fn arb_entries() -> impl proptest::Strategy<Value = Vec<Entry>> {
        use proptest::Strategy;
        let entry = (
            proptest::collection::vec(proptest::any::<u8>(), 0..8),
            proptest::collection::vec(proptest::any::<u8>(), 0..16),
            proptest::any::<u64>(),
            proptest::any::<bool>(),
        )
            .prop_map(|(key, value, seq, live)| match live {
                true => Entry::put(key, value, seq),
                false => Entry::tombstone(key, seq),
            });
        proptest::collection::vec(entry, 0..8)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        #[test]
        fn replay_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 0..200),
        ) {
            let _ = replay(&bytes);
        }

        #[test]
        fn a_cut_image_replays_the_records_before_the_cut(entries in arb_entries()) {
            let (buf, ends) = image(&entries);
            for cut in 0..=buf.len() {
                let (got, clean) = replay(&buf[..cut]);
                let whole = ends.iter().filter(|&&end| end <= cut).count();
                proptest::prop_assert_eq!(&got[..], &entries[..whole], "cut at {}", cut);
                proptest::prop_assert_eq!(clean, cut == 0 || ends.contains(&cut), "cut at {}", cut);
            }
        }

        #[test]
        fn a_flipped_bit_in_record_i_replays_records_before_it(
            entries in arb_entries(),
            pick in proptest::any::<u64>(),
            bit in 0u8..8,
        ) {
            proptest::prop_assume!(!entries.is_empty());
            let (mut buf, ends) = image(&entries);
            let at = pick as usize % buf.len();
            buf[at] ^= 1 << bit;
            let i = ends.iter().filter(|&&end| end <= at).count();
            let (got, clean) = replay(&buf);
            proptest::prop_assert_eq!(&got[..], &entries[..i], "bit {} of byte {}", bit, at);
            proptest::prop_assert!(!clean);
        }
    }

    #[test]
    fn disabled_wal_is_a_noop() {
        let wal = Wal::disabled();
        wal.append(&Entry::put(b"k".to_vec(), b"v".to_vec(), 1))
            .unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.seal_current().unwrap(), None);
        wal.prune_upto(99).unwrap();
        assert_eq!(wal.stats(), WalStats::default());
    }

    #[test]
    fn append_and_replay() {
        let dir = tmp("basic");
        {
            let (wal, replayed) = Wal::open(&dir, false).unwrap();
            assert!(replayed.is_empty());
            wal.append(&Entry::put(b"a".to_vec(), b"1".to_vec(), 1))
                .unwrap();
            wal.append(&Entry::tombstone(b"b".to_vec(), 2)).unwrap();
            wal.sync().unwrap();
        }
        let (_wal, replayed) = Wal::open(&dir, false).unwrap();
        assert_eq!(replayed.len(), 2);
        assert_eq!(replayed[0].key.as_ref(), b"a");
        assert_eq!(replayed[0].value.as_ref(), b"1");
        assert!(replayed[1].is_tombstone());
        assert_eq!(replayed[1].seq, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seal_and_prune_drop_old_segments_only() {
        let dir = tmp("segments");
        {
            let (wal, _) = Wal::open(&dir, false).unwrap();
            wal.append(&Entry::put(b"old".to_vec(), b"1".to_vec(), 1))
                .unwrap();
            let sealed = wal.seal_current().unwrap().unwrap();
            wal.append(&Entry::put(b"new".to_vec(), b"2".to_vec(), 2))
                .unwrap();
            wal.flush_pending().unwrap();
            wal.prune_upto(sealed).unwrap();
        }
        // Only the record written after the seal survives the prune.
        let (_wal, replayed) = Wal::open(&dir, false).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].key.as_ref(), b"new");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn queued_segments_replay_in_order() {
        let dir = tmp("queued");
        {
            let (wal, _) = Wal::open(&dir, false).unwrap();
            wal.append(&Entry::put(b"k".to_vec(), b"gen1".to_vec(), 1))
                .unwrap();
            wal.seal_current().unwrap();
            wal.append(&Entry::put(b"k".to_vec(), b"gen2".to_vec(), 2))
                .unwrap();
            wal.seal_current().unwrap();
            wal.append(&Entry::put(b"k".to_vec(), b"gen3".to_vec(), 3))
                .unwrap();
            wal.flush_pending().unwrap();
            // No prune: simulates a crash with two memtables still queued.
        }
        let (_wal, replayed) = Wal::open(&dir, false).unwrap();
        assert_eq!(replayed.len(), 3, "all segments replayed");
        assert_eq!(
            replayed.last().unwrap().value.as_ref(),
            b"gen3",
            "append order across segments preserved"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_file_named_wal_log_is_not_a_segment() {
        let dir = tmp("notseg");
        // A well-formed record under a name no engine ever wrote.
        let entry = Entry::put(b"stray".to_vec(), b"v".to_vec(), 7);
        std::fs::write(dir.join("wal.log"), record(&entry)).unwrap();

        let (wal, replayed) = Wal::open(&dir, false).unwrap();
        assert!(
            replayed.is_empty(),
            "only wal-NNNNNN.log files are replayed"
        );
        // ... and pruning leaves what is not the log's alone.
        let sealed = wal.seal_current().unwrap().unwrap();
        wal.prune_upto(sealed).unwrap();
        assert!(dir.join("wal.log").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_recovers_prefix() {
        let dir = tmp("torn");
        {
            let (wal, _) = Wal::open(&dir, false).unwrap();
            wal.append(&Entry::put(b"good".to_vec(), b"1".to_vec(), 1))
                .unwrap();
            wal.append(&Entry::put(b"lost".to_vec(), b"2".to_vec(), 2))
                .unwrap();
            wal.sync().unwrap();
        }
        let seg = newest_segment(&dir);
        let buf = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &buf[..buf.len() - 3]).unwrap();
        let (_wal, replayed) = Wal::open(&dir, false).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].key.as_ref(), b"good");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_stops_replay() {
        let dir = tmp("corrupt");
        {
            let (wal, _) = Wal::open(&dir, false).unwrap();
            for (i, k) in [b"first", b"secnd", b"third"].iter().enumerate() {
                wal.append(&Entry::put(k.to_vec(), b"1".to_vec(), i as u64))
                    .unwrap();
            }
            wal.sync().unwrap();
        }
        let seg = newest_segment(&dir);
        let mut buf = std::fs::read(&seg).unwrap();
        let record_len = 8 + 15 + 5 + 1; // first record (key "first", val "1")
        buf[record_len + 20] ^= 0xFF;
        std::fs::write(&seg, &buf).unwrap();
        let (_wal, replayed) = Wal::open(&dir, false).unwrap();
        assert_eq!(replayed.len(), 1, "only the intact prefix is trusted");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_and_garbage_files() {
        assert!(replay(&[]).0.is_empty());
        assert!(replay(&[]).1, "empty file is a clean EOF");
        assert!(replay(&[1, 2, 3]).0.is_empty());
        assert!(!replay(&[1, 2, 3]).1);
        let (entries, clean) = replay(&[0u8; 64]);
        assert!(entries.is_empty(), "zeroed preallocated file");
        assert!(!clean);
    }

    #[test]
    fn sync_each_append_mode() {
        let dir = tmp("sync");
        {
            let (wal, _) = Wal::open(&dir, true).unwrap();
            wal.append(&Entry::put(b"k".to_vec(), b"v".to_vec(), 1))
                .unwrap();
        }
        let (_w, replayed) = Wal::open(&dir, true).unwrap();
        assert_eq!(replayed.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_coordinator_coalesces_across_wals() {
        // Two WALs (two "shards") share one coordinator; concurrent
        // committers on both must all end durable, with each fsync epoch
        // covering every ticket issued before its leader drained.
        let dir_a = tmp("coord-a");
        let dir_b = tmp("coord-b");
        let coord = WalSyncCoordinator::new();
        let (wal_a, _) = Wal::open_with(&dir_a, true, Some(Arc::clone(&coord))).unwrap();
        let (wal_b, _) = Wal::open_with(&dir_b, true, Some(Arc::clone(&coord))).unwrap();
        let wals = [Arc::new(wal_a), Arc::new(wal_b)];
        let per_thread = 50u64;
        crossbeam::scope(|scope| {
            for t in 0..4u64 {
                let wal = Arc::clone(&wals[(t % 2) as usize]);
                scope.spawn(move |_| {
                    for i in 0..per_thread {
                        let seq = t * per_thread + i;
                        wal.append(&Entry::put(
                            format!("k{seq:05}").into_bytes(),
                            b"v".to_vec(),
                            seq,
                        ))
                        .unwrap();
                    }
                });
            }
        })
        .unwrap();
        let stats = coord.stats();
        // Every batch a leader writes takes a ticket. So may a committer
        // whose record a leader drained but has not yet synced: it syncs
        // its segment itself (the `None` arm of `Wal::commit`). No append
        // takes more than one.
        let group_commits = wals[0].stats().group_commits + wals[1].stats().group_commits;
        assert!(
            group_commits <= stats.tickets && stats.tickets <= 4 * per_thread,
            "{group_commits} batches, {} tickets",
            stats.tickets
        );
        assert!(stats.syncs <= stats.tickets, "coalescing never adds syncs");
        assert!(stats.syncs > 0);
        // Per-WAL sync attribution sums to the coordinator's total.
        assert_eq!(wals[0].stats().syncs + wals[1].stats().syncs, stats.syncs);
        drop(wals);
        for dir in [&dir_a, &dir_b] {
            let (_w, replayed) = Wal::open(dir, false).unwrap();
            assert_eq!(replayed.len(), 100, "every committed record durable");
            std::fs::remove_dir_all(dir).unwrap();
        }
    }

    #[test]
    fn sync_coordinator_piggybacks_followers() {
        // Deterministic follower case: while a leader epoch is marked
        // in-flight, a second registration must wait, then return having
        // done 0 syncs of its own once the epoch that covers it completes.
        let dir = tmp("coord-piggyback");
        let coord = WalSyncCoordinator::new();
        let (wal, _) = Wal::open_with(&dir, true, Some(Arc::clone(&coord))).unwrap();
        // Sequential commits each lead their own epoch: syncs == tickets.
        for seq in 0..3 {
            wal.append(&Entry::put(vec![seq as u8], b"v".to_vec(), seq))
                .unwrap();
        }
        let stats = coord.stats();
        assert_eq!(stats.tickets, 3);
        assert_eq!(stats.syncs, 3, "uncontended commits sync themselves");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_batches_concurrent_appends() {
        let dir = tmp("group");
        let (wal, _) = Wal::open(&dir, true).unwrap();
        let wal = std::sync::Arc::new(wal);
        let n_threads = 8u64;
        let per_thread = 50u64;
        // The engine's pattern: sequence allocation and enqueue happen
        // under one lock (so the pending queue is in seq order), while the
        // physical commits race — whoever grabs the file first becomes the
        // leader and writes everyone's records in one batch.
        let next_seq = std::sync::Mutex::new(0u64);
        crossbeam::scope(|scope| {
            for _ in 0..n_threads {
                let wal = std::sync::Arc::clone(&wal);
                let next_seq = &next_seq;
                scope.spawn(move |_| {
                    for _ in 0..per_thread {
                        let seq = {
                            let mut n = next_seq.lock().unwrap();
                            let seq = *n;
                            *n += 1;
                            let entry =
                                Entry::put(format!("k{seq:05}").into_bytes(), b"v".to_vec(), seq);
                            wal.enqueue(&entry).unwrap();
                            seq
                        };
                        wal.commit(seq).unwrap();
                    }
                });
            }
        })
        .unwrap();
        let stats = wal.stats();
        assert_eq!(stats.batched_appends, n_threads * per_thread);
        assert!(
            stats.group_commits <= stats.batched_appends,
            "a batch never writes fewer than one record"
        );
        drop(wal);
        let (_w, replayed) = Wal::open(&dir, false).unwrap();
        assert_eq!(replayed.len(), (n_threads * per_thread) as usize);
        // On-disk order is sequence order even under concurrency.
        assert!(replayed.windows(2).all(|w| w[0].seq < w[1].seq));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
