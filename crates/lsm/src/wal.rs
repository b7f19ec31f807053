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
//! Appends use **group commit**, as LevelDB's writer queue does: a put
//! encodes its record and enqueues it under the engine's write lock
//! ([`Wal::enqueue`]), then — outside that lock — calls [`Wal::commit`].
//! A committer whose record is not yet durable takes the segment lock and,
//! unless a leader is already syncing (then it waits on the condvar),
//! becomes the *leader*: it drains every pending record into one `write`,
//! and in fsync-per-append mode runs one `sync_data` with the lock
//! released and the segment marked `syncing`. It then re-takes the lock,
//! publishes the durable high-water mark and wakes the waiters; those
//! whose records rode the batch return without touching the file.
//! Records are enqueued in sequence order under the write lock and
//! drained in order under the segment lock, so the on-disk record order
//! always matches sequence order.
//!
//! Segments are created, written, synced, listed, read and removed through
//! the store's [`Fs`] seam. A new segment's directory is synced before the
//! segment is used, so a record committed into it is found by a replay
//! after a crash.
//!
//! A failed write, sync or rotation **poisons** the log: the batch may
//! never reach the disk, and replay stops at the first bad record, so
//! nothing written after it could be recovered either. From then on
//! `commit`, `seal_current` and `flush_pending` return that error
//! (LevelDB's sticky background error).
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
use monkey_storage::{Fs, FsFile, IoStats, OsFs, SyncKind};
use parking_lot::{Mutex, MutexGuard};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, OnceLock, PoisonError};

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
    /// Physical `sync_data` calls this log issued: one per group commit in
    /// fsync-per-append mode, plus one per segment seal. `syncs /
    /// batched_appends` is the syncs-per-put ratio, which group commit
    /// pushes below 1 under concurrent writers.
    pub syncs: u64,
}

/// One encoded record waiting for a leader to write it.
struct PendingRecord {
    seq: u64,
    body: Vec<u8>,
}

struct ActiveSegment {
    id: u64,
    /// Shared so a leader can fsync the file with the lock released.
    file: Arc<FsFile>,
    /// Bytes written to `file`: where the next batch goes.
    len: u64,
    /// A leader is fsyncing `file` off the lock; everyone else waits on
    /// [`WalInner::idle`].
    syncing: bool,
    /// The sticky error of a failed `write` or `sync_data`.
    poisoned: Option<(std::io::ErrorKind, String)>,
}

impl ActiveSegment {
    /// Makes segment `id + 1` of `wal` the active one; returns `id`.
    fn rotate(&mut self, wal: &WalInner) -> std::io::Result<u64> {
        let sealed = self.id;
        self.file = Arc::new(create_segment(&*wal.fs, &wal.io, &wal.dir, sealed + 1)?);
        self.id = sealed + 1;
        self.len = 0;
        Ok(sealed)
    }

    /// Records `err` as the log's sticky error and returns it.
    fn poison(&mut self, err: std::io::Error) -> LsmError {
        self.poisoned = Some((err.kind(), err.to_string()));
        err.into()
    }
}

type SegmentGuard<'a> = MutexGuard<'a, ActiveSegment>;

struct WalInner {
    fs: Arc<dyn Fs>,
    /// The store's I/O counters: each sync is counted there by kind.
    io: Arc<IoStats>,
    dir: PathBuf,
    /// Records enqueued (in seq order) but not yet written to the file.
    pending: Mutex<Vec<PendingRecord>>,
    /// The open segment. Leaders hold this lock while draining `pending`,
    /// which is what serializes batches and keeps file order = seq order.
    segment: Mutex<ActiveSegment>,
    /// Signalled when a leader's off-lock sync ends.
    idle: Condvar,
    /// `seq + 1` of the newest record written (and, in
    /// fsync-per-append mode, synced); 0 = nothing written yet.
    durable_mark: AtomicU64,
    group_commits: AtomicU64,
    batched_appends: AtomicU64,
    syncs: AtomicU64,
}

impl WalInner {
    /// Takes the segment lock once no leader is syncing, waiting on the
    /// condvar (which releases the lock) while one is. Returns `None`
    /// instead as soon as the durable mark passes `seq`: a leader made the
    /// caller's record durable. Errs once the log is poisoned.
    fn lock_idle(&self, seq: Option<u64>) -> Result<Option<SegmentGuard<'_>>> {
        let mut segment = self.segment.lock();
        loop {
            if seq.is_some_and(|seq| self.durable_mark.load(Ordering::Acquire) > seq) {
                return Ok(None);
            }
            if let Some((kind, msg)) = &segment.poisoned {
                return Err(std::io::Error::new(*kind, msg.clone()).into());
            }
            if !segment.syncing {
                return Ok(Some(segment));
            }
            // The parking_lot shim hands out genuine `std` guards, so the
            // std Condvar composes with it.
            segment = self
                .idle
                .wait(segment)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The write-ahead log. A disabled WAL (for in-memory experiment
/// databases) accepts appends and does nothing.
pub struct Wal {
    inner: Option<WalInner>,
    sync_each_append: bool,
    /// Optional telemetry sink: group commits emit an
    /// [`EventKind::WalGroupCommit`] event carrying the batch size —
    /// always for multi-record batches, 1-in-64 for single-record ones.
    events: OnceLock<Arc<Telemetry>>,
}

fn segment_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("wal-{id:06}.log"))
}

/// Creates segment `id` and syncs `dir`, so the segment is found after a
/// crash before any record is committed into it.
fn create_segment(fs: &dyn Fs, io: &IoStats, dir: &Path, id: u64) -> std::io::Result<FsFile> {
    let file = fs.create(&segment_path(dir, id))?;
    fs.sync_dir(dir)?;
    io.add_sync(SyncKind::Dir);
    Ok(file)
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
        Self::open_with(Arc::new(OsFs), Arc::default(), dir, sync_each_append)
    }

    /// [`open`](Self::open) through `fs`, counting syncs in `io`.
    pub(crate) fn open_with(
        fs: Arc<dyn Fs>,
        io: Arc<IoStats>,
        dir: impl AsRef<Path>,
        sync_each_append: bool,
    ) -> Result<(Self, Vec<Entry>)> {
        let dir = dir.as_ref().to_path_buf();
        let names = fs.list(&dir)?;
        let mut ids: Vec<u64> = names.iter().filter_map(|n| segment_id_of(n)).collect();
        ids.sort_unstable();
        let mut entries = Vec::new();
        for &id in &ids {
            let buf = fs.read(&segment_path(&dir, id))?;
            let (mut seg_entries, clean) = replay(&buf);
            entries.append(&mut seg_entries);
            if !clean {
                // A torn/corrupt record: nothing after it (including later
                // segments) can be trusted.
                break;
            }
        }
        let next_id = ids.last().map_or(1, |id| id + 1);
        let file = create_segment(&*fs, &io, &dir, next_id)?;
        Ok((
            Self {
                inner: Some(WalInner {
                    fs,
                    io,
                    dir,
                    pending: Mutex::new(Vec::new()),
                    segment: Mutex::new(ActiveSegment {
                        id: next_id,
                        file: Arc::new(file),
                        len: 0,
                        syncing: false,
                        poisoned: None,
                    }),
                    idle: Condvar::new(),
                    durable_mark: AtomicU64::new(0),
                    group_commits: AtomicU64::new(0),
                    batched_appends: AtomicU64::new(0),
                    syncs: AtomicU64::new(0),
                }),
                sync_each_append,
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
    /// leader unless a leader's batch already covers its record.
    pub fn commit(&self, seq: u64) -> Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        if inner.durable_mark.load(Ordering::Acquire) > seq {
            return Ok(()); // a leader already wrote our record
        }
        match inner.lock_idle(Some(seq))? {
            Some(segment) => self.write_batch(inner, segment, false).map(drop),
            None => Ok(()), // a leader made it durable while we waited
        }
    }

    /// Convenience single-record append: enqueue + commit.
    pub fn append(&self, entry: &Entry) -> Result<()> {
        self.enqueue(entry)?;
        self.commit(entry.seq)
    }

    /// The leader's batch, on an idle segment: drains the pending queue
    /// into the active segment as one `write` under the lock and publishes
    /// the durable mark. In fsync-per-append mode, and always when
    /// `seal`ing, a `sync_data` runs in between with the lock released and
    /// the segment marked `syncing` (other committers wait on the condvar
    /// and are woken once the lock is free again); a seal then opens the
    /// next segment and returns the sealed id. A failed write, sync or
    /// rotation poisons the log.
    fn write_batch(
        &self,
        inner: &WalInner,
        mut segment: SegmentGuard<'_>,
        seal: bool,
    ) -> Result<Option<u64>> {
        let batch = std::mem::take(&mut *inner.pending.lock());
        let last_seq = batch.last().map(|r| r.seq);
        if !batch.is_empty() {
            let total: usize = batch.iter().map(|r| 8 + r.body.len()).sum();
            let mut buf = Vec::with_capacity(total);
            for record in &batch {
                let checksum = xxh64(&record.body, WAL_SEED);
                buf.extend_from_slice(&checksum.to_le_bytes());
                buf.extend_from_slice(&record.body);
            }
            if let Err(e) = inner.fs.write_at(&segment.file, segment.len, &buf) {
                return Err(segment.poison(e));
            }
            segment.len += buf.len() as u64;
            let commit_no = inner.group_commits.fetch_add(1, Ordering::Relaxed) + 1;
            let records = batch.len() as u64;
            inner.batched_appends.fetch_add(records, Ordering::Relaxed);
            // Real groups (>1 record) always make the timeline; single-record
            // commits — every sync-mode put — are sampled 1-in-64 so the event
            // ring shows WAL cadence without a clock read and ring push on the
            // put hot path. The stats counters above stay exact regardless.
            if records > 1 || (commit_no - 1).is_multiple_of(64) {
                if let Some(t) = self.events.get() {
                    t.event(EventKind::WalGroupCommit { records });
                }
            }
        }
        let mark = last_seq.map_or(0, |seq| seq + 1);
        let publish = || inner.durable_mark.fetch_max(mark, Ordering::AcqRel);
        let sync = seal || (self.sync_each_append && last_seq.is_some());
        if !sync {
            publish();
            return Ok(None);
        }
        segment.syncing = true;
        let file = Arc::clone(&segment.file);
        drop(segment);
        let synced = inner.fs.sync(&file);
        let mut segment = inner.segment.lock();
        segment.syncing = false;
        let result = match synced {
            Err(e) => Err(segment.poison(e)),
            Ok(()) => {
                inner.syncs.fetch_add(1, Ordering::Relaxed);
                inner.io.add_sync(SyncKind::Wal);
                publish();
                match seal {
                    true => match segment.rotate(inner) {
                        Ok(sealed) => Ok(Some(sealed)),
                        Err(e) => Err(segment.poison(e)),
                    },
                    false => Ok(None),
                }
            }
        };
        drop(segment);
        inner.idle.notify_all();
        result
    }

    /// Seals the active segment — writing and syncing any pending records
    /// into it — and opens the next one. Returns the sealed segment's id;
    /// entries enqueued so far live in segments at or below that id.
    /// Called at memtable rotation, under the engine's write lock.
    pub fn seal_current(&self) -> Result<Option<u64>> {
        let Some(inner) = &self.inner else {
            return Ok(None);
        };
        let segment = inner.lock_idle(None)?.expect("no seq to cover");
        self.write_batch(inner, segment, true)
    }

    /// Deletes every segment with id ≤ `id` — called after the memtable
    /// those segments covered has been flushed into a durable run.
    pub fn prune_upto(&self, id: u64) -> Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        // The active segment is never pruned (its id is always > any seal
        // point handed to a flush).
        for name in inner.fs.list(&inner.dir)? {
            if segment_id_of(&name).is_some_and(|seg_id| seg_id <= id) {
                inner.fs.remove(&inner.dir.join(name))?;
            }
        }
        Ok(())
    }

    /// Writes any pending records (shutdown path: nothing a clean process
    /// exit would lose stays buffered in memory), syncing them only in
    /// fsync-per-append mode.
    pub fn flush_pending(&self) -> Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let segment = inner.lock_idle(None)?.expect("no seq to cover");
        self.write_batch(inner, segment, false).map(drop)
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

    /// A failed sync poisons the log. From then on `append`,
    /// `seal_current` and `flush_pending` refuse, in either mode, and a
    /// reopen replays the records acknowledged before the failure and
    /// nothing written after it. The seam's fault plan fails the sync: in
    /// fsync-per-append mode it lets the next record's write through and
    /// fails its sync, otherwise it fails the seal's sync, the seal's first
    /// write-side operation.
    #[test]
    fn a_failed_sync_poisons_the_log() {
        use monkey_storage::{FaultKind, FlakyBackend};
        for sync_each_append in [true, false] {
            let dir = tmp(&format!("poison-{sync_each_append}"));
            {
                let fs = FlakyBackend::new(OsFs, FaultKind::Writes);
                let (wal, _) =
                    Wal::open_with(fs.clone(), Arc::default(), &dir, sync_each_append).unwrap();
                for (seq, key) in [b"a", b"b"].iter().enumerate() {
                    wal.append(&Entry::put(key.to_vec(), b"v".to_vec(), seq as u64))
                        .unwrap();
                }
                if sync_each_append {
                    // The leader's own sync fails: its put is refused.
                    fs.arm(1);
                    let lost = Entry::put(b"lost".to_vec(), b"v".to_vec(), 2);
                    let err = wal.append(&lost).unwrap_err();
                    assert!(err.to_string().contains("injected fault on sync"), "{err}");
                } else {
                    // The seal's sync fails.
                    fs.arm(0);
                    let err = wal.seal_current().unwrap_err();
                    assert!(err.to_string().contains("injected fault on sync"), "{err}");
                }
                fs.disarm();
                let after = Entry::put(b"after".to_vec(), b"v".to_vec(), 3);
                assert!(
                    wal.append(&after).is_err(),
                    "a poisoned log refuses appends"
                );
                assert!(wal.seal_current().is_err(), "... and seals");
                assert!(wal.flush_pending().is_err(), "... and flushes");
                assert_eq!(wal.stats().syncs, if sync_each_append { 2 } else { 0 });
            }
            // The refused record was written before its sync failed, so
            // this reopen finds it, as a replay may find any record whose
            // sync did not return. Nothing after the poison was written.
            let (_wal, replayed) = Wal::open(&dir, false).unwrap();
            let keys: Vec<&[u8]> = replayed.iter().map(|e| e.key.as_ref()).collect();
            let want: &[&[u8]] = match sync_each_append {
                true => &[b"a", b"b", b"lost"],
                false => &[b"a", b"b"],
            };
            assert_eq!(keys, want, "sync_each_append = {sync_each_append}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
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
        std::thread::scope(|scope| {
            for _ in 0..n_threads {
                let wal = std::sync::Arc::clone(&wal);
                let next_seq = &next_seq;
                scope.spawn(move || {
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
        });
        let stats = wal.stats();
        assert_eq!(stats.batched_appends, n_threads * per_thread);
        assert!(
            stats.group_commits <= stats.batched_appends,
            "a batch never writes fewer than one record"
        );
        assert_eq!(stats.syncs, stats.group_commits, "one fsync per batch");
        drop(wal);
        let (_w, replayed) = Wal::open(&dir, false).unwrap();
        assert_eq!(replayed.len(), (n_threads * per_thread) as usize);
        // On-disk order is sequence order even under concurrency.
        assert!(replayed.windows(2).all(|w| w[0].seq < w[1].seq));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
