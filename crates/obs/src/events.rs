//! Fixed-capacity structured event ring.
//!
//! The engine's rare-but-interesting moments — flushes, cascade installs,
//! stalls, WAL group commits, background errors — are pushed here as typed
//! events with monotonic timestamps. The ring holds the most recent
//! `capacity` events; older ones are evicted and counted in `dropped`, so a
//! drained timeline always says whether it is complete. Pushes take a
//! `Mutex`, which is fine: every producer site is already on a slow path
//! (flush/cascade/stall) or amortised (one event per WAL *group*, not per
//! record).

use std::collections::VecDeque;
use std::sync::Mutex;

/// What happened. Payloads are small and fixed-size except for
/// `BackgroundError`, which carries the error text (allocated off the hot
/// path, on the already-failed slow path).
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A memtable flush began: entries and approximate bytes being flushed.
    FlushStart { entries: u64, bytes: u64 },
    /// The flush (including any cascade) finished.
    FlushEnd { duration_micros: u64 },
    /// A merge cascade published a new version: how many merges ran and the
    /// deepest level the cascade reached.
    CascadeInstall { merges: u64, deepest_level: u64 },
    /// A writer hit backpressure and began waiting; current immutable
    /// queue depth at that moment.
    StallBegin { queue_depth: u64 },
    /// The stalled writer resumed after `waited_micros`.
    StallEnd { waited_micros: u64 },
    /// A WAL group commit flushed `records` batched appends with one sync.
    WalGroupCommit { records: u64 },
    /// A background worker failed; the error is deferred to foreground.
    BackgroundError { message: String },
}

impl EventKind {
    /// Stable snake_case name used by the Prometheus/JSON renderers.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::FlushStart { .. } => "flush_start",
            EventKind::FlushEnd { .. } => "flush_end",
            EventKind::CascadeInstall { .. } => "cascade_install",
            EventKind::StallBegin { .. } => "stall_begin",
            EventKind::StallEnd { .. } => "stall_end",
            EventKind::WalGroupCommit { .. } => "wal_group_commit",
            EventKind::BackgroundError { .. } => "background_error",
        }
    }

    /// Payload as (key, value) pairs for structured rendering.
    pub fn fields(&self) -> Vec<(&'static str, FieldValue)> {
        use FieldValue::{Number, Text};
        match self {
            EventKind::FlushStart { entries, bytes } => {
                vec![("entries", Number(*entries)), ("bytes", Number(*bytes))]
            }
            EventKind::FlushEnd { duration_micros } => {
                vec![("duration_micros", Number(*duration_micros))]
            }
            EventKind::CascadeInstall {
                merges,
                deepest_level,
            } => vec![
                ("merges", Number(*merges)),
                ("deepest_level", Number(*deepest_level)),
            ],
            EventKind::StallBegin { queue_depth } => vec![("queue_depth", Number(*queue_depth))],
            EventKind::StallEnd { waited_micros } => {
                vec![("waited_micros", Number(*waited_micros))]
            }
            EventKind::WalGroupCommit { records } => vec![("records", Number(*records))],
            EventKind::BackgroundError { message } => vec![("message", Text(message.clone()))],
        }
    }
}

/// One value of an event's payload: a count, or free text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FieldValue {
    Number(u64),
    Text(String),
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::Number(n) => n.fmt(f),
            FieldValue::Text(s) => s.fmt(f),
        }
    }
}

/// One timeline entry: a monotonically increasing sequence number, a
/// timestamp in microseconds since the telemetry origin, the shard that
/// recorded it (so multi-shard timelines merged by timestamp stay
/// attributable), and the payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub seq: u64,
    pub ts_micros: u64,
    /// Index of the shard whose engine emitted this event; 0 on a
    /// single-shard store.
    pub shard: u32,
    pub kind: EventKind,
}

struct Ring {
    buf: VecDeque<Event>,
    next_seq: u64,
    dropped: u64,
}

/// Bounded ring of recent [`Event`]s.
pub struct EventRing {
    capacity: usize,
    shard: u32,
    inner: Mutex<Ring>,
}

impl EventRing {
    pub fn new(capacity: usize) -> Self {
        Self::for_shard(0, capacity)
    }

    /// A ring whose events are stamped with `shard`.
    pub fn for_shard(shard: u32, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            shard,
            inner: Mutex::new(Ring {
                buf: VecDeque::with_capacity(capacity),
                next_seq: 0,
                dropped: 0,
            }),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Append an event, evicting the oldest if full.
    pub fn push(&self, ts_micros: u64, kind: EventKind) {
        let mut g = self.inner.lock().unwrap();
        if g.buf.len() == self.capacity {
            g.buf.pop_front();
            g.dropped += 1;
        }
        let seq = g.next_seq;
        g.next_seq += 1;
        g.buf.push_back(Event {
            seq,
            ts_micros,
            shard: self.shard,
            kind,
        });
    }

    /// Remove and return the buffered timeline, oldest first. Sequence
    /// numbers keep counting across drains, so consumers can stitch
    /// successive drains together and spot gaps from eviction.
    pub fn drain(&self) -> Vec<Event> {
        let mut g = self.inner.lock().unwrap();
        g.buf.drain(..).collect()
    }

    /// Number of events evicted (never seen by any drain) since creation.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_drain_in_order() {
        let ring = EventRing::new(8);
        ring.push(
            10,
            EventKind::FlushStart {
                entries: 100,
                bytes: 6400,
            },
        );
        ring.push(
            20,
            EventKind::FlushEnd {
                duration_micros: 10,
            },
        );
        let events = ring.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[0].ts_micros, 10);
        assert_eq!(events[0].shard, 0);
        assert_eq!(events[0].kind.name(), "flush_start");
        assert_eq!(events[1].seq, 1);
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn eviction_counts_dropped_and_keeps_seq() {
        let ring = EventRing::new(2);
        for i in 0..5 {
            ring.push(i, EventKind::WalGroupCommit { records: i });
        }
        assert_eq!(ring.dropped(), 3);
        let events = ring.drain();
        assert_eq!(events.len(), 2);
        // The survivors are the most recent two, with original seqs.
        assert_eq!(events[0].seq, 3);
        assert_eq!(events[1].seq, 4);
    }

    #[test]
    fn shard_tag_flows_through() {
        let ring = EventRing::for_shard(7, 4);
        ring.push(5, EventKind::StallBegin { queue_depth: 1 });
        assert_eq!(ring.drain()[0].shard, 7);
    }

    #[test]
    fn fields_render() {
        let kind = EventKind::CascadeInstall {
            merges: 3,
            deepest_level: 4,
        };
        assert_eq!(
            kind.fields(),
            vec![
                ("merges", FieldValue::Number(3)),
                ("deepest_level", FieldValue::Number(4)),
            ]
        );
    }
}
