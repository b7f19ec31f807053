//! Assembled telemetry reports and their renderings.
//!
//! The engine (which knows tree shape, filter policies, and the Monkey
//! model's predictions) fills these structs from [`crate::Telemetry`]
//! snapshots. Every metric of a report is declared once, as a column of
//! one of the tables below: its JSON key, its Prometheus family and its
//! `pretty` heading, beside the one accessor that reads it. The three
//! renderings — Prometheus exposition text, a JSON snapshot, and the
//! human `pretty()` dump used by the `monkey-stats` bin — are walks over
//! those tables; only the event timeline and the model-drift section are
//! written by hand.

use crate::attribution::LevelIoSnapshot;
use crate::events::{Event, FieldValue};
use crate::hist::HistogramSnapshot;
use crate::json::{json_array, json_f64, JsonObject};
use crate::telemetry::LevelLookupSnapshot;

/// Version string baked into `monkey_build_info` so scrapes identify the
/// build they came from.
pub(crate) const BUILD_VERSION: &str = env!("CARGO_PKG_VERSION");

/// z-score for the drift confidence bound (~99.7% two-sided).
pub const DRIFT_Z: f64 = 3.0;

/// Additive slack absorbing model quantisation: filter bit counts are
/// rounded to whole bits/pages, so even a perfectly healthy filter's
/// measured FPR sits a little off the closed-form value.
pub const DRIFT_EPSILON: f64 = 0.01;

/// Minimum probes before a drift verdict; below this the binomial noise
/// dwarfs any plausible mis-allocation.
pub const DRIFT_MIN_PROBES: u64 = 500;

/// A level whose measured FPR left the confidence band around its
/// allocated FPR.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftFlag {
    /// `|measured - allocated|`.
    pub deviation: f64,
    /// The bound it exceeded: `DRIFT_Z * sqrt(p(1-p)/n) + DRIFT_EPSILON`.
    pub bound: f64,
}

/// Flag a level as drifted when its empirical FPR deviates from the
/// allocated FPR by more than `z` standard errors of the binomial
/// proportion plus a fixed quantisation epsilon. Returns `None` when the
/// sample is too small to judge or the deviation is within the band.
pub fn drift_flag(measured_fpr: f64, allocated_fpr: f64, probes: u64) -> Option<DriftFlag> {
    if probes < DRIFT_MIN_PROBES {
        return None;
    }
    let p = allocated_fpr.clamp(0.0, 1.0);
    let se = (p * (1.0 - p) / probes as f64).sqrt();
    let bound = DRIFT_Z * se + DRIFT_EPSILON;
    let deviation = (measured_fpr - p).abs();
    if deviation > bound {
        Some(DriftFlag { deviation, bound })
    } else {
        None
    }
}

/// Latency summary for one op kind, in microseconds.
#[derive(Debug, Clone)]
pub struct OpLatencyReport {
    pub op: &'static str,
    /// Exact number of ops (every call).
    pub ops: u64,
    /// Number of duration samples backing the percentiles.
    pub sampled: u64,
    pub mean_micros: f64,
    pub p50_micros: f64,
    pub p90_micros: f64,
    pub p99_micros: f64,
    pub p999_micros: f64,
    pub max_micros: f64,
}

impl OpLatencyReport {
    pub fn from_snapshot(op: &'static str, ops: u64, h: &HistogramSnapshot) -> Self {
        let us = |n: u64| n as f64 / 1_000.0;
        Self {
            op,
            ops,
            sampled: h.count,
            mean_micros: h.mean_nanos() / 1_000.0,
            p50_micros: us(h.p50_nanos()),
            p90_micros: us(h.p90_nanos()),
            p99_micros: us(h.p99_nanos()),
            p999_micros: us(h.p999_nanos()),
            max_micros: us(h.max),
        }
    }
}

/// Everything measured about one tree level, next to what the model
/// allocated to it.
#[derive(Debug, Clone)]
pub struct LevelReport {
    /// 1-based level number (level 0 never appears; the unattributed slot
    /// is reported separately).
    pub level: usize,
    pub runs: usize,
    pub entries: u64,
    /// Lookup-path counters (filter probes / negatives / false positives /
    /// page reads) for runs on this level.
    pub lookups: LevelLookupSnapshot,
    /// Page-level I/O attributed to this level's runs.
    pub io: LevelIoSnapshot,
    /// Expected false positives per probe under the filters actually
    /// built: mean of the per-run theoretical FPRs.
    pub allocated_fpr: f64,
    /// Empirical false positives per probe.
    pub measured_fpr: f64,
    /// Present when `measured_fpr` left the confidence band.
    pub drift: Option<DriftFlag>,
}

/// Per-shard gauges of a sharded engine. Populated only when the store
/// runs more than one keyspace shard; a single-shard store reports an
/// empty list and its renderings are unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardBreakdown {
    /// 0-based shard index.
    pub shard: usize,
    /// Point lookups routed to this shard.
    pub gets: u64,
    /// Updates (puts + deletes) routed to this shard.
    pub puts: u64,
    /// Range scans that touched this shard.
    pub ranges: u64,
    /// Entries resident in this shard's disk levels.
    pub disk_entries: u64,
    /// Bytes buffered in this shard's active memtable right now.
    pub buffer_bytes: u64,
    /// Immutable memtables queued for flush on this shard right now.
    pub immutable_queue_depth: u64,
    /// Writers currently stalled on this shard's backpressure.
    pub stalled_writers: u64,
    /// Page reads charged to this shard's disk.
    pub page_reads: u64,
    /// Page writes charged to this shard's disk.
    pub page_writes: u64,
    /// Reads absorbed by this shard's block cache (not I/Os).
    pub cache_hits: u64,
}

/// Which disk backend is serving a store's pages. Rendered as the
/// `monkey_io_backend_info` gauge, so dashboards can tell a volatile
/// store's numbers from run files' at a glance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoBackendReport {
    /// What is running: `"mem"` or `"buffered"`.
    pub kind: String,
}

/// The full report returned by `Db::telemetry_report()`.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// Microseconds since the telemetry hub was created.
    pub uptime_micros: u64,
    pub ops: Vec<OpLatencyReport>,
    pub levels: Vec<LevelReport>,
    /// I/O that could not be pinned to a level: runs no level holds any
    /// more, such as an obsolete run a scan still reads.
    pub unattributed_io: LevelIoSnapshot,
    /// The model's `R`: sum of per-run filter FPRs (Monkey Eq. 3).
    pub expected_zero_result_lookup_ios: f64,
    /// The engine's empirical counterpart: filter false positives per
    /// point lookup.
    pub measured_zero_result_lookup_ios: f64,
    /// Point lookups backing the measured figure.
    pub lookups: u64,
    /// Drained event timeline, oldest first.
    pub events: Vec<Event>,
    /// Events evicted from the ring before this drain.
    pub events_dropped: u64,
    /// Gauge: immutable memtables queued for flush right now.
    pub immutable_queue_depth: u64,
    /// Gauge: writers currently blocked in a backpressure stall.
    pub stalled_writers: u64,
    /// Per-shard gauges; empty on a single-shard store (whose report and
    /// renderings stay byte-identical to the pre-shard engine).
    pub shards: Vec<ShardBreakdown>,
    /// The disk backend serving this store.
    pub io_backend: IoBackendReport,
}

/// A value one column reads from its row.
#[derive(Clone, Copy)]
enum Value<'a> {
    Int(u64),
    /// A latency, shown to one decimal.
    Float(f64),
    /// A probability or a per-lookup count, shown to five decimals.
    Rate(f64),
    Flag(bool),
    Text(&'a str),
    /// An optional field that is not set: its key is left out.
    Absent,
    /// A nested part of the report, rendered through its own columns.
    Nested(&'a dyn Part),
}
use Value::{Absent, Flag, Float, Int, Nested, Rate, Text};

/// A Prometheus metric family: its type and its `# HELP` text, which
/// starts with the family's name.
#[derive(Clone, Copy)]
struct Family {
    kind: &'static str,
    help: &'static str,
}

impl Family {
    fn name(&self) -> &'static str {
        self.help.split(' ').next().unwrap_or_default()
    }
}

/// How a column appears in Prometheus text.
#[derive(Clone, Copy)]
enum Prom {
    Hidden,
    /// One sample per row, with a constant label (or `""`).
    Sample(Family, &'static str),
    /// A nested object's own families, under its row's label.
    Inline,
    /// A nested object as one sample of value 1 labelled by its columns.
    Info(Family),
}
use Prom::{Hidden, Info, Inline, Sample};

/// The one accessor of a column.
type Get<R> = fn(&R) -> Value<'_>;

/// One metric of a row type: its JSON key, its `pretty` heading (a nested
/// part's title; `""` for none), how Prometheus text shows it, and the one
/// accessor that reads it. A table's first column labels its rows in
/// Prometheus text.
struct Column<R> {
    key: &'static str,
    heading: &'static str,
    prom: Prom,
    /// Place among the table's families in Prometheus text, whose order
    /// predates the JSON order the table is declared in.
    rank: i8,
    get: Get<R>,
}

const fn col<R>(key: &'static str, heading: &'static str, get: Get<R>) -> Column<R> {
    let (prom, rank) = (Hidden, 0);
    Column {
        key,
        heading,
        prom,
        rank,
        get,
    }
}

impl<R> Column<R> {
    const fn prom(self, prom: Prom) -> Self {
        Column { prom, ..self }
    }

    const fn counter(self, help: &'static str) -> Self {
        let kind = "counter";
        self.prom(Sample(Family { kind, help }, ""))
    }

    const fn gauge(self, help: &'static str) -> Self {
        let kind = "gauge";
        self.prom(Sample(Family { kind, help }, ""))
    }

    const fn rank(self, rank: i8) -> Self {
        Column { rank, ..self }
    }
}

/// A row type and its column table.
trait Row: Sized + 'static {
    const COLUMNS: &'static [Column<Self>];
}

const BUILD_INFO: Family = Family {
    kind: "gauge",
    help: "monkey_build_info Build metadata; the value is always 1.",
};

const LATENCY: Family = Family {
    kind: "summary",
    help: "monkey_op_latency_micros Sampled operation latency quantiles in microseconds.",
};

const ZERO_RESULT: Family = Family {
    kind: "gauge",
    help: "monkey_zero_result_lookup_ios Expected (model) vs measured I/Os per zero-result lookup.",
};

const BACKEND_INFO: Family = Family {
    kind: "gauge",
    help: "monkey_io_backend_info Active disk backend; value is always 1.",
};

impl Row for OpLatencyReport {
    const COLUMNS: &'static [Column<Self>] = &[
        col("op", "op", |o| Text(o.op)),
        col("ops", "count", |o: &Self| Int(o.ops))
            .counter("monkey_ops_total Operations executed, by kind."),
        col("sampled", "", |o: &Self| Int(o.sampled))
            .counter("monkey_op_latency_samples Duration samples behind the latency quantiles.")
            .rank(1),
        col("mean_micros", "mean", |o| Float(o.mean_micros)),
        col("p50_micros", "p50", |o: &Self| Float(o.p50_micros))
            .prom(Sample(LATENCY, "quantile=\"0.5\"")),
        col("p90_micros", "p90", |o: &Self| Float(o.p90_micros))
            .prom(Sample(LATENCY, "quantile=\"0.9\"")),
        col("p99_micros", "p99", |o: &Self| Float(o.p99_micros))
            .prom(Sample(LATENCY, "quantile=\"0.99\"")),
        col("p999_micros", "p99.9", |o: &Self| Float(o.p999_micros))
            .prom(Sample(LATENCY, "quantile=\"0.999\"")),
        col("max_micros", "max", |o: &Self| Float(o.max_micros)).gauge(
            "monkey_op_latency_micros_max Largest sampled operation latency in microseconds.",
        ),
    ];
}

impl Row for LevelReport {
    const COLUMNS: &'static [Column<Self>] = &[
        col("level", "lvl", |l| Int(l.level as u64)),
        col("runs", "runs", |l| Int(l.runs as u64)),
        col("entries", "entries", |l| Int(l.entries)),
        col("filter_probes", "probes", |l: &Self| Int(l.lookups.filter_probes))
            .counter("monkey_level_filter_probes_total Bloom filter probes against runs on this level."),
        col("filter_negatives", "", |l| Int(l.lookups.filter_negatives)),
        col("filter_false_positives", "fp", |l: &Self| Int(l.lookups.filter_false_positives))
            .counter("monkey_level_filter_false_positives_total Filter passes that found no key on this level."),
        col("lookup_page_reads", "pg_reads", |l: &Self| Int(l.lookups.lookup_page_reads))
            .counter("monkey_level_lookup_page_reads_total Data pages read by point lookups on this level."),
        col("io", "", |l: &Self| Nested(&l.io)).prom(Inline),
        col("allocated_fpr", "alloc", |l: &Self| Rate(l.allocated_fpr))
            .gauge("monkey_level_allocated_fpr Model-allocated false positive rate."),
        col("measured_fpr", "meas_fpr", |l: &Self| Rate(l.measured_fpr))
            .gauge("monkey_level_measured_fpr Empirical false positive rate."),
        col("drifted", "drift", |l: &Self| Flag(l.drift.is_some()))
            .gauge("monkey_level_fpr_drift Whether measured FPR left the confidence band (0/1)."),
        col("drift_deviation", "", |l| l.drift.map_or(Absent, |d| Rate(d.deviation))),
        col("drift_bound", "", |l| l.drift.map_or(Absent, |d| Rate(d.bound))),
    ];
}

/// Page I/O of one level's runs, or of runs no level holds.
impl Row for LevelIoSnapshot {
    const COLUMNS: &'static [Column<Self>] = &[
        col("reads", "reads", |io: &Self| Int(io.reads))
            .counter("monkey_level_reads_total Page reads attributed to this level."),
        col("writes", "writes", |io: &Self| Int(io.writes))
            .counter("monkey_level_writes_total Page writes attributed to this level."),
        col("read_bytes", "", |io: &Self| Int(io.read_bytes))
            .counter("monkey_level_read_bytes_total Bytes read from this level."),
        col("write_bytes", "write_bytes", |io: &Self| Int(io.write_bytes))
            .counter("monkey_level_write_bytes_total Bytes written to this level."),
        col("cache_hits", "c_hits", |io: &Self| Int(io.cache_hits))
            .counter("monkey_level_cache_hits_total Reads on this level absorbed by the block cache (not I/Os)."),
        col("cache_hit_bytes", "", |io: &Self| Int(io.cache_hit_bytes))
            .counter("monkey_level_cache_hit_bytes_total Bytes served from the block cache for this level."),
    ];
}

impl Row for ShardBreakdown {
    const COLUMNS: &'static [Column<Self>] = &[
        col("shard", "shard", |s| Int(s.shard as u64)),
        col("gets", "gets", |s: &Self| Int(s.gets))
            .gauge("monkey_shard_gets_total Point lookups routed to this shard."),
        col("puts", "puts", |s: &Self| Int(s.puts))
            .gauge("monkey_shard_puts_total Updates routed to this shard."),
        col("ranges", "ranges", |s: &Self| Int(s.ranges))
            .gauge("monkey_shard_ranges_total Range scans that touched this shard."),
        col("disk_entries", "disk_entries", |s: &Self| {
            Int(s.disk_entries)
        })
        .gauge("monkey_shard_disk_entries Entries resident in this shard's disk levels."),
        col("buffer_bytes", "buf_bytes", |s: &Self| Int(s.buffer_bytes))
            .gauge("monkey_shard_buffer_bytes Bytes buffered in this shard's active memtable."),
        col("immutable_queue_depth", "queue", |s: &Self| {
            Int(s.immutable_queue_depth)
        })
        .gauge("monkey_shard_immutable_queue_depth Immutable memtables queued on this shard."),
        col("stalled_writers", "stalled", |s: &Self| {
            Int(s.stalled_writers)
        })
        .gauge("monkey_shard_stalled_writers Writers stalled on this shard's backpressure."),
        col("page_reads", "pg_reads", |s: &Self| Int(s.page_reads))
            .gauge("monkey_shard_page_reads_total Page reads charged to this shard's disk."),
        col("page_writes", "pg_writes", |s: &Self| Int(s.page_writes))
            .gauge("monkey_shard_page_writes_total Page writes charged to this shard's disk."),
        col("cache_hits", "c_hits", |s: &Self| Int(s.cache_hits))
            .gauge("monkey_shard_cache_hits_total Reads absorbed by this shard's block cache."),
    ];
}

impl Row for IoBackendReport {
    const COLUMNS: &'static [Column<Self>] = &[col("kind", "kind", |b| Text(&b.kind))];
}

/// The store-wide table: one row, the report itself.
impl Row for TelemetryReport {
    const COLUMNS: &'static [Column<Self>] = &[
        col("uptime_micros", "uptime (micros)", |r: &Self| {
            Int(r.uptime_micros)
        })
        .gauge("monkey_uptime_micros Microseconds since telemetry start.")
        .rank(-2),
        col(
            "ops",
            "operation latencies (sampled, microseconds)",
            |r: &Self| Nested(&r.ops),
        )
        .rank(-2),
        col("levels", "per-level I/O and filter behaviour", |r| {
            Nested(&r.levels)
        }),
        col("unattributed_io", "I/O of runs no level holds", |r| {
            Nested(&r.unattributed_io)
        }),
        col(
            "expected_zero_result_lookup_ios",
            "expected zero-result lookup I/Os (model R)",
            |r: &Self| Rate(r.expected_zero_result_lookup_ios),
        )
        .prom(Sample(ZERO_RESULT, "source=\"model\"")),
        col(
            "measured_zero_result_lookup_ios",
            "measured false positives per lookup",
            |r: &Self| Rate(r.measured_zero_result_lookup_ios),
        )
        .prom(Sample(ZERO_RESULT, "source=\"measured\"")),
        col("lookups", "point lookups", |r| Int(r.lookups)),
        col("events", "", |r| Nested(&r.events)),
        col("events_dropped", "events dropped", |r: &Self| {
            Int(r.events_dropped)
        })
        .counter("monkey_events_dropped_total Events evicted from the ring before export.")
        .rank(1),
        col(
            "immutable_queue_depth",
            "immutable memtables queued",
            |r: &Self| Int(r.immutable_queue_depth),
        )
        .gauge("monkey_immutable_queue_depth Immutable memtables queued for flush (gauge)."),
        col("stalled_writers", "writers stalled", |r: &Self| {
            Int(r.stalled_writers)
        })
        .gauge("monkey_stalled_writers Writers currently blocked in a backpressure stall (gauge)."),
        col("shards", "per-shard breakdown", |r| {
            match r.shards.is_empty() {
                true => Absent,
                false => Nested(&r.shards),
            }
        }),
        col("io_backend", "I/O backend", |r: &Self| {
            Nested(&r.io_backend)
        })
        .prom(Info(BACKEND_INFO))
        .rank(-1),
    ];
}

/// A nested part of the report, rendered through its own columns.
trait Part {
    fn json(&self) -> String;

    /// Writes its samples; `label` is its row's, `prom` its column's.
    fn expose(&self, _ex: &mut Exposition, _label: &str, _prom: Prom) {}

    /// Writes it as a `pretty` section.
    fn pretty(&self, _out: &mut String, _title: &str) {}

    /// Writes its cells, or its headings, into its row's `pretty` line.
    fn cells(&self, _out: &mut String, _headings: bool) {}
}

/// A list of rows: a JSON array, families labelled by each row's first
/// column, and a table.
impl<R: Row> Part for Vec<R> {
    fn json(&self) -> String {
        json_array(self.iter().map(json_object))
    }

    fn expose(&self, ex: &mut Exposition, _label: &str, _prom: Prom) {
        let rows: Vec<_> = self
            .iter()
            .map(|row| (label(&R::COLUMNS[0], row), row))
            .collect();
        ex.table(&rows);
    }

    fn pretty(&self, out: &mut String, title: &str) {
        pretty_table(out, title, self);
    }
}

/// One object: a JSON object, its families inline or one info sample, and
/// a one-row table or cells of its row's.
impl<R: Row> Part for R {
    fn json(&self) -> String {
        json_object(self)
    }

    fn expose(&self, ex: &mut Exposition, row: &str, prom: Prom) {
        match prom {
            Prom::Inline => ex.table(&[(row.to_string(), self)]),
            Prom::Info(f) => {
                let labels: Vec<String> = R::COLUMNS.iter().map(|c| label(c, self)).collect();
                ex.sample(f, &labels, "1");
            }
            _ => {}
        }
    }

    fn pretty(&self, out: &mut String, title: &str) {
        pretty_table(out, title, std::slice::from_ref(self));
    }

    fn cells(&self, out: &mut String, headings: bool) {
        pretty_cells(out, self, headings);
    }
}

/// The event timeline, in JSON alone; `pretty` writes its own.
impl Part for Vec<Event> {
    fn json(&self) -> String {
        json_array(self.iter().map(|e| {
            let fields = e
                .kind
                .fields()
                .into_iter()
                .fold(JsonObject::new(), |obj, (k, v)| match v {
                    FieldValue::Number(n) => obj.u64(k, n),
                    FieldValue::Text(s) => obj.str(k, &s),
                })
                .finish();
            JsonObject::new()
                .u64("seq", e.seq)
                .u64("ts_micros", e.ts_micros)
                .u64("shard", e.shard as u64)
                .str("event", e.kind.name())
                .raw("fields", &fields)
                .finish()
        }))
    }
}

/// A value as JSON number text, Prometheus sample value or label value.
fn plain(v: Value) -> String {
    match v {
        Int(n) => n.to_string(),
        Float(x) | Rate(x) => json_f64(x),
        Flag(b) => u64::from(b).to_string(),
        Text(s) => s.to_string(),
        Absent | Nested(_) => String::new(),
    }
}

/// `key="value"`, escaped for Prometheus; empty for an absent value.
fn label<R>(c: &Column<R>, row: &R) -> String {
    match (c.get)(row) {
        Absent => String::new(),
        v => {
            let v = plain(v).replace('\\', "\\\\").replace('"', "\\\"");
            format!("{}=\"{v}\"", c.key)
        }
    }
}

/// Prometheus text: each family's `# HELP` and `# TYPE` lines and then
/// its samples, the families in the order they first appear.
#[derive(Default)]
struct Exposition(Vec<(&'static str, String)>);

impl Exposition {
    /// One sample; empty labels are left out.
    fn sample(&mut self, f: Family, labels: &[String], value: &str) {
        let labels: Vec<_> = labels.iter().filter(|l| !l.is_empty()).cloned().collect();
        let labels = match labels.is_empty() {
            true => String::new(),
            false => format!("{{{}}}", labels.join(",")),
        };
        let name = f.name();
        if !self.0.iter().any(|(family, _)| *family == name) {
            let head = format!("# HELP {}\n# TYPE {name} {}\n", f.help, f.kind);
            self.0.push((name, head));
        }
        let (_, text) = self
            .0
            .iter_mut()
            .find(|(family, _)| *family == name)
            .unwrap();
        *text += &format!("{name}{labels} {value}\n");
    }

    /// Writes the families of a table — columns first, then rows, each
    /// row under its label.
    fn table<R: Row>(&mut self, rows: &[(String, &R)]) {
        let mut columns: Vec<&Column<R>> = R::COLUMNS.iter().collect();
        columns.sort_by_key(|c| c.rank);
        for c in columns {
            for (row_label, row) in rows {
                match ((c.get)(row), c.prom) {
                    (Nested(part), prom) => part.expose(self, row_label, prom),
                    (v, Prom::Sample(f, label)) => {
                        self.sample(f, &[row_label.clone(), label.to_string()], &plain(v))
                    }
                    _ => {}
                }
            }
        }
    }

    fn text(self) -> String {
        self.0.into_iter().map(|(_, text)| text).collect()
    }
}

/// A row as a JSON object, its columns in declared order.
fn json_object<R: Row>(row: &R) -> String {
    let object = R::COLUMNS
        .iter()
        .fold(JsonObject::new(), |obj, c| match (c.get)(row) {
            Absent => obj,
            Text(s) => obj.str(c.key, s),
            Flag(b) => obj.bool(c.key, b),
            Nested(part) => obj.raw(c.key, &part.json()),
            v => obj.raw(c.key, &plain(v)),
        });
    object.finish()
}

/// A value as a `pretty` cell: a set flag shows its heading in capitals.
fn cell(v: Value, heading: &str) -> String {
    match v {
        Float(x) => format!("{x:.1}"),
        Rate(x) => format!("{x:.5}"),
        Flag(true) => heading.to_uppercase(),
        Flag(false) => String::new(),
        v => plain(v),
    }
}

/// One `pretty` table between blank lines: its title, then a line of
/// headings and a line per row when it has rows.
fn pretty_table<R: Row>(out: &mut String, title: &str, rows: &[R]) {
    if !out.ends_with("\n\n") {
        out.push('\n');
    }
    *out += &format!("{title}:\n");
    let headings = rows.first().map(|row| (row, true));
    for (row, headings) in headings.into_iter().chain(rows.iter().map(|r| (r, false))) {
        out.push(' ');
        pretty_cells(out, row, headings);
        out.push('\n');
    }
    out.push('\n');
}

/// The `pretty` cells of a row, or its headings. A nested part's cells
/// join its row's.
fn pretty_cells<R: Row>(out: &mut String, row: &R, headings: bool) {
    for c in R::COLUMNS {
        let text = match (c.get)(row) {
            Nested(part) => {
                part.cells(out, headings);
                continue;
            }
            _ if c.heading.is_empty() => continue,
            _ if headings => c.heading.to_string(),
            v => cell(v, c.heading),
        };
        let width = c.heading.len().max(8);
        *out += &format!(" {text:>width$}");
    }
}

impl TelemetryReport {
    /// Levels currently flagged as drifted.
    pub fn drifted(&self) -> Vec<&LevelReport> {
        self.levels.iter().filter(|l| l.drift.is_some()).collect()
    }

    /// Prometheus text exposition (counters/gauges/summaries).
    pub fn to_prometheus(&self) -> String {
        let mut ex = Exposition::default();
        ex.sample(BUILD_INFO, &[format!("version=\"{BUILD_VERSION}\"")], "1");
        ex.table(&[(String::new(), self)]);
        ex.text()
    }

    /// Compact JSON snapshot of the whole report, timeline included.
    pub fn to_json(&self) -> String {
        json_object(self)
    }

    /// Human-readable dump used by the `monkey-stats` bin: the store-wide
    /// values with a table for each nested part, then the drift verdicts
    /// and the event timeline.
    pub fn pretty(&self) -> String {
        let mut out = String::from("monkey telemetry report\n");
        for c in Self::COLUMNS.iter().filter(|c| !c.heading.is_empty()) {
            match (c.get)(self) {
                Nested(part) => part.pretty(&mut out, c.heading),
                Absent => {}
                v => out += &format!("  {:<44} {}\n", c.heading, cell(v, c.heading)),
            }
        }
        // The I/O backend's table, always last, ends in a blank line.
        out.push_str("model drift:\n");
        let drifted = self.drifted();
        if drifted.is_empty() {
            out.push_str("  all levels within confidence bounds\n");
        } else {
            for l in drifted {
                let d = l.drift.unwrap();
                out.push_str(&format!(
                    "  level {}: measured FPR {:.5} vs allocated {:.5} — deviation {:.5} exceeds bound {:.5}\n",
                    l.level, l.measured_fpr, l.allocated_fpr, d.deviation, d.bound
                ));
            }
        }

        out.push_str(&format!(
            "\nevent timeline ({} events):\n",
            self.events.len()
        ));
        // Long runs of the same event kind (e.g. one WAL group commit per
        // put in synchronous mode) collapse to a single summary line so
        // the rare events stay visible.
        let mut i = 0;
        while i < self.events.len() {
            let e = &self.events[i];
            let mut j = i + 1;
            while j < self.events.len() && self.events[j].kind.name() == e.kind.name() {
                j += 1;
            }
            if j - i >= 4 {
                out.push_str(&format!(
                    "  +{:>12.3}ms  {:<16} ×{} (through +{:.3}ms)\n",
                    e.ts_micros as f64 / 1e3,
                    e.kind.name(),
                    j - i,
                    self.events[j - 1].ts_micros as f64 / 1e3
                ));
            } else {
                for e in &self.events[i..j] {
                    let fields = e
                        .kind
                        .fields()
                        .into_iter()
                        .map(|(k, v)| format!("{k}={v}"))
                        .collect::<Vec<_>>()
                        .join(" ");
                    out.push_str(&format!(
                        "  +{:>12.3}ms  {:<16} {}\n",
                        e.ts_micros as f64 / 1e3,
                        e.kind.name(),
                        fields
                    ));
                }
            }
            i = j;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EventKind;

    fn sample_report() -> TelemetryReport {
        let h = {
            let hist = crate::hist::LatencyHistogram::new();
            hist.record(1_000);
            hist.record(2_000);
            hist.snapshot()
        };
        TelemetryReport {
            uptime_micros: 5_000_000,
            ops: vec![OpLatencyReport::from_snapshot("get", 64, &h)],
            levels: vec![LevelReport {
                level: 1,
                runs: 1,
                entries: 1000,
                lookups: LevelLookupSnapshot {
                    filter_probes: 1000,
                    filter_negatives: 900,
                    filter_false_positives: 100,
                    lookup_page_reads: 100,
                },
                io: LevelIoSnapshot {
                    reads: 100,
                    writes: 8,
                    read_bytes: 102_400,
                    write_bytes: 8_192,
                    cache_hits: 40,
                    cache_hit_bytes: 40_960,
                },
                allocated_fpr: 0.01,
                measured_fpr: 0.1,
                drift: drift_flag(0.1, 0.01, 1000),
            }],
            unattributed_io: LevelIoSnapshot::default(),
            expected_zero_result_lookup_ios: 0.01,
            measured_zero_result_lookup_ios: 0.1,
            lookups: 1000,
            events: vec![Event {
                seq: 0,
                ts_micros: 42,
                shard: 0,
                kind: EventKind::WalGroupCommit { records: 7 },
            }],
            events_dropped: 0,
            immutable_queue_depth: 2,
            stalled_writers: 1,
            shards: Vec::new(),
            io_backend: IoBackendReport {
                kind: "mem".to_string(),
            },
        }
    }

    #[test]
    fn drift_flag_logic() {
        // Way off with plenty of samples: flagged.
        assert!(drift_flag(0.4, 0.01, 10_000).is_some());
        // Spot on: not flagged.
        assert!(drift_flag(0.0101, 0.01, 10_000).is_none());
        // Too few probes: never flagged.
        assert!(drift_flag(0.4, 0.01, 100).is_none());
        // Within binomial noise of a coarse allocation: not flagged.
        let f = drift_flag(0.013, 0.01, 1_000);
        assert!(f.is_none(), "{f:?}");
    }

    #[test]
    fn prometheus_contains_key_series() {
        let text = sample_report().to_prometheus();
        assert!(text.contains("monkey_ops_total{op=\"get\"} 64"));
        assert!(text.contains("monkey_level_measured_fpr{level=\"1\"} 0.1"));
        assert!(text.contains("monkey_level_fpr_drift{level=\"1\"} 1"));
        assert!(text.contains("monkey_zero_result_lookup_ios{source=\"model\"} 0.01"));
        assert!(text.contains("# TYPE monkey_op_latency_micros summary"));
    }

    #[test]
    fn prometheus_leads_with_build_info() {
        let text = sample_report().to_prometheus();
        assert!(text.starts_with("# HELP monkey_build_info"));
        assert!(text.contains(&format!(
            "monkey_build_info{{version=\"{BUILD_VERSION}\"}} 1"
        )));
    }

    #[test]
    fn backend_identity_labels_io_rows_and_renders_info_gauge() {
        let mut r = sample_report();
        r.io_backend = IoBackendReport {
            kind: "buffered".to_string(),
        };
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE monkey_io_backend_info gauge"));
        assert!(text.contains("monkey_io_backend_info{kind=\"buffered\"} 1"));
        let json = r.to_json();
        assert!(json.contains("\"io_backend\":{\"kind\":\"buffered\"}"));
    }

    /// Every sample follows exactly one `# HELP` and one `# TYPE` line of
    /// its own family, and no family appears twice.
    #[test]
    fn every_prometheus_family_is_typed_once() {
        let mut r = sample_report();
        r.shards = vec![ShardBreakdown::default(); 2];
        let text = r.to_prometheus();
        let mut families: Vec<&str> = Vec::new();
        let (mut help, mut typed) = (0, 0);
        for line in text.lines() {
            let mut words = line.split(' ');
            match (words.next(), words.next()) {
                (Some("#"), Some("HELP")) => {
                    let name = words.next().unwrap();
                    assert!(!families.contains(&name), "{name} appears twice");
                    families.push(name);
                    (help, typed) = (help + 1, 0);
                }
                (Some("#"), Some("TYPE")) => {
                    assert_eq!(words.next(), families.last().copied(), "{line}");
                    typed += 1;
                }
                _ => {
                    let name = line.split(['{', ' ']).next().unwrap();
                    assert_eq!(Some(name), families.last().copied(), "{line}");
                    assert_eq!(typed, 1, "{name} has {typed} TYPE lines");
                }
            }
        }
        assert_eq!(help, families.len());
    }

    #[test]
    fn prometheus_exposes_pipeline_gauges() {
        let text = sample_report().to_prometheus();
        assert!(text.contains("# TYPE monkey_immutable_queue_depth gauge"));
        assert!(text.contains("monkey_immutable_queue_depth 2"));
        assert!(text.contains("# TYPE monkey_stalled_writers gauge"));
        assert!(text.contains("monkey_stalled_writers 1"));
        assert!(text.contains("monkey_events_dropped_total 0"));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let json = sample_report().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"expected_zero_result_lookup_ios\":0.01"));
        assert!(json.contains("\"drifted\":true"));
        assert!(json.contains("\"event\":\"wal_group_commit\""));
        assert!(json.contains("\"records\":7"));
        // Balanced braces/brackets (compact output, no strings with
        // braces in this sample).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn pretty_mentions_drift() {
        let text = sample_report().pretty();
        assert!(text.contains("DRIFT"));
        assert!(text.contains("wal_group_commit"));
        assert!(text.contains("model drift:"));
    }
}
