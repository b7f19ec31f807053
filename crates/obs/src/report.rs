//! Assembled telemetry reports and their renderings.
//!
//! The engine (which knows tree shape, filter policies, and the Monkey
//! model's predictions) fills these structs from [`crate::Telemetry`]
//! snapshots; this module owns the three renderings — Prometheus
//! exposition text, a JSON snapshot, and a human `pretty()` dump used by
//! the `monkey-stats` bin — plus the model-drift bound.

use crate::attribution::LevelIoSnapshot;
use crate::events::Event;
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

/// Which disk backend is serving a store's pages — the requested kind,
/// the kind actually active after the runtime fallback ladder, and the
/// device alignment the active backend discovered. Rendered as the
/// `monkey_io_backend_info` gauge, so dashboards can tell page-cache-speed
/// buffered numbers from device-true `O_DIRECT` numbers at a glance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IoBackendReport {
    /// What the options asked for (`"buffered"`, `"direct"`).
    pub requested: String,
    /// What is actually running (`"buffered"`, `"direct"`, `"mem"`,
    /// `"custom"`).
    pub kind: String,
    /// Logical-block alignment the backend discovered for the data
    /// directory, in bytes; 0 when alignment is not a concept (buffered,
    /// in-memory).
    pub align: u64,
    /// Why a requested direct backend fell back to buffered, when it did.
    pub fallback: Option<String>,
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
    /// Gauge: key-range partitions of the most recent merge (1 = that
    /// merge ran sequentially; 0 = no merge has run yet).
    pub last_merge_partitions: u64,
    /// Gauge: worker threads of the most recent merge (0 = none yet).
    pub last_merge_threads: u64,
    /// Per-shard gauges; empty on a single-shard store (whose report and
    /// renderings stay byte-identical to the pre-shard engine).
    pub shards: Vec<ShardBreakdown>,
    /// The disk backend serving this store, when the engine knows it.
    /// `None` keeps every rendering byte-identical to reports produced
    /// before backend selection existed (and by callers that build
    /// reports without a disk).
    pub io_backend: Option<IoBackendReport>,
}

impl TelemetryReport {
    /// Levels currently flagged as drifted.
    pub fn drifted(&self) -> Vec<&LevelReport> {
        self.levels.iter().filter(|l| l.drift.is_some()).collect()
    }

    /// Prometheus text exposition (counters/gauges/summaries).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let push = |out: &mut String, s: &str| {
            out.push_str(s);
            out.push('\n');
        };

        push(
            &mut out,
            "# HELP monkey_build_info Build metadata; the value is always 1.",
        );
        push(&mut out, "# TYPE monkey_build_info gauge");
        push(
            &mut out,
            &format!("monkey_build_info{{version=\"{BUILD_VERSION}\"}} 1"),
        );

        push(
            &mut out,
            "# HELP monkey_uptime_micros Microseconds since telemetry start.",
        );
        push(&mut out, "# TYPE monkey_uptime_micros gauge");
        push(
            &mut out,
            &format!("monkey_uptime_micros {}", self.uptime_micros),
        );

        push(
            &mut out,
            "# HELP monkey_ops_total Operations executed, by kind.",
        );
        push(&mut out, "# TYPE monkey_ops_total counter");
        for op in &self.ops {
            push(
                &mut out,
                &format!("monkey_ops_total{{op=\"{}\"}} {}", op.op, op.ops),
            );
        }

        push(
            &mut out,
            "# HELP monkey_op_latency_micros Sampled operation latency quantiles in microseconds.",
        );
        push(&mut out, "# TYPE monkey_op_latency_micros summary");
        for op in &self.ops {
            for (q, v) in [
                ("0.5", op.p50_micros),
                ("0.9", op.p90_micros),
                ("0.99", op.p99_micros),
                ("0.999", op.p999_micros),
            ] {
                push(
                    &mut out,
                    &format!(
                        "monkey_op_latency_micros{{op=\"{}\",quantile=\"{}\"}} {}",
                        op.op,
                        q,
                        json_f64(v)
                    ),
                );
            }
            push(
                &mut out,
                &format!(
                    "monkey_op_latency_micros_max{{op=\"{}\"}} {}",
                    op.op,
                    json_f64(op.max_micros)
                ),
            );
            push(
                &mut out,
                &format!(
                    "monkey_op_latency_samples{{op=\"{}\"}} {}",
                    op.op, op.sampled
                ),
            );
        }

        if let Some(b) = &self.io_backend {
            push(
                &mut out,
                "# HELP monkey_io_backend_info Active disk backend (requested vs. running \
                 kind, discovered alignment); value is always 1.",
            );
            push(&mut out, "# TYPE monkey_io_backend_info gauge");
            let fallback = b
                .fallback
                .as_ref()
                .map(|r| {
                    format!(
                        ",fallback=\"{}\"",
                        r.replace('\\', "\\\\").replace('"', "\\\"")
                    )
                })
                .unwrap_or_default();
            push(
                &mut out,
                &format!(
                    "monkey_io_backend_info{{requested=\"{}\",kind=\"{}\",align=\"{}\"{fallback}}} 1",
                    b.requested, b.kind, b.align
                ),
            );
        }

        let level_counter =
            |out: &mut String, name: &str, help: &str, f: &dyn Fn(&LevelReport) -> u64| {
                push(out, &format!("# HELP {name} {help}"));
                push(out, &format!("# TYPE {name} counter"));
                for l in &self.levels {
                    push(out, &format!("{name}{{level=\"{}\"}} {}", l.level, f(l)));
                }
            };
        level_counter(
            &mut out,
            "monkey_level_filter_probes_total",
            "Bloom filter probes against runs on this level.",
            &|l| l.lookups.filter_probes,
        );
        level_counter(
            &mut out,
            "monkey_level_filter_false_positives_total",
            "Filter passes that found no key on this level.",
            &|l| l.lookups.filter_false_positives,
        );
        level_counter(
            &mut out,
            "monkey_level_lookup_page_reads_total",
            "Data pages read by point lookups on this level.",
            &|l| l.lookups.lookup_page_reads,
        );
        level_counter(
            &mut out,
            "monkey_level_reads_total",
            "Page reads attributed to this level.",
            &|l| l.io.reads,
        );
        level_counter(
            &mut out,
            "monkey_level_writes_total",
            "Page writes attributed to this level.",
            &|l| l.io.writes,
        );
        level_counter(
            &mut out,
            "monkey_level_read_bytes_total",
            "Bytes read from this level.",
            &|l| l.io.read_bytes,
        );
        level_counter(
            &mut out,
            "monkey_level_write_bytes_total",
            "Bytes written to this level.",
            &|l| l.io.write_bytes,
        );
        level_counter(
            &mut out,
            "monkey_level_cache_hits_total",
            "Reads on this level absorbed by the block cache (not I/Os).",
            &|l| l.io.cache_hits,
        );
        level_counter(
            &mut out,
            "monkey_level_cache_hit_bytes_total",
            "Bytes served from the block cache for this level.",
            &|l| l.io.cache_hit_bytes,
        );

        push(
            &mut out,
            "# HELP monkey_level_allocated_fpr Model-allocated false positive rate.",
        );
        push(&mut out, "# TYPE monkey_level_allocated_fpr gauge");
        for l in &self.levels {
            push(
                &mut out,
                &format!(
                    "monkey_level_allocated_fpr{{level=\"{}\"}} {}",
                    l.level,
                    json_f64(l.allocated_fpr)
                ),
            );
        }
        push(
            &mut out,
            "# HELP monkey_level_measured_fpr Empirical false positive rate.",
        );
        push(&mut out, "# TYPE monkey_level_measured_fpr gauge");
        for l in &self.levels {
            push(
                &mut out,
                &format!(
                    "monkey_level_measured_fpr{{level=\"{}\"}} {}",
                    l.level,
                    json_f64(l.measured_fpr)
                ),
            );
        }
        push(
            &mut out,
            "# HELP monkey_level_fpr_drift Whether measured FPR left the confidence band (0/1).",
        );
        push(&mut out, "# TYPE monkey_level_fpr_drift gauge");
        for l in &self.levels {
            push(
                &mut out,
                &format!(
                    "monkey_level_fpr_drift{{level=\"{}\"}} {}",
                    l.level,
                    u64::from(l.drift.is_some())
                ),
            );
        }

        push(&mut out, "# HELP monkey_zero_result_lookup_ios Expected (model) vs measured I/Os per zero-result lookup.");
        push(&mut out, "# TYPE monkey_zero_result_lookup_ios gauge");
        push(
            &mut out,
            &format!(
                "monkey_zero_result_lookup_ios{{source=\"model\"}} {}",
                json_f64(self.expected_zero_result_lookup_ios)
            ),
        );
        push(
            &mut out,
            &format!(
                "monkey_zero_result_lookup_ios{{source=\"measured\"}} {}",
                json_f64(self.measured_zero_result_lookup_ios)
            ),
        );

        push(
            &mut out,
            "# HELP monkey_immutable_queue_depth Immutable memtables queued for flush (gauge).",
        );
        push(&mut out, "# TYPE monkey_immutable_queue_depth gauge");
        push(
            &mut out,
            &format!(
                "monkey_immutable_queue_depth {}",
                self.immutable_queue_depth
            ),
        );
        push(
            &mut out,
            "# HELP monkey_stalled_writers Writers currently blocked in a backpressure stall (gauge).",
        );
        push(&mut out, "# TYPE monkey_stalled_writers gauge");
        push(
            &mut out,
            &format!("monkey_stalled_writers {}", self.stalled_writers),
        );
        push(
            &mut out,
            "# HELP monkey_last_merge_partitions Key-range partitions of the most recent merge (gauge).",
        );
        push(&mut out, "# TYPE monkey_last_merge_partitions gauge");
        push(
            &mut out,
            &format!(
                "monkey_last_merge_partitions {}",
                self.last_merge_partitions
            ),
        );
        push(
            &mut out,
            "# HELP monkey_last_merge_threads Worker threads of the most recent merge (gauge).",
        );
        push(&mut out, "# TYPE monkey_last_merge_threads gauge");
        push(
            &mut out,
            &format!("monkey_last_merge_threads {}", self.last_merge_threads),
        );

        if !self.shards.is_empty() {
            let shard_series =
                |out: &mut String, name: &str, help: &str, f: &dyn Fn(&ShardBreakdown) -> u64| {
                    push(out, &format!("# HELP {name} {help}"));
                    push(out, &format!("# TYPE {name} gauge"));
                    for s in &self.shards {
                        push(out, &format!("{name}{{shard=\"{}\"}} {}", s.shard, f(s)));
                    }
                };
            shard_series(
                &mut out,
                "monkey_shard_gets_total",
                "Point lookups routed to this shard.",
                &|s| s.gets,
            );
            shard_series(
                &mut out,
                "monkey_shard_puts_total",
                "Updates routed to this shard.",
                &|s| s.puts,
            );
            shard_series(
                &mut out,
                "monkey_shard_ranges_total",
                "Range scans that touched this shard.",
                &|s| s.ranges,
            );
            shard_series(
                &mut out,
                "monkey_shard_disk_entries",
                "Entries resident in this shard's disk levels.",
                &|s| s.disk_entries,
            );
            shard_series(
                &mut out,
                "monkey_shard_buffer_bytes",
                "Bytes buffered in this shard's active memtable.",
                &|s| s.buffer_bytes,
            );
            shard_series(
                &mut out,
                "monkey_shard_immutable_queue_depth",
                "Immutable memtables queued on this shard.",
                &|s| s.immutable_queue_depth,
            );
            shard_series(
                &mut out,
                "monkey_shard_stalled_writers",
                "Writers stalled on this shard's backpressure.",
                &|s| s.stalled_writers,
            );
            shard_series(
                &mut out,
                "monkey_shard_page_reads_total",
                "Page reads charged to this shard's disk.",
                &|s| s.page_reads,
            );
            shard_series(
                &mut out,
                "monkey_shard_page_writes_total",
                "Page writes charged to this shard's disk.",
                &|s| s.page_writes,
            );
            shard_series(
                &mut out,
                "monkey_shard_cache_hits_total",
                "Reads absorbed by this shard's block cache.",
                &|s| s.cache_hits,
            );
        }

        push(
            &mut out,
            "# HELP monkey_events_dropped_total Events evicted from the ring before export.",
        );
        push(&mut out, "# TYPE monkey_events_dropped_total counter");
        push(
            &mut out,
            &format!("monkey_events_dropped_total {}", self.events_dropped),
        );
        out
    }

    /// Compact JSON snapshot of the whole report, timeline included.
    pub fn to_json(&self) -> String {
        let ops = json_array(self.ops.iter().map(|o| {
            JsonObject::new()
                .str("op", o.op)
                .u64("ops", o.ops)
                .u64("sampled", o.sampled)
                .f64("mean_micros", o.mean_micros)
                .f64("p50_micros", o.p50_micros)
                .f64("p90_micros", o.p90_micros)
                .f64("p99_micros", o.p99_micros)
                .f64("p999_micros", o.p999_micros)
                .f64("max_micros", o.max_micros)
                .finish()
        }));
        let io_obj = |io: &LevelIoSnapshot| {
            JsonObject::new()
                .u64("reads", io.reads)
                .u64("writes", io.writes)
                .u64("read_bytes", io.read_bytes)
                .u64("write_bytes", io.write_bytes)
                .u64("cache_hits", io.cache_hits)
                .u64("cache_hit_bytes", io.cache_hit_bytes)
                .finish()
        };
        let levels = json_array(self.levels.iter().map(|l| {
            let mut obj = JsonObject::new()
                .usize("level", l.level)
                .usize("runs", l.runs)
                .u64("entries", l.entries)
                .u64("filter_probes", l.lookups.filter_probes)
                .u64("filter_negatives", l.lookups.filter_negatives)
                .u64("filter_false_positives", l.lookups.filter_false_positives)
                .u64("lookup_page_reads", l.lookups.lookup_page_reads)
                .raw("io", &io_obj(&l.io))
                .f64("allocated_fpr", l.allocated_fpr)
                .f64("measured_fpr", l.measured_fpr)
                .bool("drifted", l.drift.is_some());
            if let Some(d) = l.drift {
                obj = obj
                    .f64("drift_deviation", d.deviation)
                    .f64("drift_bound", d.bound);
            }
            obj.finish()
        }));
        let events = json_array(self.events.iter().map(|e| {
            let fields = e
                .kind
                .fields()
                .into_iter()
                .fold(JsonObject::new(), |obj, (k, v)| {
                    // Numeric payloads stay numbers; free text is quoted.
                    if v.bytes().all(|b| b.is_ascii_digit()) && !v.is_empty() {
                        obj.raw(k, &v)
                    } else {
                        obj.str(k, &v)
                    }
                })
                .finish();
            JsonObject::new()
                .u64("seq", e.seq)
                .u64("ts_micros", e.ts_micros)
                .u64("shard", e.shard as u64)
                .str("event", e.kind.name())
                .raw("fields", &fields)
                .finish()
        }));
        let mut obj = JsonObject::new()
            .u64("uptime_micros", self.uptime_micros)
            .raw("ops", &ops)
            .raw("levels", &levels)
            .raw("unattributed_io", &io_obj(&self.unattributed_io))
            .f64(
                "expected_zero_result_lookup_ios",
                self.expected_zero_result_lookup_ios,
            )
            .f64(
                "measured_zero_result_lookup_ios",
                self.measured_zero_result_lookup_ios,
            )
            .u64("lookups", self.lookups)
            .raw("events", &events)
            .u64("events_dropped", self.events_dropped)
            .u64("immutable_queue_depth", self.immutable_queue_depth)
            .u64("stalled_writers", self.stalled_writers)
            .u64("last_merge_partitions", self.last_merge_partitions)
            .u64("last_merge_threads", self.last_merge_threads);
        if !self.shards.is_empty() {
            let shards = json_array(self.shards.iter().map(|s| {
                JsonObject::new()
                    .usize("shard", s.shard)
                    .u64("gets", s.gets)
                    .u64("puts", s.puts)
                    .u64("ranges", s.ranges)
                    .u64("disk_entries", s.disk_entries)
                    .u64("buffer_bytes", s.buffer_bytes)
                    .u64("immutable_queue_depth", s.immutable_queue_depth)
                    .u64("stalled_writers", s.stalled_writers)
                    .u64("page_reads", s.page_reads)
                    .u64("page_writes", s.page_writes)
                    .u64("cache_hits", s.cache_hits)
                    .finish()
            }));
            obj = obj.raw("shards", &shards);
        }
        if let Some(b) = &self.io_backend {
            let mut be = JsonObject::new()
                .str("requested", &b.requested)
                .str("kind", &b.kind)
                .u64("align", b.align);
            if let Some(r) = &b.fallback {
                be = be.str("fallback", r);
            }
            obj = obj.raw("io_backend", &be.finish());
        }
        obj.finish()
    }

    /// Human-readable dump used by the `monkey-stats` bin.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "monkey telemetry report — uptime {:.3}s\n\n",
            self.uptime_micros as f64 / 1e6
        ));

        out.push_str("operation latencies (sampled, microseconds):\n");
        out.push_str(&format!(
            "  {:<8} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
            "op", "count", "mean", "p50", "p90", "p99", "p99.9", "max"
        ));
        for o in &self.ops {
            out.push_str(&format!(
                "  {:<8} {:>12} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}\n",
                o.op,
                o.ops,
                o.mean_micros,
                o.p50_micros,
                o.p90_micros,
                o.p99_micros,
                o.p999_micros,
                o.max_micros
            ));
        }

        out.push_str("\nper-level I/O and filter behaviour:\n");
        out.push_str(&format!(
            "  {:<4} {:>5} {:>10} {:>10} {:>8} {:>10} {:>10} {:>10} {:>12} {:>12} {:>6}\n",
            "lvl",
            "runs",
            "entries",
            "probes",
            "fp",
            "pg_reads",
            "reads",
            "c_hits",
            "write_bytes",
            "meas_fpr",
            "alloc"
        ));
        for l in &self.levels {
            out.push_str(&format!(
                "  {:<4} {:>5} {:>10} {:>10} {:>8} {:>10} {:>10} {:>10} {:>12} {:>12.5} {:>6.4}{}\n",
                l.level,
                l.runs,
                l.entries,
                l.lookups.filter_probes,
                l.lookups.filter_false_positives,
                l.lookups.lookup_page_reads,
                l.io.reads,
                l.io.cache_hits,
                l.io.write_bytes,
                l.measured_fpr,
                l.allocated_fpr,
                if l.drift.is_some() { "  << DRIFT" } else { "" }
            ));
        }
        if !self.unattributed_io.is_zero() {
            out.push_str(&format!(
                "  (unattributed: {} reads, {} writes, {} read bytes, {} write bytes)\n",
                self.unattributed_io.reads,
                self.unattributed_io.writes,
                self.unattributed_io.read_bytes,
                self.unattributed_io.write_bytes
            ));
        }

        if !self.shards.is_empty() {
            out.push_str("\nper-shard breakdown:\n");
            out.push_str(&format!(
                "  {:<6} {:>10} {:>10} {:>8} {:>12} {:>10} {:>6} {:>8} {:>10} {:>10} {:>10}\n",
                "shard",
                "gets",
                "puts",
                "ranges",
                "disk_entries",
                "buf_bytes",
                "queue",
                "stalled",
                "pg_reads",
                "pg_writes",
                "c_hits"
            ));
            for s in &self.shards {
                out.push_str(&format!(
                    "  {:<6} {:>10} {:>10} {:>8} {:>12} {:>10} {:>6} {:>8} {:>10} {:>10} {:>10}\n",
                    s.shard,
                    s.gets,
                    s.puts,
                    s.ranges,
                    s.disk_entries,
                    s.buffer_bytes,
                    s.immutable_queue_depth,
                    s.stalled_writers,
                    s.page_reads,
                    s.page_writes,
                    s.cache_hits
                ));
            }
        }

        out.push_str(&format!(
            "\npipeline gauges: {} immutable memtable(s) queued, {} writer(s) stalled\n",
            self.immutable_queue_depth, self.stalled_writers
        ));
        if self.last_merge_partitions > 0 {
            out.push_str(&format!(
                "merge engine: last merge used {} partition(s) on {} thread(s)\n",
                self.last_merge_partitions, self.last_merge_threads
            ));
        }
        out.push_str("\nmodel vs measurement:\n");
        out.push_str(&format!(
            "  expected zero-result lookup I/Os (model R): {:.5}\n",
            self.expected_zero_result_lookup_ios
        ));
        out.push_str(&format!(
            "  measured false positives per lookup:        {:.5}  ({} lookups)\n",
            self.measured_zero_result_lookup_ios, self.lookups
        ));

        out.push_str("\nmodel drift:\n");
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
            "\nevent timeline ({} events, {} dropped):\n",
            self.events.len(),
            self.events_dropped
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
            last_merge_partitions: 4,
            last_merge_threads: 2,
            shards: Vec::new(),
            io_backend: None,
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
        // Without backend info every rendering is byte-identical to the
        // pre-backend-selection output: no label, no gauge.
        let plain = sample_report().to_prometheus();
        assert!(!plain.contains("monkey_io_backend_info"));
        assert!(!plain.contains("backend="));

        let mut r = sample_report();
        r.io_backend = Some(IoBackendReport {
            requested: "direct".to_string(),
            kind: "buffered".to_string(),
            align: 512,
            fallback: Some("tmpfs rejects O_DIRECT".to_string()),
        });
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE monkey_io_backend_info gauge"));
        assert!(text.contains(
            "monkey_io_backend_info{requested=\"direct\",kind=\"buffered\",align=\"512\",\
             fallback=\"tmpfs rejects O_DIRECT\"} 1"
        ));
        let json = r.to_json();
        assert!(json.contains(
            "\"io_backend\":{\"requested\":\"direct\",\"kind\":\"buffered\",\"align\":512,\
             \"fallback\":\"tmpfs rejects O_DIRECT\"}"
        ));
        // No fallback → no fallback label or key.
        r.io_backend = Some(IoBackendReport {
            requested: "direct".to_string(),
            kind: "direct".to_string(),
            align: 4096,
            fallback: None,
        });
        let text = r.to_prometheus();
        assert!(text.contains(
            "monkey_io_backend_info{requested=\"direct\",kind=\"direct\",align=\"4096\"} 1"
        ));
        assert!(!r.to_json().contains("\"fallback\""));
    }

    #[test]
    fn prometheus_exposes_pipeline_gauges() {
        let text = sample_report().to_prometheus();
        assert!(text.contains("# TYPE monkey_immutable_queue_depth gauge"));
        assert!(text.contains("monkey_immutable_queue_depth 2"));
        assert!(text.contains("# TYPE monkey_stalled_writers gauge"));
        assert!(text.contains("monkey_stalled_writers 1"));
        assert!(text.contains("# TYPE monkey_last_merge_partitions gauge"));
        assert!(text.contains("monkey_last_merge_partitions 4"));
        assert!(text.contains("monkey_last_merge_threads 2"));
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
