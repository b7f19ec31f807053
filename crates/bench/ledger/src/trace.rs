//! The traced run: a span around every call the benchmark makes into the
//! engine, the counters the engine keeps read at the same boundaries, the
//! layer probes, and the reconciliation of the three.
//!
//! End-to-end metrics never come from here. Traced and untraced batches
//! alternate on the same store so their difference is the tracing overhead
//! under the same host conditions.

use crate::gen::Op;
use crate::probes;
use crate::reconcile::{reconcile, Counts};
use crate::run::{execute, metric, Config, Outcome, Report, Session};
use crate::spec::{Workload, BATCH, BITS_PER_ENTRY, ENTRY_BYTES, PAGE_BYTES, SCAN_ENTRIES};
use crate::stats::{highest_supported_percentile, percentile};
use crate::store::{self, Error};
use monkey::{model_params_for, Db};
use monkey_model::{
    non_zero_result_lookup_cost, range_lookup_cost, update_cost, zero_result_lookup_cost,
};
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanName {
    /// Generating one batch of ops (off the clock).
    Gen,
    /// Executing one traced batch.
    Batch,
    Get,
    Put,
    Range,
    /// `Db::range` up to and including the first entry.
    IterSeek,
    /// Every further entry of the scan.
    IterEntries,
}

impl SpanName {
    fn as_str(self) -> &'static str {
        match self {
            SpanName::Gen => "workload.gen",
            SpanName::Batch => "workload.batch",
            SpanName::Get => "lsm.db.get",
            SpanName::Put => "lsm.db.put",
            SpanName::Range => "lsm.db.range",
            SpanName::IterSeek => "lsm.iter.seek",
            SpanName::IterEntries => "lsm.iter.entries",
        }
    }
}

/// One recorded span. Its id is its position in the recorder plus one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: SpanName,
    /// Id of the span that caused this one; 0 for none.
    pub parent: u32,
    /// The op the span belongs to (its index among the traced ops);
    /// `u32::MAX` for spans of no single op.
    pub op: u32,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

const NO_OP: u32 = u32::MAX;

/// Spans, kept in memory until the run ends.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn new(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    fn push(&mut self, name: SpanName, parent: u32, op: u32, start_ns: u64, end_ns: u64) -> u32 {
        self.spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns,
        });
        self.spans.len() as u32
    }

    /// Reserves the id of a span whose end is not known yet.
    fn open(&mut self, name: SpanName, parent: u32, op: u32) -> u32 {
        let now = self.now();
        self.push(name, parent, op, now, now)
    }

    fn close(&mut self, id: u32) {
        self.spans[id as usize - 1].end_ns = self.now();
    }

    fn durations(&self, name: SpanName) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect();
        out.sort_unstable();
        out
    }

    /// Writes every span as `[id, parent, op, name, start_ns, end_ns]`.
    fn write_json(&self, path: &Path, config: &Config) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            out,
            "{{\"workload\":\"{}\",\"seed\":{},\"columns\":[\"id\",\"parent\",\"op\",\"name\",\"start_ns\",\"end_ns\"],\"spans\":[",
            config.workload.name(),
            config.seed
        )?;
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            let op = if span.op == NO_OP {
                -1
            } else {
                i64::from(span.op)
            };
            write!(
                out,
                "\n[{},{},{},\"{}\",{},{}]",
                i + 1,
                span.parent,
                op,
                span.name.as_str(),
                span.start_ns,
                span.end_ns
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

/// `execute` with a span around the call — and, for a scan, child spans
/// splitting the seek to the first entry from the rest.
fn execute_traced(db: &Db, op: &Op, op_id: u32, batch: u32, rec: &mut Recorder) -> Outcome {
    let started = rec.now();
    match op {
        Op::Scan { lo, hi, .. } => {
            let mut rows = Vec::with_capacity(SCAN_ENTRIES as usize);
            let mut sought = started;
            let outcome = match db.range(lo, Some(hi)) {
                Err(e) => Outcome::Failed(e.to_string()),
                Ok(mut iter) => {
                    let first = iter.next();
                    sought = rec.now();
                    let mut failed = None;
                    for row in first.into_iter().chain(iter) {
                        match row {
                            Ok(row) => rows.push(row),
                            Err(e) => {
                                failed = Some(e.to_string());
                                break;
                            }
                        }
                    }
                    failed.map_or(Outcome::Scanned(rows), Outcome::Failed)
                }
            };
            let ended = rec.now();
            let range = rec.push(SpanName::Range, batch, op_id, started, ended);
            rec.push(SpanName::IterSeek, range, op_id, started, sought);
            rec.push(SpanName::IterEntries, range, op_id, sought, ended);
            outcome
        }
        _ => {
            let outcome = execute(db, op);
            let name = match op {
                Op::Put { .. } => SpanName::Put,
                _ => SpanName::Get,
            };
            let ended = rec.now();
            rec.push(name, batch, op_id, started, ended);
            outcome
        }
    }
}

/// The engine's own counters, read around every traced batch: `IoStats`,
/// `LookupStats`, `PipelineStats`, `CompactionStats` and `CacheStats`, in
/// the order [`run`] destructures them.
fn counters(db: &Db) -> [u64; 17] {
    let io = db.io();
    let lookups = db.lookup_stats();
    let pipeline = db.pipeline_stats();
    let compaction = db.compaction_stats();
    let cache = db.disk().cache_stats().unwrap_or_default();
    [
        io.page_reads,
        io.page_writes,
        io.seeks,
        lookups.key_hashes,
        lookups.filter_probes,
        lookups.filter_negatives,
        lookups.filter_false_positives,
        pipeline.stalls,
        pipeline.stall_micros,
        pipeline.wal_group_commits,
        pipeline.wal_batched_appends,
        pipeline.wal_syncs,
        compaction.flushes,
        compaction.merges,
        compaction.entries_rewritten,
        cache.hits,
        cache.misses,
    ]
}

/// Bytes of one WAL record: checksum, kind, seq and lengths, key, value.
const WAL_RECORD_BYTES: u64 = 8 + 15 + ENTRY_BYTES as u64;

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The traced run: every per-layer metric. Writes the spans to
/// `trace_path` when the run ends.
pub fn run(config: Config, trace_path: &Path) -> Result<Report, Error> {
    let (mut session, _setups) = Session::start(config.clone(), 1)?;
    session.warm_up()?;

    let workload = config.workload;
    let mut rec = Recorder::new(config.half_ops() as usize / 2 + 4096);
    let mut ops = Vec::with_capacity(BATCH);
    let mut outcomes = Vec::with_capacity(BATCH);
    let mut counted = [0u64; 17];
    let mut untraced_busy = Duration::ZERO;
    let mut traced_busy = Duration::ZERO;
    let mut range_entries = 0u64;

    for batch in 0..config.half_batches() {
        let gen_started = rec.now();
        session.gen.next_batch(&mut ops);
        outcomes.clear();
        if batch % 2 == 0 {
            let started = Instant::now();
            for op in &ops {
                outcomes.push(execute(&session.db, op));
            }
            untraced_busy += started.elapsed();
        } else {
            let gen_ended = rec.now();
            rec.push(SpanName::Gen, 0, NO_OP, gen_started, gen_ended);
            let before = counters(&session.db);
            let started = Instant::now();
            let batch_span = rec.open(SpanName::Batch, 0, NO_OP);
            let first_op = (batch / 2) as u32 * BATCH as u32;
            for (op, op_id) in ops.iter().zip(first_op..) {
                outcomes.push(execute_traced(&session.db, op, op_id, batch_span, &mut rec));
            }
            rec.close(batch_span);
            traced_busy += started.elapsed();
            let after = counters(&session.db);
            for ((total, before), after) in counted.iter_mut().zip(before).zip(after) {
                *total += after - before;
            }
            for outcome in &outcomes {
                if let Outcome::Scanned(rows) = outcome {
                    range_entries += rows.len() as u64;
                }
            }
        }
        for (op, outcome) in ops.iter().zip(&outcomes) {
            session.tally.record(op, outcome);
        }
    }
    session.db.close()?;
    // Grouped as `counters` fills them: I/O, lookups, pipeline, compaction
    // and cache.
    let [page_reads, page_writes, seeks_counted, rest @ ..] = counted;
    let [key_hashes, filter_probes, filter_negatives, false_positives, rest @ ..] = rest;
    let [stalls, stall_micros, wal_group_commits, wal_appends, wal_syncs, rest @ ..] = rest;
    let [flushes, merges, entries_rewritten, cache_hits, cache_misses] = rest;

    let stats = session.db.stats();
    let on_disk = store::dir_bytes(&config.dir)?;
    let costs = probes::measure(
        &stats,
        session.gen.keys(),
        config.scale.cache_bytes,
        &config.dir.with_extension("probe"),
        config.seed,
    )?;

    let gets = rec.durations(SpanName::Get);
    let puts = rec.durations(SpanName::Put);
    let ranges = rec.durations(SpanName::Range);
    let seeks = rec.durations(SpanName::IterSeek);
    let rest = rec.durations(SpanName::IterEntries);
    let gen_ns: u64 = rec.durations(SpanName::Gen).iter().sum();
    let mut all_ops: Vec<u64> = gets.iter().chain(&puts).chain(&ranges).copied().collect();
    all_ops.sort_unstable();
    let op_count = all_ops.len() as u64;
    let busy_ns: u64 = all_ops.iter().sum();

    let counts = Counts {
        gets: gets.len() as u64,
        puts: puts.len() as u64,
        ranges: ranges.len() as u64,
        range_entries,
        runs: stats.runs as u64,
        key_hashes,
        filter_probes,
        page_probes: filter_probes - filter_negatives,
        cache: (!workload.durable()).then_some((cache_hits, cache_misses)),
        entries_rewritten,
        inline_compaction: !workload.background_compaction(),
        stall_ns: stall_micros * 1_000,
        entries_per_page: (PAGE_BYTES / ENTRY_BYTES) as f64,
    };
    let (explained_frac, residual_us) = reconcile(&costs, &counts, busy_ns as f64, op_count);

    let (model_reads, model_writes) = model_ios(&session, workload);
    let read_ios = ratio(page_reads as f64, op_count as f64);
    let write_ios = ratio(page_writes as f64, op_count as f64);
    let untraced_rate = ratio(
        (config.half_ops() - op_count) as f64,
        untraced_busy.as_secs_f64(),
    );
    let traced_rate = ratio(op_count as f64, traced_busy.as_secs_f64());

    let (mut report, reopen_s) = session.finish(true, all_ops.len())?;
    let failed_frac = ratio(report.failed as f64, report.attempted as f64);
    let p = |sorted: &[u64], q: f64| percentile(sorted, q) as f64 / 1e3;
    // A tail is only as high as the sample supports: ten samples beyond it.
    let tail =
        |sorted: &[u64], q: f64| p(sorted, q.min(highest_supported_percentile(sorted.len())));
    let busy_s = |sorted: &[u64]| sorted.iter().sum::<u64>() as f64 / 1e9;
    let n = |count: u64| count as f64;
    report.metrics = vec![
        metric("workload.gen_ns", ratio(gen_ns as f64, n(op_count))),
        metric("lsm.db.get_calls", n(counts.gets)),
        metric("lsm.db.get_busy_s", busy_s(&gets)),
        metric("lsm.db.get_p50_us", p(&gets, 0.5)),
        metric("lsm.db.get_p99_us", tail(&gets, 0.99)),
        metric("lsm.db.put_calls", n(counts.puts)),
        metric("lsm.db.put_busy_s", busy_s(&puts)),
        metric("lsm.db.put_p50_us", p(&puts, 0.5)),
        metric("lsm.db.put_p99_us", tail(&puts, 0.99)),
        metric("lsm.db.range_calls", n(counts.ranges)),
        metric("lsm.db.range_busy_s", busy_s(&ranges)),
        metric("lsm.db.range_p50_us", p(&ranges, 0.5)),
        metric("lsm.db.range_p99_us", tail(&ranges, 0.99)),
        metric("lsm.db.range_entries", n(range_entries)),
        metric("lsm.db.p99_us", tail(&all_ops, 0.99)),
        metric("lsm.db.p999_us", tail(&all_ops, 0.999)),
        metric(
            "lsm.db.max_us",
            all_ops.last().map_or(0.0, |&ns| ns as f64 / 1e3),
        ),
        metric("lsm.db.stalls", n(stalls)),
        metric("lsm.db.stall_s", n(stall_micros) / 1e6),
        metric("lsm.db.depth", stats.depth() as f64),
        metric("lsm.db.runs", stats.runs as f64),
        metric("lsm.db.reopen_s", reopen_s),
        metric("lsm.db.failed_frac", failed_frac),
        metric("lsm.memtable.insert_ns", costs.memtable_insert_ns),
        metric("lsm.memtable.get_ns", costs.memtable_get_ns),
        metric("lsm.memtable.inserts", n(counts.puts)),
        metric("lsm.memtable.lookups", n(counts.gets)),
        metric("lsm.wal.append_ns", costs.wal_append_ns),
        metric("lsm.wal.appends", n(wal_appends)),
        metric("lsm.wal.group_commits", n(wal_group_commits)),
        metric("lsm.wal.syncs", n(wal_syncs)),
        metric("lsm.wal.bytes", n(wal_appends * WAL_RECORD_BYTES)),
        metric("bloom.filter.hash_ns", costs.hash_ns),
        metric("bloom.filter.probe_ns", costs.probe_ns),
        metric("bloom.filter.key_hashes", n(key_hashes)),
        metric("bloom.filter.probes", n(filter_probes)),
        metric("bloom.filter.negatives", n(filter_negatives)),
        metric("bloom.filter.false_positives", n(false_positives)),
        metric(
            "bloom.filter.useful_frac",
            ratio(n(filter_negatives), n(filter_probes)),
        ),
        metric("bloom.filter.bits_per_entry", stats.bits_per_entry()),
        metric(
            "bloom.filter.expected_r",
            stats.expected_zero_result_lookup_ios,
        ),
        metric("lsm.run.fence_search_ns", costs.fence_search_ns),
        metric("lsm.run.get_ns", costs.run_get_ns),
        metric("lsm.run.page_probes", n(counts.page_probes)),
        metric("lsm.page.search_ns", costs.page_search_ns),
        metric("lsm.page.next_entry_ns", costs.page_next_entry_ns),
        metric("lsm.page.build_entry_ns", costs.page_build_entry_ns),
        metric(
            "lsm.iter.seek_ns",
            ratio(seeks.iter().sum::<u64>() as f64, n(counts.ranges)),
        ),
        metric(
            "lsm.iter.entry_ns",
            ratio(
                rest.iter().sum::<u64>() as f64,
                n(range_entries.saturating_sub(counts.ranges)),
            ),
        ),
        metric("lsm.iter.entries", n(range_entries)),
        metric("lsm.compaction.flush_entry_ns", costs.flush_entry_ns),
        metric("lsm.compaction.merge_entry_ns", costs.merge_entry_ns),
        metric("lsm.compaction.flushes", n(flushes)),
        metric("lsm.compaction.merges", n(merges)),
        metric("lsm.compaction.entries_rewritten", n(entries_rewritten)),
        metric(
            "lsm.compaction.rewrites_per_put",
            ratio(n(entries_rewritten), n(counts.puts)),
        ),
        metric("storage.disk.read_page_ns", costs.read_page_ns),
        metric("storage.disk.read_seq_ns", costs.read_seq_ns),
        metric("storage.disk.write_page_ns", costs.write_page_ns),
        metric("storage.disk.page_reads", n(page_reads)),
        metric("storage.disk.page_writes", n(page_writes)),
        metric("storage.disk.seeks", n(seeks_counted)),
        metric("storage.disk.bytes_on_disk", on_disk as f64),
        metric("storage.disk.read_ios_per_op", read_ios),
        metric("storage.disk.write_ios_per_op", write_ios),
        metric("storage.cache.hit_ns", costs.cache_hit_ns),
        metric("storage.cache.miss_ns", costs.cache_miss_ns),
        metric("storage.cache.insert_ns", costs.cache_insert_ns),
        metric("storage.cache.hits", n(cache_hits)),
        metric("storage.cache.misses", n(cache_misses)),
        metric(
            "storage.cache.hit_ratio",
            ratio(n(cache_hits), n(cache_hits + cache_misses)),
        ),
        metric("model.read_ios_per_op", model_reads),
        metric("model.write_ios_per_op", model_writes),
        metric(
            "model.read_gap_frac",
            ratio(read_ios - model_reads, model_reads),
        ),
        metric(
            "model.write_gap_frac",
            ratio(write_ios - model_writes, model_writes),
        ),
        metric("reconcile.explained_frac", explained_frac),
        metric("reconcile.residual_us_per_op", residual_us),
        metric(
            "trace.overhead_frac",
            1.0 - ratio(traced_rate, untraced_rate),
        ),
    ];
    rec.write_json(trace_path, &config)?;
    Ok(report)
}

/// The cost model's page reads and page writes per op for the store's
/// configuration and the workload's `(r, v, q, w)`: `r·R + v·V + q·Q` plus
/// the pages merges read, and the pages merges write. Eq. 10's `W` charges
/// `1 + φ` per page merged — one read, `φ` writes — so each side is `W` at
/// `φ = 0`.
fn model_ios(session: &Session, workload: Workload) -> (f64, f64) {
    let entries = session.config.scale.entries;
    let params = model_params_for(session.db.options(), entries, ENTRY_BYTES);
    let m_filters = BITS_PER_ENTRY * entries as f64;
    let (r, v, q, w) = workload.mix();
    let selectivity = SCAN_ENTRIES as f64 / entries as f64;
    let merged = w * update_cost(&params, 0.0);
    let reads = r * zero_result_lookup_cost(&params, m_filters)
        + v * non_zero_result_lookup_cost(&params, m_filters)
        + q * range_lookup_cost(&params, selectivity)
        + merged;
    (reads, merged)
}
