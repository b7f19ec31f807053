//! One run of one workload: set-up, warm-up, the two measured halves, the
//! post-run and post-reopen checks, and the end-to-end metrics.

use crate::gen::{Expected, Generator, Op};
use crate::host::{self, HostStamp};
use crate::spec::{
    Scale, Workload, BATCH, CHECK_SAMPLE, END_TO_END, ENTRY_BYTES, PER_LAYER, SCAN_ENTRIES,
};
use crate::stats::{median, percentile, trimmed_mean};
use crate::store::{self, Error};
use bytes::Bytes;
use monkey::Db;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Scales the frozen op counts; `spec::RUN_SECONDS` gives them as
    /// recorded.
    pub seconds: u64,
    pub scale: Scale,
    /// Store directory; created, then removed when the run ends.
    pub dir: PathBuf,
}

impl Config {
    /// Batches in each measured half.
    pub fn half_batches(&self) -> u64 {
        self.workload.half_batches(self.seconds, self.scale)
    }

    /// Ops in each measured half.
    pub fn half_ops(&self) -> u64 {
        self.half_batches() * BATCH as u64
    }
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A measurement of a metric `spec` declares, which is where its unit
/// comes from. Measuring an undeclared metric is a bug in the runner.
pub fn metric(name: &'static str, value: f64) -> Metric {
    let def = END_TO_END
        .iter()
        .map(|(def, _)| def)
        .chain(PER_LAYER)
        .find(|def| def.name == name)
        .unwrap_or_else(|| panic!("{name} is not a metric of the spec"));
    Metric {
        name,
        value,
        unit: def.unit,
    }
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct Report {
    pub config: Config,
    pub traced: bool,
    pub host: HostStamp,
    /// Effective I/O backend, from `Db::io_backend_info`.
    pub backend: String,
    /// Latency samples behind `p50_us`.
    pub latency_samples: usize,
    pub attempted: u64,
    pub failed: u64,
    /// The first wrong result, for the operator.
    pub first_failure: Option<String>,
    pub metrics: Vec<Metric>,
}

/// What the engine returned for one op.
pub enum Outcome {
    Got(Option<Bytes>),
    Scanned(Vec<(Bytes, Bytes)>),
    Stored,
    Failed(String),
}

/// Executes `op` against `db` — the only place the untraced run calls the
/// engine from.
pub fn execute(db: &Db, op: &Op) -> Outcome {
    match op {
        Op::GetMissing { key } | Op::GetExisting { key, .. } => match db.get(key) {
            Ok(found) => Outcome::Got(found),
            Err(e) => Outcome::Failed(e.to_string()),
        },
        Op::Scan { lo, hi, .. } => {
            let iter = match db.range(lo, Some(hi)) {
                Ok(iter) => iter,
                Err(e) => return Outcome::Failed(e.to_string()),
            };
            let mut rows = Vec::with_capacity(SCAN_ENTRIES as usize);
            for row in iter {
                match row {
                    Ok(row) => rows.push(row),
                    Err(e) => return Outcome::Failed(e.to_string()),
                }
            }
            Outcome::Scanned(rows)
        }
        Op::Put { key, value, .. } => match db.put(key.clone(), value.clone()) {
            Ok(()) => Outcome::Stored,
            Err(e) => Outcome::Failed(e.to_string()),
        },
    }
}

/// `None` when `outcome` is exactly what `op` must produce, else why not.
pub fn verify(expected: &mut Expected, op: &Op, outcome: &Outcome) -> Option<String> {
    let correct =
        match (op, outcome) {
            (_, Outcome::Failed(e)) => return Some(format!("{op:?} errored: {e}")),
            (Op::GetMissing { .. }, Outcome::Got(found)) => found.is_none(),
            (Op::GetExisting { idx, version, .. }, Outcome::Got(found)) => found
                .as_ref()
                .is_some_and(|value| value[..] == *expected.of(*idx, *version).1),
            (
                Op::Scan {
                    start, versions, ..
                },
                Outcome::Scanned(rows),
            ) => {
                rows.len() == versions.len()
                    && rows.iter().zip(versions).zip(*start..).all(
                        |(((key, value), version), idx)| {
                            let (want_key, want_value) = expected.of(idx, *version);
                            key[..] == *want_key && value[..] == *want_value
                        },
                    )
            }
            (Op::Put { .. }, Outcome::Stored) => true,
            _ => return Some(format!("{op:?} produced the result of another op type")),
        };
    (!correct).then(|| match (op, outcome) {
        (
            Op::Scan {
                start, versions, ..
            },
            Outcome::Scanned(rows),
        ) => format!(
            "scan from key {start}: wanted {} ordered entries at the oracle's versions, got {}",
            versions.len(),
            rows.len()
        ),
        (_, Outcome::Got(found)) => format!(
            "{op:?} returned {:?}",
            found
                .as_ref()
                .map(|v| String::from_utf8_lossy(v).into_owned())
        ),
        _ => format!("{op:?} returned a wrong result"),
    })
}

/// Attempts and failures of one run.
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first wrong result, for the operator.
    pub first_failure: Option<String>,
    expected: Expected,
}

impl Tally {
    /// Counts one op and whether its outcome was the oracle's.
    pub fn record(&mut self, op: &Op, outcome: &Outcome) {
        self.attempted += 1;
        if let Some(why) = verify(&mut self.expected, op, outcome) {
            self.failed += 1;
            self.first_failure.get_or_insert(why);
        }
    }
}

/// A store set up for one run. Shared by the untraced and the traced run.
pub struct Session {
    pub config: Config,
    pub gen: Generator,
    pub db: Arc<Db>,
    pub host: HostStamp,
    pub backend: String,
    pub tally: Tally,
}

/// Looks up a uniform sample of keys at the oracle's current versions.
fn check_sample(db: &Db, gen: &mut Generator, tally: &mut Tally, scale: Scale) {
    for op in gen.check_sample(CHECK_SAMPLE.min(scale.entries)) {
        tally.record(&op, &execute(db, &op));
    }
}

impl Session {
    /// Sets the store up `repeats` times (the last one is kept) and returns
    /// the session with each set-up's seconds. Refuses `mixed` on one core:
    /// its flush worker would time-share with the client, and a flagged
    /// number is worse than none.
    pub fn start(config: Config, repeats: usize) -> Result<(Self, Vec<f64>), Error> {
        if config.workload.background_compaction() && host::nproc() < 2 {
            return Err(format!(
                "{} needs a second core for the engine's flush worker; this host has {}",
                config.workload.name(),
                host::nproc()
            )
            .into());
        }
        let gen = Generator::new(config.workload, config.scale.entries, config.seed);
        let mut setups = Vec::with_capacity(repeats);
        let mut db = None;
        for _ in 0..repeats.max(1) {
            drop(db.take());
            let (fresh, took) = store::set_up(config.workload, &config.dir, config.scale, &gen)?;
            setups.push(took.as_secs_f64());
            db = Some(fresh);
        }
        let db = db.expect("at least one set-up ran");
        let session = Self {
            host: HostStamp::collect(&config.dir),
            backend: db.io_backend_info().kind.to_string(),
            tally: Tally {
                attempted: 0,
                failed: 0,
                first_failure: None,
                expected: Expected::new(gen.keys()),
            },
            config,
            gen,
            db,
        };
        Ok((session, setups))
    }

    /// Runs an eighth of a half off the clock, so the block cache, the page
    /// cache and the allocator are warm when timing starts, then drains the
    /// engine's pipeline so no warm-up work lands in the measured phase.
    pub fn warm_up(&mut self) -> Result<(), Error> {
        let mut ops = Vec::with_capacity(BATCH);
        for _ in 0..(self.config.half_batches() / 8).max(1) {
            self.gen.next_batch(&mut ops);
            for op in &ops {
                self.tally.record(op, &execute(&self.db, op));
            }
        }
        Ok(self.db.close()?)
    }

    /// Ends the run: re-reads a key sample, then — on durable stores —
    /// drops the handle, reopens the directory and re-reads another sample.
    /// Removes the store. Returns the report (metrics still empty) and how
    /// long `Db::open` took (0 on the volatile `get_hot` store).
    pub fn finish(self, traced: bool, latency_samples: usize) -> Result<(Report, f64), Error> {
        let Session {
            config,
            mut gen,
            db,
            host,
            backend,
            mut tally,
        } = self;
        check_sample(&db, &mut gen, &mut tally, config.scale);
        // Dropping the handle joins its workers and writes its WAL tail.
        drop(db);
        let mut reopen_s = 0.0;
        if config.workload.durable() {
            let started = Instant::now();
            let db = store::open(config.workload, &config.dir, config.scale)?;
            reopen_s = started.elapsed().as_secs_f64();
            check_sample(&db, &mut gen, &mut tally, config.scale);
        }
        std::fs::remove_dir_all(&config.dir)?;
        let report = Report {
            config,
            traced,
            host,
            backend,
            latency_samples,
            attempted: tally.attempted,
            failed: tally.failed,
            first_failure: tally.first_failure,
            metrics: Vec::new(),
        };
        Ok((report, reopen_s))
    }
}

/// Live user bytes of a store (overwrites replace, nothing is deleted).
pub fn live_bytes(scale: Scale) -> f64 {
    (scale.entries * ENTRY_BYTES as u64) as f64
}

/// The untraced run: every end-to-end metric.
///
/// The two halves are interleaved batch by batch — even batches are the
/// throughput half (one clock pair per batch), odd batches the latency half
/// (one clock pair per op). This host's memory latency moves between
/// regimes that last seconds (see the README); back-to-back halves would
/// each sample one regime, interleaved halves both sample all of them.
///
/// `p50_us` is taken per latency batch and then averaged over the batches,
/// leaving out the tenth of them with the lowest and the tenth with the
/// highest median. The host moves between speed regimes a fifth apart that
/// last about as long as a run: batch medians then have two modes, and their
/// median jumps from one mode to the other as the run's share of each
/// crosses a half, where their mean moves in proportion; trimming keeps a
/// burst of interference that swallows whole batches out of it.
pub fn run(config: Config) -> Result<Report, Error> {
    let (mut session, setups) = Session::start(config.clone(), config.scale.setup_repeats)?;
    session.warm_up()?;

    let mut ops = Vec::with_capacity(BATCH);
    let mut outcomes = Vec::with_capacity(BATCH);
    let mut throughput_busy = Duration::ZERO;
    let mut latencies = Vec::with_capacity(BATCH);
    let mut batch_p50s = Vec::new();
    let io_before = session.db.io();
    let cpu_before = host::process_cpu_seconds();

    for batch in 0..2 * config.half_batches() {
        session.gen.next_batch(&mut ops);
        outcomes.clear();
        if batch % 2 == 0 {
            let started = Instant::now();
            for op in &ops {
                outcomes.push(execute(&session.db, op));
            }
            throughput_busy += started.elapsed();
        } else {
            latencies.clear();
            for op in &ops {
                let started = Instant::now();
                let outcome = execute(&session.db, op);
                latencies.push(started.elapsed().as_nanos() as u64);
                outcomes.push(outcome);
            }
            latencies.sort_unstable();
            batch_p50s.push(percentile(&latencies, 0.5) as f64 / 1e3);
        }
        for (op, outcome) in ops.iter().zip(&outcomes) {
            session.tally.record(op, outcome);
        }
    }

    // Flushes the measured ops queued for the background worker are theirs.
    session.db.close()?;
    let io = session.db.io().since(&io_before);
    let cpu_s = host::process_cpu_seconds() - cpu_before;
    let on_disk = store::dir_bytes(&config.dir)?;

    let measured_ops = (2 * config.half_ops()) as f64;
    let metrics = vec![
        metric(
            "ops_per_s",
            config.half_ops() as f64 / throughput_busy.as_secs_f64(),
        ),
        metric("p50_us", trimmed_mean(&batch_p50s, 0.1)),
        metric("ios_per_op", io.total_ios() as f64 / measured_ops),
        metric("space_amp", on_disk as f64 / live_bytes(config.scale)),
        metric("cpu_us_per_op", cpu_s * 1e6 / measured_ops),
        metric("peak_rss_mb", host::peak_rss_mib()),
        metric("setup_s", median(&setups)),
    ];

    let (mut report, _reopen_s) = session.finish(false, config.half_ops() as usize)?;
    report.metrics = metrics;
    Ok(report)
}
