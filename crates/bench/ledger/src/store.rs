//! Opening, loading and measuring the store of one workload.

use crate::gen::{Generator, Op};
use crate::spec::{Scale, Workload, BITS_PER_ENTRY, BUFFER_BYTES, PAGE_BYTES, SIZE_RATIO};
use monkey::{Db, DbOptions, DbOptionsExt, FilterVariant, IoBackend};
use monkey_storage::{BlockCache, CacheConfig, Disk};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Failures of the harness itself (I/O, engine errors) — not wrong results,
/// which are counted.
pub type Error = Box<dyn std::error::Error + Send + Sync>;

/// The fixed configuration. `io_backend`, `shards` and `compaction_threads`
/// are set explicitly because their defaults read `MONKEY_*` environment
/// variables, which must not change a run.
pub fn options(workload: Workload, dir: &Path) -> DbOptions {
    let base = if workload.durable() {
        DbOptions::at_path(dir)
    } else {
        DbOptions::in_memory()
    };
    base.page_size(PAGE_BYTES)
        .buffer_capacity(BUFFER_BYTES)
        .size_ratio(SIZE_RATIO)
        .merge_policy(workload.merge_policy())
        .monkey_filters(BITS_PER_ENTRY)
        .filter_variant(FilterVariant::Standard)
        .io_backend(IoBackend::Buffered)
        .wal_sync_each_append(false)
        .background_compaction(workload.background_compaction())
        .telemetry(false)
        .shards(1)
        .compaction_threads(1)
}

/// Opens the workload's store in `dir`: `Db::open` on the durable stores,
/// a file-backed disk behind an LRU block cache for `get_hot`.
pub fn open(workload: Workload, dir: &Path, scale: Scale) -> Result<Arc<Db>, Error> {
    let opts = options(workload, dir);
    if workload.durable() {
        return Ok(Db::open(opts)?);
    }
    let cache =
        BlockCache::with_config(CacheConfig::lru(scale.cache_bytes).with_page_size(PAGE_BYTES));
    let disk = Disk::file_with(dir, PAGE_BYTES, IoBackend::Buffered, Some(cache))?;
    Ok(Db::open_with_disk(opts, disk)?)
}

/// Sets the store up from nothing: open, load every key in the generator's
/// insertion order, flush, and on read-only stores settle the filters on
/// the final tree shape. Returns the store and the time all of that took —
/// op generation is outside it.
pub fn set_up(
    workload: Workload,
    dir: &Path,
    scale: Scale,
    gen: &Generator,
) -> Result<(Arc<Db>, Duration), Error> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    let started = Instant::now();
    let db = open(workload, dir, scale)?;
    let mut busy = started.elapsed();
    for batch in gen.load_batches() {
        let started = Instant::now();
        for op in batch {
            let Op::Put { key, value, .. } = op else {
                unreachable!("the load phase is puts only");
            };
            db.put(key, value)?;
        }
        busy += started.elapsed();
    }
    let started = Instant::now();
    db.flush()?;
    if workload.read_only() {
        db.rebuild_filters()?;
    }
    busy += started.elapsed();
    Ok((db, busy))
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}
