//! Outside-in layer probes: per-call costs of each layer's *public*
//! functions, measured on fixtures shaped like the traced store — same
//! entries per run and filter bits per level, same page size, same backend
//! — and fed the workload's own keys. No product code is touched; spans
//! inside the engine are a later change.

use crate::gen::value_of;
use crate::spec::{BUFFER_BYTES, PAGE_BYTES};
use crate::store::Error;
use bytes::Bytes;
use monkey::{DbStats, Entry, FilterVariant, IoBackend};
use monkey_bloom::{hash_pair, Filter};
use monkey_lsm::compaction::{build_run_from_sorted, merge_runs};
use monkey_lsm::memtable::Memtable;
use monkey_lsm::page::{PageBuilder, PageCursor};
use monkey_lsm::wal::Wal;
use monkey_lsm::FilterParams;
use monkey_storage::{BlockCache, CacheConfig, Disk};
use monkey_workload::KeySpace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Calls per probe where the fixture does not dictate the count.
const CALLS: usize = 20_000;

/// Mean cost in nanoseconds of one call of each layer's public function.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerCosts {
    /// `Memtable::insert`, averaged over filling one buffer.
    pub memtable_insert_ns: f64,
    /// `Memtable::get` of an absent key, on a memtable as full as the
    /// store's was when the traced ops ended.
    pub memtable_get_ns: f64,
    /// `Wal::append` (enqueue + group commit of one record, no fsync).
    pub wal_append_ns: f64,
    /// `hash_pair`.
    pub hash_ns: f64,
    /// `Filter::contains_hashed` with absent keys, averaged over the
    /// store's runs.
    pub probe_ns: f64,
    /// `Run::page_for`.
    pub fence_search_ns: f64,
    /// `Run::get_hashed` of a present key: fence search, filter probe,
    /// page read and page search together.
    pub run_get_ns: f64,
    /// `PageCursor::search`.
    pub page_search_ns: f64,
    /// `PageCursor::next_entry`.
    pub page_next_entry_ns: f64,
    /// `PageBuilder::push` (with `finish` on full pages).
    pub page_build_entry_ns: f64,
    /// `build_run_from_sorted` per entry of one buffer (seal included).
    pub flush_entry_ns: f64,
    /// `merge_runs` per input entry, one buffer into `T` buffers.
    pub merge_entry_ns: f64,
    /// `Disk::read_page` at a random page.
    pub read_page_ns: f64,
    /// `Disk::read_page_sequential` at the next page.
    pub read_seq_ns: f64,
    /// `RunWriter::append`.
    pub write_page_ns: f64,
    /// `BlockCache::get` of a resident page.
    pub cache_hit_ns: f64,
    /// `BlockCache::get` of an absent page.
    pub cache_miss_ns: f64,
    /// `BlockCache::insert` into a full cache.
    pub cache_insert_ns: f64,
}

/// Mean nanoseconds per call of `call(i)` over `n` calls; the first error
/// ends the probe.
fn per_call<E: Into<Error>>(
    n: usize,
    mut call: impl FnMut(usize) -> Result<(), E>,
) -> Result<f64, Error> {
    let started = Instant::now();
    for i in 0..n {
        call(i).map_err(Into::into)?;
    }
    Ok(started.elapsed().as_nanos() as f64 / n.max(1) as f64)
}

/// [`per_call`] for calls that cannot fail.
fn per_infallible_call(n: usize, mut call: impl FnMut(usize)) -> f64 {
    let infallible = |i| {
        call(i);
        Ok::<(), Error>(())
    };
    per_call(n, infallible).expect("the call returns no error")
}

fn entry(keys: &KeySpace, idx: u64) -> Entry {
    Entry::put(keys.existing_key(idx), value_of(keys, idx, 0), idx)
}

/// Measures every layer on fixtures under `dir` (created, then removed).
/// `stats` is the traced store's shape; `cache_bytes` its block cache.
pub fn measure(
    stats: &DbStats,
    keys: &KeySpace,
    cache_bytes: usize,
    dir: &Path,
    seed: u64,
) -> Result<LayerCosts, Error> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir.join("wal"))?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut costs = LayerCosts::default();
    // One buffer's worth of entries; the merge fixture needs five of them.
    let buffer_entries =
        ((BUFFER_BYTES / entry(keys, 0).encoded_len()) as u64).clamp(1, keys.entries / 5);
    let mut random_entries = |n: u64| -> Vec<Entry> {
        (0..n)
            .map(|_| entry(keys, rng.gen_range(0..keys.entries)))
            .collect()
    };
    let fill = random_entries(buffer_entries);
    let resident = random_entries(stats.buffer_entries);
    let records = random_entries(buffer_entries);

    // The workload's own keys: uniformly drawn present and absent ones.
    let present: Vec<u64> = (0..CALLS).map(|_| rng.gen_range(0..keys.entries)).collect();
    let absent: Vec<Vec<u8>> = (0..CALLS).map(|_| keys.random_missing(&mut rng)).collect();

    // lsm.memtable
    {
        let table = Memtable::new();
        let mut fill = fill.into_iter();
        costs.memtable_insert_ns = per_infallible_call(buffer_entries as usize, |_| {
            black_box(table.insert(fill.next().expect("one entry per call")));
        });
        let table = Memtable::new();
        for entry in resident {
            table.insert(entry);
        }
        costs.memtable_get_ns = per_infallible_call(CALLS, |i| {
            black_box(table.get(&absent[i]));
        });
    }

    // lsm.wal
    {
        let (wal, _replayed) = Wal::open(dir.join("wal"), false)?;
        costs.wal_append_ns = per_call(records.len(), |i| wal.append(&records[i]))?;
    }

    // bloom.filter
    {
        costs.hash_ns = per_infallible_call(CALLS, |i| {
            black_box(hash_pair(&absent[i]));
        });
        let pairs: Vec<_> = absent.iter().map(|key| hash_pair(key)).collect();
        let (mut weighted, mut runs) = (0.0, 0usize);
        let filtered = |l: &&monkey::LevelStats| l.runs > 0 && l.filter_bits > 0;
        for level in stats.levels.iter().filter(filtered) {
            let per_run = (level.entries / level.runs as u64).clamp(1, keys.entries);
            let bits_per_entry = level.filter_bits as f64 / level.entries as f64;
            let mut filter =
                Filter::with_bits_per_entry(FilterVariant::Standard, per_run, bits_per_entry);
            for idx in 0..per_run {
                filter.insert(&keys.existing_key(idx));
            }
            let ns = per_infallible_call(CALLS, |i| {
                black_box(filter.contains_hashed(pairs[i]));
            });
            weighted += ns * level.runs as f64;
            runs += level.runs;
        }
        costs.probe_ns = weighted / runs.max(1) as f64;
    }

    // lsm.run, lsm.page, storage.disk — one run shaped like the store's
    // largest, on the store's backend (buffered files, no cache).
    let disk = Disk::file_with(dir.join("runs"), PAGE_BYTES, IoBackend::Buffered, None)?;
    let largest = stats
        .levels
        .iter()
        .filter(|l| l.runs > 0)
        .max_by_key(|l| l.entries / l.runs as u64);
    let (run_entries, run_bits) = largest.map_or((buffer_entries, 0.0), |l| {
        (
            (l.entries / l.runs as u64).clamp(1, keys.entries),
            l.filter_bits as f64 / l.entries as f64,
        )
    });
    let filter = FilterParams::new(run_bits, FilterVariant::Standard);
    {
        let sorted: Vec<Entry> = (0..run_entries).map(|idx| entry(keys, idx)).collect();
        let run = build_run_from_sorted(&disk, sorted, false, 1, filter)?.expect("a non-empty run");
        let inside: Vec<Vec<u8>> = present
            .iter()
            .map(|idx| keys.existing_key(idx % run_entries))
            .collect();
        costs.fence_search_ns = per_infallible_call(CALLS, |i| {
            black_box(run.page_for(&inside[i]));
        });
        let pairs: Vec<_> = inside.iter().map(|key| hash_pair(key)).collect();
        costs.run_get_ns = per_call(CALLS, |i| {
            run.get_hashed(&inside[i], pairs[i])
                .map(|look| drop(black_box(look)))
        })?;

        // storage.disk reads
        let random_pages: Vec<u32> = (0..CALLS).map(|_| rng.gen_range(0..run.pages())).collect();
        costs.read_page_ns = per_call(CALLS, |i| {
            disk.read_page(run.id(), random_pages[i])
                .map(|page| drop(black_box(page)))
        })?;
        costs.read_seq_ns = per_call(run.pages() as usize, |i| {
            disk.read_page_sequential(run.id(), i as u32)
                .map(|page| drop(black_box(page)))
        })?;

        // lsm.page — pages of that run, each with a key it holds.
        let mut held: Vec<(Bytes, &[u8])> = Vec::new();
        for key in inside.iter().take(CALLS / 10) {
            let page_no = run.page_for(key).expect("key inside the run");
            held.push((disk.read_page(run.id(), page_no)?, key));
        }
        costs.page_search_ns = per_call(held.len(), |i| {
            let (page, key) = &held[i];
            PageCursor::new(page.clone())?
                .search(key)
                .map(|found| drop(black_box(found)))
        })?;
        let mut decoded = 0usize;
        let started = Instant::now();
        for (page, _) in &held {
            let mut cursor = PageCursor::new(page.clone())?;
            while let Some(next) = cursor.next_entry()? {
                black_box(next);
                decoded += 1;
            }
        }
        costs.page_next_entry_ns = started.elapsed().as_nanos() as f64 / decoded.max(1) as f64;
    }
    {
        let entries: Vec<Entry> = (0..buffer_entries).map(|idx| entry(keys, idx)).collect();
        let mut builder = PageBuilder::new(PAGE_BYTES);
        costs.page_build_entry_ns = per_call(entries.len(), |i| {
            if !builder.fits(&entries[i]) {
                black_box(builder.finish());
            }
            builder.push(&entries[i])
        })?;

        // storage.disk writes
        let page = builder.finish();
        let mut writer = disk.begin_run();
        costs.write_page_ns = per_call(CALLS / 4, |_| writer.append(&page))?;
        disk.delete_run(writer.seal()?)?;
    }

    // lsm.compaction — one buffer flushed, then merged into T buffers.
    {
        let small: Vec<Entry> = (0..buffer_entries).map(|i| entry(keys, i * 5)).collect();
        let large: Vec<Entry> = (0..buffer_entries * 5)
            .filter(|i| i % 5 != 0)
            .map(|i| entry(keys, i))
            .collect();
        let large =
            build_run_from_sorted(&disk, large, false, 2, filter)?.expect("a non-empty run");
        let started = Instant::now();
        let small =
            build_run_from_sorted(&disk, small, false, 1, filter)?.expect("a non-empty run");
        costs.flush_entry_ns = started.elapsed().as_nanos() as f64 / buffer_entries as f64;
        let inputs = [small, large];
        let merged_entries: u64 = inputs.iter().map(|run| run.entries()).sum();
        let started = Instant::now();
        black_box(merge_runs(&disk, &inputs, false, 2, filter)?);
        costs.merge_entry_ns = started.elapsed().as_nanos() as f64 / merged_entries as f64;
    }

    // storage.cache
    {
        let capacity_pages = (cache_bytes / PAGE_BYTES).max(16);
        let cache = BlockCache::with_config(
            CacheConfig::lru(capacity_pages * PAGE_BYTES).with_page_size(PAGE_BYTES),
        );
        let page = Bytes::from(vec![0u8; PAGE_BYTES]);
        for page_no in 0..capacity_pages {
            cache.insert(1, page_no as u32, page.clone());
        }
        costs.cache_insert_ns = per_infallible_call(capacity_pages, |i| {
            cache.insert(2, i as u32, page.clone());
        });
        // The newest quarter of run 2 is resident in every shard.
        let newest = capacity_pages - capacity_pages / 4;
        costs.cache_hit_ns = per_infallible_call(CALLS, |i| {
            black_box(cache.get(2, (newest + i % (capacity_pages / 4)) as u32));
        });
        costs.cache_miss_ns = per_infallible_call(CALLS, |i| {
            black_box(cache.get(3, i as u32));
        });
    }

    drop(disk);
    std::fs::remove_dir_all(dir)?;
    Ok(costs)
}
