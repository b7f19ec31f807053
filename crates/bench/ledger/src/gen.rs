//! Seeded traffic and its oracle.
//!
//! The generator is the only consumer of `--seed`; the engine sees nothing
//! but the ops. Every op carries what its result must be, captured at
//! generation time, so a whole batch can be verified after the clock stops.

use crate::spec::{Workload, BATCH, ENTRY_BYTES, HOT_C, SCAN_ENTRIES, ZIPF_THETA};
use bytes::Bytes;
use monkey_bloom::hash::xxh64;
use monkey_workload::{KeySpace, TemporalSampler, ZipfianSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One generated operation with its expected result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Lookup of a key that was never inserted; must return `None`.
    GetMissing { key: Vec<u8> },
    /// Lookup of key `idx`; must return its value at `version`.
    GetExisting {
        idx: u64,
        version: u32,
        key: Vec<u8>,
    },
    /// Scan of `[lo, hi)`; must yield keys `start..start + versions.len()`
    /// in order, each at its listed version.
    Scan {
        start: u64,
        versions: Vec<u32>,
        lo: Vec<u8>,
        hi: Vec<u8>,
    },
    /// Overwrite of key `idx` with its value at `version`.
    Put {
        idx: u64,
        version: u32,
        key: Bytes,
        value: Bytes,
    },
}

/// The value stored for key `idx` at `version`: `KeySpace::value_for` with
/// the version stamped after the index tag.
pub fn value_of(keys: &KeySpace, idx: u64, version: u32) -> Vec<u8> {
    let mut value = keys.value_for(idx);
    let stamp = format!("#{version:09}");
    value[17..17 + stamp.len()].copy_from_slice(stamp.as_bytes());
    value
}

/// The key and value an entry must have, written into reused buffers: the
/// oracle checks a hundred entries per scan, and formatting each through
/// `KeySpace` would cost more CPU than the scan it checks. A unit test holds
/// it to `KeySpace::existing_key` and [`value_of`].
pub struct Expected {
    key: Vec<u8>,
    value: Vec<u8>,
}

impl Expected {
    /// Buffers for entries of `keys`.
    pub fn new(keys: &KeySpace) -> Self {
        Self {
            key: keys.existing_key(0),
            value: value_of(keys, 0, 0),
        }
    }

    /// `(key, value)` of entry `idx` at `version`.
    pub fn of(&mut self, idx: u64, version: u32) -> (&[u8], &[u8]) {
        write_digits(&mut self.key, idx * 2);
        write_digits(&mut self.value[1..17], idx);
        write_digits(&mut self.value[18..27], u64::from(version));
        (&self.key, &self.value)
    }
}

/// Fills `buf` with the zero-padded decimal digits of `v`.
fn write_digits(buf: &mut [u8], mut v: u64) {
    for digit in buf.iter_mut().rev() {
        *digit = b'0' + (v % 10) as u8;
        v /= 10;
    }
}

/// Seeded op source for one workload, holding the per-key version oracle.
pub struct Generator {
    workload: Workload,
    keys: KeySpace,
    rng: StdRng,
    /// Insertion order of the load phase (a permutation of `0..entries`).
    order: Vec<u64>,
    /// Current version of every key — the oracle for `ingest` and `mixed`.
    versions: Vec<u32>,
    hot: TemporalSampler,
    zipf: ZipfianSampler,
}

impl Generator {
    /// A generator over `entries` keys. The same `(workload, entries,
    /// seed)` always yields the same load order and the same ops.
    pub fn new(workload: Workload, entries: u64, seed: u64) -> Self {
        assert!(entries > SCAN_ENTRIES, "data set smaller than one scan");
        let keys = KeySpace::with_entry_size(entries, ENTRY_BYTES);
        let mut rng = StdRng::seed_from_u64(seed);
        let order = keys.shuffled_indices(&mut rng);
        Self {
            workload,
            keys,
            rng,
            order,
            versions: vec![0; entries as usize],
            hot: TemporalSampler::new(entries, HOT_C),
            zipf: ZipfianSampler::new(entries, ZIPF_THETA),
        }
    }

    /// The key space.
    pub fn keys(&self) -> &KeySpace {
        &self.keys
    }

    /// The load phase as puts of version 0, in random insertion order,
    /// `BATCH` at a time.
    pub fn load_batches(&self) -> impl Iterator<Item = Vec<Op>> + '_ {
        self.order.chunks(BATCH).map(|chunk| {
            chunk
                .iter()
                .map(|&idx| self.put_op(idx, 0))
                .collect::<Vec<_>>()
        })
    }

    fn put_op(&self, idx: u64, version: u32) -> Op {
        Op::Put {
            idx,
            version,
            key: self.keys.existing_key(idx).into(),
            value: value_of(&self.keys, idx, version).into(),
        }
    }

    fn get_existing(&self, idx: u64) -> Op {
        Op::GetExisting {
            idx,
            version: self.versions[idx as usize],
            key: self.keys.existing_key(idx),
        }
    }

    fn get_missing(&mut self) -> Op {
        Op::GetMissing {
            key: self.keys.random_missing(&mut self.rng),
        }
    }

    fn scan(&mut self) -> Op {
        let start = self.rng.gen_range(0..self.keys.entries - SCAN_ENTRIES);
        let end = start + SCAN_ENTRIES;
        Op::Scan {
            start,
            versions: self.versions[start as usize..end as usize].to_vec(),
            lo: self.keys.existing_key(start),
            hi: self.keys.existing_key(end),
        }
    }

    fn overwrite(&mut self, idx: u64) -> Op {
        self.versions[idx as usize] += 1;
        self.put_op(idx, self.versions[idx as usize])
    }

    /// A Zipf rank scattered over the key space, so the popular keys are
    /// not neighbours on one page.
    fn zipf_idx(&mut self) -> u64 {
        let rank = self.zipf.sample(&mut self.rng);
        xxh64(&rank.to_le_bytes(), 0) % self.keys.entries
    }

    /// Replaces `out` with the next `BATCH` ops of the workload's traffic.
    pub fn next_batch(&mut self, out: &mut Vec<Op>) {
        out.clear();
        for _ in 0..BATCH {
            let op = match self.workload {
                Workload::GetMiss => self.get_missing(),
                Workload::GetCold => {
                    let idx = self.rng.gen_range(0..self.keys.entries);
                    self.get_existing(idx)
                }
                Workload::GetHot => {
                    // Locality over key order, not insertion recency: the
                    // block cache holds pages, and once a merge scatters the
                    // recent entries over the bottom level every page of it
                    // is "recent" (see the README's findings).
                    let idx = self.hot.sample_rank(&mut self.rng);
                    self.get_existing(idx)
                }
                Workload::Scan => self.scan(),
                Workload::Ingest => {
                    let idx = self.rng.gen_range(0..self.keys.entries);
                    self.overwrite(idx)
                }
                Workload::Mixed => {
                    let (r, v, q, _) = self.workload.mix();
                    let x: f64 = self.rng.gen();
                    if x < r {
                        self.get_missing()
                    } else if x < r + v {
                        let idx = self.zipf_idx();
                        self.get_existing(idx)
                    } else if x < r + v + q {
                        self.scan()
                    } else {
                        let idx = self.zipf_idx();
                        self.overwrite(idx)
                    }
                }
            };
            out.push(op);
        }
    }

    /// `n` lookups of uniformly chosen keys at their current versions — the
    /// post-run and post-reopen sample.
    pub fn check_sample(&mut self, n: u64) -> Vec<Op> {
        (0..n)
            .map(|_| {
                let idx = self.rng.gen_range(0..self.keys.entries);
                self.get_existing(idx)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Scale;

    /// A hash of `ops` that changes whenever a key, value, bound or expected
    /// version does — what the frozen-input test pins.
    fn fingerprint(ops: &[Op]) -> u64 {
        let mut acc = 0u64;
        for op in ops {
            let mut bytes: Vec<u8> = Vec::with_capacity(160);
            match op {
                Op::GetMissing { key } => {
                    bytes.push(0);
                    bytes.extend_from_slice(key);
                }
                Op::GetExisting { idx, version, key } => {
                    bytes.push(1);
                    bytes.extend_from_slice(&idx.to_le_bytes());
                    bytes.extend_from_slice(&version.to_le_bytes());
                    bytes.extend_from_slice(key);
                }
                Op::Scan {
                    start,
                    versions,
                    lo,
                    hi,
                } => {
                    bytes.push(2);
                    bytes.extend_from_slice(&start.to_le_bytes());
                    for v in versions {
                        bytes.extend_from_slice(&v.to_le_bytes());
                    }
                    bytes.extend_from_slice(lo);
                    bytes.extend_from_slice(hi);
                }
                Op::Put {
                    idx,
                    version,
                    key,
                    value,
                } => {
                    bytes.push(3);
                    bytes.extend_from_slice(&idx.to_le_bytes());
                    bytes.extend_from_slice(&version.to_le_bytes());
                    bytes.extend_from_slice(key);
                    bytes.extend_from_slice(value);
                }
            }
            acc = xxh64(&bytes, acc);
        }
        acc
    }

    /// Hash of the first 4096 ops of every workload at seed 1 on the full
    /// data set. A change to `crates/workload` (or to the vendored `rand`)
    /// that shifts the benchmark's traffic fails here instead of silently
    /// moving the baseline.
    #[test]
    fn first_4096_ops_are_frozen() {
        let pinned: [(&str, u64); 6] = [
            ("get_miss", 0x8f05_b5b1_a92f_5ce0),
            ("get_cold", 0x8cea_ea32_97e7_e75b),
            ("get_hot", 0x8d2f_f530_fa42_cd4d),
            ("scan", 0x9b7d_70ab_e704_c1ec),
            ("ingest", 0xc516_4948_9ce8_8743),
            ("mixed", 0x10e2_d4a0_a8d9_cb4b),
        ];
        let actual = Workload::ALL.map(|workload| {
            let mut gen = Generator::new(workload, Scale::FULL.entries, 1);
            let mut all = Vec::new();
            let mut batch = Vec::new();
            for _ in 0..4096 / BATCH {
                gen.next_batch(&mut batch);
                all.append(&mut batch);
            }
            (workload.name(), fingerprint(&all))
        });
        assert_eq!(
            actual, pinned,
            "the benchmark's traffic moved: {actual:#x?}"
        );
    }

    #[test]
    fn same_seed_same_ops_other_seed_other_ops() {
        let batch_of = |seed| {
            let mut gen = Generator::new(Workload::Mixed, 20_000, seed);
            let mut batch = Vec::new();
            gen.next_batch(&mut batch);
            batch
        };
        assert_eq!(batch_of(7), batch_of(7));
        assert_ne!(batch_of(7), batch_of(8));
    }

    #[test]
    fn load_covers_every_key_once_at_version_zero() {
        let gen = Generator::new(Workload::Ingest, 5_000, 3);
        let mut seen = vec![false; 5_000];
        for batch in gen.load_batches() {
            for op in batch {
                let Op::Put { idx, version, .. } = op else {
                    panic!("load is puts only");
                };
                assert_eq!(version, 0);
                assert!(!std::mem::replace(&mut seen[idx as usize], true));
            }
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn gets_expect_the_version_of_the_latest_earlier_put() {
        let mut gen = Generator::new(Workload::Mixed, 20_000, 5);
        let mut latest = vec![0u32; 20_000];
        let mut batch = Vec::new();
        for _ in 0..8 {
            gen.next_batch(&mut batch);
            for op in &batch {
                match op {
                    Op::Put { idx, version, .. } => {
                        assert_eq!(*version, latest[*idx as usize] + 1);
                        latest[*idx as usize] = *version;
                    }
                    Op::GetExisting { idx, version, .. } => {
                        assert_eq!(*version, latest[*idx as usize]);
                    }
                    Op::Scan {
                        start, versions, ..
                    } => {
                        let s = *start as usize;
                        assert_eq!(versions[..], latest[s..s + versions.len()]);
                    }
                    Op::GetMissing { .. } => {}
                }
            }
        }
    }

    #[test]
    fn expected_buffers_agree_with_the_key_space() {
        let keys = KeySpace::with_entry_size(250_000, ENTRY_BYTES);
        let mut expected = Expected::new(&keys);
        for (idx, version) in [
            (0, 0),
            (7, 1),
            (249_999, 0),
            (123_456, 999_999_999),
            (99, 35),
        ] {
            let (key, value) = expected.of(idx, version);
            assert_eq!(key, &keys.existing_key(idx)[..]);
            assert_eq!(value, &value_of(&keys, idx, version)[..]);
        }
    }

    #[test]
    fn versioned_values_keep_their_size_and_differ() {
        let keys = KeySpace::with_entry_size(10, ENTRY_BYTES);
        let a = value_of(&keys, 3, 0);
        let b = value_of(&keys, 3, 1);
        assert_eq!(a.len(), ENTRY_BYTES - 16);
        assert_eq!(b.len(), a.len());
        assert_ne!(a, b);
        assert_ne!(value_of(&keys, 4, 1), b);
    }
}
