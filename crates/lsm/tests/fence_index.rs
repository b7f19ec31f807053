//! The fence index against a trivial oracle, and across a reopen.
//!
//! A run keeps one fence per page — fence 0 the run's smallest key, every
//! later one the shortest separator between the previous page's last key
//! and the page's first — packed into one contiguous index that
//! `RunBuilder` and `recover_run` build through the same `push`. The oracle
//! is a `Vec<Vec<u8>>` of those separators, recomputed here from the run's
//! raw pages by the definition, and searched with `partition_point`.
//!
//! * `Run::page_for` and `Run::scan_from` agree with the oracle for every
//!   probe: a key equal to a fence, every stored key, keys in every gap
//!   between stored keys, below the first fence, above `max_key`, keys that
//!   are prefixes of one another, single-page runs.
//! * The run recovered from the same bytes answers every probe the same way
//!   and is priced at the same `M_pointers`.
//! * `fence_memory_bits` (key bytes plus one pointer-sized slot per page) is
//!   an upper bound on the heap the index really holds.

use monkey_lsm::compaction::build_run_from_sorted;
use monkey_lsm::page::PageCursor;
use monkey_lsm::run::recover_run;
use monkey_lsm::{Entry, Run};
use monkey_storage::Disk;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

/// First and last key of every page of `run`, read back from its bytes.
fn page_bounds(disk: &Arc<Disk>, run: &Run) -> Vec<(Vec<u8>, Vec<u8>)> {
    (0..run.pages())
        .map(|page_no| {
            let page = disk.read_page(run.id(), page_no).unwrap();
            let mut cursor = PageCursor::new(page).unwrap();
            let first = cursor.key().unwrap().to_vec();
            let mut last = first.clone();
            while let Some(key) = cursor.key() {
                last = key.to_vec();
                cursor.advance().unwrap();
            }
            (first, last)
        })
        .collect()
}

/// The fences by their definition: the first key in full, then for each
/// page the shortest prefix of its first key that sorts above the previous
/// page's last key.
fn oracle_fences(bounds: &[(Vec<u8>, Vec<u8>)]) -> Vec<Vec<u8>> {
    let mut fences = vec![bounds[0].0.clone()];
    for pair in bounds.windows(2) {
        let (prev_last, first) = (&pair[0].1, &pair[1].0);
        let len = (0..=first.len())
            .find(|&len| first[..len] > prev_last[..])
            .expect("keys ascend across pages");
        fences.push(first[..len].to_vec());
    }
    fences
}

/// Every stored key, a probe in every gap around it (the key cut short, the
/// key extended, the key with its last byte moved down and up), and probes
/// outside the run on both sides.
fn probes(keys: &[Vec<u8>], fences: &[Vec<u8>]) -> BTreeSet<Vec<u8>> {
    let mut probes: BTreeSet<Vec<u8>> = [Vec::new(), vec![0], vec![0xff; 3]].into();
    for key in keys.iter().chain(fences) {
        probes.insert(key.clone());
        probes.insert(key[..key.len() - 1].to_vec());
        probes.insert([key.as_slice(), &[0]].concat());
        probes.insert([key.as_slice(), &[0xff]].concat());
        for moved in [key[key.len() - 1].wrapping_sub(1), key[key.len() - 1] + 1] {
            let mut near = key.clone();
            *near.last_mut().unwrap() = moved;
            probes.insert(near);
        }
    }
    probes
}

/// Holds `run` to the oracle on every probe.
fn check_against_oracle(
    run: &Arc<Run>,
    keys: &[Vec<u8>],
    fences: &[Vec<u8>],
    probes: &BTreeSet<Vec<u8>>,
) -> Result<(), String> {
    let max_key = keys.last().unwrap();
    for probe in probes {
        let at_or_below = fences.partition_point(|f| f <= probe);
        let want = (at_or_below > 0 && probe <= max_key).then(|| at_or_below as u32 - 1);
        if run.page_for(probe) != want {
            return Err(format!(
                "page_for({probe:?}) = {:?}, oracle {want:?}",
                run.page_for(probe)
            ));
        }
        // A scan lands on the first stored key at or above its bound.
        let first = keys.iter().find(|k| *k >= probe);
        let cursor = run.scan_from(probe, None).map_err(|e| e.to_string())?;
        if cursor.page().key() != first.map(Vec::as_slice) {
            return Err(format!(
                "scan_from({probe:?}) lands on {:?}, oracle {first:?}",
                cursor.page().key()
            ));
        }
    }
    // Each key is stored at the sequence number of its position.
    for (i, key) in keys.iter().enumerate() {
        let found = run.get(key).map_err(|e| e.to_string())?;
        if found.map(|hit| hit.seq) != Some(i as u64) {
            return Err(format!("stored key {key:?} not found through its fence"));
        }
    }
    Ok(())
}

/// Builds a run over `keys` (sorted, distinct), then holds it and its
/// recovered twin to the oracle and to each other.
fn check_run(page_size: usize, keys: &[Vec<u8>], value_len: usize) -> Result<(), String> {
    let disk = Disk::mem(page_size);
    let entries = keys
        .iter()
        .enumerate()
        .map(|(i, key)| Entry::put(key.clone(), vec![b'v'; value_len], i as u64))
        .collect();
    let built = build_run_from_sorted(&disk, entries, false, 1, 8.0)
        .unwrap()
        .expect("a non-empty run");
    let bounds = page_bounds(&disk, &built);
    let fences = oracle_fences(&bounds);
    let probes = probes(keys, &fences);
    check_against_oracle(&built, keys, &fences, &probes)?;

    let recovered = Arc::new(recover_run(&disk, built.id(), 8.0).unwrap());
    check_against_oracle(&recovered, keys, &fences, &probes)?;
    if (recovered.min_key(), recovered.max_key()) != (built.min_key(), built.max_key()) {
        return Err("the recovered run's key range differs".into());
    }

    // M_pointers: the formula (key bytes + a pointer-sized slot per page),
    // the same for both, and no less than what the heap really holds.
    let key_bytes: usize = fences.iter().map(Vec::len).sum();
    let priced = (key_bytes + fences.len() * std::mem::size_of::<usize>()) as u64 * 8;
    for (name, run) in [("built", &built), ("recovered", &recovered)] {
        if run.fence_memory_bits() != priced {
            return Err(format!(
                "{name}: fence_memory_bits {} != {priced} over {} pages",
                run.fence_memory_bits(),
                fences.len()
            ));
        }
        if run.fence_heap_bytes() as u64 * 8 > priced {
            return Err(format!(
                "{name}: the index holds {} bytes, priced at {} bits",
                run.fence_heap_bytes(),
                priced
            ));
        }
    }
    Ok(())
}

/// Keys that are prefixes of one another (`a07`, `ab07`, `aba07`, …) next
/// to plain neighbours: separators are cut at, before and past the shorter
/// key's end.
fn key(id: u16) -> Vec<u8> {
    format!("{}{:02}", &"abab"[..(id % 5) as usize], id / 5).into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn page_for_and_scan_from_match_the_oracle_before_and_after_reopen(
        ids in collection::vec(0u16..400, 1..160),
        page in 0usize..3,
        value_len in 0usize..24,
    ) {
        let keys: Vec<Vec<u8>> = ids
            .iter()
            .map(|&id| key(id))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        // One or two entries a page, a handful, or the whole run in one.
        let page_size = [96, 256, 8192][page];
        if let Err(why) = check_run(page_size, &keys, value_len) {
            prop_assert!(false, "{} keys on {}-byte pages: {}", keys.len(), page_size, why);
        }
    }
}

/// The reopen bug this index closes: `recover_run` used to fence every page
/// with its full first key while `RunBuilder` stored the shortest
/// separator, so with long shared prefixes a reopen of the same bytes
/// inflated `M_pointers` several times over.
#[test]
fn reopen_keeps_m_pointers_with_long_shared_prefixes() {
    let keys: Vec<Vec<u8>> = (0..600u32)
        .map(|i| format!("tenant-0001/region-eu-west/user-{i:08}/profile").into_bytes())
        .collect();
    check_run(512, &keys, 40).unwrap();
    // And where separators cannot shorten anything (keys differ in their
    // last byte only), the two still agree.
    let dense: Vec<Vec<u8>> = (0..600u32)
        .map(|i| format!("prefix-{i:08}").into_bytes())
        .collect();
    check_run(128, &dense, 8).unwrap();
}

#[test]
fn single_page_and_single_key_runs() {
    check_run(4096, &[b"only".to_vec()], 10).unwrap();
    check_run(4096, &[b"a".to_vec(), b"ab".to_vec(), b"abc".to_vec()], 0).unwrap();
    // One entry a page: every key is a page's first and last.
    let keys: Vec<Vec<u8>> = (0..40u8).map(|i| vec![b'k', i, i]).collect();
    check_run(64, &keys, 30).unwrap();
}
