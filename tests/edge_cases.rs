//! Edge cases: binary keys, boundary sizes, empty values, and pathological
//! orderings the byte-string contract must survive.

use monkey::{Db, DbOptions, DbOptionsExt, LsmError, MergePolicy};
use monkey_lsm::entry::{Entry, ENTRY_HEADER_LEN};
use monkey_lsm::page::{max_entry_len, PageCursor};
use monkey_lsm::wal::Wal;
use std::sync::Arc;

fn db() -> Arc<Db> {
    Db::open(
        DbOptions::in_memory()
            .page_size(256)
            .buffer_capacity(1024)
            .size_ratio(2)
            .merge_policy(MergePolicy::Leveling)
            .monkey_filters(8.0),
    )
    .unwrap()
}

#[test]
fn binary_keys_with_extreme_bytes() {
    let db = db();
    let keys: Vec<Vec<u8>> = vec![
        vec![0x00],
        vec![0x00, 0x00],
        vec![0x00, 0xFF],
        vec![0x7F],
        vec![0x80],
        vec![0xFF],
        vec![0xFF, 0x00],
        vec![0xFF, 0xFF, 0xFF],
    ];
    for (i, k) in keys.iter().enumerate() {
        db.put(k.clone(), vec![i as u8]).unwrap();
    }
    db.flush().unwrap();
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(db.get(k).unwrap().unwrap().as_ref(), &[i as u8], "{k:?}");
    }
    // Full scan sorts by raw bytes.
    let scanned: Vec<Vec<u8>> = db
        .range(b"", None)
        .unwrap()
        .map(|kv| kv.unwrap().0.to_vec())
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(scanned, sorted);
}

#[test]
fn empty_key_and_empty_value() {
    let db = db();
    db.put(Vec::new(), b"value-of-empty-key".to_vec()).unwrap();
    db.put(b"empty-value".to_vec(), Vec::new()).unwrap();
    db.flush().unwrap();
    assert_eq!(
        db.get(b"").unwrap().unwrap().as_ref(),
        b"value-of-empty-key"
    );
    let v = db.get(b"empty-value").unwrap().unwrap();
    assert!(v.is_empty());
    // The empty key sorts first.
    let first = db.range(b"", None).unwrap().next().unwrap().unwrap();
    assert!(first.0.is_empty());
}

#[test]
fn entry_exactly_at_page_capacity() {
    let db = db();
    // Page 256, header 10, one 2-byte offset, and the widest varints a
    // page of one entry can hold, 19 bytes — the prefix length (the lone
    // key is the prefix), the empty suffix's length, the value length and
    // the sequence number: 225 bytes of key and value are admissible
    // whatever the entry's sequence number.
    let max_payload = 256 - 10 - 2 - 19;
    let key = vec![b'k'; 20];
    let value = vec![b'v'; max_payload - 20];
    db.put(key.clone(), value.clone()).unwrap();
    db.flush().unwrap();
    assert_eq!(db.get(&key).unwrap().unwrap().len(), value.len());
    // One byte more is rejected.
    let err = db
        .put(vec![b'x'; 20], vec![b'v'; max_payload - 19])
        .unwrap_err();
    assert!(matches!(err, LsmError::EntryTooLarge { .. }));
}

#[test]
fn the_largest_admissible_entry_flushes_with_a_maximal_key_and_seq() {
    // A 128 KiB page (4-byte offsets) fits a key of the format's longest,
    // and a WAL record at seq 2^63 makes every later sequence number a
    // 10-byte varint: the put admits no entry its flush cannot write. The
    // limit covers the page's prefix field: on a page of one entry the
    // whole key is the prefix (a 3-byte length), and the entry still
    // carries a one-byte empty suffix length.
    let dir = std::env::temp_dir().join(format!("monkey-edge-maxentry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let (wal, _) = Wal::open(&dir, true).unwrap();
    wal.append(&Entry::put(&b"seed"[..], &b"v"[..], 1 << 63))
        .unwrap();
    drop(wal);
    let page = 1 << 17;
    let db = Db::open(
        DbOptions::at_path(&dir)
            .page_size(page)
            .buffer_capacity(1 << 20)
            .shards(1),
    )
    .unwrap();
    let key = vec![b'k'; u16::MAX as usize];
    assert_eq!(
        max_entry_len(page),
        page - 10 - 4 - (3 + 1 + 5 + 10) + ENTRY_HEADER_LEN
    );
    let value = vec![b'v'; max_entry_len(page) - ENTRY_HEADER_LEN - key.len()];
    db.put(key.clone(), value.clone()).unwrap();
    db.flush().unwrap();
    assert_eq!(db.stats().buffer_entries, 0, "both entries are in a run");
    assert_eq!(db.get(&key).unwrap().unwrap().as_ref(), &value[..]);
    // The key sorts first and fills a page of its own: the prefix length
    // (65 535 as a varint), the key, then an empty suffix's length.
    let disk = db.disk();
    let run = disk.list_runs()[0];
    let first = disk.read_page(run, 0).unwrap();
    assert_eq!(&first[10..13], &[0xff, 0xff, 0x03]);
    assert_eq!(&first[13..13 + key.len()], &key[..]);
    assert_eq!(first[13 + key.len()], 0);
    let mut cursor = PageCursor::new(first).unwrap();
    let entry = cursor.next_entry().unwrap().unwrap();
    assert_eq!(
        (entry.key.as_ref(), entry.value.as_ref()),
        (&key[..], &value[..])
    );
    assert!(entry.seq > 1 << 63, "a sequence number of all 64 bits");
    assert!(cursor.next_entry().unwrap().is_none());
    assert_eq!(db.get(b"seed").unwrap().unwrap().as_ref(), b"v");
    // One byte more is refused at the put, not left to fail the flush.
    let err = db.put(key, vec![b'v'; value.len() + 1]).unwrap_err();
    assert!(matches!(err, LsmError::EntryTooLarge { .. }), "{err}");
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn overwrite_with_shrinking_and_growing_values() {
    let db = db();
    let key = b"mutant".to_vec();
    for len in [100usize, 1, 200, 0, 50] {
        db.put(key.clone(), vec![b'z'; len]).unwrap();
        db.flush().unwrap();
        assert_eq!(db.get(&key).unwrap().unwrap().len(), len);
    }
}

#[test]
fn keys_sharing_prefixes_across_page_boundaries() {
    // Stress the fence separators: many keys that are prefixes of each
    // other ("a", "aa", "aaa", ...) interleaved with diverging tails.
    let db = db();
    let mut keys = Vec::new();
    for i in 1..=40 {
        keys.push(vec![b'a'; i]);
        let mut k = vec![b'a'; i];
        k.push(b'b');
        keys.push(k);
    }
    for (i, k) in keys.iter().enumerate() {
        db.put(k.clone(), format!("{i}").into_bytes()).unwrap();
    }
    db.flush().unwrap();
    for (i, k) in keys.iter().enumerate() {
        assert_eq!(
            db.get(k).unwrap().unwrap().as_ref(),
            format!("{i}").as_bytes(),
            "key {k:?}"
        );
    }
    assert_eq!(db.range(b"", None).unwrap().count(), 80);
}

#[test]
fn delete_then_reinsert_cycles() {
    let db = db();
    let key = b"phoenix".to_vec();
    for round in 0..20u32 {
        db.put(key.clone(), format!("life{round}").into_bytes())
            .unwrap();
        assert!(db.get(&key).unwrap().is_some());
        db.delete(key.clone()).unwrap();
        assert!(db.get(&key).unwrap().is_none());
        db.flush().unwrap();
        assert!(db.get(&key).unwrap().is_none(), "round {round}");
    }
    db.put(key.clone(), b"alive".to_vec()).unwrap();
    db.flush().unwrap();
    assert_eq!(db.get(&key).unwrap().unwrap().as_ref(), b"alive");
}

#[test]
fn range_bounds_edge_semantics() {
    let db = db();
    for k in ["a", "b", "c"] {
        db.put(k.as_bytes().to_vec(), b"v".to_vec()).unwrap();
    }
    // Empty range.
    assert_eq!(db.range(b"b", Some(b"b")).unwrap().count(), 0);
    // Inverted bounds yield nothing (not a panic).
    assert_eq!(db.range(b"c", Some(b"a")).unwrap().count(), 0);
    // Exclusive upper bound.
    assert_eq!(db.range(b"a", Some(b"c")).unwrap().count(), 2);
    // Bounds outside the data.
    assert_eq!(db.range(b"0", Some(b"z")).unwrap().count(), 3);
    assert_eq!(db.range(b"x", None).unwrap().count(), 0);
}
