//! Property-based tests for the LSM engine: arbitrary operation sequences
//! against a reference `BTreeMap` model, across merge policies, size
//! ratios, and filter budgets.

use bytes::Bytes;
use monkey_lsm::{Db, DbOptions, MergePolicy};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Action {
    Put(u16, u8),
    Delete(u16),
    Get(u16),
    Scan(u16, u16),
    Flush,
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        4 => (any::<u16>(), any::<u8>()).prop_map(|(k, v)| Action::Put(k % 512, v)),
        2 => any::<u16>().prop_map(|k| Action::Delete(k % 512)),
        3 => any::<u16>().prop_map(|k| Action::Get(k % 768)), // may be missing
        1 => (any::<u16>(), any::<u16>()).prop_map(|(a, b)| Action::Scan(a % 600, b % 600)),
        1 => Just(Action::Flush),
    ]
}

fn key(k: u16) -> Vec<u8> {
    format!("k{k:05}").into_bytes()
}

fn value(k: u16, v: u8) -> Vec<u8> {
    let mut val = format!("v{k:05}-{v:03}").into_bytes();
    val.resize(10 + (v as usize % 30), b'p');
    val
}

fn check_model(
    policy: MergePolicy,
    t: usize,
    bpe: f64,
    actions: &[Action],
) -> Result<(), TestCaseError> {
    let db = Db::open(
        DbOptions::in_memory()
            .page_size(256)
            .buffer_capacity(512)
            .size_ratio(t)
            .merge_policy(policy)
            .uniform_filters(bpe),
    )
    .unwrap();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();

    for action in actions {
        match action {
            Action::Put(k, v) => {
                db.put(key(*k), value(*k, *v)).unwrap();
                model.insert(key(*k), value(*k, *v));
            }
            Action::Delete(k) => {
                db.delete(key(*k)).unwrap();
                model.remove(&key(*k));
            }
            Action::Get(k) => {
                let got = db.get(&key(*k)).unwrap().map(|b| b.to_vec());
                prop_assert_eq!(&got, &model.get(&key(*k)).cloned(), "get {}", k);
            }
            Action::Scan(a, b) => {
                let (lo, hi) = if a <= b { (*a, *b) } else { (*b, *a) };
                let got: Vec<(Bytes, Bytes)> = db
                    .range(&key(lo), Some(&key(hi)))
                    .unwrap()
                    .map(|kv| kv.unwrap())
                    .collect();
                let want: Vec<(Vec<u8>, Vec<u8>)> = model
                    .range(key(lo)..key(hi))
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                prop_assert_eq!(got.len(), want.len(), "scan [{}, {}) length", lo, hi);
                for ((gk, gv), (wk, wv)) in got.iter().zip(&want) {
                    prop_assert_eq!(gk.as_ref(), &wk[..]);
                    prop_assert_eq!(gv.as_ref(), &wv[..]);
                }
            }
            Action::Flush => db.flush().unwrap(),
        }
    }

    // Terminal full scan matches the model exactly.
    let got: Vec<Vec<u8>> = db
        .range(b"", None)
        .unwrap()
        .map(|kv| kv.unwrap().0.to_vec())
        .collect();
    let want: Vec<Vec<u8>> = model.keys().cloned().collect();
    prop_assert_eq!(got, want, "terminal full scan");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn leveling_t2_matches_model(actions in proptest::collection::vec(arb_action(), 1..300)) {
        check_model(MergePolicy::Leveling, 2, 8.0, &actions)?;
    }

    #[test]
    fn leveling_t5_matches_model(actions in proptest::collection::vec(arb_action(), 1..300)) {
        check_model(MergePolicy::Leveling, 5, 8.0, &actions)?;
    }

    #[test]
    fn tiering_t3_matches_model(actions in proptest::collection::vec(arb_action(), 1..300)) {
        check_model(MergePolicy::Tiering, 3, 8.0, &actions)?;
    }

    #[test]
    fn unfiltered_matches_model(actions in proptest::collection::vec(arb_action(), 1..200)) {
        check_model(MergePolicy::Tiering, 2, 0.0, &actions)?;
    }

    /// Recovery property: any committed prefix of operations survives a
    /// crash (drop without shutdown) on a directory-backed store.
    #[test]
    fn recovery_preserves_committed_operations(
        actions in proptest::collection::vec(arb_action(), 1..120),
        case in any::<u64>(),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "monkey-prop-rec-{}-{case}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = || {
            DbOptions::at_path(&dir)
                .page_size(256)
                .buffer_capacity(512)
                .size_ratio(2)
                .merge_policy(MergePolicy::Leveling)
                .uniform_filters(8.0)
        };
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        {
            let db = Db::open(opts()).unwrap();
            for action in &actions {
                match action {
                    Action::Put(k, v) => {
                        db.put(key(*k), value(*k, *v)).unwrap();
                        model.insert(key(*k), value(*k, *v));
                    }
                    Action::Delete(k) => {
                        db.delete(key(*k)).unwrap();
                        model.remove(&key(*k));
                    }
                    Action::Flush => db.flush().unwrap(),
                    _ => {}
                }
            }
            // crash: drop without flush
        }
        let db = Db::open(opts()).unwrap();
        let got: Vec<(Vec<u8>, Vec<u8>)> = db
            .range(b"", None)
            .unwrap()
            .map(|kv| {
                let (k, v) = kv.unwrap();
                (k.to_vec(), v.to_vec())
            })
            .collect();
        let want: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert_eq!(got, want);
    }
}
