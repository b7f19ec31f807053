//! Property-based tests for the Bloom filter crate.

use monkey_bloom::{
    hash_pair, math, BitVec, BlockedBloomFilter, BloomFilter, BloomFilterBuilder, Filter,
};
use proptest::prelude::*;

proptest! {
    /// A Bloom filter never produces a false negative, for any key set and
    /// any (positive) memory budget.
    #[test]
    fn no_false_negatives(
        keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 1..200),
        bpe in 0.5f64..20.0,
    ) {
        let mut f = BloomFilter::with_bits_per_entry(keys.len() as u64, bpe);
        for k in &keys {
            f.insert(k);
        }
        for k in &keys {
            prop_assert!(f.contains(k));
        }
    }

    /// Filter serialization round-trips exactly: same geometry, same answers.
    #[test]
    fn filter_encode_decode_roundtrip(
        keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..16), 0..100),
        bpe in 0.0f64..16.0,
    ) {
        let mut f = BloomFilter::with_bits_per_entry(keys.len().max(1) as u64, bpe);
        for k in &keys {
            f.insert(k);
        }
        let mut buf = Vec::new();
        f.encode(&mut buf);
        let (g, used) = BloomFilter::decode(&buf).unwrap();
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(g.nbits(), f.nbits());
        prop_assert_eq!(g.hash_count(), f.hash_count());
        for k in &keys {
            prop_assert!(g.contains(k));
        }
    }

    /// A stream that opens with neither flavor's magic is not a filter,
    /// whatever follows — a plausible hash count, an entry count and a bit
    /// vector included: `None`, never a panic.
    #[test]
    fn magicless_stream_is_not_a_filter(
        head in 0u32..0xFFFF_FF00,
        tail in proptest::collection::vec(any::<u8>(), 0..256),
        keys in 0u64..50,
    ) {
        let mut random = head.to_le_bytes().to_vec();
        random.extend_from_slice(&tail);
        prop_assert!(Filter::decode(&random).is_none());
        prop_assert!(Filter::decode(&random[..random.len().min(3)]).is_none());
        // A well-formed filter with its magic cut off.
        let mut f = BloomFilter::with_bits_per_entry(keys.max(1), 10.0);
        for k in 0..keys {
            f.insert(&k.to_le_bytes());
        }
        let mut encoded = Vec::new();
        f.encode(&mut encoded);
        prop_assert!(Filter::decode(&encoded[4..]).is_none());
        prop_assert!(Filter::decode(&encoded).is_some());
    }

    /// BitVec set/get agree with a model `Vec<bool>`.
    #[test]
    fn bitvec_matches_model(len in 1usize..512, idxs in proptest::collection::vec(any::<usize>(), 0..100)) {
        let mut bv = BitVec::new(len);
        let mut model = vec![false; len];
        for &i in &idxs {
            let i = i % len;
            let was = bv.set(i);
            prop_assert_eq!(was, model[i]);
            model[i] = true;
        }
        for (i, &want) in model.iter().enumerate() {
            prop_assert_eq!(bv.get(i), want);
        }
        prop_assert_eq!(bv.count_ones(), model.iter().filter(|&&b| b).count());
    }

    /// BitVec serialization round-trips for arbitrary lengths.
    #[test]
    fn bitvec_encode_decode(len in 0usize..300, idxs in proptest::collection::vec(any::<usize>(), 0..64)) {
        let mut bv = BitVec::new(len);
        for &i in &idxs {
            if len > 0 {
                bv.set(i % len);
            }
        }
        let mut buf = Vec::new();
        bv.encode(&mut buf);
        let (back, used) = BitVec::decode(&buf).unwrap();
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(back, bv);
    }

    /// Equation 2 and its inverse stay consistent across the whole range the
    /// model uses.
    #[test]
    fn eq2_inverse_consistency(entries in 1.0f64..1e9, fpr in 1e-9f64..1.0) {
        let bits = math::bits_for_fpr(entries, fpr);
        let back = math::false_positive_rate(bits, entries);
        prop_assert!((back - fpr).abs() / fpr < 1e-9, "fpr {} -> bits {} -> {}", fpr, bits, back);
    }

    /// More memory never increases the theoretical FPR.
    #[test]
    fn fpr_monotone(entries in 1.0f64..1e6, b1 in 0.0f64..1e7, b2 in 0.0f64..1e7) {
        let (lo, hi) = if b1 < b2 { (b1, b2) } else { (b2, b1) };
        prop_assert!(math::false_positive_rate(hi, entries) <= math::false_positive_rate(lo, entries));
    }

    /// Builder geometry: requested total bits are honored exactly.
    #[test]
    fn builder_total_bits(n in 1u64..1000, bits in 0usize..10_000) {
        let f = BloomFilterBuilder::new(n).total_bits(bits).build();
        prop_assert_eq!(f.nbits(), bits);
    }

    /// The hashed-probe fast path is bit-identical to the keyed path on the
    /// standard filter: inserting/querying via a precomputed `HashPair`
    /// answers exactly like inserting/querying the key itself.
    #[test]
    fn hashed_path_bit_identical(
        keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 1..150),
        probes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 0..150),
        bpe in 0.5f64..16.0,
    ) {
        let n = keys.len() as u64;
        let mut by_key = BloomFilter::with_bits_per_entry(n, bpe);
        let mut by_hash = BloomFilter::with_bits_per_entry(n, bpe);
        for k in &keys {
            by_key.insert(k);
            by_hash.insert_hashed(hash_pair(k));
        }
        let mut a = Vec::new();
        let mut b = Vec::new();
        by_key.encode(&mut a);
        by_hash.encode(&mut b);
        prop_assert_eq!(a, b, "identical bit patterns");
        for q in keys.iter().chain(probes.iter()) {
            let pair = hash_pair(q);
            prop_assert_eq!(by_key.contains(q), by_key.contains_hashed(pair));
            prop_assert_eq!(by_key.contains(q), by_hash.contains(q));
        }
    }

    /// Blocked filters, like standard ones, never produce a false negative.
    #[test]
    fn blocked_no_false_negatives(
        keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 1..200),
        bpe in 0.5f64..20.0,
    ) {
        let mut f = BlockedBloomFilter::with_bits_per_entry(keys.len() as u64, bpe);
        for k in &keys {
            f.insert(k);
        }
        for k in &keys {
            prop_assert!(f.contains(k));
            prop_assert!(f.contains_hashed(hash_pair(k)));
        }
    }

    /// Blocked-filter serialization round-trips exactly.
    #[test]
    fn blocked_encode_decode_roundtrip(
        keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..16), 0..100),
        bpe in 0.0f64..16.0,
    ) {
        let mut f = BlockedBloomFilter::with_bits_per_entry(keys.len().max(1) as u64, bpe);
        for k in &keys {
            f.insert(k);
        }
        let mut buf = Vec::new();
        f.encode(&mut buf);
        let (g, used) = BlockedBloomFilter::decode(&buf).unwrap();
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(g.nbits(), f.nbits());
        prop_assert_eq!(g.hash_count(), f.hash_count());
        for k in &keys {
            prop_assert!(g.contains(k));
        }
    }
}

/// Measured blocked-filter FPR stays within tolerance of the corrected
/// (Poisson block-occupancy) model across the bits-per-entry range the
/// experiments use. Deterministic, not proptest: the tolerance needs a
/// fixed, large sample.
#[test]
fn blocked_fpr_tracks_corrected_model() {
    const N: u64 = 20_000;
    for bpe in [2.0f64, 5.0, 10.0] {
        let mut f = BlockedBloomFilter::with_bits_per_entry(N, bpe);
        for i in 0..N {
            f.insert(format!("member{i:08}").as_bytes());
        }
        let trials = 200_000u64;
        let mut fp = 0u64;
        for i in 0..trials {
            if f.contains(format!("absent{i:08}").as_bytes()) {
                fp += 1;
            }
        }
        let measured = fp as f64 / trials as f64;
        let model = f.theoretical_fpr();
        assert!(
            measured < model * 2.0 + 1e-4 && measured > model / 2.0 - 1e-4,
            "bpe {bpe}: measured {measured:.5} vs model {model:.5}"
        );
    }
}
