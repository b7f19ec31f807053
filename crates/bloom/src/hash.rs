//! Hashing for the Bloom filter, and the store's checksums.
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
//!
//! [`long_hash`] is for inputs of hundreds of bytes and more — a page's
//! checksum. It takes the shape of XXH3-64's long-input path (again not its
//! output): eight `u64` accumulators over 64-byte stripes, each lane adding
//! its neighbour's raw word and the product of the low and high halves of
//! its own word keyed by a fixed secret, the accumulators scrambled once a
//! kilobyte and folded together at the end. Lane by lane, the same
//! operations on independent words: the compiler turns a stripe into a few
//! vector instructions on the x86-64 baseline (SSE2), where XXH64's four
//! serial chains stay scalar.

const PRIME64_1: u64 = 0x9E3779B185EBCA87;
const PRIME64_2: u64 = 0xC2B2AE3D4F4E5425;
const PRIME64_3: u64 = 0x165667B19E3779F9;
const PRIME64_4: u64 = 0x85EBCA77C2B2AE63;
const PRIME64_5: u64 = 0x27D4EB2F165667C5;

const PRIME32_1: u64 = 0x9E3779B1;
const PRIME32_2: u64 = 0x85EBCA77;
const PRIME32_3: u64 = 0xC2B2AE3D;

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

/// Bytes of one stripe of [`long_hash`]: a word for each of its eight
/// accumulators.
const STRIPE: usize = 64;

/// Stripes between two scrambles of [`long_hash`]'s accumulators: 1 KiB.
const STRIPES_PER_BLOCK: usize = 16;

/// [`long_hash`]'s fixed secret, drawn once from splitmix64: stripe `j` of
/// a block keys its eight words with words `j..j + 8`, the scramble xors in
/// the next eight ([`SCRAMBLE`]) and the fold the eight after those
/// ([`FOLD`]).
const SECRET: [u64; STRIPES_PER_BLOCK + 7 + 16] = {
    let mut secret = [0; STRIPES_PER_BLOCK + 7 + 16];
    let mut state: u64 = 0x4C4F_4E47_4841_5348; // "LONGHASH"
    let mut i = 0;
    while i < secret.len() {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        secret[i] = z ^ (z >> 31);
        i += 1;
    }
    secret
};

/// Where the scramble's words start in [`SECRET`].
const SCRAMBLE: usize = STRIPES_PER_BLOCK + 7;

/// Where the fold's words start in [`SECRET`].
const FOLD: usize = SCRAMBLE + 8;

/// Folds one 64-byte stripe into the accumulators, each lane independent
/// of the others: lane `i` adds its neighbour's word (`i ^ 1`) and the
/// product of the low and high 32 bits of its own word keyed by `key[i]`.
#[inline(always)]
fn accumulate(acc: &mut [u64; 8], stripe: &[u8], key: &[u64]) {
    let mut words = [0u64; 8];
    for (word, bytes) in words.iter_mut().zip(stripe.chunks_exact(8)) {
        *word = u64::from_le_bytes(bytes.try_into().unwrap());
    }
    for i in 0..8 {
        let keyed = words[i] ^ key[i];
        let product = (keyed & 0xFFFF_FFFF).wrapping_mul(keyed >> 32);
        acc[i] = acc[i].wrapping_add(words[i ^ 1]).wrapping_add(product);
    }
}

/// Mixes each accumulator's high bits into its low ones after a block, so
/// the products of later stripes multiply well-mixed words.
#[inline(always)]
fn scramble(acc: &mut [u64; 8]) {
    for (acc, secret) in acc.iter_mut().zip(&SECRET[SCRAMBLE..]) {
        *acc = (*acc ^ (*acc >> 47) ^ secret).wrapping_mul(PRIME32_1);
    }
}

/// The full 128-bit product of `a` and `b`, its two halves xored.
#[inline]
fn mul_fold(a: u64, b: u64) -> u64 {
    let product = a as u128 * b as u128;
    product as u64 ^ (product >> 64) as u64
}

/// A 64-bit hash of `data` for long inputs, in XXH3-64's long-input shape
/// (see the module doc). One function for every length: a short last stripe
/// is padded with zeros and the length is mixed in, so padding never
/// collides with data. The seed enters with the length at the fold, where
/// any change to it changes the hash.
pub fn long_hash(data: &[u8], seed: u64) -> u64 {
    let mut acc = [
        PRIME32_3, PRIME64_1, PRIME64_2, PRIME64_3, PRIME64_4, PRIME32_2, PRIME64_5, PRIME32_1,
    ];
    let mut blocks = data.chunks_exact(STRIPE * STRIPES_PER_BLOCK);
    for block in &mut blocks {
        for (j, stripe) in block.chunks_exact(STRIPE).enumerate() {
            accumulate(&mut acc, stripe, &SECRET[j..j + 8]);
        }
        scramble(&mut acc);
    }
    let mut stripes = blocks.remainder().chunks_exact(STRIPE);
    let mut j = 0;
    for stripe in &mut stripes {
        accumulate(&mut acc, stripe, &SECRET[j..j + 8]);
        j += 1;
    }
    let rest = stripes.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; STRIPE];
        last[..rest.len()].copy_from_slice(rest);
        accumulate(&mut acc, &last, &SECRET[j..j + 8]);
    }
    let mut h = (data.len() as u64).wrapping_mul(PRIME64_1) ^ seed;
    for (pair, secret) in acc.chunks_exact(2).zip(SECRET[FOLD..].chunks_exact(2)) {
        h = h.wrapping_add(mul_fold(pair[0] ^ secret[0], pair[1] ^ secret[1]));
    }
    h ^= h >> 37;
    h = h.wrapping_mul(0x1656_6791_9E37_79F9);
    h ^ (h >> 32)
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

    /// `data`'s bytes, deterministic and irregular.
    fn bytes(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B1) >> 11) as u8)
            .collect()
    }

    #[test]
    fn long_hash_pinned_vectors() {
        // Pages checksum with this hash: these pin it (vectors produced by
        // this implementation, asserted stable forever).
        assert_eq!(long_hash(b"", 0), 0xc940_771a_fbf3_1920);
        assert_eq!(long_hash(&bytes(64), 0), 0xf5e2_3e03_369b_f56e);
        assert_eq!(long_hash(&bytes(1024), 1), 0x5772_cef9_492a_db0a);
        assert_eq!(long_hash(&bytes(4086), 7), 0x5b27_e45f_bb74_c85e);
    }

    #[test]
    fn long_hash_pads_and_counts_the_length() {
        // A zero byte more is not the same input, though it pads alike;
        // nor is any cut across stripe and block boundaries.
        let data = bytes(4096);
        let mut seen = std::collections::HashSet::new();
        for len in [
            0, 1, 7, 8, 63, 64, 65, 127, 128, 1023, 1024, 1025, 1088, 4086, 4096,
        ] {
            assert!(
                seen.insert(long_hash(&data[..len], 3)),
                "collision at {len}"
            );
        }
        let padded = [&data[..100], &[0u8]].concat();
        assert_ne!(long_hash(&data[..100], 3), long_hash(&padded, 3));
        assert_ne!(long_hash(&data, 3), long_hash(&data, 4), "seeded");
    }

    #[test]
    fn long_hash_avalanche_quality() {
        // Over a page-sized input, a flipped bit in any lane, stripe or
        // block flips about half the output bits.
        let base = bytes(4086);
        let h0 = long_hash(&base, 0);
        let (mut total, mut cases) = (0u32, 0u32);
        for byte in (0..base.len()).step_by(37) {
            for bit in 0..8 {
                let mut m = base.clone();
                m[byte] ^= 1 << bit;
                total += (long_hash(&m, 0) ^ h0).count_ones();
                cases += 1;
            }
        }
        let avg = total as f64 / cases as f64;
        assert!((28.0..36.0).contains(&avg), "avalanche average {avg}");
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
