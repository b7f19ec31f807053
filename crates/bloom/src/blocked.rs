//! Cache-line-blocked Bloom filter (Putze, Sanders, Singler 2007).
//!
//! A flat Bloom filter touches `k` random cache lines per probe; on filters
//! larger than the last-level cache that is `k` memory stalls on the point
//! lookup hot path. The blocked variant first maps a key to one 512-bit
//! (64-byte) block — exactly one cache line — and derives all `k` probe bits
//! *inside* that block, so a negative probe costs at most one cache miss.
//!
//! The price is accuracy: block loads fluctuate around the mean, and
//! overloaded blocks false-positive far more often than Equation 2 predicts.
//! [`BlockedBloomFilter::theoretical_fpr`] therefore uses the honest Poisson
//! mixture model in [`math::blocked_false_positive_rate`], never Equation 2,
//! so the engine's expected-I/O accounting stays truthful when this variant
//! is selected.

use crate::hash::{fast_range, hash_pair, HashPair};
use crate::math;

/// Words (u64) per block: 512 bits = 64 bytes = one cache line.
const WORDS_PER_BLOCK: usize = math::BLOCK_BITS / 64;

/// A cache-line-blocked Bloom filter over byte-string keys.
///
/// Behaves like [`crate::BloomFilter`] — including the zero-bit degenerate
/// filter that reports *maybe* for everything — but with single-cache-line
/// probe locality and the matching (worse) false positive model.
#[derive(Debug, Clone)]
pub struct BlockedBloomFilter {
    /// Bit storage, `WORDS_PER_BLOCK` words per block.
    words: Vec<u64>,
    hashes: u32,
    entries: u64,
}

impl BlockedBloomFilter {
    /// Creates a filter sized for `expected_entries` keys at `bits_per_entry`
    /// bits each, rounded up to whole 512-bit blocks, with the Eq.-2-optimal
    /// hash count for the requested budget.
    ///
    /// `bits_per_entry <= 0` yields the degenerate always-positive filter.
    pub fn with_bits_per_entry(expected_entries: u64, bits_per_entry: f64) -> Self {
        let bits = bits_per_entry * expected_entries as f64;
        let (words, hashes) = if bits.is_finite() && bits >= 1.0 && expected_entries > 0 {
            let blocks = (bits / math::BLOCK_BITS as f64).ceil() as usize;
            (
                vec![0u64; blocks * WORDS_PER_BLOCK],
                math::optimal_hash_count(bits_per_entry),
            )
        } else {
            (Vec::new(), 1)
        };
        Self {
            words,
            hashes,
            entries: 0,
        }
    }

    /// The block index for a key: `h1` fast-ranged over the block count.
    #[inline]
    fn block_of(&self, pair: HashPair) -> usize {
        fast_range(pair.h1, (self.words.len() / WORDS_PER_BLOCK) as u64) as usize
    }

    /// Bit offset of probe `i` inside the key's block: double hashing with
    /// origin `h2` and an odd stride derived from `h1`, masked to the block.
    /// (`h1`'s low bits are nearly independent of the block choice, which
    /// fast-range takes from its high bits.)
    #[inline]
    fn bit_in_block(pair: HashPair, i: u32) -> usize {
        (pair.h2.wrapping_add((i as u64).wrapping_mul(pair.h1 | 1)) & (math::BLOCK_BITS as u64 - 1))
            as usize
    }

    /// Inserts a pre-hashed key.
    pub fn insert_hashed(&mut self, pair: HashPair) {
        self.entries += 1;
        if self.words.is_empty() {
            return;
        }
        let base = self.block_of(pair) * WORDS_PER_BLOCK;
        for i in 0..self.hashes {
            let bit = Self::bit_in_block(pair, i);
            self.words[base + (bit >> 6)] |= 1u64 << (bit & 63);
        }
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: &[u8]) {
        self.insert_hashed(hash_pair(key));
    }

    /// Tests a pre-hashed key. `false` means definitely absent.
    pub fn contains_hashed(&self, pair: HashPair) -> bool {
        if self.words.is_empty() {
            return true; // degenerate filter: always a (possible) positive
        }
        let base = self.block_of(pair) * WORDS_PER_BLOCK;
        (0..self.hashes).all(|i| {
            let bit = Self::bit_in_block(pair, i);
            self.words[base + (bit >> 6)] & (1u64 << (bit & 63)) != 0
        })
    }

    /// Tests a key. `false` means the key is definitely absent; `true` means
    /// it may be present.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.contains_hashed(hash_pair(key))
    }

    /// Number of bits in the filter (always a multiple of 512).
    pub fn nbits(&self) -> usize {
        self.words.len() * 64
    }

    /// Number of probe bits per key.
    pub fn hash_count(&self) -> u32 {
        self.hashes
    }

    /// Number of keys inserted so far.
    pub fn inserted(&self) -> u64 {
        self.entries
    }

    /// Main-memory footprint in bits. Blocks are whole words, so this equals
    /// [`nbits`](Self::nbits).
    pub fn memory_bits(&self) -> usize {
        self.nbits()
    }

    /// The false positive rate predicted by the Poisson-mixture block model
    /// for this filter's actual geometry and inserted entries. Deliberately
    /// *not* Equation 2 — see the module docs.
    pub fn theoretical_fpr(&self) -> f64 {
        math::blocked_false_positive_rate(self.nbits() as f64, self.entries as f64, self.hashes)
    }

    /// Serializes the filter: format magic, hash count, entry count, word
    /// count, then the words.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&crate::filter::MAGIC_BLOCKED.to_le_bytes());
        out.extend_from_slice(&self.hashes.to_le_bytes());
        out.extend_from_slice(&self.entries.to_le_bytes());
        out.extend_from_slice(&(self.words.len() as u64).to_le_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Deserializes a filter produced by [`encode`](Self::encode). Returns
    /// the filter and bytes consumed, or `None` on truncated or foreign
    /// input — including a word count whose byte length overflows.
    pub fn decode(buf: &[u8]) -> Option<(Self, usize)> {
        if buf.len() < 24 {
            return None;
        }
        let magic = u32::from_le_bytes(buf[..4].try_into().unwrap());
        if magic != crate::filter::MAGIC_BLOCKED {
            return None;
        }
        let hashes = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        let entries = u64::from_le_bytes(buf[8..16].try_into().unwrap());
        let nwords = usize::try_from(u64::from_le_bytes(buf[16..24].try_into().unwrap())).ok()?;
        let end = nwords.checked_mul(8)?.checked_add(24)?;
        if !nwords.is_multiple_of(WORDS_PER_BLOCK) || buf.len() < end {
            return None;
        }
        let words = buf[24..end]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Some((
            Self {
                words,
                hashes,
                entries,
            },
            end,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64, tag: u8) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let mut k = vec![tag];
                k.extend_from_slice(&i.to_be_bytes());
                k
            })
            .collect()
    }

    #[test]
    fn no_false_negatives() {
        let present = keys(5_000, 0);
        let mut f = BlockedBloomFilter::with_bits_per_entry(5_000, 8.0);
        for k in &present {
            f.insert(k);
        }
        for k in &present {
            assert!(f.contains(k), "false negative");
        }
    }

    #[test]
    fn all_probes_stay_in_one_block() {
        for key in [b"a".as_slice(), b"longer key material", b""] {
            let pair = hash_pair(key);
            for i in 0..64 {
                assert!(BlockedBloomFilter::bit_in_block(pair, i) < math::BLOCK_BITS);
            }
        }
    }

    #[test]
    fn geometry_rounds_up_to_whole_blocks() {
        let f = BlockedBloomFilter::with_bits_per_entry(10, 10.0); // 100 bits
        assert_eq!(f.nbits(), math::BLOCK_BITS);
        assert_eq!(f.memory_bits(), math::BLOCK_BITS);
        let f = BlockedBloomFilter::with_bits_per_entry(1000, 10.0); // 10_000 bits
        assert_eq!(f.nbits() % math::BLOCK_BITS, 0);
        assert!(f.nbits() >= 10_000);
    }

    #[test]
    fn degenerate_zero_bit_filter_always_positive() {
        let mut f = BlockedBloomFilter::with_bits_per_entry(100, 0.0);
        assert_eq!(f.nbits(), 0);
        assert!(f.contains(b"anything"));
        f.insert(b"x");
        assert!(f.contains(b"y"));
        assert_eq!(f.theoretical_fpr(), 1.0);
    }

    #[test]
    fn empirical_fpr_tracks_poisson_model() {
        let n = 20_000u64;
        for &bpe in &[5.0, 10.0] {
            let mut f = BlockedBloomFilter::with_bits_per_entry(n, bpe);
            for k in keys(n, 0) {
                f.insert(&k);
            }
            let probes = 50_000u64;
            let fp = keys(probes, 1).iter().filter(|k| f.contains(k)).count();
            let measured = fp as f64 / probes as f64;
            let predicted = f.theoretical_fpr();
            assert!(
                measured < predicted * 2.5 + 1e-3,
                "bpe={bpe}: measured {measured} vs predicted {predicted}"
            );
            assert!(
                measured > predicted / 2.5 - 1e-3,
                "bpe={bpe}: measured {measured} vs predicted {predicted}"
            );
        }
    }

    #[test]
    fn encode_decode_roundtrip_preserves_behaviour() {
        let mut f = BlockedBloomFilter::with_bits_per_entry(500, 10.0);
        for k in keys(500, 3) {
            f.insert(&k);
        }
        let mut buf = Vec::new();
        f.encode(&mut buf);
        let (g, used) = BlockedBloomFilter::decode(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(g.nbits(), f.nbits());
        assert_eq!(g.hash_count(), f.hash_count());
        assert_eq!(g.inserted(), 500);
        for k in keys(500, 3) {
            assert!(g.contains(&k));
        }
    }

    #[test]
    fn decode_truncated_or_foreign_is_none() {
        let mut f = BlockedBloomFilter::with_bits_per_entry(10, 10.0);
        f.insert(b"k");
        let mut buf = Vec::new();
        f.encode(&mut buf);
        for cut in [0, 5, 23, buf.len() - 1] {
            assert!(
                BlockedBloomFilter::decode(&buf[..cut]).is_none(),
                "cut={cut}"
            );
        }
        // A flat-filter encoding (different magic) must not decode as a
        // blocked filter.
        let mut flat = Vec::new();
        crate::BloomFilter::with_bits_per_entry(10, 10.0).encode(&mut flat);
        assert!(BlockedBloomFilter::decode(&flat).is_none());
    }

    #[test]
    fn a_word_count_whose_byte_length_overflows_is_not_a_filter() {
        // 2^61 words are 2^64 bytes: the unchecked product wrapped to 0 and
        // decoded a 0-bit filter that answers "maybe" for every key.
        let mut buf = Vec::new();
        buf.extend_from_slice(&crate::filter::MAGIC_BLOCKED.to_le_bytes());
        buf.extend_from_slice(&7u32.to_le_bytes());
        buf.extend_from_slice(&100u64.to_le_bytes());
        buf.extend_from_slice(&(1u64 << 61).to_le_bytes());
        buf.extend_from_slice(&[0u8; 8]);
        assert_eq!(buf.len(), 32);
        assert!(BlockedBloomFilter::decode(&buf).is_none());
        assert!(crate::Filter::decode(&buf).is_none());
    }
}
