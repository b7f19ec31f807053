//! The Bloom filter proper, plus the variant-dispatching [`Filter`] wrapper
//! and the versioned on-disk filter format.
//!
//! # On-disk format
//!
//! An encoded filter is a magic `u32` whose low byte carries the filter
//! *flavor*, then `hashes: u32 | entries: u64 | bits`:
//!
//! ```text
//! 0xFFFF_FF00  standard flat filter, fast-range probe reduction
//! 0xFFFF_FF01  cache-line-blocked filter
//! ```
//!
//! A stream that opens with neither magic is not a filter.

use crate::bits::BitVec;
use crate::blocked::BlockedBloomFilter;
use crate::hash::{hash_pair, probe, HashPair};
use crate::math;

/// Format magic of the standard flat filter with fast-range probes.
pub(crate) const MAGIC_STANDARD: u32 = 0xFFFF_FF00;
/// Format magic of the cache-line-blocked filter.
pub(crate) const MAGIC_BLOCKED: u32 = 0xFFFF_FF01;

/// A Bloom filter over byte-string keys.
///
/// Construction fixes the number of bits and hash functions; see
/// [`BloomFilterBuilder`] for choosing them from a memory budget or a target
/// false positive rate, as Monkey's per-level allocation does.
///
/// A filter built with zero bits is a valid degenerate filter that reports
/// *maybe* for every key (false positive rate 1) — this is how Monkey models
/// "unfiltered" deep levels, where the optimal FPR converges to 1 and the
/// filter ceases to exist (paper §4.1).
#[derive(Debug, Clone)]
pub struct BloomFilter {
    bits: BitVec,
    hashes: u32,
    entries: u64,
}

impl BloomFilter {
    /// Creates a filter sized for `expected_entries` keys at `bits_per_entry`
    /// bits each, with the optimal hash count for that budget.
    ///
    /// `bits_per_entry <= 0` yields the degenerate always-positive filter.
    pub fn with_bits_per_entry(expected_entries: u64, bits_per_entry: f64) -> Self {
        BloomFilterBuilder::new(expected_entries)
            .bits_per_entry(bits_per_entry)
            .build()
    }

    /// Creates a filter sized for `expected_entries` keys at the target
    /// false positive rate `fpr` (Equation 2 rearranged).
    pub fn with_fpr(expected_entries: u64, fpr: f64) -> Self {
        BloomFilterBuilder::new(expected_entries).fpr(fpr).build()
    }

    /// Inserts a pre-hashed key.
    pub fn insert_hashed(&mut self, pair: HashPair) {
        self.entries += 1;
        if self.bits.is_empty() {
            return;
        }
        for i in 0..self.hashes {
            self.bits.set(probe(pair, i, self.bits.len()));
        }
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: &[u8]) {
        self.insert_hashed(hash_pair(key));
    }

    /// Tests a pre-hashed key. `false` means definitely absent.
    pub fn contains_hashed(&self, pair: HashPair) -> bool {
        if self.bits.is_empty() {
            return true; // degenerate filter: always a (possible) positive
        }
        (0..self.hashes).all(|i| self.bits.get(probe(pair, i, self.bits.len())))
    }

    /// Tests a key. `false` means the key is definitely absent; `true` means
    /// it may be present.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.contains_hashed(hash_pair(key))
    }

    /// Number of bits in the filter's bit array.
    pub fn nbits(&self) -> usize {
        self.bits.len()
    }

    /// Number of hash functions.
    pub fn hash_count(&self) -> u32 {
        self.hashes
    }

    /// Number of keys inserted so far.
    pub fn inserted(&self) -> u64 {
        self.entries
    }

    /// Main-memory footprint of the filter in bits (bit array, rounded up to
    /// whole words). This is what counts against `M_filters` in the model.
    pub fn memory_bits(&self) -> usize {
        self.bits.allocated_bits()
    }

    /// The false positive rate predicted by Equation 2 for this filter's
    /// actual bits and inserted entries.
    pub fn theoretical_fpr(&self) -> f64 {
        math::false_positive_rate(self.bits.len() as f64, self.entries as f64)
    }

    /// Serializes the filter, magic first.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&MAGIC_STANDARD.to_le_bytes());
        out.extend_from_slice(&self.hashes.to_le_bytes());
        out.extend_from_slice(&self.entries.to_le_bytes());
        self.bits.encode(out);
    }

    /// Deserializes a filter produced by [`encode`](Self::encode). Returns
    /// the filter and bytes consumed, or `None` on truncated input or any
    /// other leading word than the flat filter's magic.
    pub fn decode(buf: &[u8]) -> Option<(Self, usize)> {
        if buf.len() < 16 || buf[..4] != MAGIC_STANDARD.to_le_bytes() {
            return None;
        }
        let hashes = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        let entries = u64::from_le_bytes(buf[8..16].try_into().unwrap());
        let (bits, used) = BitVec::decode(&buf[16..])?;
        Some((
            Self {
                bits,
                hashes,
                entries,
            },
            16 + used,
        ))
    }
}

/// Builder fixing a filter's geometry from a memory budget or FPR target.
#[derive(Debug, Clone)]
pub struct BloomFilterBuilder {
    expected_entries: u64,
    total_bits: usize,
    hashes: Option<u32>,
}

impl BloomFilterBuilder {
    /// Starts a builder for a filter covering `expected_entries` keys.
    /// Without further configuration, builds with the LevelDB-default
    /// 10 bits per entry.
    pub fn new(expected_entries: u64) -> Self {
        Self {
            expected_entries,
            total_bits: (expected_entries as usize).saturating_mul(10),
            hashes: None,
        }
    }

    /// Allocates `bpe` bits per expected entry. Non-positive budgets yield
    /// the degenerate always-positive filter.
    pub fn bits_per_entry(mut self, bpe: f64) -> Self {
        let bits = (bpe * self.expected_entries as f64).round();
        self.total_bits = if bits.is_finite() && bits > 0.0 {
            bits as usize
        } else {
            0
        };
        self
    }

    /// Allocates an absolute number of bits.
    pub fn total_bits(mut self, bits: usize) -> Self {
        self.total_bits = bits;
        self
    }

    /// Sizes the filter for a target false positive rate via Equation 2.
    /// An `fpr >= 1` yields the degenerate filter.
    pub fn fpr(mut self, fpr: f64) -> Self {
        let bits = math::bits_for_fpr(self.expected_entries as f64, fpr);
        self.total_bits = bits.round() as usize;
        self
    }

    /// Overrides the hash count (otherwise the Eq.-2-optimal count is used).
    pub fn hash_count(mut self, k: u32) -> Self {
        self.hashes = Some(k.max(1));
        self
    }

    /// Builds the filter.
    pub fn build(self) -> BloomFilter {
        let hashes = if self.total_bits == 0 || self.expected_entries == 0 {
            1
        } else {
            self.hashes.unwrap_or_else(|| {
                math::optimal_hash_count(self.total_bits as f64 / self.expected_entries as f64)
            })
        };
        BloomFilter {
            bits: BitVec::new(self.total_bits),
            hashes,
            entries: 0,
        }
    }
}

/// Which filter layout a run uses; the per-`Db` knob behind
/// `DbOptions::filter_variant` in the engine crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FilterVariant {
    /// Flat bit array probed by double hashing — best accuracy per bit.
    #[default]
    Standard,
    /// Cache-line-blocked: all `k` probes inside one 512-bit block — at most
    /// one cache miss per negative probe, slightly worse FPR per bit.
    Blocked,
}

impl FilterVariant {
    /// Short lowercase name (for manifests and CSV output).
    pub fn name(self) -> &'static str {
        match self {
            Self::Standard => "standard",
            Self::Blocked => "blocked",
        }
    }

    /// Parses [`name`](Self::name)'s output.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "standard" => Some(Self::Standard),
            "blocked" => Some(Self::Blocked),
            _ => None,
        }
    }
}

/// A run's filter: either layout behind one interface, so the engine can
/// switch variants per database without touching the lookup path.
#[derive(Debug, Clone)]
pub enum Filter {
    /// Flat filter.
    Standard(BloomFilter),
    /// Cache-line-blocked filter.
    Blocked(BlockedBloomFilter),
}

impl Filter {
    /// Creates a filter of the given `variant` sized for `expected_entries`
    /// keys at `bits_per_entry` bits each.
    pub fn with_bits_per_entry(
        variant: FilterVariant,
        expected_entries: u64,
        bits_per_entry: f64,
    ) -> Self {
        match variant {
            FilterVariant::Standard => Self::Standard(BloomFilter::with_bits_per_entry(
                expected_entries,
                bits_per_entry,
            )),
            FilterVariant::Blocked => Self::Blocked(BlockedBloomFilter::with_bits_per_entry(
                expected_entries,
                bits_per_entry,
            )),
        }
    }

    /// The layout of this filter.
    pub fn variant(&self) -> FilterVariant {
        match self {
            Self::Standard(_) => FilterVariant::Standard,
            Self::Blocked(_) => FilterVariant::Blocked,
        }
    }

    /// Inserts a pre-hashed key.
    pub fn insert_hashed(&mut self, pair: HashPair) {
        match self {
            Self::Standard(f) => f.insert_hashed(pair),
            Self::Blocked(f) => f.insert_hashed(pair),
        }
    }

    /// Inserts a key.
    pub fn insert(&mut self, key: &[u8]) {
        self.insert_hashed(hash_pair(key));
    }

    /// Tests a pre-hashed key. `false` means definitely absent.
    pub fn contains_hashed(&self, pair: HashPair) -> bool {
        match self {
            Self::Standard(f) => f.contains_hashed(pair),
            Self::Blocked(f) => f.contains_hashed(pair),
        }
    }

    /// Tests a key. `false` means the key is definitely absent.
    pub fn contains(&self, key: &[u8]) -> bool {
        self.contains_hashed(hash_pair(key))
    }

    /// Number of bits in the filter.
    pub fn nbits(&self) -> usize {
        match self {
            Self::Standard(f) => f.nbits(),
            Self::Blocked(f) => f.nbits(),
        }
    }

    /// Number of hash probes per key.
    pub fn hash_count(&self) -> u32 {
        match self {
            Self::Standard(f) => f.hash_count(),
            Self::Blocked(f) => f.hash_count(),
        }
    }

    /// Number of keys inserted so far.
    pub fn inserted(&self) -> u64 {
        match self {
            Self::Standard(f) => f.inserted(),
            Self::Blocked(f) => f.inserted(),
        }
    }

    /// Main-memory footprint in bits (counts against `M_filters`).
    pub fn memory_bits(&self) -> usize {
        match self {
            Self::Standard(f) => f.memory_bits(),
            Self::Blocked(f) => f.memory_bits(),
        }
    }

    /// The false positive rate predicted by the *matching* model for each
    /// layout: Equation 2 for flat filters, the Poisson block mixture for
    /// blocked ones — so expected-I/O accounting stays honest either way.
    pub fn theoretical_fpr(&self) -> f64 {
        match self {
            Self::Standard(f) => f.theoretical_fpr(),
            Self::Blocked(f) => f.theoretical_fpr(),
        }
    }

    /// Serializes the filter in its layout's format.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Self::Standard(f) => f.encode(out),
            Self::Blocked(f) => f.encode(out),
        }
    }

    /// Deserializes either flavor, told apart by the magic; `None` for a
    /// stream that opens with neither.
    pub fn decode(buf: &[u8]) -> Option<(Self, usize)> {
        if buf.len() < 4 {
            return None;
        }
        let head = u32::from_le_bytes(buf[..4].try_into().unwrap());
        if head == MAGIC_BLOCKED {
            let (f, used) = BlockedBloomFilter::decode(buf)?;
            Some((Self::Blocked(f), used))
        } else {
            let (f, used) = BloomFilter::decode(buf)?;
            Some((Self::Standard(f), used))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        let mut f = BloomFilter::with_bits_per_entry(5_000, 8.0);
        for k in &present {
            f.insert(k);
        }
        for k in &present {
            assert!(f.contains(k), "false negative");
        }
    }

    #[test]
    fn empirical_fpr_tracks_equation_two() {
        let n = 20_000u64;
        for &bpe in &[4.0, 8.0, 12.0] {
            let mut f = BloomFilter::with_bits_per_entry(n, bpe);
            for k in keys(n, 0) {
                f.insert(&k);
            }
            let probes = 50_000u64;
            let fp = keys(probes, 1).iter().filter(|k| f.contains(k)).count();
            let measured = fp as f64 / probes as f64;
            let predicted = math::false_positive_rate(bpe * n as f64, n as f64);
            // Equation 2 is asymptotic; allow 2.5x slack either way plus an
            // absolute floor for tiny rates.
            assert!(
                measured < predicted * 2.5 + 1e-3,
                "bpe={bpe}: measured {measured} vs predicted {predicted}"
            );
        }
    }

    #[test]
    fn degenerate_zero_bit_filter_always_positive() {
        let mut f = BloomFilter::with_bits_per_entry(100, 0.0);
        assert_eq!(f.nbits(), 0);
        assert!(f.contains(b"anything"));
        f.insert(b"x");
        assert!(f.contains(b"y"));
        assert_eq!(f.theoretical_fpr(), 1.0);
    }

    #[test]
    fn fpr_constructor_matches_math() {
        let f = BloomFilter::with_fpr(1000, 0.01);
        let want = math::bits_for_fpr(1000.0, 0.01).round() as usize;
        assert_eq!(f.nbits(), want);
    }

    #[test]
    fn fpr_of_one_builds_degenerate_filter() {
        let f = BloomFilter::with_fpr(1000, 1.0);
        assert_eq!(f.nbits(), 0);
        assert!(f.contains(b"anything"));
    }

    #[test]
    fn builder_hash_count_override() {
        let f = BloomFilterBuilder::new(10)
            .bits_per_entry(10.0)
            .hash_count(3)
            .build();
        assert_eq!(f.hash_count(), 3);
    }

    #[test]
    fn builder_default_is_ten_bits_per_entry() {
        let f = BloomFilterBuilder::new(100).build();
        assert_eq!(f.nbits(), 1000);
        assert_eq!(f.hash_count(), 7);
    }

    #[test]
    fn encode_decode_roundtrip_preserves_behaviour() {
        let mut f = BloomFilter::with_bits_per_entry(500, 10.0);
        for k in keys(500, 3) {
            f.insert(&k);
        }
        let mut buf = Vec::new();
        f.encode(&mut buf);
        let (g, used) = BloomFilter::decode(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(g.nbits(), f.nbits());
        assert_eq!(g.hash_count(), f.hash_count());
        assert_eq!(g.inserted(), 500);
        for k in keys(500, 3) {
            assert!(g.contains(&k));
        }
    }

    #[test]
    fn decode_truncated_is_none() {
        let mut f = BloomFilter::with_bits_per_entry(10, 10.0);
        f.insert(b"k");
        let mut buf = Vec::new();
        f.encode(&mut buf);
        for cut in [0, 5, 11, buf.len() - 1] {
            assert!(BloomFilter::decode(&buf[..cut]).is_none(), "cut={cut}");
        }
    }

    #[test]
    fn memory_bits_counts_whole_words() {
        let f = BloomFilterBuilder::new(1).total_bits(65).build();
        assert_eq!(f.memory_bits(), 128);
    }

    #[test]
    fn new_filters_use_fast_range_and_magic_format() {
        let f = BloomFilter::with_bits_per_entry(10, 10.0);
        let mut buf = Vec::new();
        f.encode(&mut buf);
        assert_eq!(
            u32::from_le_bytes(buf[..4].try_into().unwrap()),
            MAGIC_STANDARD
        );
    }

    #[test]
    fn filter_enum_decodes_every_generation() {
        // Flat.
        let mut flat = Vec::new();
        BloomFilter::with_bits_per_entry(50, 10.0).encode(&mut flat);
        assert!(matches!(
            Filter::decode(&flat).unwrap().0,
            Filter::Standard(_)
        ));
        // Blocked.
        let mut blocked = Vec::new();
        BlockedBloomFilter::with_bits_per_entry(50, 10.0).encode(&mut blocked);
        let (f, used) = Filter::decode(&blocked).unwrap();
        assert_eq!(used, blocked.len());
        assert_eq!(f.variant(), FilterVariant::Blocked);
    }

    #[test]
    fn filter_enum_roundtrip_both_variants() {
        for variant in [FilterVariant::Standard, FilterVariant::Blocked] {
            let mut f = Filter::with_bits_per_entry(variant, 300, 10.0);
            for k in keys(300, 9) {
                f.insert(&k);
            }
            let mut buf = Vec::new();
            f.encode(&mut buf);
            let (g, used) = Filter::decode(&buf).unwrap();
            assert_eq!(used, buf.len());
            assert_eq!(g.variant(), variant);
            assert_eq!(g.inserted(), 300);
            for k in keys(300, 9) {
                assert!(g.contains(&k), "{variant:?} false negative after roundtrip");
            }
            assert!(g.theoretical_fpr() > 0.0 && g.theoretical_fpr() < 0.1);
        }
    }

    #[test]
    fn filter_variant_names_roundtrip() {
        for v in [FilterVariant::Standard, FilterVariant::Blocked] {
            assert_eq!(FilterVariant::parse(v.name()), Some(v));
        }
        assert_eq!(FilterVariant::parse("bogus"), None);
        assert_eq!(FilterVariant::default(), FilterVariant::Standard);
    }

    #[test]
    fn hashed_and_keyed_paths_are_bit_identical() {
        use crate::hash::hash_pair;
        let mut a = BloomFilter::with_bits_per_entry(1000, 10.0);
        let mut b = BloomFilter::with_bits_per_entry(1000, 10.0);
        for k in keys(1000, 4) {
            a.insert(&k);
            b.insert_hashed(hash_pair(&k));
        }
        for k in keys(2000, 5) {
            assert_eq!(a.contains(&k), b.contains_hashed(hash_pair(&k)));
        }
    }

    /// `Filter::decode` returns, and whatever it accepts re-encodes to
    /// exactly the bytes it says it consumed.
    fn decodes_faithfully(buf: &[u8]) -> Result<(), TestCaseError> {
        if let Some((f, used)) = Filter::decode(buf) {
            prop_assert!(used <= buf.len(), "consumed {used} of {} bytes", buf.len());
            let mut again = Vec::new();
            f.encode(&mut again);
            prop_assert_eq!(
                &again[..],
                &buf[..used],
                "accepted bytes re-encode differently"
            );
        }
        Ok(())
    }

    /// The length field both layouts keep at bytes 16..24: the bit count of
    /// a flat filter, the word count of a blocked one.
    const LENGTH_FIELD: std::ops::Range<usize> = 16..24;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn decode_never_panics_on_arbitrary_bytes(
            magic in 0u8..3,
            bytes in collection::vec(any::<u8>(), 0..120),
        ) {
            // Most cases open with a real magic so the bytes reach a decoder.
            let mut buf = match magic {
                0 => MAGIC_STANDARD.to_le_bytes().to_vec(),
                1 => MAGIC_BLOCKED.to_le_bytes().to_vec(),
                _ => Vec::new(),
            };
            buf.extend_from_slice(&bytes);
            decodes_faithfully(&buf)?;
        }

        #[test]
        fn decode_never_panics_on_mutated_filters(
            blocked in any::<bool>(),
            entries in 0u64..200,
            bits_per_entry in 0u8..16,
            mutation in 0u8..4,
            at in any::<u16>(),
            n in any::<u64>(),
        ) {
            let variant = if blocked { FilterVariant::Blocked } else { FilterVariant::Standard };
            let mut f = Filter::with_bits_per_entry(variant, entries, f64::from(bits_per_entry));
            for k in keys(entries, 7) {
                f.insert(&k);
            }
            let mut buf = Vec::new();
            f.encode(&mut buf);
            let (_, used) = Filter::decode(&buf).expect("a valid encoding decodes");
            prop_assert_eq!(used, buf.len());
            let at = at as usize % buf.len();
            match mutation {
                0 => buf.truncate(at),
                1 => buf[at] ^= 1 << (n % 8),
                // A random length, and one whose byte length is a whole
                // multiple of 2^64 plus a few blocks' worth.
                2 => buf[LENGTH_FIELD].copy_from_slice(&n.to_le_bytes()),
                _ => {
                    let wraps = ((n % 7 + 1) << 61) | ((n >> 8) % 4 * 8);
                    buf[LENGTH_FIELD].copy_from_slice(&wraps.to_le_bytes());
                }
            }
            decodes_faithfully(&buf)?;
        }
    }
}
