//! Bloom filters for the Monkey LSM-tree key-value store.
//!
//! This crate provides the in-memory Bloom filters that every sorted run of
//! the LSM-tree carries (one filter per run). It exposes exactly the
//! knobs the Monkey paper (SIGMOD'17) tunes:
//!
//! * the number of **bits** allocated to a filter, and
//! * the number of **entries** the filter covers,
//!
//! which together determine the false positive rate through Equation 2 of
//! the paper:
//!
//! ```text
//! FPR = e^(-(bits/entries) * ln(2)^2)
//! ```
//!
//! assuming the optimal number of hash functions `k = (bits/entries) * ln 2`.
//! The [`math`] module implements that equation and its inverses; the
//! [`BloomFilter`] type implements the filter itself using the
//! Kirsch–Mitzenmacher double-hashing scheme over a 128-bit base hash, which
//! preserves the asymptotic false-positive behaviour of truly independent
//! hash functions while computing only two.
//!
//! # Example
//!
//! ```
//! use monkey_bloom::{BloomFilter, math};
//!
//! // A filter over 1000 entries with 10 bits per entry: ~1% FPR.
//! let mut filter = BloomFilter::with_bits_per_entry(1000, 10.0);
//! filter.insert(b"hello");
//! assert!(filter.contains(b"hello"));
//! assert!(math::false_positive_rate(10_000.0, 1000.0) < 0.01);
//! ```

#![warn(missing_docs)]

pub mod bits;
pub mod blocked;
pub mod hash;
pub mod math;

mod filter;

pub use bits::BitVec;
pub use blocked::BlockedBloomFilter;
pub use filter::{BloomFilter, BloomFilterBuilder, Filter, FilterVariant};
pub use hash::{hash_pair, HashPair};
