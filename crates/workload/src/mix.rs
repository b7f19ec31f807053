//! Operation mixes and trace generation (Figure 11(F) and Table 2's
//! workload terms).

use crate::keys::KeySpace;
use rand::Rng;

/// One operation of a generated trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Insert/update a key.
    Put(Vec<u8>, Vec<u8>),
    /// Point lookup expected to find nothing (`r` in Table 2).
    GetMissing(Vec<u8>),
    /// Point lookup expected to find a value (`v`).
    GetExisting(Vec<u8>),
    /// Range scan over `[lo, hi)` (`q`).
    Range(Vec<u8>, Vec<u8>),
    /// Delete a key (counted among updates `w`).
    Delete(Vec<u8>),
}

/// Proportions of operation types (`r + v + q + w = 1`, with deletes taking
/// `delete_fraction` of the update share).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Zero-result point lookups.
    pub zero_result_lookups: f64,
    /// Non-zero-result point lookups.
    pub existing_lookups: f64,
    /// Range lookups.
    pub range_lookups: f64,
    /// Updates (puts + deletes).
    pub updates: f64,
    /// Fraction of updates that are deletes.
    pub delete_fraction: f64,
    /// Range-scan selectivity: fraction of the key space per scan.
    pub range_selectivity: f64,
}

impl OpMix {
    /// Validates and builds a mix.
    pub fn new(r: f64, v: f64, q: f64, w: f64) -> Self {
        assert!(
            ((r + v + q + w) - 1.0).abs() < 1e-9,
            "mix must sum to 1, got {}",
            r + v + q + w
        );
        Self {
            zero_result_lookups: r,
            existing_lookups: v,
            range_lookups: q,
            updates: w,
            delete_fraction: 0.0,
            range_selectivity: 0.001,
        }
    }

    /// The Figure 11(F) mix: zero-result lookups vs. updates.
    pub fn lookups_vs_updates(lookup_fraction: f64) -> Self {
        Self::new(lookup_fraction, 0.0, 0.0, 1.0 - lookup_fraction)
    }

    /// YCSB workload A: update heavy (50% reads, 50% updates).
    pub fn ycsb_a() -> Self {
        Self::new(0.0, 0.5, 0.0, 0.5)
    }

    /// YCSB workload B: read mostly (95% reads, 5% updates).
    pub fn ycsb_b() -> Self {
        Self::new(0.0, 0.95, 0.0, 0.05)
    }

    /// YCSB workload C: read only.
    pub fn ycsb_c() -> Self {
        Self::new(0.0, 1.0, 0.0, 0.0)
    }

    /// YCSB workload D: read latest (95% reads, 5% inserts). Combine with
    /// a high [`TemporalSampler`](crate::TemporalSampler) coefficient for
    /// the "latest" distribution.
    pub fn ycsb_d() -> Self {
        Self::new(0.0, 0.95, 0.0, 0.05)
    }

    /// YCSB workload E: short ranges (95% scans, 5% inserts).
    pub fn ycsb_e() -> Self {
        Self::new(0.0, 0.0, 0.95, 0.05).with_selectivity(0.0001)
    }

    /// YCSB workload F: read-modify-write (50% reads, 50% RMW ≈ updates).
    pub fn ycsb_f() -> Self {
        Self::new(0.0, 0.5, 0.0, 0.5)
    }

    /// Sets the delete share of updates.
    pub fn with_deletes(mut self, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction));
        self.delete_fraction = fraction;
        self
    }

    /// Sets the range-scan selectivity.
    pub fn with_selectivity(mut self, s: f64) -> Self {
        assert!((0.0..=1.0).contains(&s));
        self.range_selectivity = s;
        self
    }
}

/// Generates operation traces over a [`KeySpace`].
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    keys: KeySpace,
}

impl TraceBuilder {
    /// A builder over `keys`.
    pub fn new(keys: KeySpace) -> Self {
        Self { keys }
    }

    /// The initial bulk load: every existing key once, in random order.
    pub fn load_phase<R: Rng>(&self, rng: &mut R) -> Vec<Op> {
        self.keys
            .shuffled_indices(rng)
            .into_iter()
            .map(|i| Op::Put(self.keys.existing_key(i), self.keys.value_for(i)))
            .collect()
    }

    /// A query-phase trace of `n` operations drawn from `mix`.
    pub fn query_phase<R: Rng>(&self, mix: &OpMix, n: usize, rng: &mut R) -> Vec<Op> {
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n {
            let x: f64 = rng.gen();
            let op = if x < mix.zero_result_lookups {
                Op::GetMissing(self.keys.random_missing(rng))
            } else if x < mix.zero_result_lookups + mix.existing_lookups {
                let (_, key) = self.keys.random_existing(rng);
                Op::GetExisting(key)
            } else if x < mix.zero_result_lookups + mix.existing_lookups + mix.range_lookups {
                let span = ((self.keys.entries as f64 * mix.range_selectivity) as u64).max(1);
                let start = rng.gen_range(0..self.keys.entries.saturating_sub(span).max(1));
                Op::Range(
                    self.keys.existing_key(start),
                    self.keys
                        .existing_key((start + span).min(self.keys.entries - 1)),
                )
            } else {
                let (i, key) = self.keys.random_existing(rng);
                if rng.gen_bool(mix.delete_fraction) {
                    Op::Delete(key)
                } else {
                    Op::Put(key, self.keys.value_for(i))
                }
            };
            ops.push(op);
        }
        ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn ks() -> KeySpace {
        KeySpace::with_entry_size(1000, 64)
    }

    #[test]
    fn load_phase_covers_every_key_once() {
        let tb = TraceBuilder::new(ks());
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let ops = tb.load_phase(&mut rng);
        assert_eq!(ops.len(), 1000);
        let mut keys: Vec<&Vec<u8>> = ops
            .iter()
            .map(|op| match op {
                Op::Put(k, _) => k,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 1000);
    }

    #[test]
    fn query_phase_respects_proportions() {
        let tb = TraceBuilder::new(ks());
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mix = OpMix::new(0.4, 0.3, 0.1, 0.2);
        let ops = tb.query_phase(&mix, 20_000, &mut rng);
        let count = |f: fn(&Op) -> bool| ops.iter().filter(|o| f(o)).count() as f64 / 20_000.0;
        assert!((count(|o| matches!(o, Op::GetMissing(_))) - 0.4).abs() < 0.02);
        assert!((count(|o| matches!(o, Op::GetExisting(_))) - 0.3).abs() < 0.02);
        assert!((count(|o| matches!(o, Op::Range(..))) - 0.1).abs() < 0.02);
        assert!((count(|o| matches!(o, Op::Put(..))) - 0.2).abs() < 0.02);
    }

    #[test]
    fn deletes_take_their_share_of_updates() {
        let tb = TraceBuilder::new(ks());
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mix = OpMix::lookups_vs_updates(0.0).with_deletes(0.5);
        let ops = tb.query_phase(&mix, 10_000, &mut rng);
        let deletes = ops.iter().filter(|o| matches!(o, Op::Delete(_))).count();
        assert!((4_500..5_500).contains(&deletes), "{deletes}");
    }

    #[test]
    fn ranges_have_requested_span() {
        let tb = TraceBuilder::new(ks());
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mix = OpMix::new(0.0, 0.0, 1.0, 0.0).with_selectivity(0.05);
        for op in tb.query_phase(&mix, 100, &mut rng) {
            let Op::Range(lo, hi) = op else { panic!() };
            assert!(lo < hi);
        }
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn mix_must_sum_to_one() {
        OpMix::new(0.5, 0.5, 0.5, 0.0);
    }

    #[test]
    fn ycsb_presets_are_valid() {
        for mix in [
            OpMix::ycsb_a(),
            OpMix::ycsb_b(),
            OpMix::ycsb_c(),
            OpMix::ycsb_d(),
            OpMix::ycsb_e(),
            OpMix::ycsb_f(),
        ] {
            let total =
                mix.zero_result_lookups + mix.existing_lookups + mix.range_lookups + mix.updates;
            assert!((total - 1.0).abs() < 1e-9);
        }
        assert!(OpMix::ycsb_e().range_lookups > 0.9);
        assert_eq!(OpMix::ycsb_c().updates, 0.0);
    }
}
