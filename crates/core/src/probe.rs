//! Black-box conflict probing of set-index functions.
//!
//! The attack engine (`crates/attack`) never reads an index function —
//! it only *observes a cache*: feed a short trace of block addresses,
//! count the misses. This module defines that observation interface
//! ([`ProbeOracle`]) plus a reference implementation over any
//! [`SetIndexer`] ([`ModelOracle`]) used by the check battery to fuzz
//! recovery against ground-truth functions at scale. The simulator-backed
//! implementation (probing real `primecache-cache` organizations) lives
//! in `primecache_sim::oracle`.
//!
//! Two derived observations cover everything recovery and eviction-set
//! construction need, and both follow from one fact about a single cold
//! pass over *distinct* blocks: every block's first access misses
//! unconditionally, so the only informative access is a **re-access**.
//!
//! * [`ProbeOracle::same_set`] — trace `[a, b, a]` against a
//!   direct-mapped (associativity 1) probe configuration: the final `a`
//!   misses iff `b` evicted it, i.e. iff `a` and `b` share a set.
//! * [`ProbeOracle::evicts`] — trace `[v, c₁..cₘ, v]` at the *native*
//!   associativity `W`: the candidates contribute exactly `m` cold
//!   misses, so the total reaches `m + 2` iff at least `W` candidates
//!   landed in `v`'s set and pushed `v` out (LRU).

use crate::index::SetIndexer;

/// Cumulative cost of a probing campaign: `probes` is the number of
/// crafted traces run (each against a cold cache), `refs` the total
/// simulated references those traces contained. Both are the attacker's
/// budget currency; reports surface them per phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCost {
    /// Crafted probe traces run.
    pub probes: u64,
    /// Simulated references across all probe traces.
    pub refs: u64,
}

impl ProbeCost {
    /// The cost delta since `earlier` (which must be a prefix of `self`).
    #[must_use]
    pub fn since(self, earlier: ProbeCost) -> ProbeCost {
        ProbeCost {
            probes: self.probes - earlier.probes,
            refs: self.refs - earlier.refs,
        }
    }
}

impl std::ops::Add for ProbeCost {
    type Output = ProbeCost;
    fn add(self, rhs: ProbeCost) -> ProbeCost {
        ProbeCost {
            probes: self.probes + rhs.probes,
            refs: self.refs + rhs.refs,
        }
    }
}

/// A black-box cache an attacker can probe with crafted block-address
/// traces, observing only the number of misses.
///
/// Implementations run each probe against a **cold** cache: no state is
/// carried from one probe to the next (the attacker can always achieve
/// this by flushing with junk accesses; charging for it would scale
/// every scheme's cost by the same constant, so the models leave it
/// out). An implementation may reuse its cache storage from probe to
/// probe, provided it restores it to cold before the next one — the
/// simulator-backed oracle keeps one cache and restores the sets each
/// probe touched.
pub trait ProbeOracle {
    /// Address bits of the probing window: probes use block addresses
    /// below `2^in_bits()`.
    fn in_bits(&self) -> u32;

    /// Physical set count of the probed cache — public geometry, not a
    /// secret (an attacker knows the cache size and line size).
    fn n_set_phys(&self) -> u64;

    /// Associativity of the probed configuration.
    fn assoc(&self) -> u32;

    /// Runs one cold probe trace of block addresses, returning the
    /// number of misses.
    fn misses(&mut self, blocks: &[u64]) -> u64;

    /// Total cost spent on this oracle so far.
    fn cost(&self) -> ProbeCost;

    /// Whether `a` and `b` map to the same set, observed via the
    /// `[a, b, a]` re-access probe. Meaningful only on a direct-mapped
    /// probe configuration (`assoc() == 1`).
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (the re-access would hit regardless).
    fn same_set(&mut self, a: u64, b: u64) -> bool {
        assert_ne!(a, b, "same_set probe needs two distinct blocks");
        self.misses(&[a, b, a]) == 3
    }

    /// Whether accessing the (distinct) `candidates` after `victim`
    /// evicts it, observed via the `[victim, candidates.., victim]`
    /// probe at the oracle's associativity.
    fn evicts(&mut self, victim: u64, candidates: &[u64]) -> bool {
        let mut trace = Vec::with_capacity(candidates.len() + 2);
        trace.push(victim);
        trace.extend_from_slice(candidates);
        trace.push(victim);
        let m = self.misses(&trace);
        m == candidates.len() as u64 + 2
    }
}

/// Reference oracle: an idealized `W`-way LRU cache over an arbitrary
/// index function, used to fuzz the attack engine against ground truth
/// without building simulator state per probe.
///
/// # Examples
///
/// ```
/// use primecache_core::index::{Geometry, HashKind};
/// use primecache_core::probe::{ModelOracle, ProbeOracle};
///
/// let geom = Geometry::new(64);
/// let mut oracle = ModelOracle::from_indexer(HashKind::Xor.build(geom), 1, 16);
/// // The XOR scheme's classic conflict stride: 64 + 1.
/// assert!(oracle.same_set(0, 65));
/// assert!(!oracle.same_set(0, 64));
/// ```
pub struct ModelOracle<F> {
    index_of: F,
    n_set_phys: u64,
    assoc: u32,
    in_bits: u32,
    cost: ProbeCost,
}

impl<F: Fn(u64) -> u64> ModelOracle<F> {
    /// Builds an oracle over `index_of` with `n_set_phys` physical sets
    /// implied by the function's range, probing at associativity
    /// `assoc` over `in_bits` address bits.
    pub fn new(index_of: F, n_set_phys: u64, assoc: u32, in_bits: u32) -> Self {
        assert!(assoc >= 1, "associativity must be at least 1");
        assert!((1..=64).contains(&in_bits), "in_bits must be in 1..=64");
        Self {
            index_of,
            n_set_phys,
            assoc,
            in_bits,
            cost: ProbeCost::default(),
        }
    }
}

impl ModelOracle<Box<dyn Fn(u64) -> u64>> {
    /// Convenience: wraps a boxed [`SetIndexer`], hiding it behind the
    /// probe interface (the physical set count is taken from the
    /// geometry the indexer was built for — public knowledge — via the
    /// next power of two of its set count).
    #[must_use]
    pub fn from_indexer(idx: Box<dyn SetIndexer>, assoc: u32, in_bits: u32) -> Self {
        let n_phys = idx.n_set().next_power_of_two();
        ModelOracle::new(Box::new(move |a| idx.index(a)) as _, n_phys, assoc, in_bits)
    }
}

impl<F: Fn(u64) -> u64> ProbeOracle for ModelOracle<F> {
    fn in_bits(&self) -> u32 {
        self.in_bits
    }

    fn n_set_phys(&self) -> u64 {
        self.n_set_phys
    }

    fn assoc(&self) -> u32 {
        self.assoc
    }

    fn misses(&mut self, blocks: &[u64]) -> u64 {
        self.cost.probes += 1;
        self.cost.refs += blocks.len() as u64;
        // Per-set LRU ways, newest last. A HashMap keyed by set id keeps
        // the cold probe O(trace), independent of the cache size.
        let mut sets: std::collections::HashMap<u64, Vec<u64>> = std::collections::HashMap::new();
        let ways = self.assoc as usize;
        let mut misses = 0u64;
        for &b in blocks {
            let s = (self.index_of)(b);
            let set = sets.entry(s).or_default();
            if let Some(pos) = set.iter().position(|&t| t == b) {
                set.remove(pos);
                set.push(b);
            } else {
                misses += 1;
                if set.len() == ways {
                    set.remove(0);
                }
                set.push(b);
            }
        }
        misses
    }

    fn cost(&self) -> ProbeCost {
        self.cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_set_matches_the_function() {
        let mut o = ModelOracle::new(|a| a % 7, 8, 1, 12);
        assert!(o.same_set(3, 10));
        assert!(!o.same_set(3, 11));
        assert_eq!(o.cost().probes, 2);
        assert_eq!(o.cost().refs, 6);
    }

    #[test]
    fn evicts_needs_assoc_same_set_candidates() {
        let mut o = ModelOracle::new(|a| a % 16, 16, 4, 16);
        // Three same-set candidates: victim survives 4-way LRU.
        assert!(!o.evicts(0, &[16, 32, 48]));
        // Four: evicted.
        assert!(o.evicts(0, &[16, 32, 48, 64]));
        // Off-set candidates never help.
        assert!(!o.evicts(0, &[16, 32, 48, 65]));
    }

    #[test]
    #[should_panic(expected = "distinct blocks")]
    fn same_set_rejects_equal_blocks() {
        let mut o = ModelOracle::new(|a| a % 7, 8, 1, 12);
        let _ = o.same_set(5, 5);
    }
}
