//! Per-set replacement policies.
//!
//! Each set of a set-associative [`Cache`](crate::Cache) owns a small
//! [`Replacer`] tracking way usage. Policies are enum-dispatched: the
//! simulator touches a replacer on every access, so dynamic dispatch per
//! set would dominate the profile.

use crate::ReplacementKind;

/// Per-set replacement state.
///
/// The protocol is: [`Replacer::touch`] on every hit and after every fill,
/// [`Replacer::write_touch`] additionally on stores (only NRUNRW-style
/// policies care), and [`Replacer::victim`] to pick the way to evict
/// (invalid ways are preferred by the caller, not the policy).
///
/// # Examples
///
/// ```
/// use primecache_cache::replacement::Replacer;
/// use primecache_cache::ReplacementKind;
///
/// let mut r = Replacer::new(ReplacementKind::Lru, 4);
/// r.touch(0);
/// r.touch(1);
/// r.touch(2);
/// r.touch(3);
/// r.touch(0); // way 1 is now least recent
/// assert_eq!(r.victim(), 1);
/// ```
#[derive(Debug, Clone)]
pub enum Replacer {
    /// True LRU via per-way stamps.
    Lru {
        /// Last-use stamp per way.
        stamps: Vec<u64>,
        /// Monotonic access clock.
        clock: u64,
    },
    /// Tree pseudo-LRU over a power-of-two number of ways.
    TreePlru {
        /// Internal-node direction bits (1 = right subtree more recent).
        bits: u64,
        /// Number of ways (power of two).
        ways: u32,
    },
    /// Not-recently-used reference bits.
    Nru {
        /// Reference bit per way.
        refs: Vec<bool>,
    },
    /// FIFO: victim cycles through the ways in fill order.
    Fifo {
        /// Next way to evict.
        next: u32,
        /// Number of ways.
        ways: u32,
    },
    /// Deterministic pseudo-random victims (xorshift).
    Random {
        /// PRNG state.
        state: u64,
        /// Number of ways.
        ways: u32,
    },
    /// 2-bit SRRIP: re-reference prediction values per way
    /// (0 = imminent, 3 = distant/victim).
    Srrip {
        /// RRPV per way.
        rrpv: Vec<u8>,
        /// Rotating start position for victim search (fair tie-breaking,
        /// CLOCK-style; a fixed start would always sacrifice way 0).
        hand: u32,
    },
}

impl Replacer {
    /// Creates a replacer of the given kind for `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `ways == 0`, or for [`ReplacementKind::TreePlru`] when
    /// `ways` is not a power of two.
    #[must_use]
    pub fn new(kind: ReplacementKind, ways: u32) -> Self {
        assert!(ways >= 1, "need at least one way");
        match kind {
            ReplacementKind::Lru => Replacer::Lru {
                stamps: vec![0; ways as usize],
                clock: 0,
            },
            ReplacementKind::TreePlru => {
                assert!(ways.is_power_of_two(), "tree PLRU needs power-of-two ways");
                Replacer::TreePlru { bits: 0, ways }
            }
            ReplacementKind::Nru => Replacer::Nru {
                refs: vec![false; ways as usize],
            },
            ReplacementKind::Fifo => Replacer::Fifo { next: 0, ways },
            ReplacementKind::Random => Replacer::Random {
                state: 0x9E37_79B9_7F4A_7C15,
                ways,
            },
            ReplacementKind::Srrip => Replacer::Srrip {
                rrpv: vec![3; ways as usize],
                hand: 0,
            },
        }
    }

    /// Records a use of `way` (hit, or fill of that way).
    pub fn touch(&mut self, way: u32) {
        match self {
            Replacer::Lru { stamps, clock } => {
                *clock += 1;
                stamps[way as usize] = *clock;
            }
            Replacer::TreePlru { bits, ways } => {
                // Walk from root to the leaf for `way`, pointing each node
                // away from it.
                let levels = ways.trailing_zeros();
                let mut node = 0u32; // root at heap position 0
                for level in (0..levels).rev() {
                    let dir = (way >> level) & 1;
                    if dir == 1 {
                        *bits &= !(1 << node); // point left (away)
                    } else {
                        *bits |= 1 << node; // point right (away)
                    }
                    node = 2 * node + 1 + dir;
                }
            }
            Replacer::Nru { refs } => {
                refs[way as usize] = true;
                if refs.iter().all(|&r| r) {
                    for (i, r) in refs.iter_mut().enumerate() {
                        *r = i == way as usize;
                    }
                }
            }
            Replacer::Fifo { .. } => {}
            Replacer::Random { .. } => {}
            Replacer::Srrip { rrpv, .. } => rrpv[way as usize] = 0,
        }
    }

    /// Records a *write* use of `way`. Plain policies treat it as
    /// [`Replacer::touch`]; write-aware policies may track it separately.
    pub fn write_touch(&mut self, way: u32) {
        self.touch(way);
    }

    /// Records that `way` was just filled with a new block.
    pub fn fill(&mut self, way: u32) {
        match self {
            Replacer::Fifo { next, ways } => *next = (way + 1) % *ways,
            // SRRIP inserts with a *long* predicted interval (RRPV 2):
            // scan lines never look young, so they evict each other
            // instead of the working set.
            Replacer::Srrip { rrpv, .. } => rrpv[way as usize] = 2,
            _ => self.touch(way),
        }
    }

    /// Picks the way to evict.
    #[must_use]
    pub fn victim(&mut self) -> u32 {
        match self {
            Replacer::Lru { stamps, .. } => {
                let mut best = 0usize;
                for (i, &s) in stamps.iter().enumerate() {
                    if s < stamps[best] {
                        best = i;
                    }
                }
                best as u32
            }
            Replacer::TreePlru { bits, ways } => {
                // Each node bit points at the pseudo-LRU subtree
                // (1 = right); follow the pointers to the victim leaf.
                let levels = ways.trailing_zeros();
                let mut node = 0u32;
                let mut way = 0u32;
                for _ in 0..levels {
                    let dir = ((*bits >> node) & 1) as u32;
                    way = (way << 1) | dir;
                    node = 2 * node + 1 + dir;
                }
                way
            }
            Replacer::Nru { refs } => refs.iter().position(|&r| !r).unwrap_or(0) as u32,
            Replacer::Fifo { next, .. } => *next,
            Replacer::Random { state, ways } => {
                // xorshift64*
                *state ^= *state >> 12;
                *state ^= *state << 25;
                *state ^= *state >> 27;
                let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
                (r >> 33) as u32 % *ways
            }
            Replacer::Srrip { rrpv, hand } => loop {
                let n = rrpv.len() as u32;
                let found = (0..n)
                    .map(|off| (*hand + off) % n)
                    .find(|&w| rrpv[w as usize] == 3);
                if let Some(w) = found {
                    *hand = (w + 1) % n;
                    break w;
                }
                for v in rrpv.iter_mut() {
                    *v += 1;
                }
            },
        }
    }
}

/// Replacement state for a whole cache, flat across sets.
///
/// The dominant policy (true LRU — every paper configuration) gets a
/// structure-of-arrays fast path: one flat stamp array plus one clock
/// per set, probed and updated without per-set heap indirection. Every
/// other policy keeps its exact per-set [`Replacer`] semantics behind
/// the fallback variant. Both variants are bit-identical to a
/// `Vec<Replacer>` of the same kind.
#[derive(Debug, Clone)]
pub(crate) enum ReplBank {
    /// Flat true-LRU: `stamps[set * assoc + way]`, `clocks[set]`.
    Lru {
        /// Last-use stamp per line, set-major.
        stamps: Vec<u64>,
        /// Monotonic per-set access clocks.
        clocks: Vec<u64>,
        /// Ways per set.
        assoc: usize,
    },
    /// Any other policy: one [`Replacer`] per set.
    PerSet(Vec<Replacer>),
}

impl ReplBank {
    /// Creates replacement state for `n_set` sets of `ways` ways.
    pub(crate) fn new(kind: ReplacementKind, n_set: usize, ways: u32) -> Self {
        assert!(ways >= 1, "need at least one way");
        match kind {
            ReplacementKind::Lru => ReplBank::Lru {
                stamps: vec![0; n_set * ways as usize],
                clocks: vec![0; n_set],
                assoc: ways as usize,
            },
            _ => ReplBank::PerSet(vec![Replacer::new(kind, ways); n_set]),
        }
    }

    /// Records a use of `way` in `set` (hit, or fill of that way).
    #[inline]
    pub(crate) fn touch(&mut self, set: usize, way: usize) {
        match self {
            ReplBank::Lru {
                stamps,
                clocks,
                assoc,
            } => {
                clocks[set] += 1;
                stamps[set * *assoc + way] = clocks[set];
            }
            ReplBank::PerSet(replacers) => replacers[set].touch(narrow_way(way)),
        }
    }

    /// Records a *write* use of `way` in `set`.
    #[inline]
    pub(crate) fn write_touch(&mut self, set: usize, way: usize) {
        match self {
            ReplBank::Lru { .. } => self.touch(set, way),
            ReplBank::PerSet(replacers) => replacers[set].write_touch(narrow_way(way)),
        }
    }

    /// Records that `way` in `set` was just filled with a new block.
    #[inline]
    pub(crate) fn fill(&mut self, set: usize, way: usize) {
        match self {
            ReplBank::Lru { .. } => self.touch(set, way),
            ReplBank::PerSet(replacers) => replacers[set].fill(narrow_way(way)),
        }
    }

    /// Puts `set` back in its just-built state; `kind` and `ways` are
    /// the ones the bank was built with.
    pub(crate) fn reset_set(&mut self, set: usize, kind: ReplacementKind, ways: u32) {
        match self {
            ReplBank::Lru {
                stamps,
                clocks,
                assoc,
            } => {
                stamps[set * *assoc..(set + 1) * *assoc].fill(0);
                clocks[set] = 0;
            }
            ReplBank::PerSet(replacers) => replacers[set] = Replacer::new(kind, ways),
        }
    }

    /// Picks the way to evict from `set`.
    #[inline]
    pub(crate) fn victim(&mut self, set: usize) -> usize {
        match self {
            ReplBank::Lru { stamps, assoc, .. } => {
                // Minimum stamp, first way on ties — exactly
                // `Replacer::Lru::victim`.
                let base = set * *assoc;
                let mut best = 0usize;
                for i in 1..*assoc {
                    if stamps[base + i] < stamps[base + best] {
                        best = i;
                    }
                }
                best
            }
            ReplBank::PerSet(replacers) => replacers[set].victim() as usize,
        }
    }
}

/// Narrows a way index to the `u32` the per-set [`Replacer`] API uses.
/// Associativity comes from a `u32` configuration field, so ways always
/// fit; the debug assert documents the bound.
#[inline]
#[allow(clippy::cast_possible_truncation)]
fn narrow_way(way: usize) -> u32 {
    debug_assert!(u32::try_from(way).is_ok(), "way {way} exceeds u32");
    way as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flat LRU bank must be bit-identical to a `Vec<Replacer>` of
    /// LRU replacers under any touch/fill/victim interleaving.
    #[test]
    fn flat_lru_bank_matches_per_set_replacers() {
        let n_set = 8;
        let ways = 4u32;
        let mut bank = ReplBank::new(ReplacementKind::Lru, n_set, ways);
        let mut reference: Vec<Replacer> = (0..n_set)
            .map(|_| Replacer::new(ReplacementKind::Lru, ways))
            .collect();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..10_000 {
            // xorshift64* driving a random op on a random (set, way).
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let r = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let set = (r >> 8) as usize % n_set;
            let way = (r >> 16) as u32 % ways;
            match r % 4 {
                0 => {
                    bank.touch(set, way as usize);
                    reference[set].touch(way);
                }
                1 => {
                    bank.write_touch(set, way as usize);
                    reference[set].write_touch(way);
                }
                2 => {
                    bank.fill(set, way as usize);
                    reference[set].fill(way);
                }
                _ => {
                    assert_eq!(bank.victim(set), reference[set].victim() as usize);
                }
            }
        }
        for (set, model) in reference.iter_mut().enumerate().take(n_set) {
            assert_eq!(bank.victim(set), model.victim() as usize);
        }
    }

    #[test]
    fn non_lru_bank_delegates_per_set() {
        let mut bank = ReplBank::new(ReplacementKind::Fifo, 2, 4);
        let mut reference = Replacer::new(ReplacementKind::Fifo, 4);
        for _ in 0..10 {
            let b = bank.victim(0);
            let r = reference.victim() as usize;
            assert_eq!(b, r);
            bank.fill(0, b);
            reference.fill(r as u32);
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut r = Replacer::new(ReplacementKind::Lru, 4);
        for w in 0..4 {
            r.fill(w);
        }
        r.touch(0);
        r.touch(2);
        assert_eq!(r.victim(), 1);
        r.touch(1);
        assert_eq!(r.victim(), 3);
    }

    #[test]
    fn tree_plru_never_evicts_most_recent() {
        let mut r = Replacer::new(ReplacementKind::TreePlru, 8);
        for w in 0..8 {
            r.fill(w);
        }
        for w in [3u32, 7, 0, 5, 2, 6, 1, 4, 3, 3, 0] {
            r.touch(w);
            assert_ne!(r.victim(), w, "PLRU evicted the MRU way {w}");
        }
    }

    #[test]
    fn tree_plru_approximates_lru_on_sequential_touches() {
        let mut r = Replacer::new(ReplacementKind::TreePlru, 4);
        r.touch(0);
        r.touch(1);
        r.touch(2);
        r.touch(3);
        // With all ways touched in order, the victim should be in the
        // "oldest" half (way 0 or 1).
        let v = r.victim();
        assert!(v == 0 || v == 1, "victim {v}");
    }

    #[test]
    fn nru_prefers_unreferenced() {
        let mut r = Replacer::new(ReplacementKind::Nru, 4);
        r.touch(0);
        r.touch(2);
        let v = r.victim();
        assert!(v == 1 || v == 3, "victim {v}");
    }

    #[test]
    fn nru_clears_on_saturation() {
        let mut r = Replacer::new(ReplacementKind::Nru, 2);
        r.touch(0);
        r.touch(1); // saturates: clears others, keeps way 1
        assert_eq!(r.victim(), 0);
    }

    #[test]
    fn fifo_cycles() {
        let mut r = Replacer::new(ReplacementKind::Fifo, 4);
        assert_eq!(r.victim(), 0);
        r.fill(0);
        assert_eq!(r.victim(), 1);
        r.fill(1);
        r.touch(1); // touches must not disturb FIFO order
        assert_eq!(r.victim(), 2);
    }

    #[test]
    fn random_is_deterministic_and_in_range() {
        let mut a = Replacer::new(ReplacementKind::Random, 4);
        let mut b = Replacer::new(ReplacementKind::Random, 4);
        for _ in 0..100 {
            let va = a.victim();
            assert_eq!(va, b.victim());
            assert!(va < 4);
        }
    }

    #[test]
    fn random_covers_all_ways() {
        let mut r = Replacer::new(ReplacementKind::Random, 4);
        let seen: std::collections::HashSet<u32> = (0..64).map(|_| r.victim()).collect();
        assert_eq!(seen.len(), 4);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn plru_rejects_odd_ways() {
        let _ = Replacer::new(ReplacementKind::TreePlru, 3);
    }

    #[test]
    fn srrip_prefers_distant_lines() {
        let mut r = Replacer::new(ReplacementKind::Srrip, 4);
        for w in 0..4 {
            r.fill(w); // all at RRPV 2
        }
        r.touch(1); // way 1 becomes imminent (RRPV 0)
        let v = r.victim();
        assert_ne!(v, 1, "SRRIP must not evict the re-referenced way");
    }

    #[test]
    fn srrip_resists_scans() {
        // A periodically re-referenced hot way survives an interleaved
        // scan: scan fills insert at RRPV 2, so they age out before the
        // hot way does. Under LRU the same interleaving evicts way 0
        // whenever three scan fills land between its touches.
        let mut r = Replacer::new(ReplacementKind::Srrip, 4);
        for w in 0..4 {
            r.fill(w);
        }
        for round in 0..16 {
            r.touch(0); // hot re-reference
            let _ = round;
            // Two scan misses between hot touches.
            for _ in 0..2 {
                let v = r.victim();
                assert_ne!(v, 0, "scan evicted the hot way");
                r.fill(v);
            }
        }
    }

    #[test]
    fn srrip_victim_always_in_range() {
        let mut r = Replacer::new(ReplacementKind::Srrip, 8);
        for i in 0..100u32 {
            let v = r.victim();
            assert!(v < 8);
            r.fill(v);
            if i % 3 == 0 {
                r.touch(v);
            }
        }
    }
}
