//! Cold-probe restore, across the three organizations: after any traffic
//! confined to a block list — reads and writes, dirty evictions, pending
//! writebacks — restoring over that list must leave the cache
//! indistinguishable from a freshly built one, and `cold_probe` must
//! answer exactly as a fresh cache does.

use primecache_core::index::HashKind;

use crate::{
    Cache, CacheConfig, CacheSim, FullyAssociative, ReplacementKind, SkewHashKind, SkewReplacement,
    SkewedCache, SkewedConfig,
};

/// The cold-probe surface each organization offers.
trait Probed: CacheSim {
    fn block(&mut self, block: u64, write: bool) -> bool;
    fn restore(&mut self, blocks: &[u64]);
    fn probe(&mut self, blocks: &[u64]) -> u64;
    fn lines(&self) -> Vec<u64>;
    fn writebacks(&mut self) -> Vec<u64>;
}

impl Probed for Cache {
    fn block(&mut self, block: u64, write: bool) -> bool {
        self.access_block(block, write)
    }
    fn restore(&mut self, blocks: &[u64]) {
        self.restore_cold(blocks);
    }
    fn probe(&mut self, blocks: &[u64]) -> u64 {
        self.cold_probe(blocks)
    }
    fn lines(&self) -> Vec<u64> {
        self.occupancy()
    }
    fn writebacks(&mut self) -> Vec<u64> {
        self.take_writebacks()
    }
}

impl Probed for SkewedCache {
    fn block(&mut self, block: u64, write: bool) -> bool {
        self.access_block(block, write)
    }
    fn restore(&mut self, blocks: &[u64]) {
        self.restore_cold(blocks);
    }
    fn probe(&mut self, blocks: &[u64]) -> u64 {
        self.cold_probe(blocks)
    }
    fn lines(&self) -> Vec<u64> {
        self.occupancy()
    }
    fn writebacks(&mut self) -> Vec<u64> {
        self.take_writebacks()
    }
}

impl Probed for FullyAssociative {
    fn block(&mut self, block: u64, write: bool) -> bool {
        self.access_block(block, write)
    }
    fn restore(&mut self, _blocks: &[u64]) {
        self.restore_cold();
    }
    fn probe(&mut self, blocks: &[u64]) -> u64 {
        self.cold_probe(blocks)
    }
    fn lines(&self) -> Vec<u64> {
        self.occupancy()
    }
    fn writebacks(&mut self) -> Vec<u64> {
        self.take_writebacks()
    }
}

/// xorshift64*: a deterministic traffic source.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 16) % n
    }

    /// `len` accesses over `domain` blocks, a third of them writes.
    fn traffic(&mut self, len: usize, domain: u64) -> Vec<(u64, bool)> {
        (0..len)
            .map(|_| (self.below(domain), self.below(3) == 0))
            .collect()
    }
}

/// Asserts `cache` is indistinguishable from `make()`: equal stats, no
/// resident line, no pending writeback, and the same hit/miss and
/// writeback answers on a follow-up sequence that refills and evicts.
fn assert_cold<C: Probed>(cache: &mut C, make: &impl Fn() -> C, rng: &mut Rng, domain: u64) {
    let mut fresh = make();
    assert_eq!(
        cache.stats(),
        fresh.stats(),
        "stats differ from a fresh cache"
    );
    assert!(cache.lines().iter().all(|&n| n == 0), "lines left resident");
    assert!(cache.writebacks().is_empty(), "writebacks left pending");
    for (i, (b, w)) in rng.traffic(300, domain).into_iter().enumerate() {
        assert_eq!(cache.block(b, w), fresh.block(b, w), "follow-up access {i}");
        assert_eq!(
            cache.writebacks(),
            fresh.writebacks(),
            "follow-up access {i}"
        );
    }
}

/// Random traffic then `restore`, and a random `probe`, each followed by
/// the freshness check, over several rounds.
fn check_restores<C: Probed>(make: impl Fn() -> C, domain: u64) {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ domain);
    for _ in 0..12 {
        let mut cache = make();
        let traffic = rng.traffic(400, domain);
        for &(b, w) in &traffic {
            cache.block(b, w);
        }
        assert!(
            cache.stats().writebacks > 0,
            "traffic must evict dirty lines"
        );
        let blocks: Vec<u64> = traffic.iter().map(|&(b, _)| b).collect();
        cache.restore(&blocks);
        assert_cold(&mut cache, &make, &mut rng, domain);

        let mut cache = make();
        for _ in 0..4 {
            let len = 1 + rng.below(40) as usize;
            let probe: Vec<u64> = (0..len).map(|_| rng.below(domain)).collect();
            let mut fresh = make();
            let want = probe.iter().filter(|&&b| !fresh.block(b, false)).count() as u64;
            assert_eq!(cache.probe(&probe), want, "probe {probe:?}");
        }
        assert_cold(&mut cache, &make, &mut rng, domain);
    }
}

#[test]
fn set_assoc_restores_to_cold_under_every_policy() {
    for kind in ReplacementKind::ALL {
        for hash in [HashKind::Traditional, HashKind::PrimeModulo] {
            // 8 sets x 4 ways: 32 lines over a 128-block domain.
            let cfg = CacheConfig::new(8 * 4 * 64, 4, 64)
                .with_hash(hash)
                .with_replacement(kind);
            check_restores(|| Cache::new(cfg), 128);
        }
    }
}

#[test]
fn skewed_restores_to_cold_under_both_policies() {
    for hash in [SkewHashKind::Xor, SkewHashKind::PrimeDisplacement] {
        for repl in [SkewReplacement::Enru, SkewReplacement::Nrunrw] {
            for ways in [1, 2] {
                // 4 banks x 8 sets x `ways`.
                let cfg = SkewedConfig::new(4 * 8 * u64::from(ways) * 64, 4, 64, hash)
                    .with_ways_per_bank(ways)
                    .with_replacement(repl);
                check_restores(|| SkewedCache::new(cfg), 32 * u64::from(ways) * 4);
            }
        }
    }
}

#[test]
fn fully_associative_restores_to_cold() {
    for lines in [1u64, 16] {
        check_restores(|| FullyAssociative::new(lines * 64, 64), 4 * lines);
    }
}

/// The regression the restore exists for: a line the first probe leaves
/// behind would turn the second probe's cold miss into a hit.
#[test]
fn a_probe_leaves_no_line_for_the_next() {
    let mut set = Cache::new(CacheConfig::new(8 * 4 * 64, 4, 64));
    assert_eq!(set.cold_probe(&[5, 5]), 1);
    assert_eq!(set.cold_probe(&[5]), 1, "set-associative");
    let mut skewed = SkewedCache::new(SkewedConfig::new(4 * 8 * 64, 4, 64, SkewHashKind::Xor));
    assert_eq!(skewed.cold_probe(&[5, 5]), 1);
    assert_eq!(skewed.cold_probe(&[5]), 1, "skewed");
    let mut fa = FullyAssociative::new(16 * 64, 64);
    assert_eq!(fa.cold_probe(&[5, 5]), 1);
    assert_eq!(fa.cold_probe(&[5]), 1, "fully associative");
}
