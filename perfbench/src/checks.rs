//! Output checks and result digests. Every check counts once in
//! `attempted`; a check that fails counts in `failed` and keeps its
//! message for the report.

use primecache::cache::CacheStats;
use primecache::obs::report::fnv1a_64;
use primecache::sim::RunResult;

/// Tally of output checks.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// Messages of the first few failures.
    pub failures: Vec<String>,
}

impl Checks {
    /// Records one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Records that `checker` rejects a deliberately corrupted result:
    /// the check fails when the corruption goes unnoticed.
    pub fn catches_corruption(&mut self, what: &str, rejected: bool) {
        self.check(rejected, || {
            format!("self-test: a corrupted {what} was not caught")
        });
    }

    /// Failed checks over attempted checks.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

fn push_stats(words: &mut Vec<u64>, s: &CacheStats) {
    words.extend([s.accesses, s.hits, s.misses, s.writes, s.writebacks]);
    words.extend(&s.set_accesses);
    words.extend(&s.set_misses);
}

/// FNV-1a digest of everything a run reports: L1, L2 and DRAM
/// statistics (per-set vectors included) and the cycle breakdown.
#[must_use]
pub fn digest(r: &RunResult) -> u64 {
    let mut words = vec![
        r.breakdown.busy,
        r.breakdown.other_stall,
        r.breakdown.mem_stall,
    ];
    push_stats(&mut words, &r.l1);
    push_stats(&mut words, &r.l2);
    let d = r.dram;
    words.extend([d.reads, d.writes, d.row_hits, d.row_misses, d.queue_cycles]);
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a_64(&bytes)
}

/// Digest of a pair of cache statistics (tenant lanes and baselines).
#[must_use]
pub fn digest_stats(l1: &CacheStats, l2: &CacheStats) -> u64 {
    let mut words = Vec::new();
    push_stats(&mut words, l1);
    push_stats(&mut words, l2);
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a_64(&bytes)
}

/// Exact simulated counts summed over a set of runs.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SimCounts {
    /// L1 demand misses.
    pub l1_misses: u64,
    /// L2 demand misses.
    pub l2_misses: u64,
    /// Dirty L2 victims written to memory.
    pub l2_writebacks: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// DRAM reads plus writes.
    pub mem_requests: u64,
    /// DRAM requests that hit an open row.
    pub row_hits: u64,
}

impl SimCounts {
    /// Adds one run's counts.
    pub fn add(&mut self, r: &RunResult) {
        self.l1_misses += r.l1.misses;
        self.l2_misses += r.l2.misses;
        self.l2_writebacks += r.dram.writes;
        self.cycles += r.breakdown.total();
        self.mem_requests += r.dram.reads + r.dram.writes;
        self.row_hits += r.dram.row_hits;
    }
}

impl Checks {
    /// Moves `other`'s tally into this one.
    pub fn absorb(&mut self, other: &mut Checks) {
        let other = std::mem::take(other);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(20);
    }
}

/// One digest over several.
#[must_use]
pub fn fold(digests: &[u64]) -> u64 {
    let bytes: Vec<u8> = digests.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a_64(&bytes)
}
