//! Multi-tenant interleaved runs: N recorded traces time-sliced through
//! one shared hierarchy, with per-tenant cache attribution.
//!
//! The driver is two-pass so the shared run stays bit-exact with the
//! ordinary single-stream path:
//!
//! 1. **Aggregate pass** — the interleaved stream (a
//!    [`MixCursor`]) drives the ordinary single-stream driver via
//!    [`crate::run_chunks`]. Timing, DRAM behaviour, and the execution
//!    breakdown come from this one continuous simulation; a
//!    single-tenant mix is therefore bit-identical to [`crate::run_replay`]
//!    on the plain trace (the namespace tag is the identity for tenant
//!    0), which `tests/ingest_equivalence.rs` pins.
//! 2. **Attribution pass** — a second, cache-only walk over the *same*
//!    deterministic interleaving replays every memory reference through
//!    a fresh [`Hierarchy`] and snapshots [`CacheStats`] at each quantum
//!    boundary. Cache contents depend only on the access sequence (the
//!    clock feeds timing, not placement), so the per-tenant deltas sum
//!    to the aggregate statistics **exactly** — asserted in debug/check
//!    builds.
//!
//! The interesting output is interference: comparing a tenant's shared
//! miss count against [`tenant_solo_baseline`] (same tagged address
//! stream, no co-tenants) isolates the misses manufactured purely by
//! contention, per scheme — the multi-programmed cousin of the paper's
//! conflict-miss question.

use primecache_cache::{CacheStats, Hierarchy};
use primecache_trace::Event;
use primecache_workloads::{MixCursor, MixStats, TenantMix};

use crate::run::run_chunks;
use crate::{MachineConfig, RunResult, Scheme};

/// One tenant's share of an interleaved run.
#[derive(Debug, Clone)]
pub struct TenantLane {
    /// Tenant name (the recorded trace it replays).
    pub name: String,
    /// Events this tenant issued into the mix.
    pub events: u64,
    /// Memory references (loads + stores) this tenant issued.
    pub refs: u64,
    /// Scheduling quanta this tenant received.
    pub quanta: u64,
    /// L1 statistics attributed to this tenant's quanta.
    pub l1: CacheStats,
    /// L2 demand statistics attributed to this tenant's quanta.
    pub l2: CacheStats,
}

/// Everything a multi-tenant simulation produces.
#[derive(Debug, Clone)]
pub struct TenantRun {
    /// The shared run: one continuous simulation of the interleaved
    /// stream, identical in kind to any single-stream [`RunResult`].
    pub aggregate: RunResult,
    /// Per-tenant attribution; lane `i` is tenant `i` of the mix. The
    /// lanes' cache statistics sum to `aggregate`'s field-for-field.
    pub lanes: Vec<TenantLane>,
    /// Scheduling statistics of the interleaving itself.
    pub mix: MixStats,
}

/// Runs an interleaved tenant mix under `scheme`: one shared hierarchy,
/// deterministic quantum scheduling, per-tenant attribution.
#[must_use]
pub fn run_tenant_mix(mix: &TenantMix, scheme: Scheme, machine: &MachineConfig) -> TenantRun {
    let aggregate = run_chunks(mix.cursor(), scheme, machine);
    let (stats, mix_stats) = attribute(mix.cursor(), mix.n_tenants(), scheme, machine);

    #[cfg(any(debug_assertions, feature = "check"))]
    {
        let sum = |f: fn(&LaneCache) -> &CacheStats| {
            let mut acc = f(&stats[0]).clone();
            for lane in &stats[1..] {
                add_into(&mut acc, f(lane));
            }
            acc
        };
        assert_eq!(
            sum(|l| &l.l1),
            aggregate.l1,
            "tenant L1 attribution must sum to the aggregate run"
        );
        assert_eq!(
            sum(|l| &l.l2),
            aggregate.l2,
            "tenant L2 attribution must sum to the aggregate run"
        );
    }

    let lanes = stats
        .into_iter()
        .enumerate()
        .map(|(i, lane)| TenantLane {
            name: mix.names()[i].to_owned(),
            events: mix_stats.events[i],
            refs: mix_stats.refs[i],
            quanta: lane.quanta,
            l1: lane.l1,
            l2: lane.l2,
        })
        .collect();

    TenantRun {
        aggregate,
        lanes,
        mix: mix_stats,
    }
}

/// The no-contention baseline for tenant `idx`: its tagged address
/// stream replayed *alone* through a fresh hierarchy under the same
/// scheme. Returns `(l1, l2)` statistics; the miss delta against the
/// shared lane in [`run_tenant_mix`] is pure inter-tenant interference
/// (same addresses, same scheme — only the co-tenants differ).
#[must_use]
pub fn tenant_solo_baseline(
    mix: &TenantMix,
    idx: usize,
    scheme: Scheme,
    machine: &MachineConfig,
) -> (CacheStats, CacheStats) {
    let (mut stats, _) = attribute(mix.solo_cursor(idx), 1, scheme, machine);
    let lane = stats.pop().expect("solo attribution has exactly one lane");
    (lane.l1, lane.l2)
}

/// Per-lane accumulator of the attribution pass.
struct LaneCache {
    l1: CacheStats,
    l2: CacheStats,
    quanta: u64,
}

/// The cache-only attribution pass: replays the interleaving through a
/// fresh hierarchy quantum by quantum, crediting each quantum's
/// statistics delta to the tenant that ran it. Mirrors the CPU model's
/// memory path exactly — one [`Hierarchy::access`] per load or
/// store, writebacks drained — so the hierarchy sees the identical
/// access sequence the aggregate run did.
fn attribute(
    mut cursor: MixCursor<'_>,
    n_tenants: usize,
    scheme: Scheme,
    machine: &MachineConfig,
) -> (Vec<LaneCache>, MixStats) {
    let mut hierarchy = Hierarchy::new(machine.hierarchy_config(scheme));
    let n_l1 = hierarchy.l1_stats().set_accesses.len();
    let n_l2 = hierarchy.l2_stats().set_accesses.len();
    let mut lanes: Vec<LaneCache> = (0..n_tenants)
        .map(|_| LaneCache {
            l1: CacheStats::new(n_l1),
            l2: CacheStats::new(n_l2),
            quanta: 0,
        })
        .collect();

    let mut prev_l1 = hierarchy.l1_stats().clone();
    let mut prev_l2 = hierarchy.l2_stats().clone();
    while let Some((tenant, events)) = cursor.pull_quantum() {
        for ev in &events {
            if let Some(addr) = ev.addr() {
                let write = matches!(ev, Event::Store { .. });
                let _ = hierarchy.access(addr, write);
            }
        }
        let _ = hierarchy.take_memory_writes();

        let lane = &mut lanes[tenant];
        lane.quanta += 1;
        add_delta(&mut lane.l1, hierarchy.l1_stats(), &mut prev_l1);
        add_delta(&mut lane.l2, hierarchy.l2_stats(), &mut prev_l2);
    }

    let mix_stats = cursor.mix_stats().clone();
    (lanes, mix_stats)
}

/// Adds `now - prev` into `into`, then advances `prev` to `now`.
fn add_delta(into: &mut CacheStats, now: &CacheStats, prev: &mut CacheStats) {
    into.accesses += now.accesses - prev.accesses;
    into.hits += now.hits - prev.hits;
    into.misses += now.misses - prev.misses;
    into.writes += now.writes - prev.writes;
    into.writebacks += now.writebacks - prev.writebacks;
    for (acc, (n, p)) in into
        .set_accesses
        .iter_mut()
        .zip(now.set_accesses.iter().zip(&prev.set_accesses))
    {
        *acc += n - p;
    }
    for (acc, (n, p)) in into
        .set_misses
        .iter_mut()
        .zip(now.set_misses.iter().zip(&prev.set_misses))
    {
        *acc += n - p;
    }
    *prev = now.clone();
}

/// Field-wise sum, used by the debug-build consistency assertion.
#[cfg(any(debug_assertions, feature = "check"))]
fn add_into(acc: &mut CacheStats, more: &CacheStats) {
    acc.accesses += more.accesses;
    acc.hits += more.hits;
    acc.misses += more.misses;
    acc.writes += more.writes;
    acc.writebacks += more.writebacks;
    for (a, m) in acc.set_accesses.iter_mut().zip(&more.set_accesses) {
        *a += m;
    }
    for (a, m) in acc.set_misses.iter_mut().zip(&more.set_misses) {
        *a += m;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_recorded;
    use primecache_workloads::{by_name, MixConfig, TenantMix};

    fn mix2(refs: u64) -> TenantMix {
        let a = by_name("tree").unwrap().record(refs);
        let b = by_name("swim").unwrap().record(refs);
        TenantMix::new(
            vec![("tree".into(), a), ("swim".into(), b)],
            MixConfig {
                quantum_instructions: 700,
                ..MixConfig::default()
            },
        )
    }

    #[test]
    fn single_tenant_mix_matches_the_plain_replay() {
        let trace = by_name("mcf").unwrap().record(3_000);
        let machine = MachineConfig::paper_default();
        for scheme in [Scheme::Base, Scheme::PrimeModulo] {
            let plain = run_recorded(&trace, scheme, &machine);
            let mix = TenantMix::with_defaults(vec![("mcf".into(), trace.clone())]);
            let run = run_tenant_mix(&mix, scheme, &machine);
            assert_eq!(run.aggregate.breakdown, plain.breakdown);
            assert_eq!(run.aggregate.l1, plain.l1);
            assert_eq!(run.aggregate.l2, plain.l2);
            assert_eq!(run.aggregate.dram, plain.dram);
            assert_eq!(run.lanes.len(), 1);
            assert_eq!(run.lanes[0].l1, plain.l1);
            assert_eq!(run.lanes[0].l2, plain.l2);
        }
    }

    #[test]
    fn lanes_sum_to_the_aggregate() {
        let mix = mix2(2_000);
        let machine = MachineConfig::paper_default();
        let run = run_tenant_mix(&mix, Scheme::Base, &machine);
        assert_eq!(run.lanes.len(), 2);
        let l2_sum: u64 = run.lanes.iter().map(|l| l.l2.misses).sum();
        assert_eq!(l2_sum, run.aggregate.l2.misses);
        let l1_sum: u64 = run.lanes.iter().map(|l| l.l1.accesses).sum();
        assert_eq!(l1_sum, run.aggregate.l1.accesses);
        let refs: u64 = run.lanes.iter().map(|l| l.refs).sum();
        assert_eq!(refs, run.aggregate.l1.accesses);
        assert!(run.mix.switches > 0, "two tenants must actually interleave");
    }

    #[test]
    fn runs_are_deterministic() {
        let mix = mix2(1_500);
        let machine = MachineConfig::paper_default();
        let a = run_tenant_mix(&mix, Scheme::Xor, &machine);
        let b = run_tenant_mix(&mix, Scheme::Xor, &machine);
        assert_eq!(a.aggregate.l2, b.aggregate.l2);
        assert_eq!(a.mix, b.mix);
        for (x, y) in a.lanes.iter().zip(&b.lanes) {
            assert_eq!(x.l2, y.l2);
            assert_eq!(x.quanta, y.quanta);
        }
    }

    #[test]
    fn solo_baseline_is_the_same_stream_without_contention() {
        let mix = mix2(2_000);
        let machine = MachineConfig::paper_default();
        let run = run_tenant_mix(&mix, Scheme::Base, &machine);
        for (i, lane) in run.lanes.iter().enumerate() {
            let (l1, _) = tenant_solo_baseline(&mix, i, Scheme::Base, &machine);
            // Identical address stream: L1 sees one demand access per
            // memory reference regardless of co-tenants.
            assert_eq!(l1.accesses, lane.l1.accesses);
            assert_eq!(l1.accesses, lane.refs);
            // True-LRU inclusion argument: foreign interleavings can
            // only push a tenant's own blocks down the LRU stacks, so
            // its shared L1 misses never drop below its solo misses.
            assert!(
                lane.l1.misses >= l1.misses,
                "tenant {i}: shared L1 misses {} < solo {}",
                lane.l1.misses,
                l1.misses
            );
        }
    }
}
