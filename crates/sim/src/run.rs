//! Single-run driver.
//!
//! Every public entry point ([`run_trace`], [`run_workload`],
//! [`run_replay`], [`run_chunks`], [`run_workload_warm`], ...) hands its
//! event source to one driver. The driver dispatches **once** per run on
//! the scheme's L2 organization and hash kind, then simulates the source
//! event by event through a [`Hierarchy`] monomorphized over the concrete
//! L2 cache and index-function types — no per-reference `dyn` dispatch
//! on the hot path. Sources that decode or receive a chunk at a time
//! (replay cursors, generator streams, tenant mixes) do so inside their
//! own `next`.
//!
//! Observed runs ([`crate::observe`]) use the same driver with a
//! recorder attached to every model; sweeps attach none.
//!
//! The driver is bit-identical to the dynamically-dispatched reference
//! path, kept as [`run_trace_reference`]; the `batched_equivalence`
//! integration test proves it per workload and scheme (stats, writeback
//! order, fingerprints).

use primecache_cache::{
    bank_disp_factor, Cache, CacheStats, FullyAssociative, Hierarchy, HierarchyConfig,
    L2Organization, L2Sim, SkewHashKind, SkewedCache,
};
use primecache_core::index::{
    Geometry, HashKind, PrimeDisplacement, PrimeModulo, SkewDispBank, SkewXorBank, Traditional, Xor,
};
use primecache_cpu::{Cpu, ExecBreakdown, StallAttribution};
use primecache_mem::{Dram, DramStats};
use primecache_obs::ObsHandle;
use primecache_trace::{EncodedTrace, Event, ReplayCursor};
use primecache_workloads::{EventChunks, Workload};
use serde::{Deserialize, Serialize};

use crate::{MachineConfig, Scheme};

/// Everything one simulation produces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunResult {
    /// The scheme simulated.
    pub scheme: Scheme,
    /// Execution-time breakdown (Figs. 7–10).
    pub breakdown: ExecBreakdown,
    /// L1 statistics.
    pub l1: CacheStats,
    /// L2 demand statistics (Figs. 11–13 count these misses).
    pub l2: CacheStats,
    /// DRAM statistics.
    pub dram: DramStats,
}

impl RunResult {
    /// L2 demand misses — the paper's miss metric.
    #[must_use]
    pub fn l2_misses(&self) -> u64 {
        self.l2.misses
    }
}

/// What an observed run needs beyond its [`RunResult`], read from the
/// models before they drop.
pub(crate) struct ObservedTail {
    /// Per-cause stall attribution of the measured run.
    pub(crate) stalls: StallAttribution,
    /// End-of-run valid lines per L2 set ([`Hierarchy::l2_occupancy`]).
    pub(crate) l2_occupancy: Vec<u64>,
}

/// One monomorphized run request; [`dispatch`] resolves the scheme's L2
/// type once and calls [`DriverOp::exec`] with it.
trait DriverOp {
    fn exec<X: L2Sim>(self, hcfg: HierarchyConfig, l2: X) -> (RunResult, Option<ObservedTail>);
}

/// Resolves `scheme` to a concrete L2 cache type and runs `op`
/// monomorphized over it. This is the once-per-run dispatch that
/// replaces per-reference `Box<dyn SetIndexer>` calls.
fn dispatch<Op: DriverOp>(
    machine: &MachineConfig,
    scheme: Scheme,
    op: Op,
) -> (RunResult, Option<ObservedTail>) {
    let hcfg = machine.hierarchy_config(scheme);
    match hcfg.l2 {
        L2Organization::SetAssoc(cfg) => {
            let geom = Geometry::new(cfg.n_set_phys());
            match cfg.hash() {
                HashKind::Traditional => {
                    op.exec(hcfg, Cache::with_typed(cfg, Traditional::new(geom)))
                }
                HashKind::Xor => op.exec(hcfg, Cache::with_typed(cfg, Xor::new(geom))),
                HashKind::PrimeModulo => {
                    op.exec(hcfg, Cache::with_typed(cfg, PrimeModulo::new(geom)))
                }
                HashKind::PrimeDisplacement => op.exec(
                    hcfg,
                    Cache::with_typed(cfg, PrimeDisplacement::paper_default(geom)),
                ),
                HashKind::Expr(id) => op.exec(hcfg, Cache::with_typed(cfg, id.indexer())),
            }
        }
        L2Organization::Skewed(cfg) => match cfg.hash() {
            SkewHashKind::Xor => op.exec(
                hcfg,
                SkewedCache::with_banks(cfg, |b, g| SkewXorBank::new(g, b)),
            ),
            SkewHashKind::PrimeDisplacement => op.exec(
                hcfg,
                SkewedCache::with_banks(cfg, |b, g| SkewDispBank::new(g, bank_disp_factor(b))),
            ),
        },
        L2Organization::FullyAssociative {
            size_bytes,
            line_bytes,
        } => op.exec(hcfg, FullyAssociative::new(size_bytes, line_bytes)),
    }
}

/// The one driver: an event source plus an optional warm-up boundary
/// and an optional recorder.
pub(crate) struct Drive<'m, T> {
    pub(crate) events: T,
    /// Memory references that warm the caches before every statistic
    /// resets; `None` measures the whole source.
    pub(crate) warm_refs: Option<u64>,
    /// Recorder attached to the hierarchy, DRAM and CPU; `None` runs
    /// unobserved.
    pub(crate) obs: Option<ObsHandle>,
    pub(crate) machine: &'m MachineConfig,
    pub(crate) scheme: Scheme,
}

impl<T: IntoIterator<Item = Event>> Drive<'_, T> {
    /// Checks the scheme (debug/`check` builds) and runs the source.
    /// The [`ObservedTail`] is `Some` exactly when a recorder is
    /// attached.
    pub(crate) fn run(self) -> (RunResult, Option<ObservedTail>) {
        #[cfg(any(debug_assertions, feature = "check"))]
        self.machine.check_scheme(self.scheme);
        dispatch(self.machine, self.scheme, self)
    }
}

impl<T: IntoIterator<Item = Event>> DriverOp for Drive<'_, T> {
    fn exec<X: L2Sim>(self, hcfg: HierarchyConfig, l2: X) -> (RunResult, Option<ObservedTail>) {
        // `MachineConfig::hierarchy_config` always builds the paper's
        // L1, which indexes traditionally.
        debug_assert_eq!(hcfg.l1.hash(), HashKind::Traditional);
        let l1 = Cache::with_typed(
            hcfg.l1,
            Traditional::new(Geometry::new(hcfg.l1.n_set_phys())),
        );
        let mut hierarchy = Hierarchy::with_parts(hcfg, l1, l2);
        let mut dram = Dram::new(self.machine.mem);
        let mut cpu = Cpu::new(self.machine.cpu);
        if let Some(h) = &self.obs {
            hierarchy.attach_obs(h.clone());
            dram.attach_obs(h.clone());
            cpu.attach_obs(h.clone());
        }
        let mut events = self.events.into_iter();

        if let Some(warm_refs) = self.warm_refs {
            // The boundary falls immediately *after* the event that
            // completes the `warm_refs`-th memory reference, exactly where
            // the materialized-split implementation cut.
            let mut seen = 0u64;
            let mut boundary = false;
            let warm = std::iter::from_fn(|| {
                if boundary {
                    return None;
                }
                let ev = events.next()?;
                if ev.is_memory() {
                    seen += 1;
                }
                boundary = seen >= warm_refs;
                Some(ev)
            });
            let _ = cpu.run(warm, &mut hierarchy, &mut dram);
            hierarchy.reset_stats();
            dram.new_epoch();
        }

        let breakdown = cpu.run(events, &mut hierarchy, &mut dram);
        let result = RunResult {
            scheme: self.scheme,
            breakdown,
            l1: hierarchy.l1_stats().clone(),
            l2: hierarchy.l2_stats().clone(),
            dram: *dram.stats(),
        };
        let tail = self.obs.is_some().then(|| ObservedTail {
            stalls: cpu.last_stall_attribution(),
            l2_occupancy: hierarchy.l2_occupancy(),
        });
        (result, tail)
    }
}

/// Runs `events` unobserved through the one monomorphized driver.
fn drive<T: IntoIterator<Item = Event>>(
    events: T,
    warm_refs: Option<u64>,
    scheme: Scheme,
    machine: &MachineConfig,
) -> RunResult {
    Drive {
        events,
        warm_refs,
        obs: None,
        machine,
        scheme,
    }
    .run()
    .0
}

/// Runs an explicit event stream under a scheme on the paper's machine.
///
/// Accepts anything iterable — a materialized `Vec<Event>` or a lazy
/// [`primecache_workloads::EventStream`] — so peak memory can stay O(1)
/// in trace length. The caches are monomorphized over the scheme's
/// index functions (selected here, once).
#[must_use]
pub fn run_trace<T>(trace: T, scheme: Scheme, machine: &MachineConfig) -> RunResult
where
    T: IntoIterator<Item = Event>,
{
    drive(trace, None, scheme, machine)
}

/// The dynamically-dispatched reference driver: `Box<dyn SetIndexer>`
/// caches behind [`Hierarchy::new`], exactly the pre-batching hot path.
///
/// Kept as the differential baseline for the monomorphized drivers —
/// the `batched_equivalence` integration test asserts bit-identical
/// stats, writeback order, and breakdowns against it. Not intended for
/// performance work.
#[must_use]
pub fn run_trace_reference<T>(trace: T, scheme: Scheme, machine: &MachineConfig) -> RunResult
where
    T: IntoIterator<Item = Event>,
{
    #[cfg(any(debug_assertions, feature = "check"))]
    machine.check_scheme(scheme);
    let mut hierarchy = Hierarchy::new(machine.hierarchy_config(scheme));
    let mut dram = Dram::new(machine.mem);
    let mut cpu = Cpu::new(machine.cpu);
    let breakdown = cpu.run(trace, &mut hierarchy, &mut dram);
    RunResult {
        scheme,
        breakdown,
        l1: hierarchy.l1_stats().clone(),
        l2: hierarchy.l2_stats().clone(),
        dram: *dram.stats(),
    }
}

/// [`run_workload`] on the dynamically-dispatched reference driver:
/// the same streamed trace, driven event-at-a-time through boxed-index
/// caches. The before side of the before/after throughput tables
/// (`pcache bench`/`throughput --reference`); results are bit-identical
/// to [`run_workload`], only slower.
#[must_use]
pub fn run_workload_reference(workload: &Workload, scheme: Scheme, target_refs: u64) -> RunResult {
    let machine = MachineConfig::paper_default();
    run_trace_reference(workload.events(target_refs), scheme, &machine)
}

/// Runs a workload under a scheme on the paper's default machine.
///
/// `target_refs` sets the trace length in memory references, as in
/// [`Workload::events`]: the generator stops at the first loop boundary
/// at or after `target_refs` references, so a run can simulate a few
/// more (`swim` at 1 simulates 4). The trace is streamed from a
/// generator thread, never materialized.
///
/// # Examples
///
/// ```
/// use primecache_sim::{run_workload, Scheme};
/// use primecache_workloads::by_name;
///
/// let r = run_workload(by_name("swim").unwrap(), Scheme::Base, 20_000);
/// assert!(r.breakdown.total() > 0);
/// ```
#[must_use]
pub fn run_workload(workload: &Workload, scheme: Scheme, target_refs: u64) -> RunResult {
    let machine = MachineConfig::paper_default();
    drive(workload.events(target_refs), None, scheme, &machine)
}

/// Runs a *recorded* trace replay under a scheme: the driver of
/// [`run_workload`] fed from a [`ReplayCursor`] instead of a live
/// generator stream.
///
/// Decode is bit-identical to live generation (the codec is lossless
/// and the recording sink sees the same push sequence), so results
/// match [`run_workload`] exactly — stats, writeback order, breakdowns —
/// which the `replay_equivalence` integration test pins for all 23
/// workloads × all 8 schemes. This is the per-cell hot path of
/// [`crate::suite::run_sweep`]: one generation, eight replays.
#[must_use]
pub fn run_replay(cursor: ReplayCursor<'_>, scheme: Scheme, machine: &MachineConfig) -> RunResult {
    run_chunks(cursor, scheme, machine)
}

/// Runs any [`EventChunks`] source through the driver.
///
/// This is the generic entry behind [`run_replay`]: a recorded
/// [`ReplayCursor`], an imported trace's cursor, or a multi-tenant
/// [`primecache_workloads::MixCursor`] all drive the identical
/// monomorphized hot path, so results across sources differ only by
/// their event sequences — pinned by `tests/ingest_equivalence.rs`
/// (single-tenant mix == plain replay, bit-exactly).
#[must_use]
pub fn run_chunks<S: EventChunks>(stream: S, scheme: Scheme, machine: &MachineConfig) -> RunResult {
    drive(stream, None, scheme, machine)
}

/// [`run_replay`] over a whole recorded trace, from its start.
#[must_use]
pub fn run_recorded(trace: &EncodedTrace, scheme: Scheme, machine: &MachineConfig) -> RunResult {
    run_replay(trace.replay(), scheme, machine)
}

/// Records `workload` once (same-thread, compact encoding) and replays
/// the recording through the driver — bit-identical to
/// [`run_workload`] on the paper's default machine.
#[must_use]
pub fn run_workload_recorded(workload: &Workload, scheme: Scheme, target_refs: u64) -> RunResult {
    let machine = MachineConfig::paper_default();
    run_recorded(&workload.record(target_refs), scheme, &machine)
}

/// Runs a workload with a warmup phase: the first `warm_refs` memory
/// references fill the caches and open the DRAM rows, then every
/// statistic (and the cycle clock) resets and only the next
/// `measure_refs` references are measured — excluding compulsory misses
/// from the figures, as steady-state methodology prescribes.
///
/// The warm/measure boundary is a mid-stream stat reset on one
/// continuous event stream: no combined `warm + measure` trace is ever
/// built in memory.
///
/// # Examples
///
/// ```
/// use primecache_sim::{run_workload_warm, Scheme};
/// use primecache_workloads::by_name;
///
/// let r = run_workload_warm(by_name("tree").unwrap(), Scheme::PrimeModulo, 20_000, 20_000);
/// assert!(r.l1.accesses >= 20_000);
/// ```
#[must_use]
pub fn run_workload_warm(
    workload: &Workload,
    scheme: Scheme,
    warm_refs: u64,
    measure_refs: u64,
) -> RunResult {
    let machine = MachineConfig::paper_default();
    drive(
        workload.events(warm_refs + measure_refs),
        Some(warm_refs),
        scheme,
        &machine,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use primecache_workloads::by_name;

    #[test]
    fn run_produces_consistent_stats() {
        let r = run_workload(by_name("swim").unwrap(), Scheme::Base, 20_000);
        assert!(r.l1.accesses >= 20_000);
        assert_eq!(r.l2.hits + r.l2.misses, r.l2.accesses);
        assert!(r.breakdown.total() > 0);
    }

    #[test]
    fn tree_pmod_beats_base() {
        let tree = by_name("tree").unwrap();
        let base = run_workload(tree, Scheme::Base, 60_000);
        let pmod = run_workload(tree, Scheme::PrimeModulo, 60_000);
        assert!(
            pmod.l2_misses() * 2 < base.l2_misses(),
            "pMod {} vs Base {}",
            pmod.l2_misses(),
            base.l2_misses()
        );
        assert!(pmod.breakdown.total() < base.breakdown.total());
    }

    #[test]
    fn warm_runs_exclude_cold_misses() {
        let tree = by_name("tree").unwrap();
        let cold = run_workload(tree, Scheme::PrimeModulo, 60_000);
        let warm = run_workload_warm(tree, Scheme::PrimeModulo, 60_000, 60_000);
        // Warmed pMod tree is nearly all hits: its measured miss rate must
        // be far below the cold-start run's.
        assert!(
            warm.l2.miss_rate() < cold.l2.miss_rate() / 2.0,
            "warm {} vs cold {}",
            warm.l2.miss_rate(),
            cold.l2.miss_rate()
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let w = by_name("mcf").unwrap();
        let a = run_workload(w, Scheme::Xor, 10_000);
        let b = run_workload(w, Scheme::Xor, 10_000);
        assert_eq!(a.breakdown, b.breakdown);
        assert_eq!(a.l2.misses, b.l2.misses);
    }

    /// The pre-streaming `run_workload_warm` materialized the combined
    /// trace and split it at the warm boundary. Reproduce that path here
    /// (on the reference dyn driver) and assert the mid-stream-reset
    /// driver is bit-identical.
    fn warm_via_materialized_split(
        workload: &primecache_workloads::Workload,
        scheme: Scheme,
        warm_refs: u64,
        measure_refs: u64,
    ) -> RunResult {
        let machine = MachineConfig::paper_default();
        let trace = workload.trace(warm_refs + measure_refs);
        let mut seen = 0u64;
        let split = trace
            .iter()
            .position(|e| {
                if e.is_memory() {
                    seen += 1;
                }
                seen >= warm_refs
            })
            .map_or(trace.len(), |i| i + 1);
        let (warm, measure) = trace.split_at(split);

        let mut hierarchy = Hierarchy::new(machine.hierarchy_config(scheme));
        let mut dram = Dram::new(machine.mem);
        let mut cpu = Cpu::new(machine.cpu);
        let _ = cpu.run(warm.to_vec(), &mut hierarchy, &mut dram);
        hierarchy.reset_stats();
        dram.new_epoch();
        let breakdown = cpu.run(measure.to_vec(), &mut hierarchy, &mut dram);
        RunResult {
            scheme,
            breakdown,
            l1: hierarchy.l1_stats().clone(),
            l2: hierarchy.l2_stats().clone(),
            dram: *dram.stats(),
        }
    }

    #[test]
    fn warm_stream_reset_matches_legacy_split_path() {
        for (name, scheme, warm, measure) in [
            ("tree", Scheme::PrimeModulo, 20_000, 20_000),
            ("mcf", Scheme::Base, 5_000, 15_000),
            ("swim", Scheme::Xor, 0, 10_000), // zero-warm edge case
        ] {
            let w = by_name(name).unwrap();
            let streamed = run_workload_warm(w, scheme, warm, measure);
            let legacy = warm_via_materialized_split(w, scheme, warm, measure);
            assert_eq!(
                streamed.breakdown, legacy.breakdown,
                "{name}/{scheme:?}: breakdown diverges"
            );
            assert_eq!(streamed.l1, legacy.l1, "{name}/{scheme:?}: L1 diverges");
            assert_eq!(streamed.l2, legacy.l2, "{name}/{scheme:?}: L2 diverges");
            assert_eq!(
                streamed.dram, legacy.dram,
                "{name}/{scheme:?}: DRAM diverges"
            );
        }
    }

    #[test]
    fn streamed_run_matches_materialized_run() {
        let machine = MachineConfig::paper_default();
        for name in ["tree", "swim", "cg"] {
            let w = by_name(name).unwrap();
            let streamed = run_trace(w.events(15_000), Scheme::PrimeModulo, &machine);
            let materialized = run_trace(w.trace(15_000), Scheme::PrimeModulo, &machine);
            assert_eq!(streamed.breakdown, materialized.breakdown, "{name}");
            assert_eq!(streamed.l2, materialized.l2, "{name}");
        }
    }

    #[test]
    fn dsl_pmod_scheme_matches_builtin_pmod_bit_for_bit() {
        // The DSL-compiled `a % 2039` closure must be indistinguishable
        // from the hand-written pMod indexer inside the driver: same
        // sets, same latency class, same stats.
        let id = primecache_core::expr::register_anonymous("a % 2039").expect("valid expression");
        let w = by_name("tree").unwrap();
        let expr = run_workload(w, Scheme::Expr(id), 20_000);
        let pmod = run_workload(w, Scheme::PrimeModulo, 20_000);
        assert_eq!(expr.breakdown, pmod.breakdown);
        assert_eq!(expr.l1, pmod.l1);
        assert_eq!(expr.l2, pmod.l2);
        assert_eq!(expr.dram, pmod.dram);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-prime-modulus")]
    fn run_trace_rejects_uncertified_expr_scheme_before_simulation() {
        let id = primecache_core::expr::register_anonymous("a % 2046").expect("valid expression");
        let machine = MachineConfig::paper_default();
        let _ = run_trace(Vec::new(), Scheme::Expr(id), &machine);
    }

    #[test]
    fn batched_drivers_match_reference_quick() {
        // A quick per-scheme smoke of what the root `batched_equivalence`
        // battery proves exhaustively: the monomorphized driver is
        // bit-identical to the dyn reference path.
        let machine = MachineConfig::paper_default();
        let w = by_name("mcf").unwrap();
        for scheme in [
            Scheme::PrimeModulo,
            Scheme::Skewed,
            Scheme::FullyAssociative,
        ] {
            let batched = run_workload(w, scheme, 8_000);
            let reference = run_trace_reference(w.trace(8_000), scheme, &machine);
            assert_eq!(batched.breakdown, reference.breakdown, "{scheme:?}");
            assert_eq!(batched.l1, reference.l1, "{scheme:?}");
            assert_eq!(batched.l2, reference.l2, "{scheme:?}");
            assert_eq!(batched.dram, reference.dram, "{scheme:?}");
        }
    }
}
