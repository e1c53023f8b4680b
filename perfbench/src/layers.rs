//! The layer ladder: each layer of the simulation path timed in
//! isolation, from the benchmark's side, over a workload's own decoded
//! traces.
//!
//! For a recorded trace and a scheme the ladder times
//! * `trace` — draining `ReplayCursor::next_chunk` (decode);
//! * `core` — `SetIndexer::index` over the trace's L2 block addresses;
//! * `cache` — `Hierarchy::access` over the decoded events, with the
//!   same monomorphized parts `sim` builds (see [`with_hierarchy`]);
//! * `cpu` — `run_trace` over the decoded slice (dispatch plus
//!   `Cpu::run`) minus the hierarchy-only time;
//! * `mem` — `Dram::request` replaying the captured miss and writeback
//!   stream;
//! * `sim` — `run_replay` minus (decode + the slice run): the chunk and
//!   hint glue of the shipped driver.
//!
//! By construction decode + hierarchy + cpu + driver equals the
//! `run_replay` time of the same trace; the ladder closes against the
//! end-to-end run only through how well isolated single-threaded times
//! predict the real one.

use std::hint::black_box;
use std::time::Instant;

use primecache::cache::{
    bank_disp_factor, AccessOutcome, Cache, FullyAssociative, Hierarchy, L2Organization, L2Sim,
    SkewHashKind, SkewedCache,
};
use primecache::core::index::{
    Geometry, HashKind, PrimeDisplacement, PrimeModulo, SetIndexer, SkewDispBank, SkewXorBank,
    Traditional, Xor,
};
use primecache::mem::Dram;
use primecache::sim::{run_replay, run_trace, MachineConfig, Scheme};
use primecache::trace::{EncodedTrace, Event};
use primecache::workloads::Workload;

use crate::checks::SimCounts;
use crate::report::{Layers, Unit};
use crate::stats::median;

/// Metric-name form of a scheme label (`skw+pDisp` → `skw_pDisp`).
#[must_use]
pub fn scheme_key(s: Scheme) -> String {
    s.label().replace('+', "_")
}

/// The five index functions the ladder times, by metric suffix.
pub const INDEX_FUNCTIONS: [&str; 5] = ["Base", "XOR", "pMod", "pDisp", "skw"];

/// An operation over a hierarchy assembled exactly as `sim` assembles
/// it for a scheme.
pub trait HierOp {
    /// What the operation returns.
    type Out;
    /// Runs the operation on the assembled hierarchy.
    fn run<X: L2Sim>(self, h: Hierarchy<X, Traditional>) -> Self::Out;
}

/// Builds the paper machine's hierarchy for `scheme` from the same
/// monomorphized parts `sim`'s driver uses (concrete index function per
/// scheme, traditional L1) and hands it to `op`.
///
/// # Panics
///
/// Panics for DSL schemes and non-traditional L1s, which the benchmark
/// never runs.
pub fn with_hierarchy<O: HierOp>(machine: &MachineConfig, scheme: Scheme, op: O) -> O::Out {
    let hcfg = machine.hierarchy_config(scheme);
    assert_eq!(
        hcfg.l1.hash(),
        HashKind::Traditional,
        "the paper's L1 is traditional"
    );
    let l1 = Cache::with_typed(
        hcfg.l1,
        Traditional::new(Geometry::new(hcfg.l1.n_set_phys())),
    );
    match hcfg.l2 {
        L2Organization::SetAssoc(cfg) => {
            let geom = Geometry::new(cfg.n_set_phys());
            match cfg.hash() {
                HashKind::Traditional => op.run(Hierarchy::with_parts(
                    hcfg,
                    l1,
                    Cache::with_typed(cfg, Traditional::new(geom)),
                )),
                HashKind::Xor => op.run(Hierarchy::with_parts(
                    hcfg,
                    l1,
                    Cache::with_typed(cfg, Xor::new(geom)),
                )),
                HashKind::PrimeModulo => op.run(Hierarchy::with_parts(
                    hcfg,
                    l1,
                    Cache::with_typed(cfg, PrimeModulo::new(geom)),
                )),
                HashKind::PrimeDisplacement => op.run(Hierarchy::with_parts(
                    hcfg,
                    l1,
                    Cache::with_typed(cfg, PrimeDisplacement::paper_default(geom)),
                )),
                HashKind::Expr(_) => panic!("the benchmark runs built-in schemes only"),
            }
        }
        L2Organization::Skewed(cfg) => match cfg.hash() {
            SkewHashKind::Xor => op.run(Hierarchy::with_parts(
                hcfg,
                l1,
                SkewedCache::with_banks(cfg, |b, g| SkewXorBank::new(g, b)),
            )),
            SkewHashKind::PrimeDisplacement => op.run(Hierarchy::with_parts(
                hcfg,
                l1,
                SkewedCache::with_banks(cfg, |b, g| SkewDispBank::new(g, bank_disp_factor(b))),
            )),
        },
        L2Organization::FullyAssociative {
            size_bytes,
            line_bytes,
        } => op.run(Hierarchy::with_parts(
            hcfg,
            l1,
            FullyAssociative::new(size_bytes, line_bytes),
        )),
    }
}

/// The hierarchy-only pass: one `Hierarchy::access` per load or store
/// and the memory-write drain after every event, exactly the memory
/// path `Cpu::run` takes, without the timing model. Optionally captures
/// the DRAM request stream (demand misses, then dirty victims).
struct HierPass<'a> {
    events: &'a [Event],
    line_bytes: u64,
    capture: Option<&'a mut Vec<(u64, bool)>>,
}

impl HierOp for HierPass<'_> {
    type Out = f64;

    fn run<X: L2Sim>(self, mut h: Hierarchy<X, Traditional>) -> f64 {
        let t = Instant::now();
        match self.capture {
            None => {
                for ev in self.events {
                    if let Some(addr) = ev.addr() {
                        let write = matches!(ev, Event::Store { .. });
                        black_box(h.access(addr, write));
                    }
                    black_box(h.take_memory_writes());
                }
            }
            Some(out) => {
                for ev in self.events {
                    if let Some(addr) = ev.addr() {
                        let write = matches!(ev, Event::Store { .. });
                        if h.access(addr, write) == AccessOutcome::Memory {
                            out.push((addr, false));
                        }
                    }
                    for block in h.take_memory_writes() {
                        out.push((block * self.line_bytes, true));
                    }
                }
            }
        }
        t.elapsed().as_secs_f64()
    }
}

fn l2_line_bytes(machine: &MachineConfig, scheme: Scheme) -> u64 {
    match machine.l2_organization(scheme) {
        L2Organization::SetAssoc(c) => c.line_bytes(),
        L2Organization::Skewed(c) => c.line_bytes(),
        L2Organization::FullyAssociative { line_bytes, .. } => line_bytes,
    }
}

fn time_index<I: SetIndexer>(ix: &I, blocks: &[u64]) -> f64 {
    let t = Instant::now();
    let mut acc = 0u64;
    for &b in blocks {
        acc = acc.wrapping_add(ix.index(black_box(b)));
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Seconds to index every block in `blocks` with each of
/// [`INDEX_FUNCTIONS`], on the paper L2 geometry. `skw` computes every
/// bank's index, as the skewed cache does per access.
#[must_use]
pub fn index_seconds(machine: &MachineConfig, blocks: &[u64]) -> [f64; 5] {
    let L2Organization::SetAssoc(base) = machine.l2_organization(Scheme::Base) else {
        unreachable!("Base is set-associative")
    };
    let geom = Geometry::new(base.n_set_phys());
    let L2Organization::Skewed(skw) = machine.l2_organization(Scheme::Skewed) else {
        unreachable!("SKW is skewed")
    };
    let bank_geom = Geometry::new(skw.sets_per_bank());
    let banks: Vec<SkewXorBank> = (0..skw.banks())
        .map(|b| SkewXorBank::new(bank_geom, b))
        .collect();
    let skew_t = Instant::now();
    let mut acc = 0u64;
    for &b in blocks {
        for bank in &banks {
            acc = acc.wrapping_add(bank.index(black_box(b)));
        }
    }
    black_box(acc);
    let skew_s = skew_t.elapsed().as_secs_f64();
    [
        time_index(&Traditional::new(geom), blocks),
        time_index(&Xor::new(geom), blocks),
        time_index(&PrimeModulo::new(geom), blocks),
        time_index(&PrimeDisplacement::paper_default(geom), blocks),
        skew_s,
    ]
}

/// Median construction time in µs of the three L2 organizations
/// (`Cache::new`, `SkewedCache::new`, `FullyAssociative::new`) at the
/// paper's geometry.
#[must_use]
pub fn build_us(machine: &MachineConfig) -> [f64; 3] {
    const REPS: usize = 41;
    let timed = |f: &dyn Fn()| {
        let xs: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&xs)
    };
    let L2Organization::SetAssoc(base) = machine.l2_organization(Scheme::Base) else {
        unreachable!("Base is set-associative")
    };
    let L2Organization::Skewed(skw) = machine.l2_organization(Scheme::Skewed) else {
        unreachable!("SKW is skewed")
    };
    let L2Organization::FullyAssociative {
        size_bytes,
        line_bytes,
    } = machine.l2_organization(Scheme::FullyAssociative)
    else {
        unreachable!("FA is fully associative")
    };
    [
        timed(&|| drop(black_box(Cache::new(base)))),
        timed(&|| drop(black_box(SkewedCache::new(skw)))),
        timed(&|| drop(black_box(FullyAssociative::new(size_bytes, line_bytes)))),
    ]
}

/// Ladder timings over a set of traces, per trace and scheme.
#[derive(Debug, Default)]
pub struct Ladder {
    /// Schemes timed, in column order.
    pub schemes: Vec<Scheme>,
    /// Memory references per trace.
    pub refs: Vec<u64>,
    /// Decode seconds per trace.
    pub decode_s: Vec<f64>,
    /// Index seconds per function, summed over traces.
    pub index_s: [f64; 5],
    /// Hierarchy-only seconds per trace and scheme.
    pub hier_s: Vec<Vec<f64>>,
    /// `run_replay` seconds per trace and scheme.
    pub replay_s: Vec<Vec<f64>>,
    /// `run_trace` over the decoded slice, seconds per trace and scheme.
    pub slice_s: Vec<Vec<f64>>,
    /// Seconds replaying pMod's DRAM request streams.
    pub mem_s: f64,
    /// DRAM requests replayed.
    pub mem_requests: u64,
}

impl Ladder {
    /// Times every layer over `traces` under `schemes`. Each timing is
    /// the median of enough repetitions that every trace set is run over
    /// at least `LADDER_MIN_REFS` references (at most five).
    #[must_use]
    pub fn measure(machine: &MachineConfig, traces: &[&EncodedTrace], schemes: &[Scheme]) -> Self {
        const LADDER_MIN_REFS: u64 = 2_000_000;
        let total: u64 = traces.iter().map(|t| t.refs()).sum();
        let reps = usize::try_from((LADDER_MIN_REFS / total.max(1)).clamp(1, 5)).expect("small");
        let timed =
            |f: &mut dyn FnMut() -> f64| median(&(0..reps).map(|_| f()).collect::<Vec<_>>());
        let mut l = Ladder {
            schemes: schemes.to_vec(),
            ..Ladder::default()
        };
        let shift = l2_line_bytes(machine, Scheme::Base).trailing_zeros();
        for trace in traces {
            // Decode as the replay driver sees it: chunk by chunk, each
            // dropped before the next. The decoded slice is built apart.
            l.decode_s.push(timed(&mut || {
                let t = Instant::now();
                let mut cursor = trace.replay();
                while let Some(chunk) = cursor.next_chunk() {
                    black_box(chunk);
                }
                t.elapsed().as_secs_f64()
            }));
            let events: Vec<Event> = trace.replay().collect();
            l.refs.push(trace.refs());
            let blocks: Vec<u64> = events
                .iter()
                .filter_map(|e| e.addr())
                .map(|a| a >> shift)
                .collect();
            let runs: Vec<[f64; 5]> = (0..reps).map(|_| index_seconds(machine, &blocks)).collect();
            for (k, acc) in l.index_s.iter_mut().enumerate() {
                *acc += median(&runs.iter().map(|r| r[k]).collect::<Vec<_>>());
            }
            let (mut hier, mut replay, mut slice) = (Vec::new(), Vec::new(), Vec::new());
            for &scheme in schemes {
                let line_bytes = l2_line_bytes(machine, scheme);
                hier.push(timed(&mut || {
                    with_hierarchy(
                        machine,
                        scheme,
                        HierPass {
                            events: &events,
                            line_bytes,
                            capture: None,
                        },
                    )
                }));
                replay.push(timed(&mut || {
                    let t = Instant::now();
                    black_box(run_replay(trace.replay(), scheme, machine));
                    t.elapsed().as_secs_f64()
                }));
                slice.push(timed(&mut || {
                    let t = Instant::now();
                    black_box(run_trace(events.iter().copied(), scheme, machine));
                    t.elapsed().as_secs_f64()
                }));
            }
            l.hier_s.push(hier);
            l.replay_s.push(replay);
            l.slice_s.push(slice);

            let mut requests = Vec::new();
            let _ = with_hierarchy(
                machine,
                Scheme::PrimeModulo,
                HierPass {
                    events: &events,
                    line_bytes: l2_line_bytes(machine, Scheme::PrimeModulo),
                    capture: Some(&mut requests),
                },
            );
            l.mem_s += timed(&mut || {
                let mut dram = Dram::new(machine.mem);
                let t = Instant::now();
                for (i, &(addr, write)) in requests.iter().enumerate() {
                    // A steady 20-cycle issue clock: the request path is the
                    // same whatever the clock, only queueing differs.
                    black_box(dram.request(black_box(addr), i as u64 * 20, write));
                }
                t.elapsed().as_secs_f64()
            });
            l.mem_requests += requests.len() as u64;
        }
        l
    }

    /// Sum over traces of `col(trace, scheme)` for scheme column `j`.
    fn scheme_total(rows: &[Vec<f64>], j: usize) -> f64 {
        rows.iter().map(|r| r[j]).sum()
    }

    /// Total references over all traces.
    #[must_use]
    pub fn total_refs(&self) -> u64 {
        self.refs.iter().sum()
    }

    /// `run_replay` seconds of trace `i` under scheme column `j`.
    #[must_use]
    pub fn replay(&self, i: usize, j: usize) -> f64 {
        self.replay_s[i][j]
    }

    /// Column of `scheme`, if the ladder timed it.
    #[must_use]
    pub fn column(&self, scheme: Scheme) -> Option<usize> {
        self.schemes.iter().position(|&s| s == scheme)
    }

    /// Adds the ladder's per-layer metrics to `out`.
    pub fn report(&self, out: &mut Layers) {
        let refs = self.total_refs() as f64;
        let decode: f64 = self.decode_s.iter().sum();
        out.put(
            "trace.decode_ns_per_ref",
            decode / refs * 1e9,
            Unit::NsPerRef,
        );
        for (name, s) in INDEX_FUNCTIONS.iter().zip(self.index_s) {
            out.put(
                &format!("core.index_ns_per_ref.{name}"),
                s / refs * 1e9,
                Unit::NsPerRef,
            );
        }
        let (mut cpu, mut driver) = (0.0, 0.0);
        for (j, &scheme) in self.schemes.iter().enumerate() {
            let hier = Self::scheme_total(&self.hier_s, j);
            let replay = Self::scheme_total(&self.replay_s, j);
            let slice = Self::scheme_total(&self.slice_s, j);
            let key = scheme_key(scheme);
            out.put(
                &format!("cache.hier_ns_per_ref.{key}"),
                hier / refs * 1e9,
                Unit::NsPerRef,
            );
            out.put(
                &format!("sim.replay_vs_slice_ratio.{key}"),
                replay / slice,
                Unit::Ratio,
            );
            cpu += slice - hier;
            driver += replay - decode - slice;
        }
        let scheme_refs = refs * self.schemes.len() as f64;
        out.put("cpu.ns_per_ref", cpu / scheme_refs * 1e9, Unit::NsPerRef);
        out.put(
            "sim.driver_ns_per_ref",
            driver / scheme_refs * 1e9,
            Unit::NsPerRef,
        );
        out.put(
            "mem.request_ns",
            self.mem_s / self.mem_requests.max(1) as f64 * 1e9,
            Unit::Ns,
        );
    }
}

/// Records each workload at `refs` references, timing `Workload::record`.
/// Returns the traces and the total recording seconds.
#[must_use]
pub fn record_all(apps: &[&Workload], refs: u64) -> (Vec<EncodedTrace>, f64) {
    let mut total = 0.0;
    let traces = apps
        .iter()
        .map(|w| {
            let t = Instant::now();
            let trace = w.record(refs);
            total += t.elapsed().as_secs_f64();
            trace
        })
        .collect();
    (traces, total)
}

/// Adds the `workloads` recording metrics for `traces` recorded in
/// `record_s` seconds.
pub fn report_record(traces: &[&EncodedTrace], record_s: f64, out: &mut Layers) {
    let refs: u64 = traces.iter().map(|t| t.refs()).sum();
    let bytes: u64 = traces.iter().map(|t| t.encoded_bytes()).sum();
    out.put(
        "workloads.record_ns_per_ref",
        record_s / refs as f64 * 1e9,
        Unit::NsPerRef,
    );
    out.put(
        "workloads.store_bytes_per_ref",
        bytes as f64 / refs as f64,
        Unit::BytesPerRef,
    );
}

/// Adds the exact simulated counts.
pub fn report_counts(c: &SimCounts, out: &mut Layers) {
    out.put_count("cache.l1.misses", c.l1_misses);
    out.put_count("cache.l2.misses", c.l2_misses);
    out.put_count("cache.l2.writebacks", c.l2_writebacks);
    out.put_count("cpu.sim_cycles", c.cycles);
    out.put_count("mem.requests", c.mem_requests);
    out.put_count("mem.row_hits", c.row_hits);
}

/// Adds `cache.build_us.*`, which depends on no workload input.
pub fn report_build(machine: &MachineConfig, out: &mut Layers) {
    let [sa, sk, fa] = build_us(machine);
    out.put("cache.build_us.set_assoc", sa, Unit::Us);
    out.put("cache.build_us.skewed", sk, Unit::Us);
    out.put("cache.build_us.fully_assoc", fa, Unit::Us);
}

/// Drains each workload's live generator stream (`Workload::events`) at
/// `refs` references; adds `workloads.stream_ns_per_ref` and
/// `workloads.stream_blocked_waits`.
pub fn report_stream(apps: &[&Workload], refs: u64, out: &mut Layers) {
    let (mut secs, mut total_refs, mut blocked) = (0.0, 0u64, 0u64);
    for w in apps {
        let t = Instant::now();
        let mut stream = w.events(refs);
        while let Some(chunk) = stream.next_chunk() {
            total_refs += chunk.iter().filter(|e| e.is_memory()).count() as u64;
            black_box(chunk);
        }
        secs += t.elapsed().as_secs_f64();
        blocked += stream.stream_stats().1;
    }
    out.put(
        "workloads.stream_ns_per_ref",
        secs / total_refs as f64 * 1e9,
        Unit::NsPerRef,
    );
    out.put_count("workloads.stream_blocked_waits", blocked);
}
