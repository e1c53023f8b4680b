//! `live-run`: `run_workload_warm` on three applications at a long
//! length under Base and pMod. It is the only workload on the live
//! generator-thread + channel path that `pcache run`/`report` use, and
//! the path every length above `STORE_MAX_REFS` takes. Caches are warmed
//! before measuring. The seed picks the applications: one from the
//! paper's non-uniform group and two uniform ones, each from a pool of
//! applications whose host cost on this path is close, so that the
//! choice moves the workload's inputs without moving its size.

use std::time::Instant;

use primecache::cache::L2Sim;
use primecache::cpu::Cpu;
use primecache::mem::Dram;
use primecache::sim::{run_workload_warm, MachineConfig, RunResult, Scheme};
use primecache::workloads::{by_name, Workload};

use crate::checks::{digest, Checks, SimCounts};
use crate::layers::{
    record_all, report_counts, report_record, report_stream, with_hierarchy, HierOp, Ladder,
};
use crate::report::{Layers, Unit};
use crate::spans::Tracer;
use crate::stats::splitmix;
use crate::{Bench, Sample, Scale};

/// Schemes each application runs under.
pub const SCHEMES: [Scheme; 2] = [Scheme::Base, Scheme::PrimeModulo];

/// Non-uniform applications the seed picks one of.
pub const NON_UNIFORM_POOL: [&str; 2] = ["bt", "ft"];

/// Uniform applications the seed picks two of. Both pools hold the
/// applications whose cells cost within a few percent of each other
/// under both schemes on this path (111–121 ms each, medians of seven
/// round-robin passes on a 2-core Xeon VM).
pub const UNIFORM_POOL: [&str; 4] = ["lu", "gap", "equake", "charmm"];

/// Warm-up references per cell at full scale.
pub const WARM_REFS: u64 = 200_000;
/// Measured references per cell at full scale.
pub const MEASURE_REFS: u64 = 800_000;

/// The `live-run` workload.
#[derive(Debug)]
pub struct LiveRun {
    apps: Vec<&'static Workload>,
    warm: u64,
    measure: u64,
    seed: u64,
    machine: MachineConfig,
    reference: Vec<RunResult>,
    counts: SimCounts,
    checks: Checks,
}

/// The applications `seed` picks.
#[must_use]
pub fn pick_apps(seed: u64) -> Vec<&'static Workload> {
    let r = splitmix(seed);
    let n = NON_UNIFORM_POOL.len() as u64;
    let u = UNIFORM_POOL.len() as u64;
    let first = (r >> 8) % u;
    let second = (first + 1 + (r >> 24) % (u - 1)) % u;
    [
        NON_UNIFORM_POOL[usize::try_from(r % n).expect("fits")],
        UNIFORM_POOL[usize::try_from(first).expect("fits")],
        UNIFORM_POOL[usize::try_from(second).expect("fits")],
    ]
    .iter()
    .map(|name| by_name(name).expect("a suite workload"))
    .collect()
}

/// Builds and drops a hierarchy.
struct Build;

impl HierOp for Build {
    type Out = ();
    fn run<X: L2Sim>(
        self,
        h: primecache::cache::Hierarchy<X, primecache::core::index::Traditional>,
    ) {
        std::hint::black_box(h);
    }
}

impl LiveRun {
    /// The workload for `seed` at `scale`.
    #[must_use]
    pub fn new(seed: u64, scale: Scale) -> Self {
        let (warm, measure) = match scale {
            Scale::Full => (WARM_REFS, MEASURE_REFS),
            Scale::Calibration => (5_000, 20_000),
        };
        Self {
            apps: pick_apps(seed),
            warm,
            measure,
            seed,
            machine: MachineConfig::paper_default(),
            reference: Vec::new(),
            counts: SimCounts::default(),
            checks: Checks::default(),
        }
    }

    /// What a cell pays before its first simulated reference, measured
    /// from outside the driver with the same public pieces: building the
    /// scheme's hierarchy, spawning the generator and receiving its
    /// first chunk.
    fn setup_probe(&self, w: &Workload, scheme: Scheme) -> f64 {
        let t = Instant::now();
        with_hierarchy(&self.machine, scheme, Build);
        let mut stream = w.events(self.warm + self.measure);
        let first = stream.next_chunk();
        let s = t.elapsed().as_secs_f64();
        std::hint::black_box(first);
        s
    }

    /// The reference driver over a materialized trace split at the warm
    /// boundary — independent of the streamed, hinted driver.
    fn reference_run(&self, w: &Workload, scheme: Scheme) -> RunResult {
        let trace = w.trace(self.warm + self.measure);
        let mut seen = 0u64;
        let split = trace
            .iter()
            .position(|e| {
                seen += u64::from(e.is_memory());
                seen >= self.warm
            })
            .map_or(trace.len(), |i| i + 1);
        let (warm, measure) = trace.split_at(split);
        let mut h = primecache::cache::Hierarchy::new(self.machine.hierarchy_config(scheme));
        let mut dram = Dram::new(self.machine.mem);
        let mut cpu = Cpu::new(self.machine.cpu);
        let _ = cpu.run(warm.iter().copied(), &mut h, &mut dram);
        h.reset_stats();
        dram.new_epoch();
        let breakdown = cpu.run(measure.iter().copied(), &mut h, &mut dram);
        RunResult {
            scheme,
            breakdown,
            l1: h.l1_stats().clone(),
            l2: h.l2_stats().clone(),
            dram: *dram.stats(),
        }
    }

    fn cells(&self) -> Vec<(&'static Workload, Scheme)> {
        self.apps
            .iter()
            .flat_map(|&w| SCHEMES.iter().map(move |&s| (w, s)))
            .collect()
    }
}

impl Bench for LiveRun {
    fn iteration(&mut self, tracer: &mut Tracer) -> Sample {
        let t0 = Instant::now();
        let mut cells_s = Vec::new();
        let mut results = Vec::new();
        for (w, s) in self.cells() {
            let c0 = Instant::now();
            let id = tracer.begin("sim.run_workload_warm");
            let r = run_workload_warm(w, s, self.warm, self.measure);
            tracer.end(id);
            cells_s.push(c0.elapsed().as_secs_f64());
            results.push(r);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let setup_s: f64 = self
            .cells()
            .into_iter()
            .map(|(w, s)| self.setup_probe(w, s))
            .sum();
        let refs = results.iter().map(|r| self.warm + r.l1.accesses).sum();
        for ((w, s), r) in self.cells().into_iter().zip(&results) {
            let ok = r.l1.accesses >= self.measure
                && r.l2.hits + r.l2.misses == r.l2.accesses
                && r.l1.validate().is_ok()
                && r.l2.validate().is_ok();
            self.checks.check(ok, || {
                format!("({}, {}): inconsistent statistics", w.name, s.label())
            });
        }
        if self.reference.is_empty() {
            for r in &results {
                self.counts.add(r);
            }
            let mut bad = results[0].clone();
            bad.l1.misses += 1;
            self.checks
                .catches_corruption("live cell", digest(&bad) != digest(&results[0]));
            self.reference = results;
        } else {
            for (i, (w, s)) in self.cells().into_iter().enumerate() {
                let same = digest(&results[i]) == digest(&self.reference[i]);
                self.checks.check(same, || {
                    format!(
                        "({}, {}) differs from the first iteration",
                        w.name,
                        s.label()
                    )
                });
            }
        }
        Sample {
            wall_s,
            setup_s,
            refs,
            cells_s,
        }
    }

    fn verify(&mut self) {
        let n = self.apps.len() * SCHEMES.len();
        let pick = usize::try_from(splitmix(self.seed ^ 0x11FE) % n as u64).expect("fits");
        let (w, s) = self.cells()[pick];
        let independent = self.reference_run(w, s);
        let ok = self.reference.get(pick).map(digest) == Some(digest(&independent));
        self.checks.check(ok, || {
            format!(
                "({}, {}) differs from the reference driver over a materialized split",
                w.name,
                s.label()
            )
        });
    }

    fn checks(&mut self) -> &mut Checks {
        &mut self.checks
    }

    fn layers(&mut self, _tracer: &Tracer, _traced: &[usize], wall_untraced_s: f64) -> Layers {
        let mut out = Layers::default();
        let refs = self.warm + self.measure;
        report_stream(&self.apps, refs, &mut out);
        let (traces, record_s) = record_all(&self.apps, refs);
        let trace_refs: Vec<_> = traces.iter().collect();
        report_record(&trace_refs, record_s, &mut out);
        let ladder = Ladder::measure(&self.machine, &trace_refs, &Scheme::ALL);
        ladder.report(&mut out);
        report_counts(&self.counts, &mut out);
        // Closure: each cell's isolated replay minus decode — the live path
        // receives decoded chunks from its generator thread instead.
        let mut explained = 0.0;
        for i in 0..self.apps.len() {
            for &s in &SCHEMES {
                let j = ladder.column(s).expect("the ladder times every scheme");
                explained += ladder.replay(i, j) - ladder.decode_s[i];
            }
        }
        out.put(
            "ladder.unaccounted_frac",
            1.0 - explained / wall_untraced_s,
            Unit::Frac,
        );
        out
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            (
                "applications",
                self.apps
                    .iter()
                    .map(|w| w.name)
                    .collect::<Vec<_>>()
                    .join(", "),
            ),
            ("schemes", SCHEMES.map(Scheme::label).join(", ")),
            (
                "refs_per_application",
                format!("{} warm-up + {} measured", self.warm, self.measure),
            ),
            (
                "workers",
                "2 threads per cell (generator + simulator)".to_owned(),
            ),
            ("caches", "warmed before measuring".to_owned()),
        ]
    }
}
