//! End-to-end and per-layer benchmark of the primecache simulator.
//!
//! Four closed-loop batch workloads, each run from one process with no
//! more threads than the machine has: `suite-sweep`, `tenant-mix`,
//! `attack-probe` and `live-run` (see `perfbench/README.md` for why each
//! was chosen). A run repeats its workload for `--seconds`, reports
//! medians, and checks every output. With `--trace 1` it reports the
//! per-layer metrics instead, timed from this crate around calls into
//! each crate's public functions.

#![forbid(unsafe_code)]

pub mod attack_probe;
pub mod checks;
pub mod host;
pub mod layers;
pub mod live_run;
pub mod report;
pub mod spans;
pub mod stats;
pub mod suite_sweep;
pub mod tenant_mix;

use std::time::Instant;

use checks::Checks;
use report::{Layers, Unit};
use spans::Tracer;
use stats::{median, percentile, samples_for};

/// Every workload the benchmark can run.
pub const WORKLOADS: [&str; 4] = ["suite-sweep", "tenant-mix", "attack-probe", "live-run"];

/// The workloads `BENCHMARK.json` declares, in its order. `tenant-mix`
/// and `live-run` stay runnable and supply the calibration figures of
/// their layers, but their run-to-run spread on a shared two-vCPU host
/// (0.20–0.27 of the median over ten seeds) is too close to the largest
/// bound a declared metric may have.
pub const DECLARED: [&str; 2] = ["suite-sweep", "attack-probe"];

/// End-to-end metrics every untraced run reports.
pub const END_TO_END: [(&str, Unit); 6] = [
    ("wall_s", Unit::S),
    ("setup_s", Unit::S),
    ("refs_per_s", Unit::RefsPerS),
    ("cell_p50_ms", Unit::Ms),
    ("cell_p90_ms", Unit::Ms),
    ("peak_rss_mib", Unit::MiB),
];

/// Per-layer metrics every traced run reports.
#[must_use]
pub fn per_layer_names() -> Vec<String> {
    let schemes = primecache::sim::Scheme::ALL.map(layers::scheme_key);
    let mut v: Vec<String> = [
        "workloads.record_ns_per_ref",
        "workloads.store_bytes_per_ref",
        "workloads.stream_ns_per_ref",
        "workloads.stream_blocked_waits",
        "workloads.mix_pull_ns_per_ref",
        "trace.decode_ns_per_ref",
        "trace.overhead_frac",
        "ingest.import_ns_per_event",
        "cache.build_us.set_assoc",
        "cache.build_us.skewed",
        "cache.build_us.fully_assoc",
        "cache.l1.misses",
        "cache.l2.misses",
        "cache.l2.writebacks",
        "cpu.ns_per_ref",
        "cpu.sim_cycles",
        "mem.request_ns",
        "mem.requests",
        "mem.row_hits",
        "sim.driver_ns_per_ref",
        "sim.worker_busy_frac",
        "sim.lpt_tail_s",
        "sim.tenant_attribution_s",
        "sim.tenant_solo_s",
        "sim.cpu_util_frac",
        "attack.recover_s",
        "attack.evict_s",
        "attack.ns_per_probe",
        "attack.probes",
        "attack.probe_refs",
        "ladder.unaccounted_frac",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .collect();
    v.extend(
        layers::INDEX_FUNCTIONS
            .iter()
            .map(|f| format!("core.index_ns_per_ref.{f}")),
    );
    v.extend(schemes.iter().map(|s| format!("cache.hier_ns_per_ref.{s}")));
    v.extend(
        schemes
            .iter()
            .map(|s| format!("sim.replay_vs_slice_ratio.{s}")),
    );
    v.sort();
    v
}

/// One closed-loop iteration of a workload.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Host seconds for the whole iteration, set-up included.
    pub wall_s: f64,
    /// Host seconds before the first simulated reference.
    pub setup_s: f64,
    /// Simulated memory references.
    pub refs: u64,
    /// Host seconds of each (application, scheme) cell.
    pub cells_s: Vec<f64>,
}

/// How large a workload instance is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured size.
    Full,
    /// A small instance whose layer figures stand in on workloads that
    /// do not exercise a layer.
    Calibration,
}

/// A benchmark workload.
pub trait Bench {
    /// Runs one iteration. Spans go to `tracer` when it is enabled.
    fn iteration(&mut self, tracer: &mut Tracer) -> Sample;
    /// Re-checks outputs against an independent path, after the
    /// measured iterations.
    fn verify(&mut self);
    /// Checks made so far, by iterations, `verify` and `layers`.
    fn checks(&mut self) -> &mut Checks;
    /// Per-layer metrics of this workload, from the traced iterations
    /// `traced` and further isolated timings over its inputs.
    fn layers(&mut self, tracer: &Tracer, traced: &[usize], wall_untraced_s: f64) -> Layers;
    /// Provenance lines specific to this workload.
    fn describe(&self) -> Vec<(&'static str, String)>;
}

/// Builds workload `name` for `seed`.
#[must_use]
pub fn make(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Bench>> {
    Some(match name {
        "suite-sweep" => Box::new(suite_sweep::SuiteSweep::new(seed, scale)),
        "tenant-mix" => Box::new(tenant_mix::TenantMixBench::new(seed, scale)),
        "attack-probe" => Box::new(attack_probe::AttackProbe::new(seed)),
        "live-run" => Box::new(live_run::LiveRun::new(seed, scale)),
        _ => return None,
    })
}

/// Iterations of one measured phase.
#[derive(Debug, Default)]
pub struct Measured {
    /// Every iteration's sample, in order.
    pub samples: Vec<Sample>,
    /// Indexes of iterations run with spans recorded.
    pub traced: Vec<usize>,
    /// Process CPU seconds over the untraced iterations.
    pub untraced_cpu_s: f64,
    /// Wall seconds over the untraced iterations.
    pub untraced_wall_s: f64,
    /// Peak resident memory after the first iteration: what a process
    /// that runs the workload once, as `pcache` does, holds at most.
    /// Later iterations only add allocator noise to the high-water mark.
    pub peak_rss_mib: f64,
}

impl Measured {
    /// Wall times of the untraced iterations.
    #[must_use]
    pub fn untraced_walls(&self) -> Vec<f64> {
        self.samples
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.traced.contains(i))
            .map(|(_, s)| s.wall_s)
            .collect()
    }
}

/// Hard ceiling on one measured phase, so that a run, verification and
/// the per-layer pass included, ends within three minutes.
const PHASE_CAP_S: f64 = 120.0;

/// Repeats `bench` for at least `seconds`, four iterations, and enough
/// cells in the quiet half for a p90 with ten samples beyond it. With
/// `alternate`, every second iteration records spans.
pub fn measure(
    bench: &mut dyn Bench,
    tracer: &mut Tracer,
    seconds: f64,
    alternate: bool,
) -> Measured {
    let start = Instant::now();
    let need_cells = samples_for(0.9);
    let mut m = Measured::default();
    loop {
        let i = m.samples.len();
        let traced = alternate && i % 2 == 1;
        tracer.set_enabled(traced);
        tracer.set_iteration(i);
        let cpu0 = host::process_cpu_s();
        let t0 = Instant::now();
        let sample = bench.iteration(tracer);
        if traced {
            m.traced.push(i);
        } else {
            m.untraced_wall_s += t0.elapsed().as_secs_f64();
            m.untraced_cpu_s += host::process_cpu_s() - cpu0;
        }
        m.samples.push(sample);
        if i == 0 {
            m.peak_rss_mib = host::peak_rss_mib();
        }
        let cells: usize = quiet_half(&m.samples).iter().map(|s| s.cells_s.len()).sum();
        let elapsed = start.elapsed().as_secs_f64();
        let enough = elapsed >= seconds && cells >= need_cells && m.samples.len() >= 4;
        if enough || elapsed >= PHASE_CAP_S {
            break;
        }
    }
    tracer.set_enabled(false);
    m
}

/// The quiet half of `samples`: the iterations whose wall time is at or
/// below the median. The machine's other tenants only ever add time,
/// and their bursts last seconds, so host-time figures come from these
/// iterations.
#[must_use]
pub fn quiet_half(samples: &[Sample]) -> Vec<&Sample> {
    let mut v: Vec<&Sample> = samples.iter().collect();
    v.sort_by(|a, b| a.wall_s.total_cmp(&b.wall_s));
    v.truncate(samples.len().div_ceil(2));
    v
}

/// The end-to-end metrics of a measured phase, over its quiet half.
pub fn end_to_end(m: &Measured, checks: &mut Checks) -> Layers {
    let mut out = Layers::default();
    let quiet = quiet_half(&m.samples);
    let walls: Vec<f64> = quiet.iter().map(|s| s.wall_s).collect();
    let setups: Vec<f64> = quiet.iter().map(|s| s.setup_s).collect();
    let rates: Vec<f64> = quiet
        .iter()
        .map(|s| s.refs as f64 / (s.wall_s - s.setup_s))
        .collect();
    let cells: Vec<f64> = quiet
        .iter()
        .flat_map(|s| s.cells_s.iter().copied())
        .collect();
    out.put("wall_s", median(&walls), Unit::S);
    out.put("setup_s", median(&setups), Unit::S);
    out.put("refs_per_s", median(&rates), Unit::RefsPerS);
    for (name, q) in [("cell_p50_ms", 0.5), ("cell_p90_ms", 0.9)] {
        let p = percentile(&cells, q);
        checks.check(p.is_some(), || {
            format!(
                "{name}: {} cells leave fewer than ten samples beyond it",
                cells.len()
            )
        });
        out.put(name, p.unwrap_or_else(|| median(&cells)) * 1e3, Unit::Ms);
    }
    out.put("peak_rss_mib", m.peak_rss_mib, Unit::MiB);
    out
}

/// What one invocation produced.
#[derive(Debug)]
pub struct Outcome {
    /// Reported metrics.
    pub metrics: Layers,
    /// Output checks.
    pub checks: Checks,
    /// Provenance and workload description, printed before the result.
    pub info: Vec<(String, String)>,
    /// Spans as JSON lines (traced runs).
    pub spans_jsonl: Option<String>,
}

/// Seed of the calibration instances: fixed, so calibration figures do
/// not move with the run's seed.
const CALIBRATION_SEED: u64 = 0;

/// Runs workload `name`: the measured iterations and the output checks,
/// then either the end-to-end metrics or, with `trace`, the per-layer
/// ones.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(name: &str, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let mut bench = make(name, seed, Scale::Full).ok_or_else(|| {
        format!(
            "unknown workload '{name}' (expected one of {})",
            WORKLOADS.join(", ")
        )
    })?;
    let mut tracer = Tracer::new(false);
    let mut checks = Checks::default();
    let m = measure(bench.as_mut(), &mut tracer, seconds as f64, trace);
    bench.verify();
    let mut info = provenance(name, seed, &m);
    info.extend(bench.describe().into_iter().map(|(k, v)| (k.to_owned(), v)));
    if !trace {
        checks.absorb(bench.checks());
        let metrics = end_to_end(&m, &mut checks);
        info.push((
            "error_rate".to_owned(),
            format!("{:.6} (failed / attempted checks)", checks.error_rate()),
        ));
        return Ok(Outcome {
            metrics,
            checks,
            info,
            spans_jsonl: None,
        });
    }

    let untraced = lower_quartile(&m.untraced_walls());
    let traced: Vec<f64> = m.traced.iter().map(|&i| m.samples[i].wall_s).collect();
    let mut metrics = bench.layers(&tracer, &m.traced, untraced);
    metrics.put(
        "trace.overhead_frac",
        lower_quartile(&traced) / untraced - 1.0,
        Unit::Frac,
    );
    metrics.put(
        "sim.cpu_util_frac",
        m.untraced_cpu_s / (m.untraced_wall_s * host::nproc() as f64),
        Unit::Frac,
    );
    layers::report_build(
        &primecache::sim::MachineConfig::paper_default(),
        &mut metrics,
    );
    for other in ["suite-sweep", "tenant-mix", "live-run", "attack-probe"] {
        if other == name {
            continue;
        }
        let mut cal = make(other, CALIBRATION_SEED, Scale::Calibration).expect("known workload");
        let mut cal_tracer = Tracer::new(false);
        let mut untraced_s = 0.0;
        for i in 0..2 {
            cal_tracer.set_enabled(i == 1);
            cal_tracer.set_iteration(i);
            let s = cal.iteration(&mut cal_tracer);
            if i == 0 {
                untraced_s = s.wall_s;
            }
        }
        cal.verify();
        metrics.fill_from(&cal.layers(&cal_tracer, &[1], untraced_s), other);
        checks.absorb(cal.checks());
    }
    checks.absorb(bench.checks());
    let declared = per_layer_names();
    metrics.entries.retain(|k, _| declared.contains(k));
    for k in &declared {
        checks.check(metrics.entries.contains_key(k), || {
            format!("per-layer metric {k} was not measured")
        });
    }
    info.push((
        "error_rate".to_owned(),
        format!("{:.6} (failed / attempted checks)", checks.error_rate()),
    ));
    Ok(Outcome {
        metrics,
        checks,
        info,
        spans_jsonl: Some(tracer.to_jsonl()),
    })
}

/// Median of the faster half of `xs`: the wall-time estimator of the
/// quiet half, for a plain list of times.
fn lower_quartile(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate(xs.len().div_ceil(2));
    median(&v)
}

fn provenance(name: &str, seed: u64, m: &Measured) -> Vec<(String, String)> {
    [
        ("workload", name.to_owned()),
        ("git_rev", host::git_rev()),
        ("rustc", host::rustc_version().to_owned()),
        ("nproc", host::nproc().to_string()),
        ("cpu_model", host::cpu_model()),
        ("seed", seed.to_string()),
        ("iterations", m.samples.len().to_string()),
        (
            "cells",
            m.samples
                .iter()
                .map(|s| s.cells_s.len())
                .sum::<usize>()
                .to_string(),
        ),
        (
            "model",
            "unvalidated: synthetic stand-ins for the paper's applications, no \
             real-hardware reference in the repository, so no accuracy figure"
                .to_owned(),
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect()
}
