//! `suite-sweep`: `run_sweep(&Scheme::ALL, N)` over all 23 applications
//! — the path ROADMAP calls the headline. The sweep records each
//! application once, then replays it per cell across `nproc` workers in
//! LPT order. Caches start empty in every cell. The inputs are the
//! paper's fixed application models, so the seed does not change them;
//! it only picks which cells the independent replay path re-checks.

use std::collections::BTreeMap;
use std::time::Instant;

use primecache::sim::suite::{run_sweep, Sweep, TaskRecord};
use primecache::sim::{run_trace, MachineConfig, Scheme};
use primecache::workloads::{all, Workload};

use crate::checks::{digest, Checks, SimCounts};
use crate::layers::{record_all, report_counts, report_record, Ladder};
use crate::report::{Layers, Unit};
use crate::spans::Tracer;
use crate::stats::median;
use crate::{host, Bench, Sample, Scale};

/// References per application at full scale (below `STORE_MAX_REFS`,
/// so the sweep records once and replays per cell).
pub const SWEEP_REFS: u64 = 100_000;

/// The `suite-sweep` workload.
#[derive(Debug)]
pub struct SuiteSweep {
    refs: u64,
    seed_cells: u64,
    machine: MachineConfig,
    /// Per-cell digests of the first iteration, by (workload, scheme).
    reference: BTreeMap<(&'static str, &'static str), u64>,
    counts: SimCounts,
    checks: Checks,
    /// Task records of the traced iterations.
    tasks: Vec<Vec<TaskRecord>>,
}

impl SuiteSweep {
    /// A sweep at `scale`. The seed is not an input of the sweep: it
    /// only picks the cells the independent path re-checks.
    #[must_use]
    pub fn new(seed: u64, scale: Scale) -> Self {
        Self {
            refs: match scale {
                Scale::Full => SWEEP_REFS,
                Scale::Calibration => 4_000,
            },
            seed_cells: seed,
            machine: MachineConfig::paper_default(),
            reference: BTreeMap::new(),
            counts: SimCounts::default(),
            checks: Checks::default(),
            tasks: Vec::new(),
        }
    }

    fn workers(&self) -> usize {
        host::nproc().min(all().len() * Scheme::ALL.len())
    }

    /// Checks one finished sweep against the first one (or makes it the
    /// reference), outside the timed region.
    fn check_sweep(&mut self, sweep: &Sweep) {
        let v = sweep.validate(all(), &Scheme::ALL);
        self.checks
            .check(v.is_ok(), || format!("Sweep::validate: {v:?}"));
        let first = self.reference.is_empty();
        for (w, row) in &sweep.cells {
            for (s, cell) in row {
                let d = digest(&cell.result);
                if first {
                    self.reference.insert((w, s), d);
                    self.counts.add(&cell.result);
                } else {
                    let want = self.reference.get(&(*w, *s)).copied();
                    self.checks.check(want == Some(d), || {
                        format!("cell ({w}, {s}) differs from the first iteration")
                    });
                }
            }
        }
        if first {
            // Self-test: a corrupted cell and an incomplete sweep are caught.
            if let Some(cell) = sweep.cells.values().next().and_then(|r| r.values().next()) {
                let mut bad = cell.result.clone();
                bad.l2.misses += 1;
                let want = self
                    .reference
                    .get(&(cell.workload, cell.result.scheme.label()));
                self.checks
                    .catches_corruption("sweep cell", want != Some(&digest(&bad)));
            }
            let short = &all()[..all().len() - 1];
            self.checks
                .catches_corruption("sweep shape", sweep.validate(short, &Scheme::ALL).is_err());
        }
    }
}

/// Seconds before the first task started, from the sweep's own records:
/// the call's wall time minus the span its tasks cover.
fn setup_from_tasks(wall_s: f64, tasks: &[TaskRecord]) -> f64 {
    let first = tasks.iter().map(|t| t.start_us).min().unwrap_or(0);
    let last = tasks.iter().map(|t| t.end_us).max().unwrap_or(0);
    (wall_s - (last - first) as f64 / 1e6).max(0.0)
}

/// `(busy fraction, LPT tail seconds)` of one sweep's task records: the
/// share of worker time spent in cells, and how long the sweep ran after
/// its first worker ran out of work.
#[must_use]
pub fn schedule(tasks: &[TaskRecord], workers: usize) -> (f64, f64) {
    let first = tasks.iter().map(|t| t.start_us).min().unwrap_or(0);
    let last = tasks.iter().map(|t| t.end_us).max().unwrap_or(0);
    let busy: u64 = tasks.iter().map(|t| t.end_us - t.start_us).sum();
    let mut last_end: BTreeMap<u32, u64> = BTreeMap::new();
    for t in tasks {
        let e = last_end.entry(t.worker).or_insert(0);
        *e = (*e).max(t.end_us);
    }
    let idle_from = if last_end.len() < workers {
        first
    } else {
        last_end.values().copied().min().unwrap_or(last)
    };
    let span = (last - first).max(1) as f64;
    (
        busy as f64 / (span * workers as f64),
        (last - idle_from) as f64 / 1e6,
    )
}

impl Bench for SuiteSweep {
    fn iteration(&mut self, tracer: &mut Tracer) -> Sample {
        let id = tracer.begin("sim.run_sweep");
        let t0 = Instant::now();
        let sweep = run_sweep(&Scheme::ALL, self.refs);
        let wall_s = t0.elapsed().as_secs_f64();
        tracer.end(id);
        let setup_s = setup_from_tasks(wall_s, &sweep.tasks);
        let first = sweep.tasks.iter().map(|t| t.start_us).min().unwrap_or(0);
        let epoch = tracer.start_of(id) + setup_s - first as f64 / 1e6;
        tracer.record("workloads.record_suite", tracer.start_of(id), epoch, id);
        for t in &sweep.tasks {
            tracer.record(
                "sim.run_replay",
                epoch + t.start_us as f64 / 1e6,
                epoch + t.end_us as f64 / 1e6,
                id,
            );
        }
        if id != usize::MAX {
            self.tasks.push(sweep.tasks.clone());
        }
        let refs = sweep
            .cells
            .values()
            .flat_map(BTreeMap::values)
            .map(|c| c.result.l1.accesses)
            .sum();
        let cells_s = sweep
            .tasks
            .iter()
            .map(|t| (t.end_us - t.start_us) as f64 / 1e6)
            .collect();
        self.check_sweep(&sweep);
        Sample {
            wall_s,
            setup_s,
            refs,
            cells_s,
        }
    }

    fn verify(&mut self) {
        // The independent path: materialized live generation driven by
        // `run_trace` over a slice — no recording, no replay cursor, no
        // hint chunks. One seed-chosen scheme per application.
        for (i, w) in all().iter().enumerate() {
            let pick =
                crate::stats::splitmix(self.seed_cells ^ i as u64) % Scheme::ALL.len() as u64;
            let scheme = Scheme::ALL[usize::try_from(pick).expect("index fits")];
            let r = run_trace(w.trace(self.refs), scheme, &self.machine);
            let want = self.reference.get(&(w.name, scheme.label())).copied();
            self.checks.check(want == Some(digest(&r)), || {
                format!(
                    "cell ({}, {}) differs from the independent slice path",
                    w.name,
                    scheme.label()
                )
            });
        }
    }

    fn checks(&mut self) -> &mut Checks {
        &mut self.checks
    }

    fn layers(&mut self, _tracer: &Tracer, _traced: &[usize], wall_untraced_s: f64) -> Layers {
        let mut out = Layers::default();
        let workers = self.workers();
        let sched: Vec<(f64, f64)> = self.tasks.iter().map(|t| schedule(t, workers)).collect();
        out.put(
            "sim.worker_busy_frac",
            median(&sched.iter().map(|s| s.0).collect::<Vec<_>>()),
            Unit::Frac,
        );
        out.put(
            "sim.lpt_tail_s",
            median(&sched.iter().map(|s| s.1).collect::<Vec<_>>()),
            Unit::S,
        );

        let apps: Vec<&Workload> = all().iter().collect();
        let (traces, record_s) = record_all(&apps, self.refs);
        let refs: Vec<_> = traces.iter().collect();
        report_record(&refs, record_s, &mut out);
        let ladder = Ladder::measure(&self.machine, &refs, &Scheme::ALL);
        ladder.report(&mut out);
        report_counts(&self.counts, &mut out);

        // Closure: recording spread over the recording workers, then every
        // cell's isolated replay time spread over the sweep workers.
        let rec_workers = host::nproc().min(apps.len()) as f64;
        let cells: f64 = (0..traces.len())
            .flat_map(|i| (0..Scheme::ALL.len()).map(move |j| (i, j)))
            .map(|(i, j)| ladder.replay(i, j))
            .sum();
        let explained = record_s / rec_workers + cells / workers as f64;
        out.put(
            "ladder.unaccounted_frac",
            1.0 - explained / wall_untraced_s,
            Unit::Frac,
        );
        out
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            ("refs_per_application", self.refs.to_string()),
            ("schemes", "all 8".to_owned()),
            ("workers", self.workers().to_string()),
            ("caches", "start empty in every cell".to_owned()),
            (
                "inputs",
                "the paper's fixed application models: the seed does not change them".to_owned(),
            ),
        ]
    }
}
