//! `tenant-mix`: three tenants time-sliced through one shared hierarchy
//! with `run_tenant_mix`, plus `tenant_solo_baseline` per tenant, for
//! each of the five `pcache sweep --tenants` schemes. Two tenants (mcf,
//! cg) are recorded; the third (swim) is exported with
//! `ingest::write_text` and read back with `ingest::import_bytes`, so
//! `ingest` is part of set-up. The seed drives `MixConfig.seed`. Four of
//! every five simulation passes are cache-only, and the whole workload
//! runs on one thread. Caches start empty in every pass.

use std::time::Instant;

use primecache::cache::CacheStats;
use primecache::ingest::{import_bytes, text::write_text};
use primecache::sim::{
    run_chunks, run_tenant_mix, tenant_solo_baseline, MachineConfig, Scheme, TenantRun,
};
use primecache::trace::TraceEncoder;
use primecache::workloads::{by_name, MixConfig, TenantMix, STREAM_CHUNK};

use crate::checks::{digest, digest_stats, Checks, SimCounts};
use crate::layers::{report_counts, Ladder};
use crate::report::{Layers, Unit};
use crate::spans::Tracer;
use crate::stats::splitmix;
use crate::{Bench, Sample, Scale};

/// The schemes of `pcache sweep --tenants`.
pub const SCHEMES: [Scheme; 5] = [
    Scheme::Base,
    Scheme::Xor,
    Scheme::PrimeModulo,
    Scheme::PrimeDisplacement,
    Scheme::SkewedPrimeDisplacement,
];

/// Tenants recorded directly.
pub const RECORDED: [&str; 2] = ["mcf", "cg"];
/// Tenant that goes through text export and import.
pub const IMPORTED: &str = "swim";

/// References per tenant at full scale.
pub const TENANT_REFS: u64 = 100_000;

/// The `tenant-mix` workload.
#[derive(Debug)]
pub struct TenantMixBench {
    refs: u64,
    mix_seed: u64,
    machine: MachineConfig,
    /// Per-scheme digests of the first iteration (aggregate, lanes, solos).
    reference: Vec<u64>,
    counts: SimCounts,
    checks: Checks,
    last_mix: Option<TenantMix>,
    schedule: Vec<(u64, u64)>,
}

fn sum_stats(lanes: impl Iterator<Item = CacheStats>) -> Option<CacheStats> {
    lanes.reduce(|mut acc, s| {
        acc.accesses += s.accesses;
        acc.hits += s.hits;
        acc.misses += s.misses;
        acc.writes += s.writes;
        acc.writebacks += s.writebacks;
        for (a, b) in acc.set_accesses.iter_mut().zip(&s.set_accesses) {
            *a += b;
        }
        for (a, b) in acc.set_misses.iter_mut().zip(&s.set_misses) {
            *a += b;
        }
        acc
    })
}

/// Whether a tenant run's lanes partition its aggregate: per-lane L1 and
/// L2 statistics (per-set vectors included) sum to the aggregate run's.
#[must_use]
pub fn lanes_partition(run: &TenantRun) -> bool {
    sum_stats(run.lanes.iter().map(|l| l.l1.clone())).as_ref() == Some(&run.aggregate.l1)
        && sum_stats(run.lanes.iter().map(|l| l.l2.clone())).as_ref() == Some(&run.aggregate.l2)
}

impl TenantMixBench {
    /// The workload for `seed` at `scale`.
    #[must_use]
    pub fn new(seed: u64, scale: Scale) -> Self {
        Self {
            refs: match scale {
                Scale::Full => TENANT_REFS,
                Scale::Calibration => 10_000,
            },
            mix_seed: splitmix(seed),
            machine: MachineConfig::paper_default(),
            reference: Vec::new(),
            counts: SimCounts::default(),
            checks: Checks::default(),
            last_mix: None,
            schedule: Vec::new(),
        }
    }

    /// `(quanta, tenant switches)` of each scheme's run in the first
    /// iteration — the schedule the seed drives.
    #[must_use]
    pub fn schedule(&self) -> &[(u64, u64)] {
        &self.schedule
    }

    /// Records, exports, imports and interleaves the tenants.
    fn build_mix(&mut self, tracer: &mut Tracer) -> TenantMix {
        let mut tenants = Vec::new();
        for name in RECORDED {
            let w = by_name(name).expect("a suite workload");
            let id = tracer.begin("workloads.record");
            tenants.push((name.to_owned(), w.record(self.refs)));
            tracer.end(id);
        }
        let w = by_name(IMPORTED).expect("a suite workload");
        let id = tracer.begin("workloads.record");
        let recorded = w.record(self.refs);
        tracer.end(id);
        let id = tracer.begin("ingest.write_text");
        let mut text = Vec::new();
        write_text(recorded.replay(), &mut text).expect("writing to a Vec cannot fail");
        tracer.end(id);
        let id = tracer.begin("ingest.import_bytes");
        let imported = import_bytes(&text);
        tracer.end(id);
        let imported = match imported {
            Ok(i) => i.trace,
            Err(e) => {
                self.checks.check(false, || {
                    format!("import of the exported {IMPORTED} trace failed: {e}")
                });
                recorded.clone()
            }
        };
        self.checks
            .check(imported.fingerprint() == recorded.fingerprint(), || {
                "text export and import changed the trace".to_owned()
            });
        tenants.push((IMPORTED.to_owned(), imported));
        let id = tracer.begin("workloads.TenantMix::new");
        let mix = TenantMix::new(
            tenants,
            MixConfig {
                seed: self.mix_seed,
                ..MixConfig::default()
            },
        );
        tracer.end(id);
        mix
    }

    fn check_scheme(
        &mut self,
        j: usize,
        run: &TenantRun,
        solos: &[(CacheStats, CacheStats)],
        mix: &TenantMix,
    ) {
        self.checks.check(lanes_partition(run), || {
            format!(
                "{}: tenant lanes do not partition the aggregate",
                SCHEMES[j].label()
            )
        });
        let lane_refs: u64 = run.lanes.iter().map(|l| l.refs).sum();
        let trace_refs: u64 = (0..mix.n_tenants()).map(|i| mix.trace(i).refs()).sum();
        self.checks.check(lane_refs == trace_refs, || {
            format!(
                "{}: lanes carry {lane_refs} refs, tenants {trace_refs}",
                SCHEMES[j].label()
            )
        });
        let mut d = vec![digest(&run.aggregate)];
        d.extend(run.lanes.iter().map(|l| digest_stats(&l.l1, &l.l2)));
        d.extend(solos.iter().map(|(l1, l2)| digest_stats(l1, l2)));
        let d = crate::checks::fold(&d);
        if self.reference.len() < SCHEMES.len() {
            self.reference.push(d);
            self.counts.add(&run.aggregate);
            self.schedule.push((run.mix.quanta, run.mix.switches));
            if j == 0 {
                let mut bad = run.lanes.clone();
                bad[0].l2.misses += 1;
                let corrupted = TenantRun {
                    aggregate: run.aggregate.clone(),
                    lanes: bad,
                    mix: run.mix.clone(),
                };
                self.checks
                    .catches_corruption("tenant lane", !lanes_partition(&corrupted));
            }
        } else {
            self.checks.check(self.reference[j] == d, || {
                format!(
                    "{}: tenant run differs from the first iteration",
                    SCHEMES[j].label()
                )
            });
        }
    }
}

impl Bench for TenantMixBench {
    fn iteration(&mut self, tracer: &mut Tracer) -> Sample {
        let t0 = Instant::now();
        let mix = self.build_mix(tracer);
        let setup_s = t0.elapsed().as_secs_f64();
        let mut cells_s = Vec::new();
        let mut refs = 0;
        let mut outputs = Vec::new();
        for &scheme in &SCHEMES {
            let c0 = Instant::now();
            let id = tracer.begin("sim.run_tenant_mix");
            let run = run_tenant_mix(&mix, scheme, &self.machine);
            tracer.end(id);
            let solos: Vec<(CacheStats, CacheStats)> = (0..mix.n_tenants())
                .map(|i| {
                    let id = tracer.begin("sim.tenant_solo_baseline");
                    let s = tenant_solo_baseline(&mix, i, scheme, &self.machine);
                    tracer.end(id);
                    s
                })
                .collect();
            cells_s.push(c0.elapsed().as_secs_f64());
            // Timing pass + attribution pass over the mix, one pass per solo.
            refs += 2 * run.aggregate.l1.accesses + solos.iter().map(|s| s.0.accesses).sum::<u64>();
            outputs.push((run, solos));
        }
        let wall_s = t0.elapsed().as_secs_f64();
        for (j, (run, solos)) in outputs.iter().enumerate() {
            self.check_scheme(j, run, solos, &mix);
        }
        self.last_mix = Some(mix);
        Sample {
            wall_s,
            setup_s,
            refs,
            cells_s,
        }
    }

    fn verify(&mut self) {}

    fn checks(&mut self) -> &mut Checks {
        &mut self.checks
    }

    fn layers(&mut self, tracer: &Tracer, traced: &[usize], wall_untraced_s: f64) -> Layers {
        let mut out = Layers::default();
        let mix = self
            .last_mix
            .take()
            .expect("layers run after the iterations");
        let per_iter = |name: &str| tracer.median_total(name, traced);
        let traces: Vec<_> = (0..mix.n_tenants()).map(|i| mix.trace(i)).collect();
        let tenant_refs: u64 = traces.iter().map(|t| t.refs()).sum();
        let bytes: u64 = traces.iter().map(|t| t.encoded_bytes()).sum();
        let setup_s = per_iter("workloads.record")
            + per_iter("ingest.write_text")
            + per_iter("ingest.import_bytes")
            + per_iter("workloads.TenantMix::new");
        out.put(
            "workloads.record_ns_per_ref",
            per_iter("workloads.record") / tenant_refs as f64 * 1e9,
            Unit::NsPerRef,
        );
        out.put(
            "workloads.store_bytes_per_ref",
            bytes as f64 / tenant_refs as f64,
            Unit::BytesPerRef,
        );
        let imported = mix.trace(mix.n_tenants() - 1);
        out.put(
            "ingest.import_ns_per_event",
            per_iter("ingest.import_bytes") / imported.events() as f64 * 1e9,
            Unit::NsPerEvent,
        );
        out.put(
            "sim.tenant_solo_s",
            per_iter("sim.tenant_solo_baseline"),
            Unit::S,
        );

        // The aggregate timing pass alone, to split off attribution.
        let t = Instant::now();
        for &scheme in &SCHEMES {
            std::hint::black_box(run_chunks(mix.cursor(), scheme, &self.machine));
        }
        let timing_s = t.elapsed().as_secs_f64();
        out.put(
            "sim.tenant_attribution_s",
            per_iter("sim.run_tenant_mix") - timing_s,
            Unit::S,
        );

        // Pulling the interleaving quantum by quantum, each quantum dropped
        // before the next, as the attribution pass consumes it; then the
        // same interleaving encoded once for the layer ladder.
        let t = Instant::now();
        let mut cursor = mix.cursor();
        while let Some(q) = cursor.pull_quantum() {
            std::hint::black_box(q);
        }
        let pull_s = t.elapsed().as_secs_f64();
        out.put(
            "workloads.mix_pull_ns_per_ref",
            pull_s / tenant_refs as f64 * 1e9,
            Unit::NsPerRef,
        );
        let mut enc = TraceEncoder::new(STREAM_CHUNK);
        for ev in mix.cursor() {
            enc.push(ev);
        }
        let mixed = enc.finish();
        let ladder = Ladder::measure(&self.machine, &[&mixed], &Scheme::ALL);
        ladder.report(&mut out);
        report_counts(&self.counts, &mut out);

        // Closure, per scheme: the timing pass (replay with the mix pull in
        // place of decode), the attribution pass and the solo passes (pull
        // plus hierarchy over the same references).
        let mut explained = setup_s;
        for &scheme in &SCHEMES {
            let j = ladder
                .column(scheme)
                .expect("the ladder times every scheme");
            explained +=
                ladder.replay(0, j) - ladder.decode_s[0] + 3.0 * pull_s + 2.0 * ladder.hier_s[0][j];
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
            ("refs_per_application", self.refs.to_string()),
            (
                "tenants",
                format!(
                    "{}, {} (recorded), {IMPORTED} (text export + import)",
                    RECORDED[0], RECORDED[1]
                ),
            ),
            ("schemes", SCHEMES.map(Scheme::label).join(", ")),
            (
                "mix_seed",
                format!("{:#x} (splitmix of the seed)", self.mix_seed),
            ),
            (
                "workers",
                "1 (run_tenant_mix is single-threaded)".to_owned(),
            ),
            ("caches", "start empty in every pass".to_owned()),
        ]
    }
}
