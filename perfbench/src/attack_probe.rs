//! `attack-probe`: `attack::recover` plus `attack::eviction_cost` over
//! `sim::SimOracle` for all 8 schemes, as `pcache attack --seed S` does,
//! repeated for the run length. Every probe builds a cold cache, runs a
//! few references and throws the cache away, so construction and the
//! index function dominate and `trace`, `cpu` and `mem` do nothing. The
//! seed drives the recovery sampler and the random eviction pool:
//! iteration `i` uses campaign seed `i mod 31` of a sequence derived from
//! the run's seed, whose first element is the seed itself. The pool's
//! size moves the probe count, so the medians of a run cover 31 pools
//! rather than one.

use std::time::Instant;

use primecache::analyze::{canonicalize, has_errors, IndexModel};
use primecache::attack::{eviction_cost, recover, EvictConfig, RecoveryConfig, Verdict};
use primecache::core::probe::{ProbeCost, ProbeOracle};
use primecache::sim::{static_model, MachineConfig, Scheme, SimOracle, PROBE_BITS};

use crate::checks::Checks;
use crate::layers::{index_seconds, INDEX_FUNCTIONS};
use crate::report::{Layers, Unit};
use crate::spans::Tracer;
use crate::stats::median;
use crate::{Bench, Sample};

/// Probe cost of one scheme's campaign: recovery plus eviction pricing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Campaign {
    /// Probes against the direct-mapped recovery oracle.
    pub recover: ProbeCost,
    /// Probes against the native organization.
    pub evict: ProbeCost,
    /// Whether the recovered model equals the static analyzer's.
    pub agrees: bool,
}

/// The `attack-probe` workload.
#[derive(Debug)]
pub struct AttackProbe {
    seed: u64,
    machine: MachineConfig,
    /// Campaigns of the first iteration on each campaign seed.
    reference: Vec<Vec<Campaign>>,
    /// Per traced iteration: probes spent.
    probes_by_iteration: Vec<(usize, u64)>,
    iteration: usize,
    checks: Checks,
    statics: Vec<Option<IndexModel>>,
}

/// An oracle wrapper that records every probe and its answer.
struct Recording<'a> {
    inner: &'a mut SimOracle,
    probes: Vec<(Vec<u64>, u64)>,
}

impl ProbeOracle for Recording<'_> {
    fn in_bits(&self) -> u32 {
        self.inner.in_bits()
    }
    fn n_set_phys(&self) -> u64 {
        self.inner.n_set_phys()
    }
    fn assoc(&self) -> u32 {
        self.inner.assoc()
    }
    fn misses(&mut self, blocks: &[u64]) -> u64 {
        let m = self.inner.misses(blocks);
        self.probes.push((blocks.to_vec(), m));
        m
    }
    fn cost(&self) -> ProbeCost {
        self.inner.cost()
    }
}

/// An oracle that answers recorded probes from the record, without
/// simulating: timing the attack against it isolates the attack layer's
/// own time.
struct Replaying<'a> {
    geometry: (u32, u64, u32),
    answers: std::slice::Iter<'a, (Vec<u64>, u64)>,
    cost: ProbeCost,
}

impl ProbeOracle for Replaying<'_> {
    fn in_bits(&self) -> u32 {
        self.geometry.0
    }
    fn n_set_phys(&self) -> u64 {
        self.geometry.1
    }
    fn assoc(&self) -> u32 {
        self.geometry.2
    }
    fn misses(&mut self, blocks: &[u64]) -> u64 {
        self.cost.probes += 1;
        self.cost.refs += blocks.len() as u64;
        self.answers.next().map_or(0, |(_, m)| *m)
    }
    fn cost(&self) -> ProbeCost {
        self.cost
    }
}

fn geometry(o: &dyn ProbeOracle) -> (u32, u64, u32) {
    (o.in_bits(), o.n_set_phys(), o.assoc())
}

impl AttackProbe {
    /// The workload for `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            machine: MachineConfig::paper_default(),
            reference: Vec::new(),
            probes_by_iteration: Vec::new(),
            iteration: 0,
            checks: Checks::default(),
            statics: Vec::new(),
        }
    }

    /// Campaign seed `j` of this run: the run's seed first, then
    /// golden-ratio steps from it.
    fn campaign_seed(&self, j: usize) -> u64 {
        self.seed.wrapping_add(j as u64 * 0x9E37_79B9_7F4A_7C15)
    }

    fn rcfg(&self, j: usize) -> RecoveryConfig {
        RecoveryConfig {
            seed: self.campaign_seed(j),
            ..RecoveryConfig::default()
        }
    }

    fn ecfg(&self, j: usize) -> EvictConfig {
        EvictConfig {
            seed: self.campaign_seed(j),
            ..EvictConfig::default()
        }
    }

    /// The campaigns of the first iteration, one per scheme, on the
    /// run's own seed.
    #[must_use]
    pub fn campaigns(&self) -> &[Campaign] {
        self.reference.first().map_or(&[], Vec::as_slice)
    }

    /// Runs one scheme's recovery and eviction pricing against the given
    /// oracles.
    fn campaign(
        &self,
        j: usize,
        tracer: &mut Tracer,
        direct: &mut dyn ProbeOracle,
        native: &mut dyn ProbeOracle,
        statik: Option<&IndexModel>,
    ) -> Campaign {
        let id = tracer.begin("attack.recover");
        let rec = recover(direct, &self.rcfg(j));
        tracer.end(id);
        let agrees = rec.verdict.matches_static(statik);
        let informed = match &rec.verdict {
            Verdict::Model(m) => Some(m.clone()),
            Verdict::Opaque { .. } => None,
        };
        let id = tracer.begin("attack.eviction_cost");
        std::hint::black_box(eviction_cost(
            native,
            informed.as_ref(),
            rec.cost,
            &self.ecfg(j),
        ));
        tracer.end(id);
        Campaign {
            recover: direct.cost(),
            evict: native.cost(),
            agrees,
        }
    }
}

/// Campaign seeds a run cycles through.
pub const CAMPAIGN_SEEDS: usize = 31;

impl Bench for AttackProbe {
    fn iteration(&mut self, tracer: &mut Tracer) -> Sample {
        let j = self.iteration % CAMPAIGN_SEEDS;
        let t0 = Instant::now();
        // Set-up, as `pcache attack` does before probing: refuse degenerate
        // configurations, and build the static side of the oracle.
        let mut lint_errors = Vec::new();
        let mut statics = Vec::with_capacity(Scheme::ALL.len());
        for s in Scheme::ALL {
            if has_errors(&self.machine.lint_scheme(s)) {
                lint_errors.push(s.label());
            }
            let m = static_model(&self.machine, s, PROBE_BITS);
            std::hint::black_box(m.as_ref().map(canonicalize));
            statics.push(m);
        }
        let setup_s = t0.elapsed().as_secs_f64();
        let mut cells_s = Vec::new();
        let mut campaigns = Vec::new();
        for (s, statik) in Scheme::ALL.iter().zip(&statics) {
            let c0 = Instant::now();
            let mut direct = SimOracle::direct(&self.machine, *s, PROBE_BITS);
            let mut native = SimOracle::native(&self.machine, *s, PROBE_BITS);
            campaigns.push(self.campaign(j, tracer, &mut direct, &mut native, statik.as_ref()));
            cells_s.push(c0.elapsed().as_secs_f64());
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let refs = campaigns
            .iter()
            .map(|c| c.recover.refs + c.evict.refs)
            .sum();
        self.checks.check(lint_errors.is_empty(), || {
            format!("lint errors on {lint_errors:?}")
        });
        for (s, c) in Scheme::ALL.iter().zip(&campaigns) {
            self.checks.check(c.agrees, || {
                format!(
                    "{}: recovered model differs from the static model",
                    s.label()
                )
            });
        }
        let probes = campaigns
            .iter()
            .map(|c| c.recover.probes + c.evict.probes)
            .sum();
        self.probes_by_iteration.push((self.iteration, probes));
        if self.reference.len() == j {
            self.reference.push(campaigns);
            if j == 0 {
                self.statics = statics;
                // Self-test: Base's recovered model against XOR's static
                // model must be a mismatch.
                let mut direct = SimOracle::direct(&self.machine, Scheme::Base, PROBE_BITS);
                let rec = recover(&mut direct, &self.rcfg(0));
                let xor = static_model(&self.machine, Scheme::Xor, PROBE_BITS);
                self.checks.catches_corruption(
                    "recovered model",
                    !rec.verdict.matches_static(xor.as_ref()),
                );
            }
        } else {
            self.checks.check(self.reference[j] == campaigns, || {
                format!("attack campaigns on campaign seed {j} differ from their first run")
            });
        }
        self.iteration += 1;
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
        let per_iter = |name: &str| tracer.median_total(name, traced);
        let own = self.campaigns();
        let probes: u64 = own.iter().map(|c| c.recover.probes + c.evict.probes).sum();
        let probe_refs: u64 = own.iter().map(|c| c.recover.refs + c.evict.refs).sum();
        out.put("attack.recover_s", per_iter("attack.recover"), Unit::S);
        out.put("attack.evict_s", per_iter("attack.eviction_cost"), Unit::S);
        let ns_per_probe: Vec<f64> = self
            .probes_by_iteration
            .iter()
            .filter(|(i, _)| traced.contains(i))
            .map(|&(i, p)| {
                (tracer.total_s("attack.recover", i) + tracer.total_s("attack.eviction_cost", i))
                    / p as f64
                    * 1e9
            })
            .collect();
        out.put(
            "attack.ns_per_probe",
            median(&ns_per_probe),
            Unit::NsPerProbe,
        );
        out.put_count("attack.probes", probes);
        out.put_count("attack.probe_refs", probe_refs);

        // Record every probe once, then time the cache side (fresh oracles
        // answering the same probes) and the attack side (the same
        // campaign against recorded answers) apart.
        let mut off = Tracer::new(false);
        let t = Instant::now();
        let mut setup = Vec::new();
        for s in Scheme::ALL {
            setup.push((
                has_errors(&self.machine.lint_scheme(s)),
                static_model(&self.machine, s, PROBE_BITS),
            ));
        }
        let setup_s = t.elapsed().as_secs_f64();
        let (mut cache_s, mut attack_s) = (0.0, 0.0);
        let mut blocks = Vec::new();
        for (j, s) in Scheme::ALL.iter().enumerate() {
            let mut d = SimOracle::direct(&self.machine, *s, PROBE_BITS);
            let mut n = SimOracle::native(&self.machine, *s, PROBE_BITS);
            let mut direct = Recording {
                inner: &mut d,
                probes: Vec::new(),
            };
            let mut native = Recording {
                inner: &mut n,
                probes: Vec::new(),
            };
            let _ = self.campaign(
                0,
                &mut off,
                &mut direct,
                &mut native,
                self.statics[j].as_ref(),
            );
            let (dp, np) = (direct.probes, native.probes);
            let t = Instant::now();
            let mut d2 = SimOracle::direct(&self.machine, *s, PROBE_BITS);
            let mut n2 = SimOracle::native(&self.machine, *s, PROBE_BITS);
            let mut same = true;
            for (b, m) in &dp {
                same &= d2.misses(b) == *m;
            }
            for (b, m) in &np {
                same &= n2.misses(b) == *m;
            }
            cache_s += t.elapsed().as_secs_f64();
            self.checks.check(same, || {
                format!("{}: probe answers are not deterministic", s.label())
            });
            let t = Instant::now();
            let mut rd = Replaying {
                geometry: geometry(&d2),
                answers: dp.iter(),
                cost: ProbeCost::default(),
            };
            let mut rn = Replaying {
                geometry: geometry(&n2),
                answers: np.iter(),
                cost: ProbeCost::default(),
            };
            let c = self.campaign(0, &mut off, &mut rd, &mut rn, self.statics[j].as_ref());
            attack_s += t.elapsed().as_secs_f64();
            self.checks.check(c == self.reference[0][j], || {
                format!(
                    "{}: replayed campaign diverged from the recorded one",
                    s.label()
                )
            });
            blocks.extend(dp.into_iter().chain(np).flat_map(|(b, _)| b));
        }
        std::hint::black_box(setup);
        let index = index_seconds(&self.machine, &blocks);
        for (name, s) in INDEX_FUNCTIONS.iter().zip(index) {
            out.put(
                &format!("core.index_ns_per_ref.{name}"),
                s / blocks.len() as f64 * 1e9,
                Unit::NsPerRef,
            );
        }
        let explained = setup_s + cache_s + attack_s;
        out.put(
            "ladder.unaccounted_frac",
            1.0 - explained / wall_untraced_s,
            Unit::Frac,
        );
        out
    }

    fn describe(&self) -> Vec<(&'static str, String)> {
        vec![
            ("schemes", "all 8".to_owned()),
            ("probe_bits", PROBE_BITS.to_string()),
            ("attack_seed", self.seed.to_string()),
            ("workers", "1".to_owned()),
            ("caches", "every probe runs against a cold cache".to_owned()),
        ]
    }
}
