//! The attack differential oracle at the workspace seam.
//!
//! The static analyzer derives each scheme's index model from its
//! definition; the attack engine reconstructs it from nothing but
//! simulated conflict observations. This test pins their agreement —
//! `canonicalize(recovered) == canonicalize(static)` — for every
//! built-in scheme and a corpus of DSL `expr:` schemes, pins the honest
//! Opaque verdicts (skewed organizations, non-algebraic expressions),
//! checks the versioned attack-report JSON, and pins the full eight-scheme
//! report byte for byte against `pcache attack --json` output captured
//! in `tests/data/` before the probe oracle reused its caches.

use primecache::analyze::canonicalize;
use primecache::attack::{
    attack_report_json, eviction_cost, recover, AttackEntry, EvictConfig, RecoveryConfig, Verdict,
};
use primecache::core::expr::register_anonymous;
use primecache::sim::{static_model, MachineConfig, Scheme, SimOracle, PROBE_BITS};

fn recover_scheme(machine: &MachineConfig, scheme: Scheme) -> (primecache::attack::Recovery, bool) {
    let mut oracle = SimOracle::direct(machine, scheme, PROBE_BITS);
    let rec = recover(&mut oracle, &RecoveryConfig::default());
    let statik = static_model(machine, scheme, PROBE_BITS);
    let agrees = rec.verdict.matches_static(statik.as_ref());
    (rec, agrees)
}

#[test]
fn differential_oracle_is_green_for_every_builtin_scheme() {
    let machine = MachineConfig::paper_default();
    for scheme in Scheme::ALL {
        let (rec, agrees) = recover_scheme(&machine, scheme);
        assert!(
            agrees,
            "{scheme}: recovered {:?} disagrees with the static model",
            rec.verdict
        );
        // The skewed organizations are the only honest Opaque verdicts.
        let skewed = matches!(scheme, Scheme::Skewed | Scheme::SkewedPrimeDisplacement);
        assert_eq!(
            matches!(rec.verdict, Verdict::Opaque { .. }),
            skewed,
            "{scheme}: unexpected verdict family"
        );
        assert!(
            rec.cost.probes > 0,
            "{scheme}: free recovery is implausible"
        );
    }
}

#[test]
fn differential_oracle_is_green_for_the_dsl_corpus() {
    let machine = MachineConfig::paper_default();
    // One representative per recoverable model family, plus variants
    // with non-canonical spellings the fold/lowering must normalize.
    let corpus = [
        "a % 2039",
        "a % 1021",
        "a & 2047",
        "(a ^ (a >> 11)) & 2047",
        "((9 * (a >> 11)) + a) & 2047",
    ];
    for src in corpus {
        let id = register_anonymous(src).expect("corpus expression compiles");
        let scheme = Scheme::Expr(id);
        let (rec, agrees) = recover_scheme(&machine, scheme);
        assert!(
            agrees,
            "expr `{src}`: recovered {:?} disagrees with the static model",
            rec.verdict
        );
        assert!(
            matches!(rec.verdict, Verdict::Model(_)),
            "expr `{src}`: expected an exact recovered model"
        );
    }
}

#[test]
fn opaque_expression_never_panics_and_matches_the_opaque_static_model() {
    let machine = MachineConfig::paper_default();
    // Mixes residue and shifted-XOR structure: lowers to the Opaque
    // fallback statically, and no recovery hypothesis fits it.
    let id = register_anonymous("((a % 2039) ^ (a >> 13)) & 2047").expect("compiles");
    let scheme = Scheme::Expr(id);
    let (rec, agrees) = recover_scheme(&machine, scheme);
    let Verdict::Opaque { reasons } = &rec.verdict else {
        panic!("expected an Opaque verdict, got {:?}", rec.verdict);
    };
    assert!(!reasons.is_empty(), "Opaque verdicts must carry evidence");
    assert!(agrees, "static Opaque and recovered Opaque must agree");
}

#[test]
fn eviction_cost_ranks_pmod_above_the_naive_tier_attack() {
    let machine = MachineConfig::paper_default();
    let mut naive_refs = std::collections::HashMap::new();
    for scheme in [Scheme::Base, Scheme::Xor, Scheme::PrimeModulo] {
        let mut native = SimOracle::native(&machine, scheme, PROBE_BITS);
        let cost = eviction_cost(
            &mut native,
            None,
            primecache::core::probe::ProbeCost::default(),
            &EvictConfig::default(),
        );
        naive_refs.insert(scheme.label(), cost.tier("naive-stride").cloned());
    }
    // Base and XOR fall to the stride ladder; pMod resists it outright
    // (Theorem 1 made quantitative) and needs the random-pool tier.
    assert!(naive_refs["Base"].as_ref().unwrap().success);
    assert!(naive_refs["XOR"].as_ref().unwrap().success);
    assert!(!naive_refs["pMod"].as_ref().unwrap().success);
}

#[test]
fn attack_report_json_is_versioned_and_well_formed() {
    let machine = MachineConfig::paper_default();
    let scheme = Scheme::PrimeModulo;
    let mut direct = SimOracle::direct(&machine, scheme, PROBE_BITS);
    let recovery = recover(&mut direct, &RecoveryConfig::default());
    let statik = static_model(&machine, scheme, PROBE_BITS);
    let agrees_static = recovery.verdict.matches_static(statik.as_ref());
    let informed = match &recovery.verdict {
        Verdict::Model(m) => Some(m.clone()),
        Verdict::Opaque { .. } => None,
    };
    let mut native = SimOracle::native(&machine, scheme, PROBE_BITS);
    let eviction = eviction_cost(
        &mut native,
        informed.as_ref(),
        recovery.cost,
        &EvictConfig::default(),
    );
    let entry = AttackEntry {
        scheme: scheme.label().to_owned(),
        recovery,
        agrees_static,
        static_canonical: statik.as_ref().map(canonicalize),
        eviction,
    };
    let json = attack_report_json(std::slice::from_ref(&entry));
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"schema\":\"primecache.attack-report\""));
    assert!(json.contains("\"version\":1"));
    assert!(json.contains("\"scheme\":\"pMod\""));
    assert!(json.contains("\"modulus\":2039"));
    assert!(json.contains("\"agrees_static\":true"));
    assert!(json.contains("\"tier\":\"informed\""));
    // Braces and brackets balance — the report is parseable JSON.
    let depth_ok = |open: char, close: char| {
        let mut depth = 0i64;
        for c in json.chars() {
            if c == open {
                depth += 1;
            } else if c == close {
                depth -= 1;
                assert!(depth >= 0, "unbalanced {close}");
            }
        }
        depth == 0
    };
    assert!(depth_ok('{', '}'));
    assert!(depth_ok('[', ']'));
}

/// One scheme's report entry exactly as `pcache attack --seed S` builds
/// it: both the recovery sampler and the random eviction pool on `seed`.
fn attack_entry(machine: &MachineConfig, scheme: Scheme, seed: u64) -> AttackEntry {
    let mut direct = SimOracle::direct(machine, scheme, PROBE_BITS);
    let recovery = recover(
        &mut direct,
        &RecoveryConfig {
            seed,
            ..RecoveryConfig::default()
        },
    );
    let statik = static_model(machine, scheme, PROBE_BITS);
    let agrees_static = recovery.verdict.matches_static(statik.as_ref());
    let informed = match &recovery.verdict {
        Verdict::Model(m) => Some(m.clone()),
        Verdict::Opaque { .. } => None,
    };
    let mut native = SimOracle::native(machine, scheme, PROBE_BITS);
    let eviction = eviction_cost(
        &mut native,
        informed.as_ref(),
        recovery.cost,
        &EvictConfig {
            seed,
            ..EvictConfig::default()
        },
    );
    AttackEntry {
        scheme: scheme.label().to_owned(),
        recovery,
        agrees_static,
        static_canonical: statik.as_ref().map(canonicalize),
        eviction,
    }
}

#[test]
fn attack_reports_match_the_golden_files_byte_for_byte() {
    let machine = MachineConfig::paper_default();
    // `pcache attack`'s default seed, and `--seed 7`.
    for (seed, golden) in [
        (0x5EED, include_str!("data/attack_report_seed_default.json")),
        (7, include_str!("data/attack_report_seed7.json")),
    ] {
        let entries: Vec<AttackEntry> = Scheme::ALL
            .iter()
            .map(|&s| attack_entry(&machine, s, seed))
            .collect();
        let json = attack_report_json(&entries) + "\n";
        let first_diff = json.bytes().zip(golden.bytes()).position(|(a, b)| a != b);
        assert!(
            json == golden,
            "seed {seed}: the attack report drifted from its golden file \
             (first differing byte: {first_diff:?}; lengths {} vs {})",
            json.len(),
            golden.len()
        );
    }
}
