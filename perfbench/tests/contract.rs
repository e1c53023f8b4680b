//! The benchmark's own guarantees: declared names, exact repetition, and
//! seeds that reach the inputs they are meant to drive.

use primecache::obs::Json;
use primecache_perfbench::attack_probe::AttackProbe;
use primecache_perfbench::report::{Unit, Value};
use primecache_perfbench::spans::Tracer;
use primecache_perfbench::tenant_mix::TenantMixBench;
use primecache_perfbench::{
    make, per_layer_names, run, Bench, Scale, DECLARED, END_TO_END, WORKLOADS,
};

fn declared() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    Json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn names(doc: &Json, key: &str) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = doc
        .get(key)
        .and_then(Json::as_arr)
        .expect("a metric list")
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect();
    v.sort();
    v
}

#[test]
fn declared_names_match_the_emitted_ones() {
    let doc = declared();
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("a name"))
        .collect();
    assert_eq!(workloads, DECLARED);

    let untraced = run("attack-probe", 1, 1, false).expect("a known workload");
    let mut emitted: Vec<(String, String)> = untraced
        .metrics
        .entries
        .iter()
        .map(|(k, e)| (k.clone(), e.unit.as_str().to_owned()))
        .collect();
    emitted.sort();
    assert_eq!(emitted, names(&doc, "end_to_end"));
    let mut e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| ((*n).to_owned(), u.as_str().to_owned()))
        .collect();
    e2e.sort();
    assert_eq!(e2e, emitted);

    let traced = run("attack-probe", 1, 1, true).expect("a known workload");
    assert_eq!(traced.checks.failed, 0, "{:?}", traced.checks.failures);
    let mut emitted: Vec<(String, String)> = traced
        .metrics
        .entries
        .iter()
        .map(|(k, e)| (k.clone(), e.unit.as_str().to_owned()))
        .collect();
    emitted.sort();
    assert_eq!(emitted, names(&doc, "per_layer"));
    let declared: Vec<String> = names(&doc, "per_layer")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(declared, per_layer_names());
}

/// Exact counts of one calibration-size iteration plus its layer pass,
/// `workloads.stream_blocked_waits` excepted: it counts host-timing
/// events, not simulated ones.
fn exact_counts(name: &str, seed: u64) -> Vec<(String, u64)> {
    let mut bench = make(name, seed, Scale::Calibration).expect("a known workload");
    let mut tracer = Tracer::new(true);
    let s = bench.iteration(&mut tracer);
    let layers = bench.layers(&tracer, &[0], s.wall_s);
    let checks = bench.checks();
    assert_eq!(checks.failed, 0, "{:?}", checks.failures);
    layers
        .entries
        .iter()
        .filter(|(k, e)| e.unit == Unit::Count && k.as_str() != "workloads.stream_blocked_waits")
        .map(|(k, e)| match e.value {
            Value::N(n) => (k.clone(), n),
            Value::F(f) => panic!("{k} is a count but reads {f}"),
        })
        .collect()
}

#[test]
fn one_seed_gives_identical_exact_counts() {
    for name in WORKLOADS {
        let a = exact_counts(name, 3);
        assert!(!a.is_empty(), "{name} reports no exact counts");
        assert_eq!(a, exact_counts(name, 3), "{name}");
    }
}

#[test]
fn another_seed_changes_the_schedule_and_the_attack_pool() {
    let schedule = |seed| {
        let mut b = TenantMixBench::new(seed, Scale::Calibration);
        b.iteration(&mut Tracer::new(false));
        b.schedule().to_vec()
    };
    assert_eq!(schedule(1), schedule(1));
    assert_ne!(schedule(1), schedule(2));

    let campaigns = |seed| {
        let mut b = AttackProbe::new(seed);
        b.iteration(&mut Tracer::new(false));
        b.campaigns().to_vec()
    };
    assert_eq!(campaigns(1), campaigns(1));
    assert_ne!(campaigns(1), campaigns(2));
}
