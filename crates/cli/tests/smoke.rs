//! Smoke tests of the CLI subcommands (exit codes; output goes to stdout).

use primecache_cli::commands;

fn args(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| (*s).to_owned()).collect()
}

#[test]
fn list_succeeds() {
    assert_eq!(commands::list(&args(&[])), 0);
    assert_eq!(commands::list(&args(&["--verbose"])), 0);
}

#[test]
fn run_validates_inputs() {
    assert_eq!(commands::run(&args(&[])), 2);
    assert_eq!(commands::run(&args(&["doom"])), 2);
    assert_eq!(commands::run(&args(&["tree", "--scheme", "wat"])), 2);
    assert_eq!(commands::run(&args(&["tree", "--refs", "nope"])), 2);
    assert_eq!(
        commands::run(&args(&["tree", "--scheme", "pMod", "--refs", "5000"])),
        0
    );
}

#[test]
fn zero_refs_is_a_usage_error_in_every_subcommand() {
    // An empty trace has no Base baseline to normalize against; every
    // subcommand must refuse it up front instead of panicking mid-run.
    let zero = |rest: &[&str]| {
        let mut v = args(rest);
        v.extend(args(&["--refs", "0"]));
        v
    };
    assert_eq!(commands::sweep(&zero(&[])), 2);
    assert_eq!(commands::sweep(&zero(&["--tenants", "tree,mcf"])), 2);
    assert_eq!(commands::run(&zero(&["swim"])), 2);
    assert_eq!(commands::classify(&zero(&[])), 2);
    assert_eq!(commands::taxonomy(&zero(&[])), 2);
    assert_eq!(commands::bench(&zero(&[])), 2);
    assert_eq!(commands::metrics(&zero(&["--app", "tree"])), 2);
    assert_eq!(commands::analyze(&zero(&["--self-check"])), 2);
    assert_eq!(commands::report(&zero(&["tree"])), 2);
    assert_eq!(commands::trace_events(&zero(&["tree"])), 2);
    assert_eq!(commands::trace_events(&zero(&["--sweep"])), 2);
    assert_eq!(commands::trace(&zero(&["swim", "--out", "unused.pct"])), 2);
}

#[test]
fn metrics_validates_inputs() {
    assert_eq!(commands::metrics(&args(&["--stride", "0"])), 2);
    assert_eq!(
        commands::metrics(&args(&["--stride", "7", "--sets", "100"])),
        2
    );
    assert_eq!(commands::metrics(&args(&["--stride", "7"])), 0);
    assert_eq!(commands::metrics(&args(&["--app", "nothere"])), 2);
    assert_eq!(
        commands::metrics(&args(&["--app", "tree", "--refs", "3000"])),
        0
    );
}

#[test]
fn trace_and_inspect_roundtrip() {
    let dir = std::env::temp_dir().join("pcache_cli_smoke");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.pct");
    let path_str = path.to_str().unwrap();
    assert_eq!(
        commands::trace(&args(&["swim", "--out", path_str, "--refs", "2000"])),
        0
    );
    assert_eq!(commands::inspect(&args(&[path_str])), 0);
    assert_eq!(commands::inspect(&args(&["/nonexistent/file"])), 1);
    std::fs::remove_file(path).ok();
}

#[test]
fn trace_events_ring_capacity_is_a_bound_not_an_allocation() {
    // The ring grows with the events a run records, so a capacity no
    // allocation could hold is accepted and only bounds the buffer.
    let dir = std::env::temp_dir().join("pcache_cli_ring");
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("events.jsonl");
    let out_str = out.to_str().unwrap();
    let ring = usize::MAX.to_string();
    assert_eq!(
        commands::trace_events(&args(&[
            "tree", "--refs", "2000", "--ring", &ring, "--out", out_str
        ])),
        0
    );
    let events = std::fs::read_to_string(&out).unwrap();
    assert!(events.lines().count() > 0);
    std::fs::remove_file(out).ok();
}

#[test]
fn trace_requires_out_flag() {
    assert_eq!(commands::trace(&args(&["swim"])), 2);
    assert_eq!(commands::trace(&args(&[])), 2);
}

#[test]
fn classify_and_taxonomy_run() {
    assert_eq!(commands::classify(&args(&["--refs", "3000"])), 0);
    assert_eq!(commands::taxonomy(&args(&["--refs", "3000"])), 0);
}

#[test]
fn bench_measures_and_gates_on_a_baseline() {
    assert_eq!(commands::bench(&args(&["--scheme", "wat"])), 2);
    assert_eq!(commands::bench(&args(&["--refs", "nope"])), 2);
    assert_eq!(
        commands::bench(&args(&["--baseline", "/nonexistent/baseline.json"])),
        1
    );

    let dir = std::env::temp_dir().join("pcache_cli_bench");
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("thrpt.json");
    let out_str = out.to_str().unwrap();
    // Measure one scheme and write the JSON document.
    assert_eq!(
        commands::bench(&args(&[
            "--scheme", "pMod", "--refs", "2000", "--out", out_str
        ])),
        0
    );
    let json = std::fs::read_to_string(&out).unwrap();
    assert!(json.contains("\"scheme\": \"pMod\""), "{json}");

    // Gating against its own numbers (with a wide tolerance for timing
    // noise) passes; against an impossible baseline it fails.
    assert_eq!(
        commands::bench(&args(&[
            "--scheme",
            "pMod",
            "--refs",
            "2000",
            "--baseline",
            out_str,
            "--max-regress",
            "95"
        ])),
        0
    );
    let impossible = dir.join("impossible.json");
    std::fs::write(
        &impossible,
        "{\"schemes\": [{\"scheme\": \"pMod\", \"refs_per_sec\": 1e18}]}",
    )
    .unwrap();
    assert_eq!(
        commands::bench(&args(&[
            "--scheme",
            "pMod",
            "--refs",
            "2000",
            "--baseline",
            impossible.to_str().unwrap()
        ])),
        1
    );
    std::fs::remove_file(out).ok();
    std::fs::remove_file(impossible).ok();
}
