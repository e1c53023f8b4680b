//! Integration tests for the observability layer.
//!
//! Exercises observed runs through the umbrella crate exactly as an
//! external consumer would: the self-describing [`RunReport`] must
//! survive a JSON round trip, and the recorder's hot counters must match
//! the simulator's own `stats.rs` aggregates bit-exactly — observation
//! is a read-only tap, never a second bookkeeping system that can drift.

use primecache::obs::{ObsConfig, RunReport, RUN_REPORT_SCHEMA, RUN_REPORT_VERSION};
use primecache::sim::observe::{observed_report, run_workload_observed};
use primecache::sim::Scheme;
use primecache::workloads::by_name;

#[test]
fn run_report_round_trips_through_json() {
    let (report, _recorder) = observed_report(
        by_name("tree").unwrap(),
        Scheme::PrimeModulo,
        20_000,
        ObsConfig::default(),
    );
    let text = report.to_json().render_pretty();
    let parsed = RunReport::from_json_str(&text).expect("report JSON parses back");
    assert_eq!(parsed, report);
    assert_eq!(parsed.schema, RUN_REPORT_SCHEMA);
    assert_eq!(parsed.version, RUN_REPORT_VERSION);

    // Compact rendering round-trips too.
    let compact = report.to_json().render();
    assert_eq!(RunReport::from_json_str(&compact).unwrap(), report);
}

#[test]
fn report_rejects_foreign_schema() {
    let (report, _recorder) = observed_report(
        by_name("tree").unwrap(),
        Scheme::Base,
        5_000,
        ObsConfig::default(),
    );
    let text = report
        .to_json()
        .render()
        .replace(RUN_REPORT_SCHEMA, "someone-elses.schema");
    assert!(RunReport::from_json_str(&text).is_err());
}

#[test]
fn obs_miss_class_metrics_match_stats_aggregates() {
    // Three workloads spanning the paper's behaviour classes: pointer
    // chasing (tree), strided numeric (swim), and the worst non-uniform
    // conflict case (mcf).
    for name in ["tree", "swim", "mcf"] {
        let w = by_name(name).unwrap();
        for scheme in [Scheme::Base, Scheme::PrimeModulo] {
            let run = run_workload_observed(w, scheme, 25_000, ObsConfig::default());
            let m = &run.metrics;
            let counter = |key: &str| {
                m.counter(key)
                    .unwrap_or_else(|| panic!("metric {key} missing ({name})"))
            };

            assert_eq!(counter("cache.l1.accesses"), run.result.l1.accesses);
            assert_eq!(counter("cache.l1.hits"), run.result.l1.hits);
            assert_eq!(counter("cache.l1.misses"), run.result.l1.misses);
            assert_eq!(counter("cache.l2.demand_accesses"), run.result.l2.accesses);
            assert_eq!(counter("cache.l2.demand_hits"), run.result.l2.hits);
            assert_eq!(counter("cache.l2.demand_misses"), run.result.l2.misses);
            assert_eq!(counter("dram.reads"), run.result.dram.reads);
            assert_eq!(counter("dram.writes"), run.result.dram.writes);
            assert_eq!(counter("dram.row_hits"), run.result.dram.row_hits);
        }
    }
}

#[test]
fn report_miss_totals_match_embedded_metrics() {
    let (report, _recorder) = observed_report(
        by_name("mcf").unwrap(),
        Scheme::Xor,
        20_000,
        ObsConfig::default(),
    );
    assert_eq!(
        report.metrics.counter("cache.l2.demand_misses"),
        Some(report.l2.misses)
    );
    assert_eq!(
        report.metrics.counter("cache.l1.misses"),
        Some(report.l1.misses)
    );
    assert_eq!(
        report.metrics.counter("dram.reads"),
        Some(report.dram.reads)
    );
}
