//! Run-report construction: wraps a [`RunResult`] in the versioned,
//! self-describing [`RunReport`] artifact of `primecache_obs`.
//!
//! A report needs only the end-of-run aggregates of a [`RunResult`];
//! the [`crate::observe`] runs add a full metric dump and event counts
//! on top.

use std::path::Path;

use primecache_obs::{
    BreakdownSummary, CacheSummary, DramSummary, Metrics, Provenance, RunReport, RUN_REPORT_SCHEMA,
    RUN_REPORT_VERSION,
};

use crate::{MachineConfig, RunResult};

fn cache_summary(s: &primecache_cache::CacheStats) -> CacheSummary {
    CacheSummary {
        accesses: s.accesses,
        hits: s.hits,
        misses: s.misses,
        writes: s.writes,
        writebacks: s.writebacks,
    }
}

/// Builds a report from a finished run plus its provenance inputs.
///
/// `metrics`, `events_recorded`, and `events_dropped` come from an
/// observed run; pass `Metrics::new()` and zeros for an uninstrumented
/// one — the aggregate sections are complete either way.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn build_report(
    result: &RunResult,
    machine: &MachineConfig,
    workload: &str,
    refs: u64,
    wall_ms: f64,
    metrics: Metrics,
    events_recorded: u64,
    events_dropped: u64,
) -> RunReport {
    RunReport {
        schema: RUN_REPORT_SCHEMA.to_owned(),
        version: RUN_REPORT_VERSION,
        provenance: Provenance {
            workload: workload.to_owned(),
            scheme: result.scheme.label().to_owned(),
            refs,
            // The bundled generators are deterministic functions of the
            // workload name; there is no RNG seed to record.
            seed: 0,
            config_hash: machine.fingerprint(result.scheme),
            git_rev: primecache_obs::git_revision(Path::new("."))
                .unwrap_or_else(|| "unknown".to_owned()),
            wall_ms,
            sim_cycles: result.breakdown.total(),
        },
        breakdown: BreakdownSummary {
            busy: result.breakdown.busy,
            other_stall: result.breakdown.other_stall,
            mem_stall: result.breakdown.mem_stall,
        },
        l1: cache_summary(&result.l1),
        l2: cache_summary(&result.l2),
        dram: DramSummary {
            reads: result.dram.reads,
            writes: result.dram.writes,
            row_hits: result.dram.row_hits,
            row_misses: result.dram.row_misses,
            queue_cycles: result.dram.queue_cycles,
        },
        metrics,
        events_recorded,
        events_dropped,
    }
}
