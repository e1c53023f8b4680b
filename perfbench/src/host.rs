//! Host-side measurements and provenance: peak memory, process CPU
//! time, and the facts every report carries (revision, compiler,
//! machine).

use std::path::Path;

/// Peak resident set size of this process in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// User + system CPU seconds consumed by all threads of this process so
/// far (`/proc/self/stat`, in clock ticks of 1/100 s — the fixed
/// `USER_HZ` of the Linux ABI).
#[must_use]
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, i.e. 12 and 13 after it.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (tick(11), tick(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => f64::NAN,
    }
}

/// Hardware threads available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The CPU model string from `/proc/cpuinfo`.
#[must_use]
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The git revision of the tree the benchmark was built from, when that
/// tree's root is a git checkout. Nothing above the root is consulted.
#[must_use]
pub fn git_rev() -> String {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .filter(|root| root.join(".git").is_dir())
        .and_then(primecache::obs::report::git_revision)
        .unwrap_or_else(|| "unavailable (not a git checkout)".to_owned())
}

/// `rustc -V` of the compiler that built the benchmark (captured by the
/// build script).
#[must_use]
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC")
}
