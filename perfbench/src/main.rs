//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then as its last line one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics, or with `--trace 1` the per-layer metrics.

use std::process::ExitCode;

use primecache_perfbench::report::{metric_lines, result_line};

fn parse(args: &[String]) -> Result<(String, u64, u64, bool), String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok((
        value("--workload")?.to_owned(),
        number("--seed")?,
        seconds,
        trace,
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, seed, seconds, trace) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let outcome = match primecache_perfbench::run(&workload, seed, seconds, trace) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for (k, v) in &outcome.info {
        println!("{k}: {v}");
    }
    if let Some(spans) = &outcome.spans_jsonl {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
        match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => println!(
                "spans: {} ({} spans)",
                path.display(),
                spans.lines().count()
            ),
            Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
        }
    }
    println!(
        "{} metrics:",
        if trace {
            "per-layer"
        } else {
            "end-to-end (quiet half of the iterations)"
        }
    );
    print!("{}", metric_lines(&outcome.metrics));
    println!(
        "checks: {} attempted, {} failed",
        outcome.checks.attempted, outcome.checks.failed
    );
    for f in &outcome.checks.failures {
        println!("  FAILED: {f}");
    }
    println!(
        "{}",
        result_line(
            &outcome.metrics,
            outcome.checks.attempted,
            outcome.checks.failed
        )
    );
    ExitCode::SUCCESS
}
