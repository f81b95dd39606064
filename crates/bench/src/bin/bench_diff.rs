//! Compares two `BENCH_RESULTS.json` snapshots and prints per-benchmark
//! deltas.
//!
//! ```text
//! cargo run --release -p mercury-bench --bin bench_diff -- \
//!     crates/bench/BENCH_RESULTS.json BENCH_RESULTS.threaded.json
//! ```
//!
//! The `bench-multicore` CI job uses this to diff the 4-core hosted
//! runner's serial and threaded snapshots against each other and against
//! the committed single-core baseline. Hosted runners are far too noisy
//! to gate on, so regressions are *reported, never fatal*: the exit code
//! is nonzero only on a schema mismatch (a missing/unreadable file or
//! one with no `"name": nanoseconds` entries).

use mercury_bench::results;
use std::process::ExitCode;

fn fmt_ns(ns: u128) -> String {
    if ns >= 10_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 10_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [left_path, right_path] = args.as_slice() else {
        eprintln!("usage: bench_diff <left BENCH_RESULTS.json> <right BENCH_RESULTS.json>");
        eprintln!("(prints right-vs-left deltas; nonzero exit only on schema mismatch)");
        return ExitCode::from(2);
    };
    let (left, right) = match (results::load(left_path), results::load(right_path)) {
        (Ok(l), Ok(r)) => (l, r),
        (l, r) => {
            for err in [l.err(), r.err()].into_iter().flatten() {
                eprintln!("schema mismatch: {err}");
            }
            return ExitCode::from(2);
        }
    };

    println!("# bench_diff: {right_path} vs {left_path}");
    println!(
        "{:<44} {:>12} {:>12} {:>9}  delta",
        "benchmark", "left", "right", "right/left"
    );
    let mut common = 0usize;
    for (name, &lns) in &left {
        let Some(&rns) = right.get(name) else {
            continue;
        };
        common += 1;
        // A zero left value has no ratio: print `n/a`, not `inf`/`NaN`.
        let (ratio, delta) = if lns == 0 {
            ("n/a".to_string(), "n/a".to_string())
        } else {
            let ratio = rns as f64 / lns as f64;
            (
                format!("{ratio:.3}"),
                format!("{:+.1}%", (ratio - 1.0) * 100.0),
            )
        };
        println!(
            "{:<44} {:>12} {:>12} {:>9}  {}",
            name,
            fmt_ns(lns),
            fmt_ns(rns),
            ratio,
            delta
        );
    }
    for (label, a, b) in [
        ("only in left", &left, &right),
        ("only in right", &right, &left),
    ] {
        let only: Vec<&str> = a
            .keys()
            .filter(|k| !b.contains_key(*k))
            .map(String::as_str)
            .collect();
        if !only.is_empty() {
            println!("# {label} ({}): {}", only.len(), only.join(", "));
        }
    }
    println!("# {common} benchmarks compared");
    ExitCode::SUCCESS
}
