//! End-to-end benchmark of the MERCURY reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! perfbench --self-test
//! ```
//!
//! Each run builds one workload's inputs from `--seed`, measures for
//! `--seconds`, checks the program's outputs, and prints one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set; with `--trace 1` a traced run gives
//! the per-layer set and writes its spans to
//! `.bench_trace/<workload>-seed<n>.tsv`. A failed check exits nonzero.
//!
//! Executors are fixed by the workloads, so the benchmark refuses to run
//! with `MERCURY_EXECUTOR` or `MERCURY_TUNE_PROFILE` set. `--smoke` runs
//! a tiny training set; `--self-test` runs every workload in both modes
//! at that size, in child processes, and checks their result lines
//! against `BENCHMARK.json`.

mod json;
mod report;
mod serve;
mod trace;
mod train;

use report::{peak_rss_mb, Outcome};
use std::process::{Command, ExitCode};
use std::time::Duration;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 2] = ["train-reuse", "serve-open"];

const USAGE: &str =
    "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n       perfbench --self-test";

/// Parsed command line of one workload run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"))
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("in (0, 600]"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// Writes the traced run's spans, counting a write failure as a failure.
pub fn write_trace(args: &Args, tracer: &trace::Tracer, out: &mut Outcome) {
    let path = std::path::PathBuf::from(".bench_trace")
        .join(format!("{}-seed{}.tsv", args.workload, args.seed));
    match tracer.write(&path) {
        Ok(()) => println!(
            "# trace {} spans -> {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => out.fail(format!("writing {}: {e}", path.display())),
    }
}

fn run(args: &Args) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} smoke={} nproc={nproc}",
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace),
        args.smoke
    );
    let mut out = Outcome::default();
    let result = match args.workload.as_str() {
        "train-reuse" => train::run(args, &mut out),
        _ => serve::run(args, &mut out),
    };
    if let Err(e) = result {
        out.fail(e);
    }
    // A failed check counts as a failed attempt even when every sample or
    // request itself completed.
    if !out.errors.is_empty() {
        out.failed = out.failed.max(1);
    }
    if !args.trace {
        match peak_rss_mb() {
            Ok(mb) => out.set("peak_rss_mb", mb),
            Err(e) => out.fail(e),
        }
        let ok = out.attempted.saturating_sub(out.failed) as f64;
        out.set("success_rate", ok / out.attempted.max(1) as f64);
    }
    let line = out.render(args.trace);
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    println!("{line}");
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in both modes at smoke size and checks each
/// result line against `BENCHMARK.json`.
fn self_test() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let bench = json::parse(&text)?;
    let names = |key: &str| -> Result<Vec<String>, String> {
        bench
            .get(key)?
            .elements(key)?
            .iter()
            .map(|w| w.get("name")?.str().map(str::to_string))
            .collect()
    };
    if names("workloads")? != WORKLOADS {
        return Err(format!(
            "BENCHMARK.json workloads differ from {WORKLOADS:?}"
        ));
    }
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    for (trace, key, catalogue) in [
        (false, "end_to_end", report::END_TO_END),
        (true, "per_layer", report::PER_LAYER),
    ] {
        let declared: Vec<(String, String)> = bench
            .get(key)?
            .elements(key)?
            .iter()
            .map(|m| {
                Ok((
                    m.get("name")?.str()?.to_string(),
                    m.get("unit")?.str()?.to_string(),
                ))
            })
            .collect::<Result<_, String>>()?;
        let expected: Vec<(String, String)> = catalogue
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        if declared != expected {
            return Err(format!(
                "BENCHMARK.json {key} differs from the benchmark's catalogue"
            ));
        }
        for workload in WORKLOADS {
            let trace_flag = if trace { "1" } else { "0" };
            let run = Command::new(&exe)
                .args(["--workload", workload, "--seed", "1", "--seconds", "1"])
                .args(["--trace", trace_flag, "--smoke"])
                .output()
                .map_err(|e| format!("spawning {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&run.stdout);
            let what = format!("{workload} --trace {trace_flag}");
            if !run.status.success() {
                return Err(format!(
                    "{what} exited with {}:\n{stdout}{}",
                    run.status,
                    String::from_utf8_lossy(&run.stderr)
                ));
            }
            let last = stdout.lines().last().ok_or(format!("{what}: no output"))?;
            let result = json::parse(last)?;
            let keys: Vec<&str> = result
                .members(&what)?
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            if keys != ["correct", "attempted", "failed", "metrics"] {
                return Err(format!("{what}: result keys {keys:?}"));
            }
            if *result.get("correct")? != json::Value::Bool(true) {
                return Err(format!("{what}: not correct: {last}"));
            }
            let metrics = result.get("metrics")?.members("metrics")?;
            for (name, unit) in &declared {
                let printed: Vec<_> = metrics.iter().filter(|(k, _)| k == name).collect();
                let [(_, metric)] = printed.as_slice() else {
                    return Err(format!("{what}: {name} printed {} times", printed.len()));
                };
                if metric.get("unit")?.str()? != unit {
                    return Err(format!(
                        "{what}: {name} has unit {:?}, want {unit:?}",
                        metric.get("unit")?
                    ));
                }
                if !matches!(metric.get("value")?, json::Value::Number(_)) {
                    return Err(format!("{what}: {name} value is not a number"));
                }
            }
            if metrics.len() != declared.len() {
                return Err(format!(
                    "{what}: {} metrics printed, {} declared",
                    metrics.len(),
                    declared.len()
                ));
            }
            println!("self-test: {what}: ok ({} metrics)", metrics.len());
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    for var in ["MERCURY_EXECUTOR", "MERCURY_TUNE_PROFILE"] {
        if std::env::var_os(var).is_some() {
            eprintln!("perfbench: {var} is set; executors are fixed by the workloads, unset it");
            return ExitCode::from(2);
        }
    }
    if argv == ["--self-test"] {
        return match self_test() {
            Ok(()) => {
                println!("self-test: passed");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("self-test: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match parse_args(&argv) {
        Ok(args) => run(&args),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
