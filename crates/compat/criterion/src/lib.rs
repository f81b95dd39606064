//! Minimal, dependency-free stand-in for the [`criterion`] crate.
//!
//! The MERCURY workspace builds without registry access, so the real
//! `criterion` cannot be fetched. This shim implements the API surface the
//! workspace's four `harness = false` benches use — benchmark groups,
//! `sample_size`, `bench_function`, `bench_with_input`, [`BenchmarkId`],
//! and the [`criterion_group!`]/[`criterion_main!`] macros — with
//! wall-clock timing and a plain-text report (median / min / max over the
//! configured samples) instead of criterion's statistical machinery.
//!
//! Timed runs happen only under `cargo bench` (which passes `--bench` to
//! `harness = false` targets). Invoked any other way — `cargo test
//! --benches`, or with an explicit `--test` — every benchmark body runs
//! exactly once so the bench suite doubles as a smoke test, matching the
//! real crate's behaviour.
//!
//! Timed runs additionally record `bench name → median nanoseconds` into a
//! machine-readable `BENCH_RESULTS.json` (path overridable via the
//! `BENCH_RESULTS_PATH` environment variable; relative paths resolve
//! against the bench process's working directory, i.e. the package root).
//! Results merge into the existing file, so one `cargo bench` run across
//! several bench binaries accumulates a single perf snapshot that can be
//! diffed commit to commit. The file's codec is `mercury-bench`'s
//! `results` module, compiled in from its source file so the shim depends
//! on nothing in the workspace.
//!
//! [`criterion`]: https://crates.io/crates/criterion

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

// `load` is `bench_diff`'s reader; the shim only writes.
#[allow(dead_code)]
#[path = "../../../bench/src/results.rs"]
mod results;

/// Entry point handed to every benchmark function.
#[derive(Debug)]
pub struct Criterion {
    test_mode: bool,
    default_sample_size: usize,
    /// Where timed medians are recorded as JSON; `None` disables recording
    /// (unit tests, smoke mode).
    results_path: Option<String>,
}

impl Default for Criterion {
    fn default() -> Self {
        // Same convention as the real criterion: `cargo bench` passes
        // `--bench` to harness = false targets, so its absence (e.g. under
        // `cargo test --benches`) — or an explicit `--test` — selects the
        // one-shot smoke mode.
        let args: Vec<String> = std::env::args().collect();
        let timed = args.iter().any(|a| a == "--bench") && !args.iter().any(|a| a == "--test");
        Criterion {
            test_mode: !timed,
            default_sample_size: 10,
            results_path: timed.then(results::default_path),
        }
    }
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
        }
    }

    /// Benchmarks `f` outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let sample_size = self.default_sample_size;
        self.run_one(&id.into().0, sample_size, |b| f(b));
        self
    }

    fn run_one<F>(&mut self, label: &str, sample_size: usize, mut f: F)
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            test_mode: self.test_mode,
            sample_size,
            samples: Vec::new(),
        };
        f(&mut bencher);
        bencher.report(label, self.results_path.as_deref());
    }
}

/// A named collection of benchmarks sharing configuration.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: Option<usize>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n);
        self
    }

    /// Benchmarks `f` under `id` within this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into().0);
        let sample_size = self
            .sample_size
            .unwrap_or(self.criterion.default_sample_size);
        self.criterion.run_one(&label, sample_size, |b| f(b));
        self
    }

    /// Benchmarks `f` under `id`, passing `input` through.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.into().0);
        let sample_size = self
            .sample_size
            .unwrap_or(self.criterion.default_sample_size);
        self.criterion.run_one(&label, sample_size, |b| f(b, input));
        self
    }

    /// Ends the group (report lines are already printed per benchmark).
    pub fn finish(self) {}
}

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id from a function name plus a parameter value.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(format!("{}/{}", name.into(), parameter))
    }

    /// An id carrying just a parameter value.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        BenchmarkId(parameter.to_string())
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId(s.to_string())
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId(s)
    }
}

/// Times the routine under benchmark.
#[derive(Debug)]
pub struct Bencher {
    test_mode: bool,
    sample_size: usize,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Runs `routine` repeatedly and records one timing sample per run
    /// (one warm-up run is discarded). In `--test` mode the routine runs
    /// exactly once, untimed.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        if self.test_mode {
            let _ = routine();
            return;
        }
        let _ = routine(); // warm-up
        self.samples.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            let _ = routine();
            self.samples.push(start.elapsed());
        }
    }

    fn report(&self, label: &str, results_path: Option<&str>) {
        if self.test_mode {
            println!("test {label} ... ok (bench smoke run)");
            return;
        }
        if self.samples.is_empty() {
            println!("{label:<40} no samples recorded");
            return;
        }
        let mut sorted = self.samples.clone();
        sorted.sort();
        let median = sorted[sorted.len() / 2];
        println!(
            "{label:<40} median {:>12?}  min {:>12?}  max {:>12?}  ({} samples)",
            median,
            sorted[0],
            sorted[sorted.len() - 1],
            sorted.len()
        );
        // Failures are reported on stderr but never fail the bench.
        if let Some(path) = results_path {
            let entry = BTreeMap::from([(label.to_string(), median.as_nanos())]);
            if let Err(e) = results::merge_into(path, &entry) {
                eprintln!("warning: {e}; not recording {label}");
            }
        }
    }
}

/// Bundles benchmark functions into a runnable group, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Generates `main` running the given groups, mirroring
/// `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_runs_and_reports() {
        let mut c = Criterion {
            test_mode: false,
            default_sample_size: 3,
            results_path: None,
        };
        let mut ran = 0;
        {
            let mut group = c.benchmark_group("shim");
            group
                .sample_size(2)
                .bench_function("noop", |b| b.iter(|| ran += 1));
            group.bench_with_input(BenchmarkId::from_parameter(7), &7, |b, &x| {
                b.iter(|| assert_eq!(x, 7))
            });
            group.finish();
        }
        // warm-up + 2 samples
        assert_eq!(ran, 3);
    }

    #[test]
    fn test_mode_runs_once() {
        let mut c = Criterion {
            test_mode: true,
            default_sample_size: 10,
            results_path: None,
        };
        let mut ran = 0;
        c.bench_function("once", |b| b.iter(|| ran += 1));
        assert_eq!(ran, 1);
    }
}
