//! The metric catalogue, the per-run outcome, and the one JSON line the
//! benchmark ends with.
//!
//! Every workload prints every metric of its mode, so the catalogue is
//! shared. End-to-end metrics mean the same user-visible thing on every
//! workload, read in that workload's terms (see [`END_TO_END`]).
//! Per-layer metrics read 0 on a workload that never enters the layer
//! (no `serve` spans in a training run, no conv engine in `serve-open`).

use mercury_core::stats::LayerStats;
use std::collections::BTreeMap;

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
///
/// * `throughput_per_s` — training: samples trained per second (closed
///   loop, one sample at a time); serving: requests completed per second
///   while every request is already due (the capacity one client sees).
/// * `lat_p50_ms`, `lat_p90_ms` — training: wall time of one sample's
///   step (forward, loss, backward, and the SGD update when the sample
///   closes a batch); serving: request latency at the `light` rate,
///   timed from when the request was due. The tail is p90 because
///   interference on the shared host hits a few percent of samples in
///   bursts, which would decide a p95 or p99 on its own.
/// * `cycle_speedup` — baseline cycles over MERCURY cycles in the
///   accelerator model.
/// * `success_rate` — share of attempted samples or requests that
///   completed and passed the checks.
/// * `setup_s` — construction plus the first untimed step or request,
///   median of set-ups spread over the run.
/// * `peak_rss_mb` — the process's peak resident set (`VmHWM`).
///
/// Throughput and latencies are those of the best window (see
/// [`WINDOWS`]).
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("lat_p50_ms", "ms"),
    ("lat_p90_ms", "ms"),
    ("cycle_speedup", "x"),
    ("success_rate", "frac"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`. Times
/// named `*_us` without a percentile are mean microseconds per sample.
/// `trace.overhead_frac` is the share of time tracing adds: for training,
/// 1 − untraced ÷ traced wall time over the same samples; for serving,
/// the traced light phase's median latency over the untraced one, less 1.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dnn.conv1.fwd_us", "us"),
    ("dnn.conv2.fwd_us", "us"),
    ("dnn.conv3.fwd_us", "us"),
    ("dnn.conv4.fwd_us", "us"),
    ("dnn.conv1.bwd_us", "us"),
    ("dnn.conv2.bwd_us", "us"),
    ("dnn.conv3.bwd_us", "us"),
    ("dnn.conv4.bwd_us", "us"),
    ("dnn.fc.fwd_us", "us"),
    ("dnn.fc.bwd_us", "us"),
    ("dnn.other_us", "us"),
    ("dnn.loss_us", "us"),
    ("dnn.sgd_us", "us"),
    ("core.conv1.hit_rate", "frac"),
    ("core.conv2.hit_rate", "frac"),
    ("core.conv3.hit_rate", "frac"),
    ("core.conv4.hit_rate", "frac"),
    ("core.vectors_per_sample", "count"),
    ("mcache.mnu_frac", "frac"),
    ("accel.signature_cycle_frac", "frac"),
    ("accel.reused_dot_frac", "frac"),
    ("serve.submit_us_p50", "us"),
    ("serve.submit_us_p99", "us"),
    ("serve.complete_us_p50", "us"),
    ("serve.complete_us_p99", "us"),
    ("serve.batch_mean", "count"),
    ("serve.hit_rate", "frac"),
    ("loadgen.lag_us_p99", "us"),
    ("loadgen.heavy_p50_us", "us"),
    ("loadgen.heavy_p99_us", "us"),
    ("trace.overhead_frac", "frac"),
];

/// The metric set a mode prints.
pub fn catalogue(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// What one workload run produced: counts, correctness failures, and
/// metric values by name.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Samples or requests attempted.
    pub attempted: u64,
    /// Attempts that failed, were refused, or failed a check.
    pub failed: u64,
    /// Correctness failures, one line each.
    pub errors: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric value. A name outside the catalogue is a bug in
    /// the benchmark and becomes a correctness failure.
    pub fn set(&mut self, name: &str, value: f64) {
        match END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name) {
            Some(&(name, _)) => {
                self.values.insert(name, value);
            }
            None => self.fail(format!("metric {name} is not in the catalogue")),
        }
    }

    /// Records 0 for every per-layer metric whose name starts with one of
    /// `prefixes`: the layers this workload never enters.
    pub fn set_unused(&mut self, prefixes: &[&str]) {
        for &(name, _) in PER_LAYER {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.set(name, 0.0);
            }
        }
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, message: String) {
        self.errors.push(message);
    }

    /// Records a check that must hold.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.fail(message());
        }
    }

    /// Whether every check held and nothing failed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    /// Renders the result line: exactly the mode's catalogue, in order.
    /// A metric the workload did not set, or set to a non-finite value,
    /// is a bug in the benchmark and becomes a correctness failure.
    pub fn render(&mut self, trace: bool) -> String {
        let mut fields = Vec::new();
        for &(name, unit) in catalogue(trace) {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.errors
                        .push(format!("metric {name} is not finite ({v})"));
                    0.0
                }
                None => {
                    self.errors.push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

/// Nearest-rank percentile (`q` in `0..=1`) of unsorted samples; 0 for
/// an empty set.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Windows a timed phase is split into. Each figure is computed per
/// window and the least disturbed window is reported: the host is shared,
/// interference only ever slows a window down, and it comes in bursts of
/// seconds, so the best of many windows is the figure that repeats.
pub const WINDOWS: usize = 100;

/// `f(window)` for each of [`WINDOWS`] contiguous, equal windows of
/// `samples`.
pub fn per_window(samples: &[f64], f: impl Fn(&[f64]) -> f64) -> Vec<f64> {
    let size = samples.len().div_ceil(WINDOWS).max(1);
    samples.chunks(size).map(f).collect()
}

/// The smallest value (the best window of a time); 0 for none.
pub fn lowest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The largest value (the best window of a rate); 0 for none.
pub fn highest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::max).unwrap_or(0.0)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Sums engine statistics (over layers, passes or tenants).
pub fn sum_stats<'a>(stats: impl IntoIterator<Item = &'a LayerStats>) -> LayerStats {
    let mut total = LayerStats::default();
    for s in stats {
        total.accumulate(s);
    }
    total
}

/// The `core`, `mcache` and `accel` per-layer metrics from summed engine
/// statistics over `items` samples or requests.
pub fn set_engine_metrics(out: &mut Outcome, stats: &[LayerStats], items: u64) {
    let total = sum_stats(stats);
    let vectors = total.total_vectors() as f64;
    let c = total.cycles;
    out.set("core.vectors_per_sample", ratio(vectors, items as f64));
    out.set("mcache.mnu_frac", ratio(total.mnus as f64, vectors));
    out.set(
        "accel.signature_cycle_frac",
        ratio(c.signature as f64, c.total() as f64),
    );
    out.set(
        "accel.reused_dot_frac",
        ratio(
            c.reused_dots as f64,
            (c.reused_dots + c.computed_dots) as f64,
        ),
    );
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("malformed VmHWM line {line:?}"))?;
    Ok(kib / 1024.0)
}
