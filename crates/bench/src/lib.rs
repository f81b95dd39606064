//! Experiment harness for the MERCURY reproduction.
//!
//! [`simulate_model`] walks a [`ModelSpec`], synthesizes per-channel
//! input-vector streams at the model's similarity profile, probes a real
//! MCACHE (so HIT/MAU/MNU mixes reflect set conflicts and the
//! no-replacement policy), feeds the outcomes to the cycle-level
//! accelerator simulator, and returns a [`RunReport`] — the machinery
//! behind Figures 14–18.
//!
//! # Seeding and sharding
//!
//! Every `(layer, pass)` of a run — forward, input-gradient, and
//! weight-gradient — draws from its own RNG stream and probes its own
//! MCACHE. The seed is derived deterministically: starting from
//! `config seed ⊕ fnv(model name)`, FNV-mix in the layer's name, its
//! index (names may repeat), and the pass discriminant (0/1/2). Layers
//! are therefore independent, and [`simulate_model`] shards them across
//! the workspace-wide [`Executor`] backend selected by
//! [`ModelSimConfig::executor`] (threaded by default; `MERCURY_EXECUTOR`
//! overrides) while staying bit-identical to [`simulate_model_serial`] —
//! the contract `tests/determinism.rs` pins. Changing the scheme changes
//! every simulated number, so treat it as part of the output format.
//!
//! Each binary in `src/bin/` regenerates one figure or table of the paper
//! (README's "Reproducing the paper's figures" lists them) and prints TSV
//! to stdout.

#![warn(missing_docs)]

use mercury_accel::config::AcceleratorConfig;
use mercury_accel::fc::{simulate_attention, simulate_fc, FcWork};
use mercury_accel::sim::{ChannelWork, LayerSim};
use mercury_core::stats::{LayerStats, RunReport};
use mercury_mcache::{MCache, MCacheConfig, OutcomeMix};
use mercury_models::{LayerSpec, ModelSpec};
use mercury_tensor::exec::{Executor, ExecutorKind};
use mercury_tensor::rng::Rng;
use mercury_workloads::stream::VectorStream;

/// Configuration of a model-level simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelSimConfig {
    /// Simulated accelerator (dataflow, design, PE count).
    pub accelerator: AcceleratorConfig,
    /// MCACHE geometry.
    pub cache: MCacheConfig,
    /// Signature length in bits.
    pub signature_bits: usize,
    /// Apply per-layer stoppage: a layer whose MERCURY cycles exceed its
    /// baseline runs with detection off (§III-D).
    pub adaptive: bool,
    /// Channels sampled per conv layer; cycle counts scale to the full
    /// channel count. Higher = slower but smoother.
    pub sampled_channels: usize,
    /// Seed for workload synthesis.
    pub seed: u64,
    /// Execution backend the per-layer simulations shard across. Defaults
    /// to the auto-sized threaded backend (layers are chunky, independent
    /// work items — the historical behaviour of this simulator), unless
    /// `MERCURY_EXECUTOR` overrides it. Results are bit-identical on
    /// every backend.
    pub executor: ExecutorKind,
}

impl Default for ModelSimConfig {
    fn default() -> Self {
        ModelSimConfig {
            accelerator: AcceleratorConfig::paper_default(),
            cache: MCacheConfig::paper_default(),
            signature_bits: 20,
            adaptive: true,
            sampled_channels: 4,
            seed: 0xC0FFEE,
            executor: ExecutorKind::from_env_or(ExecutorKind::threaded_auto()),
        }
    }
}

/// Scales every cycle counter in `stats` by `factor` (used to extrapolate
/// sampled channels to the layer's full channel count).
fn scale_stats(stats: &mut LayerStats, factor: f64) {
    let scale = |v: u64| -> u64 { (v as f64 * factor).round() as u64 };
    stats.hits = scale(stats.hits);
    stats.maus = scale(stats.maus);
    stats.mnus = scale(stats.mnus);
    stats.unique_vectors = scale(stats.unique_vectors);
    stats.cycles.signature = scale(stats.cycles.signature);
    stats.cycles.compute = scale(stats.cycles.compute);
    stats.cycles.baseline = scale(stats.cycles.baseline);
    stats.cycles.reused_dots = scale(stats.cycles.reused_dots);
    stats.cycles.computed_dots = scale(stats.cycles.computed_dots);
}

/// Simulates one conv layer pass (forward, or a backward convolution).
fn simulate_conv_layer(
    layer: &LayerSpec,
    similarity: f64,
    cfg: &ModelSimConfig,
    cache: &mut MCache,
    rng: &mut Rng,
    signatures_precomputed: bool,
) -> LayerStats {
    let LayerSpec::Conv {
        kernel,
        in_ch,
        out_ch,
        depthwise,
        name,
        ..
    } = layer
    else {
        unreachable!("simulate_conv_layer requires a conv spec");
    };

    // Pointwise (1×1) convolutions have no spatial patch: the input
    // vector is the channel fiber at each position, and the computation
    // is a position-batched matrix product. MERCURY treats it like the
    // fully-connected design (§III-C3), reusing whole output fibers
    // across similar positions.
    if *kernel == 1 && !depthwise {
        let fc_equiv = LayerSpec::Fc {
            name: name.clone(),
            inputs: *in_ch,
            outputs: *out_ch,
            batch: layer.vectors_per_unit(),
        };
        return simulate_dense_layer(
            &fc_equiv,
            similarity,
            cfg,
            cache,
            rng,
            signatures_precomputed,
        );
    }
    let channels = layer.reuse_scopes();
    let vectors = layer.vectors_per_unit();
    let filters = layer.filters();
    let sampled = cfg.sampled_channels.clamp(1, channels);

    let mut sim = LayerSim::new(cfg.accelerator);
    let mut stats = LayerStats {
        detection_enabled: true,
        ..LayerStats::default()
    };
    let stream = VectorStream::with_similarity(vectors, similarity.min(0.99), cfg.signature_bits);
    for _ in 0..sampled {
        let (outcomes, conflicts) = stream.probe(cache, rng);
        let mix = OutcomeMix::from_outcomes(&outcomes);
        stats.hits += mix.hits as u64;
        stats.maus += mix.maus as u64;
        stats.mnus += mix.mnus as u64;
        // "Unique vectors" as the hardware observes them: distinct
        // signatures resident in MCACHE (Figure 15c counts hundreds per
        // layer against tens of thousands of patches).
        stats.unique_vectors += mix.maus as u64;
        let mut work = ChannelWork::new(mix, filters, *kernel, cfg.signature_bits)
            .with_insert_conflicts(conflicts);
        if signatures_precomputed {
            work = work.with_precomputed_signatures();
        }
        sim.push_channel(&work);
    }
    stats.cycles = sim.finish();
    scale_stats(&mut stats, channels as f64 / sampled as f64);
    stats
}

/// Simulates an FC or attention layer pass (also the pointwise-conv
/// equivalent).
fn simulate_dense_layer(
    layer: &LayerSpec,
    similarity: f64,
    cfg: &ModelSimConfig,
    cache: &mut MCache,
    rng: &mut Rng,
    signatures_precomputed: bool,
) -> LayerStats {
    let vectors = layer.vectors_per_unit();
    let stream = VectorStream::with_similarity(vectors, similarity.min(0.99), cfg.signature_bits);
    let (outcomes, _) = stream.probe(cache, rng);
    let mix = OutcomeMix::from_outcomes(&outcomes);
    let mut stats = LayerStats {
        hits: mix.hits as u64,
        maus: mix.maus as u64,
        mnus: mix.mnus as u64,
        unique_vectors: mix.maus as u64,
        detection_enabled: true,
        ..LayerStats::default()
    };
    stats.cycles = match layer {
        LayerSpec::Fc {
            inputs, outputs, ..
        } => {
            let mut work = FcWork::new(mix, *outputs, *inputs, cfg.signature_bits);
            if signatures_precomputed {
                work = work.with_precomputed_signatures();
            }
            simulate_fc(&cfg.accelerator, &work)
        }
        LayerSpec::Attention { seq_len, dim, .. } => {
            simulate_attention(&cfg.accelerator, mix, *seq_len, *dim, cfg.signature_bits)
        }
        LayerSpec::Conv { .. } => unreachable!("dense layer expected"),
    };
    stats
}

/// Applies the stoppage policy: layers that lose run at baseline with
/// detection off (a small trial overhead is already paid before stoppage
/// triggers; it amortizes to ~0 over training and is ignored here).
fn apply_stoppage(stats: &mut LayerStats) {
    if stats.cycles.total() > stats.cycles.baseline {
        stats.detection_enabled = false;
        stats.cycles.signature = 0;
        stats.cycles.compute = stats.cycles.baseline;
        stats.hits = 0;
        stats.cycles.reused_dots = 0;
    }
}

/// One simulated pass over a layer. Each `(layer, pass)` pair draws from
/// its own deterministic RNG stream and probes its own MCACHE (see
/// [`layer_pass_seed`]), which is what makes layers independent and
/// therefore shardable across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LayerPass {
    /// Forward convolution / dense product.
    Forward = 0,
    /// Input-gradient convolution (eq. 2) or dense backward.
    BackwardInput = 1,
    /// Weight-gradient convolution (eq. 1).
    BackwardWeights = 2,
}

/// Derives the RNG seed for one `(layer, pass)` of a run: the base seed
/// XOR-folded with the model name (the pre-existing `hash_name` scheme),
/// then FNV-mixed with the layer's name, its index (names may repeat), and
/// the pass discriminant. Every pass therefore owns an independent,
/// reproducible stream regardless of which thread simulates it or in what
/// order.
fn layer_pass_seed(cfg: &ModelSimConfig, spec: &ModelSpec, index: usize, pass: LayerPass) -> u64 {
    const FNV_PRIME: u64 = 0x100000001b3;
    let mut h = cfg.seed ^ hash_name(&spec.name);
    h = (h ^ hash_name(spec.layers[index].name())).wrapping_mul(FNV_PRIME);
    h = (h ^ index as u64).wrapping_mul(FNV_PRIME);
    (h ^ pass as u64).wrapping_mul(FNV_PRIME)
}

/// Simulates every pass of layer `index` (forward plus its backward
/// passes), applying the stoppage policy, with fresh per-pass MCACHE and
/// RNG state.
fn simulate_layer(
    spec: &ModelSpec,
    index: usize,
    conv_kernels: &[(usize, usize)],
    cfg: &ModelSimConfig,
) -> LayerStats {
    let layer = &spec.layers[index];
    let similarity = spec.layer_similarity(index);
    let run_pass = |pass: LayerPass, sim: f64, precomputed: bool| -> LayerStats {
        let mut cache = MCache::new(cfg.cache);
        let mut rng = Rng::new(layer_pass_seed(cfg, spec, index, pass));
        match layer {
            LayerSpec::Conv { .. } => {
                simulate_conv_layer(layer, sim, cfg, &mut cache, &mut rng, precomputed)
            }
            _ => simulate_dense_layer(layer, sim, cfg, &mut cache, &mut rng, precomputed),
        }
    };

    let mut stats = run_pass(LayerPass::Forward, similarity, false);
    // Gradient similarity runs slightly below input similarity
    // (Figure 1b vs 1a).
    let grad_sim = similarity * 0.9;
    match layer {
        LayerSpec::Conv { .. } => {
            // Input-gradient conv (eq. 2): signatures reusable when the
            // next conv layer shares this kernel size (§III-C2).
            let next_same_kernel = conv_kernels
                .iter()
                .skip(index + 1)
                .find(|&&k| k != (0, 0))
                .map(|&k| k == conv_kernels[index])
                .unwrap_or(false);
            let dx = run_pass(LayerPass::BackwardInput, grad_sim, next_same_kernel);
            stats.accumulate(&dx);
            // Weight-gradient conv (eq. 1): fresh signatures.
            let dw = run_pass(LayerPass::BackwardWeights, grad_sim, false);
            stats.accumulate(&dw);
        }
        _ => {
            // FC/attention backward reuses the forward signatures (the
            // inputs are the same rows).
            let grad = run_pass(LayerPass::BackwardInput, grad_sim, true);
            stats.accumulate(&grad);
        }
    }
    if cfg.adaptive {
        apply_stoppage(&mut stats);
    }
    stats
}

/// Kernel sizes of each conv layer, for the backward signature-reuse
/// dimension check (§III-C2); non-conv layers record `(0, 0)`.
fn conv_kernel_sizes(spec: &ModelSpec) -> Vec<(usize, usize)> {
    spec.layers
        .iter()
        .map(|l| match l {
            LayerSpec::Conv { kernel, .. } => (*kernel, *kernel),
            _ => (0, 0),
        })
        .collect()
}

/// Simulates a full training iteration of `spec` (forward plus the two
/// backward convolutions per conv layer) and returns the per-layer
/// report.
///
/// Layers are sharded across the [`Executor`] backend selected by
/// [`ModelSimConfig::executor`]: every `(layer, pass)` is seeded
/// independently (see `layer_pass_seed` in the module source), so reports
/// are bit-identical to [`simulate_model_serial`] — the contract
/// `tests/determinism.rs` pins — while wall-clock time drops with core
/// count.
pub fn simulate_model(spec: &ModelSpec, cfg: &ModelSimConfig) -> RunReport {
    ModelSim::new(*cfg).run(spec)
}

/// A model simulator with a **resolved, persistent executor**: the
/// worker pool behind [`ModelSimConfig::executor`] is created once here
/// and reused by every [`run`](Self::run) — across models, epochs, and
/// bench iterations — instead of being re-resolved per call the way the
/// [`simulate_model`] convenience wrapper does, which re-creates the
/// pool's threads whenever no other handle of that width is alive on the
/// calling thread. Anything that simulates more than once should hold
/// one of these.
#[derive(Debug)]
pub struct ModelSim {
    cfg: ModelSimConfig,
    exec: Executor,
}

impl ModelSim {
    /// Resolves `cfg.executor` into a (lazily spawned, then persistent)
    /// backend.
    pub fn new(cfg: ModelSimConfig) -> Self {
        ModelSim {
            exec: Executor::from_kind(cfg.executor),
            cfg,
        }
    }

    /// The configuration this simulator runs with.
    pub fn config(&self) -> &ModelSimConfig {
        &self.cfg
    }

    /// Simulates a full training iteration of `spec` on the held
    /// executor; same output contract as [`simulate_model`].
    pub fn run(&self, spec: &ModelSpec) -> RunReport {
        let conv_kernels = conv_kernel_sizes(spec);
        let mut report = RunReport::new(spec.name.clone());
        for stats in self.exec.map_indexed(spec.layers.len(), |i| {
            simulate_layer(spec, i, &conv_kernels, &self.cfg)
        }) {
            report.push(stats);
        }
        report
    }
}

/// [`simulate_model`] with an explicit worker count (one worker = the
/// serial backend). Kept so the determinism suite can pin specific pool
/// widths even on single-core machines, where the auto-sized backend
/// collapses to serial.
pub fn simulate_model_with_workers(
    spec: &ModelSpec,
    cfg: &ModelSimConfig,
    workers: usize,
) -> RunReport {
    let executor = if workers <= 1 {
        ExecutorKind::Serial
    } else {
        ExecutorKind::Threaded { threads: workers }
    };
    simulate_model(spec, &ModelSimConfig { executor, ..*cfg })
}

/// Serial reference for [`simulate_model`]: identical seeding, identical
/// arithmetic, one layer after another on the calling thread. Kept public
/// so the determinism suite (and anyone debugging a layer in isolation)
/// can compare against the sharded path.
pub fn simulate_model_serial(spec: &ModelSpec, cfg: &ModelSimConfig) -> RunReport {
    let conv_kernels = conv_kernel_sizes(spec);
    let mut report = RunReport::new(spec.name.clone());
    for i in 0..spec.layers.len() {
        report.push(simulate_layer(spec, i, &conv_kernels, cfg));
    }
    report
}

fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

pub mod results;

/// Per-request latency accounting for the serving load generator:
/// nearest-rank percentiles over nanosecond samples.
pub mod latency {
    /// Accumulates nanosecond latency samples and answers percentile
    /// queries. Sorting is deferred to query time; recording stays O(1).
    #[derive(Debug, Clone, Default)]
    pub struct LatencyRecorder {
        samples_ns: Vec<u64>,
    }

    /// The percentile triple `loadgen` publishes, plus the sample count.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct LatencySummary {
        /// Number of samples recorded.
        pub count: usize,
        /// Median latency in nanoseconds.
        pub p50_ns: u64,
        /// 95th-percentile latency in nanoseconds.
        pub p95_ns: u64,
        /// 99th-percentile latency in nanoseconds.
        pub p99_ns: u64,
    }

    impl LatencyRecorder {
        /// Creates an empty recorder.
        pub fn new() -> Self {
            LatencyRecorder::default()
        }

        /// Records one latency sample.
        pub fn record_ns(&mut self, ns: u64) {
            self.samples_ns.push(ns);
        }

        /// Number of recorded samples.
        pub fn len(&self) -> usize {
            self.samples_ns.len()
        }

        /// Whether no samples have been recorded.
        pub fn is_empty(&self) -> bool {
            self.samples_ns.is_empty()
        }

        /// The nearest-rank `p`-th percentile (`0 < p <= 100`): the
        /// smallest sample with at least `⌈p/100 · n⌉` samples at or below
        /// it — p100 is the maximum, p50 the (upper) median.
        ///
        /// # Panics
        ///
        /// Panics if no samples were recorded or `p` is out of range.
        pub fn percentile_ns(&self, p: f64) -> u64 {
            assert!(!self.samples_ns.is_empty(), "no latency samples recorded");
            assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
            let mut sorted = self.samples_ns.clone();
            sorted.sort_unstable();
            let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        }

        /// The p50/p95/p99 summary.
        ///
        /// # Panics
        ///
        /// Panics if no samples were recorded.
        pub fn summary(&self) -> LatencySummary {
            LatencySummary {
                count: self.len(),
                p50_ns: self.percentile_ns(50.0),
                p95_ns: self.percentile_ns(95.0),
                p99_ns: self.percentile_ns(99.0),
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn nearest_rank_percentiles() {
            let mut r = LatencyRecorder::new();
            for ns in [50, 10, 40, 20, 30] {
                r.record_ns(ns);
            }
            // Sorted: 10 20 30 40 50. p50 → rank ⌈2.5⌉=3 → 30;
            // p95 → rank ⌈4.75⌉=5 → 50; p20 → rank 1 → 10.
            assert_eq!(r.percentile_ns(50.0), 30);
            assert_eq!(r.percentile_ns(95.0), 50);
            assert_eq!(r.percentile_ns(20.0), 10);
            assert_eq!(r.percentile_ns(100.0), 50);
            let s = r.summary();
            assert_eq!(s.count, 5);
            assert_eq!(s.p50_ns, 30);
            assert_eq!(s.p99_ns, 50);
        }

        #[test]
        fn single_sample_is_every_percentile() {
            let mut r = LatencyRecorder::new();
            r.record_ns(7);
            assert_eq!(r.percentile_ns(1.0), 7);
            assert_eq!(r.percentile_ns(100.0), 7);
        }
    }
}

/// Prints a TSV header line.
pub fn tsv_header(columns: &[&str]) {
    println!("{}", columns.join("\t"));
}

/// Formats a float with 3 decimal places for TSV output.
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mercury_accel::config::{Dataflow, Design};
    use mercury_models::{mobilenet_v2, transformer, vgg13};

    fn quick_cfg() -> ModelSimConfig {
        ModelSimConfig {
            sampled_channels: 2,
            ..ModelSimConfig::default()
        }
    }

    #[test]
    fn vgg13_simulation_shows_speedup() {
        let report = simulate_model(&vgg13(), &quick_cfg());
        assert_eq!(report.layers.len(), vgg13().layers.len());
        let speedup = report.speedup();
        assert!(
            (1.4..2.6).contains(&speedup),
            "VGG13 speedup {speedup} out of the paper's plausible band"
        );
    }

    #[test]
    fn transformer_simulation_runs() {
        let report = simulate_model(&transformer(), &quick_cfg());
        assert!(
            report.speedup() > 1.0,
            "transformer speedup {}",
            report.speedup()
        );
    }

    #[test]
    fn adaptive_never_hurts() {
        let mut cfg = quick_cfg();
        cfg.adaptive = false;
        let plain = simulate_model(&mobilenet_v2(), &cfg);
        cfg.adaptive = true;
        let adaptive = simulate_model(&mobilenet_v2(), &cfg);
        assert!(adaptive.total_cycles().total() <= plain.total_cycles().total());
        // MobileNet's depthwise layers cannot amortize signatures: some
        // layers must be off (Figure 14a shows off-layers for MobNet-V2).
        let (_, off) = adaptive.detection_counts();
        assert!(off > 0, "expected some stopped layers in MobileNet-V2");
    }

    #[test]
    fn results_roundtrip() {
        let mut map = std::collections::BTreeMap::new();
        map.insert("group/bench_a".to_string(), 1234u128);
        map.insert("signature_single/20".to_string(), 98765432109876u128);
        let rendered = results::render(&map);
        assert_eq!(results::parse(&rendered), map);
        // Merging: parse, update one key, re-render, parse again.
        let mut merged = results::parse(&rendered);
        merged.insert("group/bench_a".to_string(), 42);
        assert_eq!(results::parse(&results::render(&merged)), merged);
    }

    #[test]
    fn parse_tolerates_junk_and_whitespace() {
        let text = "{\n  \"a/b\" :  10 ,\n \"c\": 20}\n";
        let map = results::parse(text);
        assert_eq!(map.get("a/b"), Some(&10));
        assert_eq!(map.get("c"), Some(&20));
        assert!(results::parse("").is_empty());
        assert!(results::parse("not json at all").is_empty());
    }

    #[test]
    fn results_parse_keeps_entries_before_a_truncated_tail() {
        // A snapshot cut off mid-write still yields its completed
        // entries; only a file with no entries at all fails to load.
        let map = results::parse("{\n  \"a/b\": 10,\n  \"c\": 20,\n  \"trunc");
        assert_eq!(map.get("a/b"), Some(&10));
        assert_eq!(map.get("c"), Some(&20));
        assert_eq!(map.len(), 2);

        let path = std::env::temp_dir().join(format!("mercury_junk_{}.json", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        std::fs::write(&path, "not json at all").unwrap();
        assert!(results::load(&path).unwrap_err().contains("no"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn render_skips_unserializable_labels() {
        let mut map = std::collections::BTreeMap::new();
        map.insert("ok".to_string(), 1u128);
        map.insert("bad\"label".to_string(), 2u128);
        let rendered = results::render(&map);
        assert!(rendered.contains("\"ok\": 1"));
        assert!(!rendered.contains("bad"));
    }

    #[test]
    fn results_render_round_trips_and_merges() {
        let mut map = std::collections::BTreeMap::new();
        map.insert("serve_loadgen/p50_ns".to_string(), 123u128);
        assert_eq!(results::parse(&results::render(&map)), map);

        let path = std::env::temp_dir().join(format!("mercury_merge_{}.json", std::process::id()));
        let path = path.to_str().unwrap().to_string();
        let _ = std::fs::remove_file(&path);
        results::merge_into(&path, &map).unwrap();
        let mut more = std::collections::BTreeMap::new();
        more.insert("serve_loadgen/p95_ns".to_string(), 456u128);
        more.insert("serve_loadgen/p50_ns".to_string(), 124u128);
        results::merge_into(&path, &more).unwrap();
        let loaded = results::load(&path).unwrap();
        assert_eq!(
            loaded.get("serve_loadgen/p50_ns"),
            Some(&124),
            "merge overwrites"
        );
        assert_eq!(loaded.get("serve_loadgen/p95_ns"), Some(&456));
        assert_eq!(loaded.len(), 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn model_sim_runner_matches_one_shot_wrapper() {
        let cfg = quick_cfg();
        let sim = ModelSim::new(cfg);
        let a = sim.run(&vgg13());
        let b = simulate_model(&vgg13(), &cfg);
        assert_eq!(a.total_cycles(), b.total_cycles());
        // The held executor serves repeated runs (the pool-reuse shape).
        let c = sim.run(&vgg13());
        assert_eq!(a.total_cycles(), c.total_cycles());
    }

    #[test]
    fn deterministic_runs() {
        let a = simulate_model(&vgg13(), &quick_cfg());
        let b = simulate_model(&vgg13(), &quick_cfg());
        assert_eq!(a.total_cycles(), b.total_cycles());
    }

    #[test]
    fn dataflow_ordering_matches_paper() {
        let mut cfg = quick_cfg();
        let speedup = |flow: Dataflow, cfg: &mut ModelSimConfig| {
            cfg.accelerator.dataflow = flow;
            simulate_model(&vgg13(), cfg).speedup()
        };
        let rs = speedup(Dataflow::RowStationary, &mut cfg);
        let ws = speedup(Dataflow::WeightStationary, &mut cfg);
        let is = speedup(Dataflow::InputStationary, &mut cfg);
        assert!(rs > ws && ws > is, "rs {rs} ws {ws} is {is}");
        assert!(is > 1.0);
    }

    #[test]
    fn sync_design_is_not_faster_than_async() {
        let mut cfg = quick_cfg();
        cfg.accelerator.design = Design::Synchronous;
        let sync = simulate_model(&vgg13(), &cfg);
        cfg.accelerator.design = Design::Asynchronous { filter_slots: 4 };
        let asyn = simulate_model(&vgg13(), &cfg);
        assert!(asyn.total_cycles().total() <= sync.total_cycles().total());
    }
}
