//! The `train-reuse` workload: closed-loop SGD on the reduced VGG-13, one
//! sample at a time with an update every [`BATCH`] samples, on smooth-blob
//! images.
//!
//! The network runs in `ExecMode::Mercury` with detection held on (no
//! trainer adaptation), so every conv forward and input-gradient pass goes
//! through the reuse engine.
//!
//! The untraced run drives the `mercury_models` [`Network`]. `Network`
//! hands out its layers only immutably, so the traced run drives an
//! identical layer list built from the public `Layer` constructors, with a
//! span around every layer call, and must reproduce the untraced run's
//! per-sample losses bit for bit.

use crate::report::Outcome;
use crate::report::{
    highest, lowest, median, per_window, percentile, set_engine_metrics, sum_stats,
};
use crate::trace::{Tracer, ROOT};
use crate::Args;
use mercury_core::stats::LayerStats;
use mercury_dnn::Network;
use mercury_dnn::{softmax_cross_entropy, DnnError, ExecMode, ExecutorKind, Layer, MercuryConfig};
use mercury_models::trainable::{build_reduced, IMAGE_SIDE};
use mercury_tensor::rng::Rng;
use mercury_tensor::Tensor;
use mercury_workloads::images::ImageDataset;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Reduced model the workload trains.
const MODEL: &str = "VGG-13";
/// Classes in the synthetic image task.
const CLASSES: usize = 8;
/// Per-pixel noise of the smooth-blob images.
const NOISE: f32 = 0.05;
/// Samples per SGD update.
const BATCH: usize = 8;
/// SGD learning rate (applied to the batch-mean gradient). Five times
/// the trainer default, so the loss check has a clear margin.
const LEARNING_RATE: f32 = 0.05;
/// Pool width of the reuse engines' executor.
const THREADS: usize = 2;

/// Training-set size and the fixed schedule the loss check reads.
#[derive(Debug, Clone, Copy)]
struct Size {
    per_class: usize,
    fixed_passes: usize,
}

const FULL: Size = Size {
    per_class: 8,
    fixed_passes: 8,
};
const SMOKE: Size = Size {
    per_class: 2,
    fixed_passes: 5,
};

/// The reduced VGG-13 as a layer list, built exactly as
/// `build_reduced("VGG-13", ..)` builds it: same constructor order on one
/// RNG, engines attached with the per-layer-index sub-seed, and the first
/// layer's input gradient off.
fn vgg13_layers(mode: ExecMode, seed: u64) -> Vec<Layer> {
    let mut rng = Rng::new(seed);
    let side = IMAGE_SIDE / 4;
    let mut layers = vec![
        Layer::conv2d(8, 1, 3, 1, &mut rng),
        Layer::relu(),
        Layer::conv2d(8, 8, 3, 1, &mut rng),
        Layer::relu(),
        Layer::max_pool(),
        Layer::conv2d(12, 8, 3, 1, &mut rng),
        Layer::relu(),
        Layer::conv2d(12, 12, 3, 1, &mut rng),
        Layer::relu(),
        Layer::max_pool(),
        Layer::flatten(),
        Layer::fc(12 * side * side, CLASSES, &mut rng),
    ];
    if let ExecMode::Mercury { config, seed } = mode {
        for (i, layer) in layers.iter_mut().enumerate() {
            layer.attach_engine(config, seed.wrapping_add(i as u64));
        }
    }
    layers[0].set_input_grad(false);
    layers
}

/// Span names of each layer, `[forward, backward]`: the layer's kind,
/// numbered in layer order, e.g. `dnn.conv3.fwd` for the third convolution.
fn span_names(layers: &[Layer]) -> Vec<[Rc<str>; 2]> {
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    layers
        .iter()
        .map(|layer| {
            let kind = match layer {
                Layer::Conv2d(_) => "conv",
                Layer::Fc(_) => "fc",
                Layer::Relu(_) => "relu",
                Layer::MaxPool(_) => "pool",
                Layer::Flatten(_) => "flatten",
                _ => "layer",
            };
            let k = seen.entry(kind).or_default();
            *k += 1;
            ["fwd", "bwd"].map(|pass| Rc::from(format!("dnn.{kind}{k}.{pass}")))
        })
        .collect()
}

/// One training sample's forward, loss and backward, plus the SGD
/// update, behind one interface so the untraced and traced runs share
/// the training loop.
trait Model {
    /// Forward, loss and backward for one sample; returns the loss.
    fn train_sample(&mut self, x: &Tensor, label: usize, id: u64) -> Result<f32, DnnError>;
    /// SGD update with the accumulated gradients, then zeroes them.
    fn sgd(&mut self, lr: f32, id: u64);
    /// Discards accumulated gradients without updating.
    fn zero_grad(&mut self);
    /// Engine statistics of each conv layer for the latest sample
    /// (forward plus input-gradient pass).
    fn conv_stats(&self) -> Vec<LayerStats>;
}

impl Model for Network {
    fn train_sample(&mut self, x: &Tensor, label: usize, _id: u64) -> Result<f32, DnnError> {
        let logits = self.forward(x)?;
        let (loss, grad) = softmax_cross_entropy(&logits, &[label])?;
        self.backward(&grad)?;
        Ok(loss)
    }

    fn sgd(&mut self, lr: f32, _id: u64) {
        self.step(lr);
        Network::zero_grad(self);
    }

    fn zero_grad(&mut self) {
        Network::zero_grad(self);
    }

    fn conv_stats(&self) -> Vec<LayerStats> {
        self.layers().iter().filter_map(Layer::last_stats).collect()
    }
}

/// The traced twin of [`Network`]: the same layers, called one by one
/// inside spans.
struct Traced {
    layers: Vec<Layer>,
    /// Per layer, from [`span_names`].
    names: Vec<[Rc<str>; 2]>,
    tracer: Tracer,
}

impl Model for Traced {
    fn train_sample(&mut self, x: &Tensor, label: usize, id: u64) -> Result<f32, DnnError> {
        let Traced {
            layers,
            names,
            tracer,
        } = self;
        let root = tracer.open("dnn.sample", ROOT, id);
        let mut cur = x.clone();
        for (layer, [fwd, _]) in layers.iter_mut().zip(names.iter()) {
            cur = tracer.span(Rc::clone(fwd), root, id, || layer.forward(&cur))?;
        }
        let (loss, mut grad) = tracer.span("dnn.loss", root, id, || {
            softmax_cross_entropy(&cur, &[label])
        })?;
        for (layer, [_, bwd]) in layers.iter_mut().zip(names.iter()).rev() {
            grad = tracer.span(Rc::clone(bwd), root, id, || layer.backward(&grad))?;
        }
        tracer.close(root);
        Ok(loss)
    }

    fn sgd(&mut self, lr: f32, id: u64) {
        let Traced { layers, tracer, .. } = self;
        tracer.span("dnn.sgd", ROOT, id, || {
            for layer in layers.iter_mut() {
                layer.step(lr);
            }
            for layer in layers.iter_mut() {
                layer.zero_grad();
            }
        });
    }

    fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    fn conv_stats(&self) -> Vec<LayerStats> {
        self.layers.iter().filter_map(Layer::last_stats).collect()
    }
}

/// Everything the generated inputs and seeds pin for one run.
struct Setup {
    data: Vec<(Tensor, usize)>,
    exec: ExecMode,
    weight_seed: u64,
    order_seed: u64,
}

impl Setup {
    fn new(seed: u64, size: Size) -> Self {
        let mut rng = Rng::new(seed);
        let dataset = ImageDataset::new(CLASSES, IMAGE_SIDE, NOISE, &mut rng);
        let data = dataset.generate(size.per_class, &mut rng);
        let exec = ExecMode::Mercury {
            config: MercuryConfig::builder()
                .executor(ExecutorKind::Threaded { threads: THREADS })
                .build()
                .expect("the default configuration with a threaded executor is valid"),
            seed: rng.next_u64(),
        };
        Setup {
            data,
            exec,
            weight_seed: rng.next_u64(),
            order_seed: rng.next_u64(),
        }
    }

    fn network(&self) -> Network {
        build_reduced(MODEL, CLASSES, self.exec, self.weight_seed).expect("VGG-13 is in the zoo")
    }

    fn traced(&self) -> Traced {
        let layers = vgg13_layers(self.exec, self.weight_seed);
        Traced {
            names: span_names(&layers),
            layers,
            tracer: Tracer::new(),
        }
    }

    /// The untimed first step every run starts with: one sample's
    /// forward, loss and backward, gradients discarded.
    fn warm_up(&self, model: &mut dyn Model) -> Result<(), DnnError> {
        let (x, label) = &self.data[0];
        model.train_sample(x, *label, u64::MAX)?;
        model.zero_grad();
        Ok(())
    }

    /// Times one set-up, the figure `setup_s` is the median of: a fresh
    /// network built and warmed up, then dropped.
    fn time_setup(&self) -> Result<f64, DnnError> {
        let t0 = Instant::now();
        let mut net = self.network();
        self.warm_up(&mut net)?;
        Ok(t0.elapsed().as_secs_f64())
    }
}

/// What one pass of the training loop recorded.
#[derive(Default)]
struct Log {
    losses: Vec<f32>,
    step_ms: Vec<f64>,
    elapsed: Duration,
    /// Per conv layer, summed over the first `min_samples` samples.
    conv: Vec<LayerStats>,
    /// Seconds per timed set-up.
    setups: Vec<f64>,
}

/// Runs the closed training loop over shuffled passes of `data` until at
/// least `min_samples` have run and `deadline` has passed, or exactly
/// `max_samples` have run. Engine statistics cover only the first
/// `min_samples` samples, which every run completes, so they depend on
/// the seed and the code and not on how fast the host ran.
///
/// With `time_setups`, one set-up is timed before each pass, outside the
/// step times: spread over the whole run, their median does not hang on
/// how busy the shared host was in one moment.
fn train(
    model: &mut dyn Model,
    setup: &Setup,
    min_samples: usize,
    deadline: Duration,
    max_samples: Option<usize>,
    time_setups: bool,
) -> Result<Log, DnnError> {
    let mut order_rng = Rng::new(setup.order_seed);
    let mut log = Log::default();
    let mut in_batch = 0;
    let started = Instant::now();
    'passes: loop {
        if time_setups {
            log.setups.push(setup.time_setup()?);
        }
        let mut order: Vec<usize> = (0..setup.data.len()).collect();
        order_rng.shuffle(&mut order);
        for i in order {
            let (x, label) = &setup.data[i];
            let id = log.losses.len() as u64;
            let t0 = Instant::now();
            let loss = model.train_sample(x, *label, id)?;
            in_batch += 1;
            if in_batch == BATCH {
                model.sgd(LEARNING_RATE / BATCH as f32, id);
                in_batch = 0;
            }
            let now = Instant::now();
            log.step_ms.push(now.duration_since(t0).as_secs_f64() * 1e3);
            log.losses.push(loss);
            let done = log.losses.len();
            if done <= min_samples {
                let stats = model.conv_stats();
                log.conv.resize(stats.len(), LayerStats::default());
                for (total, s) in log.conv.iter_mut().zip(&stats) {
                    total.accumulate(s);
                }
            }
            let finished = match max_samples {
                Some(max) => done >= max,
                None => done >= min_samples && now.duration_since(started) >= deadline,
            };
            if finished {
                break 'passes;
            }
        }
    }
    log.elapsed = started.elapsed();
    Ok(log)
}

fn mean(values: &[f32]) -> f64 {
    values.iter().map(|&v| f64::from(v)).sum::<f64>() / values.len().max(1) as f64
}

/// Runs the training workload and fills `out`.
pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let size = if args.smoke { SMOKE } else { FULL };
    let setup = Setup::new(args.seed, size);
    let n = setup.data.len();
    let dnn = |e: DnnError| format!("training failed: {e}");
    println!(
        "# train model={MODEL} classes={CLASSES} samples={n} batch={BATCH} \
         fixed_passes={} mode=mercury executor=threaded({THREADS})",
        size.fixed_passes
    );

    if !args.trace {
        let mut net = setup.network();
        setup.warm_up(&mut net).map_err(dnn)?;
        let fixed = size.fixed_passes * n;
        let log = train(&mut net, &setup, fixed, args.seconds, None, true).map_err(dnn)?;
        let samples = log.losses.len();
        out.attempted = samples as u64;
        out.failed = log.losses.iter().filter(|l| !l.is_finite()).count() as u64;

        let first = mean(&log.losses[..n]);
        let last = mean(&log.losses[fixed - n..fixed]);
        out.check(last < first, || {
            format!("loss did not fall: last pass {last} vs first pass {first}")
        });
        check_detection(&log.conv, out);

        let steps = &log.step_ms;
        let rates = per_window(steps, |w| w.len() as f64 / (w.iter().sum::<f64>() / 1e3));
        println!(
            "# train per window: samples_per_s={rates:.1?} p90_ms={:.2?}",
            per_window(steps, |w| percentile(w, 0.9))
        );
        out.set("throughput_per_s", highest(&rates));
        out.set("lat_p50_ms", lowest(&per_window(steps, median)));
        out.set(
            "lat_p90_ms",
            lowest(&per_window(steps, |w| percentile(w, 0.9))),
        );
        out.set("cycle_speedup", sum_stats(&log.conv).cycles.speedup());
        out.set("setup_s", median(&log.setups));
        println!(
            "# train samples={samples} passes={:.2} setups={} first_pass_loss={first:.4} \
             final_loss={last:.4} samples_per_s={:.1}",
            samples as f64 / n as f64,
            log.setups.len(),
            samples as f64 / (steps.iter().sum::<f64>() / 1e3)
        );
        return Ok(());
    }

    // Traced run: the untraced network first, then the traced layer list
    // over exactly as many samples, which must give the same losses.
    let mut net = setup.network();
    setup.warm_up(&mut net).map_err(dnn)?;
    let plain = train(&mut net, &setup, n, args.seconds / 2, None, false).map_err(dnn)?;
    let samples = plain.losses.len();

    let mut traced = setup.traced();
    setup.warm_up(&mut traced).map_err(dnn)?;
    traced.tracer = Tracer::new();
    let log = train(&mut traced, &setup, samples, Duration::ZERO, Some(samples), false)
        .map_err(dnn)?;
    out.attempted = samples as u64;
    out.failed = log.losses.iter().filter(|l| !l.is_finite()).count() as u64;
    let diverged = plain
        .losses
        .iter()
        .zip(&log.losses)
        .position(|(a, b)| a.to_bits() != b.to_bits());
    out.check(diverged.is_none(), || {
        format!(
            "traced layer list diverged from the network at sample {}",
            diverged.unwrap_or_default()
        )
    });
    check_detection(&log.conv, out);

    // Mean microseconds per sample in the spans named `name`.
    let totals = traced.tracer.totals_us();
    let time = |name: &str| totals.get(name).copied().unwrap_or(0.0) / samples as f64;
    // Only the conv layers carry engines, so the `k`-th conv's statistics
    // are `log.conv[k - 1]`.
    let mut convs = 0;
    let mut other = 0.0;
    for (layer, [fwd, bwd]) in traced.layers.iter().zip(&traced.names) {
        match layer {
            Layer::Conv2d(_) => {
                let hit_rate = log.conv.get(convs).map_or(0.0, LayerStats::similarity);
                convs += 1;
                out.set(&format!("{fwd}_us"), time(fwd));
                out.set(&format!("{bwd}_us"), time(bwd));
                out.set(&format!("core.conv{convs}.hit_rate"), hit_rate);
            }
            Layer::Fc(_) => {
                out.set("dnn.fc.fwd_us", time(fwd));
                out.set("dnn.fc.bwd_us", time(bwd));
            }
            _ => other += time(fwd) + time(bwd),
        }
    }
    out.set("dnn.other_us", other);
    out.set("dnn.loss_us", time("dnn.loss"));
    out.set("dnn.sgd_us", time("dnn.sgd"));
    set_engine_metrics(out, &log.conv, samples as u64);
    out.set_unused(&["serve.", "loadgen."]);
    out.set(
        "trace.overhead_frac",
        1.0 - plain.elapsed.as_secs_f64() / log.elapsed.as_secs_f64(),
    );
    crate::write_trace(args, &traced.tracer, out);
    Ok(())
}

/// Every conv layer must have run with detection on and found hits.
fn check_detection(conv: &[LayerStats], out: &mut Outcome) {
    out.check(conv.len() == 4, || {
        format!("expected 4 conv engines, found {}", conv.len())
    });
    for (i, s) in conv.iter().enumerate() {
        out.check(s.detection_enabled && s.hits > 0, || {
            format!(
                "conv{}: detection {} with {} hits",
                i + 1,
                if s.detection_enabled { "on" } else { "off" },
                s.hits
            )
        });
    }
}
