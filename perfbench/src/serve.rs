//! The `serve-open` workload: open-loop Poisson traffic from one
//! generator thread into `Server::serve` (saturation pacing, serial
//! executor).
//!
//! Eight tenants each own one 64→32 FC layer and advance their epoch
//! every 128 requests. Requests come from `TenantMix` (Zipf-skewed over
//! five clusters per tenant); each goes to a uniformly drawn tenant.
//! Arrivals run at two fixed rates, [`LIGHT`] and [`HEAVY`]; each request
//! is timed from when it was due, so a stall also counts against the
//! requests queued behind it. Light phases alternate with saturation
//! phases that send back to back (every request already due);
//! `throughput_per_s` is the rate the server completes those at. The
//! admission rendezvous of `ServeClient::submit` makes that the capacity
//! one client sees. The heavy rate runs in the traced run only.
//!
//! After the timed phases every tenant's outputs are checked, bit for
//! bit, against a dedicated `MercurySession` replaying that tenant's
//! admission order.
//!
//! The harness's own memory stays flat however long the run or fast the
//! server: each phase is reduced to its summary figures when it ends, its
//! sample buffers are reused by the next, saturation phases keep no
//! samples, and the replay check keeps one digest per tenant. So
//! `peak_rss_mb` describes the server, not the harness.

use crate::report::{highest, lowest, median, percentile, ratio, set_engine_metrics, sum_stats};
use crate::report::{Outcome, WINDOWS};
use crate::trace::{Tracer, ROOT};
use crate::Args;
use mercury_core::{ExecutorKind, LayerId, MercuryConfig, MercurySession};
use mercury_serve::{
    EpochPolicy, PacingPolicy, ServeClient, ServeConfig, ServeHandle, Server, TenantId, Ticket,
};
use mercury_tensor::rng::Rng;
use mercury_tensor::Tensor;
use mercury_workloads::tenants::TenantMix;
use std::time::{Duration, Instant};

/// Offered rate of the light phases, requests per second: about a
/// twentieth of the single-client capacity on one core, so fewer than one
/// request in twenty queues behind another and both `lat_p50_ms` and
/// `lat_p90_ms`, read here, are latencies of the serving path. At a tenth
/// the p90 sat where queueing starts, and moved half again as much from
/// run to run as the p50. At the heavy rate queueing multiplies every
/// change in the host's speed, which left the best round of one run up to
/// 1.6 times that of another.
const LIGHT: f64 = 5_000.0;
/// Offered rate of the traced run's heavy phase, requests per second:
/// about a third of the single-client capacity, where queueing shows
/// (`loadgen.heavy_*`).
const HEAVY: f64 = 40_000.0;
/// Generator lag (p99) beyond which a fixed-rate phase describes the
/// generator rather than the server: the run is invalid, not slow.
const LAG_LIMIT: Duration = Duration::from_millis(1);
/// Attempts a fixed-rate phase gets to keep within [`LAG_LIMIT`].
const ATTEMPTS: usize = 3;
/// Traced phases record the spans of one request in this many.
const TRACE_EVERY: u64 = 16;
/// Time allowed for admitted requests to complete after a phase.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

const TENANTS: usize = 8;
const FEATURES: usize = 64;
const OUTPUTS: usize = 32;
const CLUSTERS: usize = 5;
const NOISE: f32 = 0.02;
const EPOCH_REQUESTS: u64 = 128;
const QUEUE_CAPACITY: usize = 64;
const BATCH_WINDOW: usize = 16;
/// Distinct inputs generated per tenant; a tenant's `k`-th request sends
/// input `k % POOL`, so memory stays flat however long the run.
const POOL: usize = 2048;

/// The generated inputs and the seeds that pin the tenants.
struct Inputs {
    /// Per tenant: session seed and FC weights.
    tenants: Vec<(u64, Tensor)>,
    /// Per tenant: the request pool.
    pool: Vec<Vec<Tensor>>,
    /// Seed of arrival times and tenant choice.
    arrivals: u64,
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let mix = TenantMix::new(FEATURES, CLUSTERS, NOISE, rng.next_u64());
        let tenants = (0..TENANTS)
            .map(|_| {
                let session_seed = rng.next_u64();
                let mut weights_rng = Rng::new(rng.next_u64());
                (
                    session_seed,
                    Tensor::randn(&[FEATURES, OUTPUTS], &mut weights_rng),
                )
            })
            .collect();
        Inputs {
            tenants,
            pool: mix.client_streams(TENANTS, POOL),
            arrivals: rng.next_u64(),
        }
    }
}

/// Where one tenant's requests go.
type Route = (TenantId, LayerId);

/// Builds the server with every tenant registered, starts its service
/// thread, and serves one request to tenant 0 — the set-up `setup_s`
/// times (see [`time_setup`]). Returns the handle, the routes, and the
/// first request's output.
fn start(inputs: &Inputs) -> Result<(ServeHandle, Vec<Route>, Tensor), String> {
    let config = ServeConfig::builder()
        .executor(ExecutorKind::Serial)
        .queue_capacity(QUEUE_CAPACITY)
        .batch_window(BATCH_WINDOW)
        .pacing(PacingPolicy::Saturation)
        .build()
        .map_err(|e| format!("serve config: {e}"))?;
    let mut server = Server::new(config).map_err(|e| format!("server: {e}"))?;
    let mut routes = Vec::with_capacity(TENANTS);
    for (t, (seed, weights)) in inputs.tenants.iter().enumerate() {
        let tenant = server
            .register_tenant(
                &format!("tenant-{t}"),
                MercuryConfig::default(),
                *seed,
                EpochPolicy::EveryRequests(EPOCH_REQUESTS),
            )
            .map_err(|e| format!("register tenant {t}: {e}"))?;
        let layer = server
            .register_fc(tenant, weights.clone())
            .map_err(|e| format!("register layer {t}: {e}"))?;
        routes.push((tenant, layer));
    }
    let handle = server.serve();
    let (tenant, layer) = routes[0];
    let first = handle
        .client()
        .submit(tenant, layer, inputs.pool[0][0].clone())
        .and_then(Ticket::wait)
        .map_err(|e| format!("first request: {e}"))?;
    Ok((handle, routes, first.output))
}

/// Times one set-up: a fresh server started and its first request
/// served; then shuts it down.
fn time_setup(inputs: &Inputs) -> Result<f64, String> {
    let t0 = Instant::now();
    let (handle, _, _) = start(inputs)?;
    let secs = t0.elapsed().as_secs_f64();
    handle.shutdown();
    Ok(secs)
}

/// FNV-1a over a request's admission sequence number and its output's
/// bits.
fn entry_hash(seq: usize, output: &Tensor) -> u64 {
    let bytes = (seq as u64)
        .to_le_bytes()
        .into_iter()
        .chain(output.data().iter().flat_map(|v| v.to_bits().to_le_bytes()));
    bytes.fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One tenant's requests: how many were admitted and completed, and the
/// wrapping sum of [`entry_hash`] over the completions. The sum does not
/// depend on the order tickets are redeemed in, but it does on which
/// output each sequence number got, so a missing, repeated or wrong
/// completion shows against the replay's digest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Digest {
    admitted: usize,
    completed: usize,
    sum: u64,
}

impl Digest {
    /// Admits a request; returns its sequence number.
    fn admit(&mut self) -> usize {
        self.admitted += 1;
        self.admitted - 1
    }

    fn complete(&mut self, seq: usize, output: &Tensor) {
        self.completed += 1;
        self.sum = self.sum.wrapping_add(entry_hash(seq, output));
    }
}

/// Per tenant, the digest of its requests; plus the run's counts.
struct Ledger {
    tenants: Vec<Digest>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// One admitted request waiting for its completion.
struct Pending {
    ticket: Ticket,
    tenant: usize,
    seq: usize,
    id: u64,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
}

/// Per-request samples of the running phase, in microseconds: from due
/// to completion, from due to submit (the generator's lag), the submit
/// call, and from submit's return to the completion. Cleared, not freed,
/// between phases.
#[derive(Default)]
struct Samples {
    latency: Vec<f64>,
    lag: Vec<f64>,
    submit: Vec<f64>,
    complete: Vec<f64>,
}

/// What one phase measured; times in microseconds.
#[derive(Debug, Clone, Copy)]
struct Phase {
    lat_p50: f64,
    lat_p90: f64,
    lat_p99: f64,
    lag_p99: f64,
    submit_p50: f64,
    submit_p99: f64,
    complete_p50: f64,
    complete_p99: f64,
    /// Requests completed per second, from the phase's start to its last
    /// completion.
    completion_rate: f64,
}

impl Phase {
    /// Whether the generator kept its schedule well enough for the
    /// phase's latencies to describe the server.
    fn valid(&self) -> bool {
        self.lag_p99 <= us(LAG_LIMIT)
    }
}

/// The phases one run measured.
struct Timed {
    /// Light-rate phases: one per round, or the untraced one of a traced run.
    light: Vec<Phase>,
    /// Saturation phases, one per round (untraced runs only).
    saturated: Vec<Phase>,
    /// The traced light phase and the untraced heavy one (traced runs only).
    traced: Option<(Phase, Phase)>,
}

/// The single load generator: one client, one arrival stream.
struct Generator<'a> {
    client: ServeClient,
    routes: &'a [Route],
    inputs: &'a Inputs,
    rng: Rng,
    ledger: Ledger,
    samples: Samples,
    next_id: u64,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

impl Samples {
    fn clear(&mut self) {
        self.latency.clear();
        self.lag.clear();
        self.submit.clear();
        self.complete.clear();
    }
}

/// Progress of the running phase.
struct Progress {
    /// Whether per-request samples are kept: fixed-rate phases only, whose
    /// sample count the offered rate fixes. A saturation phase only counts.
    sampled: bool,
    completed: u64,
    /// When the last completion was taken.
    finished: Instant,
}

impl Generator<'_> {
    /// Sends Poisson arrivals at `rate` (infinite: back to back) until
    /// `duration` has passed, then waits for every admitted request.
    /// Spans are recorded when `tracer` is given. A back-to-back phase
    /// keeps no samples: only its `completion_rate` is measured.
    fn phase(
        &mut self,
        rate: f64,
        duration: Duration,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Phase, String> {
        let started = Instant::now();
        let end = started + duration;
        let mut progress = Progress {
            sampled: rate.is_finite(),
            completed: 0,
            finished: started,
        };
        self.samples.clear();
        let mut pending: Vec<Pending> = Vec::with_capacity(QUEUE_CAPACITY * TENANTS);
        let mut due = started;
        loop {
            due += Duration::from_secs_f64(-(1.0 - self.rng.next_f64()).ln() / rate);
            if due >= end {
                break;
            }
            while Instant::now() < due {
                self.poll(&mut pending, &mut progress, tracer.as_deref_mut());
                std::thread::yield_now();
            }
            let submit_start = Instant::now();
            if submit_start >= end {
                break;
            }
            if progress.sampled {
                self.samples.lag.push(us(submit_start.duration_since(due)));
            }
            let tenant = self.rng.next_below(TENANTS);
            let (tenant_id, layer) = self.routes[tenant];
            let k = self.ledger.tenants[tenant].admitted;
            let input = self.inputs.pool[tenant][k % POOL].clone();
            self.ledger.attempted += 1;
            let id = self.next_id;
            self.next_id += 1;
            match self.client.submit(tenant_id, layer, input) {
                Ok(ticket) => {
                    let submit_end = Instant::now();
                    if progress.sampled {
                        self.samples
                            .submit
                            .push(us(submit_end.duration_since(submit_start)));
                    }
                    let seq = self.ledger.tenants[tenant].admit();
                    pending.push(Pending {
                        ticket,
                        tenant,
                        seq,
                        id,
                        due,
                        submit_start,
                        submit_end,
                    });
                }
                Err(e) => {
                    self.ledger.failed += 1;
                    self.ledger
                        .errors
                        .push(format!("request {id} refused: {e}"));
                }
            }
            self.poll(&mut pending, &mut progress, tracer.as_deref_mut());
        }
        let drain_start = Instant::now();
        while !pending.is_empty() {
            if drain_start.elapsed() > DRAIN_LIMIT {
                return Err(format!(
                    "{} admitted requests did not complete within {DRAIN_LIMIT:?}",
                    pending.len()
                ));
            }
            self.poll(&mut pending, &mut progress, tracer.as_deref_mut());
            std::thread::yield_now();
        }
        let s = &self.samples;
        let secs = progress.finished.duration_since(started).as_secs_f64();
        Ok(Phase {
            lat_p50: median(&s.latency),
            lat_p90: percentile(&s.latency, 0.9),
            lat_p99: percentile(&s.latency, 0.99),
            lag_p99: percentile(&s.lag, 0.99),
            submit_p50: median(&s.submit),
            submit_p99: percentile(&s.submit, 0.99),
            complete_p50: median(&s.complete),
            complete_p99: percentile(&s.complete, 0.99),
            completion_rate: ratio(progress.completed as f64, secs),
        })
    }

    /// Redeems every ticket whose completion has arrived. Walks the list
    /// backwards so `swap_remove` only ever moves an already-visited entry.
    fn poll(
        &mut self,
        pending: &mut Vec<Pending>,
        progress: &mut Progress,
        mut tracer: Option<&mut Tracer>,
    ) {
        for i in (0..pending.len()).rev() {
            let p = pending.swap_remove(i);
            let result = match p.ticket.try_take() {
                Ok(result) => result,
                Err(ticket) => {
                    pending.push(Pending { ticket, ..p });
                    continue;
                }
            };
            let done = Instant::now();
            progress.completed += 1;
            progress.finished = done;
            if progress.sampled {
                self.samples.latency.push(us(done.duration_since(p.due)));
                self.samples
                    .complete
                    .push(us(done.duration_since(p.submit_end)));
            }
            match result {
                Ok(forward) => self.ledger.tenants[p.tenant].complete(p.seq, &forward.output),
                Err(e) => {
                    self.ledger.failed += 1;
                    self.ledger
                        .errors
                        .push(format!("request {} failed: {e}", p.id));
                }
            }
            if let Some(tracer) = tracer
                .as_deref_mut()
                .filter(|_| p.id.is_multiple_of(TRACE_EVERY))
            {
                let root = tracer.record("serve.request", p.due, done, ROOT, p.id);
                tracer.record("loadgen.lag", p.due, p.submit_start, root, p.id);
                tracer.record("serve.submit", p.submit_start, p.submit_end, root, p.id);
                tracer.record("serve.complete", p.submit_end, done, root, p.id);
            }
        }
    }

    /// Runs a fixed-rate phase, repeating it while the generator could
    /// not keep its schedule; after [`ATTEMPTS`] misses the run is
    /// invalid.
    fn fixed_phase(
        &mut self,
        name: &str,
        rate: f64,
        duration: Duration,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<Phase, String> {
        let mut lag = 0.0;
        for _ in 0..ATTEMPTS {
            let phase = self.phase(rate, duration, tracer.as_deref_mut())?;
            if phase.valid() {
                return Ok(phase);
            }
            lag = phase.lag_p99;
            println!("# serve {name}: generator lag p99 {lag:.0} us over the limit");
        }
        Err(format!(
            "invalid run: at the {name} rate the generator ran {lag:.0} us late (p99), \
             over the {LAG_LIMIT:?} limit, {ATTEMPTS} times"
        ))
    }
}

/// Replays every tenant's admission order through a dedicated session:
/// its digest must equal the served one, so every admitted request
/// completed exactly once with the replay's output, bit for bit.
fn replay(inputs: &Inputs, ledger: &Ledger, out: &mut Outcome) -> Result<(), String> {
    for (t, ((seed, weights), served)) in inputs.tenants.iter().zip(&ledger.tenants).enumerate() {
        let mut session = MercurySession::new(MercuryConfig::default(), *seed)
            .map_err(|e| format!("replay session: {e}"))?;
        let layer = session
            .register_fc(weights.clone())
            .map_err(|e| format!("replay layer: {e}"))?;
        let mut replayed = Digest::default();
        for k in 0..served.admitted {
            let forward = session
                .submit(layer, &inputs.pool[t][k % POOL])
                .map_err(|e| format!("replay tenant {t} request {k}: {e}"))?;
            if (k as u64 + 1).is_multiple_of(EPOCH_REQUESTS) {
                session.advance_epoch();
            }
            let seq = replayed.admit();
            replayed.complete(seq, &forward.output);
        }
        out.check(*served == replayed, || {
            format!(
                "tenant {t}: {} of {} admitted requests completed, digest {:#x}, \
                 dedicated replay {:#x}",
                served.completed, served.admitted, served.sum, replayed.sum
            )
        });
    }
    Ok(())
}

/// Pins this process to one core, the lowest it may run on, before the
/// service thread exists, so the generator and the service thread (which
/// inherits the mask) share it: every hand-off is the same same-core
/// switch, instead of a cross-core wake-up whose cost depends on where the
/// scheduler put them. Returns the core. A run that cannot pin is not a
/// `serve-open` run, so failing to pin is an error.
fn pin_to_one_core() -> Result<usize, String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // A `cpu_set_t`: one bit per CPU, 1024 CPUs.
    let mut mask = [0_u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `size` writable bytes; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "cannot pin: sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..size * 8)
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("cannot pin: empty CPU affinity mask")?;
    let mut one = [0_u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is `size` readable bytes; pid 0 is the calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "cannot pin to cpu {cpu}: sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Runs the serving workload and fills `out`.
pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let inputs = Inputs::new(args.seed);
    let cpu = pin_to_one_core()?;
    println!(
        "# serve pinned=cpu{cpu} tenants={TENANTS} fc={FEATURES}x{OUTPUTS} clusters={CLUSTERS} noise={NOISE} \
         epoch_requests={EPOCH_REQUESTS} executor=serial pacing=saturation \
         light_rps={LIGHT} heavy_rps={HEAVY} lag_limit={LAG_LIMIT:?}"
    );

    let (handle, routes, first) = start(&inputs)?;
    let mut ledger = Ledger {
        tenants: vec![Digest::default(); TENANTS],
        attempted: 1,
        failed: 0,
        errors: Vec::new(),
    };
    let seq = ledger.tenants[0].admit();
    ledger.tenants[0].complete(seq, &first);

    let mut gen = Generator {
        client: handle.client(),
        routes: &routes,
        inputs: &inputs,
        rng: Rng::new(inputs.arrivals),
        ledger,
        samples: Samples::default(),
        next_id: 0,
    };
    let share = |f: f64| args.seconds.mul_f64(f);
    let mut tracer = Tracer::new();
    let mut setups = Vec::with_capacity(WINDOWS);
    let timed = (|| -> Result<Timed, String> {
        if args.trace {
            let light = gen.fixed_phase("light", LIGHT, share(0.3), None)?;
            let traced = gen.fixed_phase("light", LIGHT, share(0.3), Some(&mut tracer))?;
            let heavy = gen.fixed_phase("heavy", HEAVY, share(0.4), None)?;
            return Ok(Timed {
                light: vec![light],
                saturated: Vec::new(),
                traced: Some((traced, heavy)),
            });
        }
        // Light and saturation phases alternate in rounds, one per window;
        // each figure is that of the best round (see `WINDOWS`). Each round
        // starts with a timed set-up, so the median set-up samples the
        // whole run rather than one moment of the shared host.
        let round = |f: f64| share(f / WINDOWS as f64);
        let mut light = Vec::with_capacity(WINDOWS);
        let mut saturated = Vec::with_capacity(WINDOWS);
        for _ in 0..WINDOWS {
            setups.push(time_setup(&inputs)?);
            light.push(gen.phase(LIGHT, round(0.75), None)?);
            saturated.push(gen.phase(f64::INFINITY, round(0.25), None)?);
        }
        Ok(Timed {
            light,
            saturated,
            traced: None,
        })
    })();
    let Generator { client, ledger, .. } = gen;
    drop(client);
    let server = handle.shutdown();
    let Timed {
        light,
        saturated,
        traced,
    } = timed?;

    out.attempted = ledger.attempted;
    out.failed = ledger.failed;
    for e in &ledger.errors {
        out.fail(e.clone());
    }
    replay(&inputs, &ledger, out)?;

    let stats: Vec<_> = routes
        .iter()
        .map(|&(tenant, layer)| {
            server
                .session(tenant)
                .and_then(|s| s.layer_stats(layer))
                .copied()
                .ok_or_else(|| format!("no stats for {tenant:?}"))
        })
        .collect::<Result<_, _>>()?;
    let served: u64 = routes.iter().filter_map(|&(t, _)| server.served(t)).sum();
    let admitted: usize = ledger.tenants.iter().map(|d| d.admitted).sum();
    out.check(served == admitted as u64, || {
        format!("server served {served} requests, {admitted} were admitted")
    });

    // Rounds whose generator fell behind describe the generator, not the
    // server: they are left out, and a run with too few left is invalid.
    let rounds = light.len();
    let light: Vec<Phase> = light.into_iter().filter(Phase::valid).collect();
    if light.len() * 2 < rounds {
        return Err(format!(
            "invalid run: the generator ran over {LAG_LIMIT:?} late in {} of {rounds} light rounds",
            rounds - light.len()
        ));
    }
    // The best light round's figure, in microseconds.
    let best = |f: fn(&Phase) -> f64| lowest(&light.iter().map(f).collect::<Vec<_>>());
    println!(
        "# serve light p50_ms={:.4} p90_ms={:.4} p99_ms={:.4} valid_light_phases={} requests={}",
        best(|p| p.lat_p50) / 1e3,
        best(|p| p.lat_p90) / 1e3,
        best(|p| p.lat_p99) / 1e3,
        light.len(),
        ledger.attempted
    );

    if let Some((traced, heavy)) = traced {
        out.set("serve.submit_us_p50", traced.submit_p50);
        out.set("serve.submit_us_p99", traced.submit_p99);
        out.set("serve.complete_us_p50", traced.complete_p50);
        out.set("serve.complete_us_p99", traced.complete_p99);
        out.set(
            "serve.batch_mean",
            ratio(served as f64, server.ticks() as f64),
        );
        out.set("serve.hit_rate", sum_stats(&stats).similarity());
        out.set("loadgen.lag_us_p99", traced.lag_p99);
        out.set("loadgen.heavy_p50_us", heavy.lat_p50);
        out.set("loadgen.heavy_p99_us", heavy.lat_p99);
        set_engine_metrics(out, &stats, served);
        out.set_unused(&["dnn.", "core.conv"]);
        out.set(
            "trace.overhead_frac",
            traced.lat_p50 / best(|p| p.lat_p50) - 1.0,
        );
        crate::write_trace(args, &tracer, out);
    } else {
        let rates: Vec<f64> = saturated.iter().map(|p| p.completion_rate).collect();
        let per_round = |f: fn(&Phase) -> f64| light.iter().map(f).collect::<Vec<_>>();
        println!(
            "# serve per round: light_p50_us={:.1?} light_p90_us={:.1?} saturation_rps={rates:.0?}",
            per_round(|p| p.lat_p50),
            per_round(|p| p.lat_p90)
        );
        out.set("throughput_per_s", highest(&rates));
        out.set("lat_p50_ms", best(|p| p.lat_p50) / 1e3);
        out.set("lat_p90_ms", best(|p| p.lat_p90) / 1e3);
        out.set("cycle_speedup", sum_stats(&stats).cycles.speedup());
        out.set("setup_s", median(&setups));
    }
    Ok(())
}
