//! Load generator for the `mercury-serve` multi-tenant session service.
//!
//! Drives N tenants × M requests of cluster-structured traffic
//! ([`mercury_workloads::tenants::TenantMix`]) through one [`Server`] on
//! the shared worker pool, measuring per-request latency from admission
//! to completion and overall serving throughput. Three legs run: an
//! *unconstrained* embedding-mode leg (synchronous `enqueue`/`tick` —
//! the steady-state throughput/latency figure), a *tight-budget* leg
//! (budget pinned well below the working set, demonstrating the
//! eviction machinery under pressure), and a *threaded-clients ingress*
//! leg (the server on its own service thread, one submitting thread per
//! tenant through cloned [`ServeClient`](mercury_serve::ServeClient)s,
//! clocking the full submit → completion round trip). Prints TSV and
//! merges `serve_loadgen/{throughput_rps,p50_ns,p95_ns,p99_ns,...}` and
//! `serve_ingress/{p50,p95,p99}_submit_to_completion_ns` into
//! `BENCH_RESULTS.json` (path overridable via `BENCH_RESULTS_PATH`),
//! the same snapshot `cargo bench` accumulates — so `bench_diff` can
//! compare serving percentiles across commits, and the multicore CI
//! artifact carries them.
//!
//! Usage: `loadgen [tenants] [requests-per-tenant]` (defaults 6 × 256).
//! The pool backend follows `MERCURY_EXECUTOR` like everything else.

use mercury_bench::latency::LatencyRecorder;
use mercury_bench::{f3, results, tsv_header};
use mercury_core::MercuryConfig;
use mercury_serve::{EpochPolicy, PacingPolicy, RequestId, ServeConfig, Server, Ticket};
use mercury_tensor::rng::Rng;
use mercury_tensor::Tensor;
use mercury_workloads::tenants::TenantMix;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::time::Instant;

/// Feature width of every request (rows through an `[features, out]` FC
/// weight matrix).
const FEATURES: usize = 64;
/// FC output width.
const OUTPUTS: usize = 32;
/// Prototype clusters per tenant.
const CLUSTERS: usize = 5;
/// Noise around prototypes — small, so the MCACHEs see real reuse.
const NOISE: f32 = 0.02;
/// Workload seed (also seeds tenant sessions and weights).
const SEED: u64 = 0x5EED;

struct LegReport {
    throughput_rps: f64,
    recorder: LatencyRecorder,
    evictions: u64,
    hit_rate: f64,
    pool: Option<mercury_tensor::exec::PoolStats>,
}

/// Runs one serving leg: every tenant's stream is admitted in
/// round-robin slices sized to the batching window, with a tick after
/// each full round — the schedule a batching ingress produces under
/// saturating load.
fn run_leg(tenants: usize, requests: usize, budget: Option<usize>) -> LegReport {
    let config = ServeConfig::builder()
        .queue_capacity(64)
        .batch_window(16)
        .memory_budget(budget)
        .build()
        .expect("static configuration is valid");
    let mut server = Server::new(config).expect("server creation");

    let mix = TenantMix::new(FEATURES, CLUSTERS, NOISE, SEED);
    let mut streams: Vec<Vec<Tensor>> = (0..tenants)
        .map(|t| mix.tenant_stream(t, requests))
        .collect();
    let mut handles = Vec::new();
    for t in 0..tenants {
        let tenant = server
            .register_tenant(
                &format!("tenant-{t}"),
                MercuryConfig::default(),
                SEED + t as u64,
                EpochPolicy::EveryRequests(128),
            )
            .expect("tenant registration");
        let mut rng = Rng::new(SEED + t as u64);
        let layer = server
            .register_fc(tenant, Tensor::randn(&[FEATURES, OUTPUTS], &mut rng))
            .expect("layer registration");
        handles.push((tenant, layer));
    }
    for stream in &mut streams {
        stream.reverse(); // pop() from the back = admission order
    }

    let window = server.config().batch_window;
    let mut admitted: HashMap<RequestId, Instant> = HashMap::new();
    let mut recorder = LatencyRecorder::new();
    let mut completed = 0usize;
    let total = tenants * requests;
    let started = Instant::now();
    while completed < total {
        for (t, &(tenant, layer)) in handles.iter().enumerate() {
            for _ in 0..window {
                let Some(input) = streams[t].pop() else { break };
                let id = server
                    .enqueue(tenant, layer, input)
                    .expect("round-robin admission never outruns the queue");
                admitted.insert(id, Instant::now());
            }
        }
        server.tick();
        let now = Instant::now();
        for completion in &server.drain_completions() {
            let t0 = admitted
                .remove(&completion.id)
                .expect("every completion was admitted");
            recorder.record_ns(now.duration_since(t0).as_nanos() as u64);
            completion.result.as_ref().expect("healthy serving leg");
            completed += 1;
        }
    }
    let elapsed = started.elapsed();

    let mut hits = 0u64;
    let mut lookups = 0u64;
    for &(tenant, layer) in &handles {
        let session = server.session(tenant).expect("tenant exists");
        let stats = session.layer_stats(layer).expect("layer exists");
        hits += stats.hits;
        lookups += stats.hits + stats.maus + stats.mnus;
    }
    LegReport {
        throughput_rps: total as f64 / elapsed.as_secs_f64(),
        recorder,
        evictions: server.evictions(),
        hit_rate: if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
        pool: server.pool_stats(),
    }
}

/// How many tickets one client thread keeps in flight before it blocks
/// on the oldest. Below the serve queue capacity (64), so steady
/// per-tenant submission never trips `QueueFull` — this leg measures
/// latency, not shedding.
const IN_FLIGHT: usize = 16;

/// Runs the threaded-clients leg: the server moves onto its service
/// thread ([`Server::serve`], saturation pacing) and one OS thread per
/// tenant submits that tenant's stream through its own
/// [`mercury_serve::ServeClient`] clone, keeping up to [`IN_FLIGHT`]
/// tickets outstanding and clocking
/// each request from `submit` to `Ticket::wait` returning — the full
/// channel → admission → tick → reply channel path a real client sees.
fn run_ingress_leg(tenants: usize, requests: usize) -> LegReport {
    let config = ServeConfig::builder()
        .queue_capacity(64)
        .batch_window(16)
        .pacing(PacingPolicy::Saturation)
        .build()
        .expect("static configuration is valid");
    let mut server = Server::new(config).expect("server creation");

    let mix = TenantMix::new(FEATURES, CLUSTERS, NOISE, SEED);
    let streams = mix.client_streams(tenants, requests);
    let mut handles = Vec::new();
    for t in 0..tenants {
        let tenant = server
            .register_tenant(
                &format!("tenant-{t}"),
                MercuryConfig::default(),
                SEED + t as u64,
                EpochPolicy::EveryRequests(128),
            )
            .expect("tenant registration");
        let mut rng = Rng::new(SEED + t as u64);
        let layer = server
            .register_fc(tenant, Tensor::randn(&[FEATURES, OUTPUTS], &mut rng))
            .expect("layer registration");
        handles.push((tenant, layer));
    }

    let serve_handle = server.serve();
    let root_client = serve_handle.client();
    let total = tenants * requests;
    let started = Instant::now();
    let per_thread: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let workers: Vec<_> = streams
            .into_iter()
            .zip(&handles)
            .map(|(stream, &(tenant, layer))| {
                let client = root_client.clone();
                scope.spawn(move || {
                    let mut latencies = Vec::with_capacity(stream.len());
                    let mut in_flight: VecDeque<(Ticket, Instant)> =
                        VecDeque::with_capacity(IN_FLIGHT);
                    let settle = |(ticket, t0): (Ticket, Instant)| {
                        ticket.wait().expect("healthy serving leg");
                        Instant::now().duration_since(t0).as_nanos() as u64
                    };
                    for input in stream {
                        if in_flight.len() == IN_FLIGHT {
                            let oldest = in_flight.pop_front().expect("non-empty at capacity");
                            latencies.push(settle(oldest));
                        }
                        let t0 = Instant::now();
                        let ticket = client.submit(tenant, layer, input).expect("admission");
                        in_flight.push_back((ticket, t0));
                    }
                    for pending in in_flight {
                        latencies.push(settle(pending));
                    }
                    latencies
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let elapsed = started.elapsed();
    let server = serve_handle.shutdown();

    let mut recorder = LatencyRecorder::new();
    for latencies in &per_thread {
        for &ns in latencies {
            recorder.record_ns(ns);
        }
    }
    assert_eq!(recorder.len(), total, "every submission completed");

    let mut hits = 0u64;
    let mut lookups = 0u64;
    for &(tenant, layer) in &handles {
        let session = server.session(tenant).expect("tenant exists");
        let stats = session.layer_stats(layer).expect("layer exists");
        hits += stats.hits;
        lookups += stats.hits + stats.maus + stats.mnus;
    }
    LegReport {
        throughput_rps: total as f64 / elapsed.as_secs_f64(),
        recorder,
        evictions: server.evictions(),
        hit_rate: if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
        pool: server.pool_stats(),
    }
}

/// Budget for the pressure leg: measured by warming one tenant and
/// multiplying — roughly two tenants' working sets for N tenants, so
/// eviction has to cycle.
fn tight_budget(tenants: usize, requests: usize) -> usize {
    let mix = TenantMix::new(FEATURES, CLUSTERS, NOISE, SEED);
    let mut session =
        mercury_core::MercurySession::new(MercuryConfig::default(), SEED).expect("probe session");
    let mut rng = Rng::new(SEED);
    let layer = session
        .register_fc(Tensor::randn(&[FEATURES, OUTPUTS], &mut rng))
        .expect("probe layer");
    for input in mix.tenant_stream(0, requests.min(64)) {
        let _ = session.submit(layer, &input);
    }
    (session.bank_bytes().max(1) * 2).min(usize::MAX / tenants.max(1))
}

/// Prints one leg's pool dispatch counters: how many parallel regions
/// woke the shared pool vs ran inline (a throughput number without
/// these is unexplainable after the fact).
fn print_pool(leg: &str, pool: Option<&mercury_tensor::exec::PoolStats>) {
    match pool {
        Some(p) => {
            println!("{leg}\tpool_threads\t{}", p.threads);
            println!("{leg}\tregions_dispatched\t{}", p.regions_dispatched);
            println!("{leg}\tregions_inlined\t{}", p.regions_inlined);
        }
        None => println!("{leg}\tpool_threads\t0"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let tenants: usize = args.get(1).map_or(6, |a| a.parse().expect("tenant count"));
    let requests: usize = args
        .get(2)
        .map_or(256, |a| a.parse().expect("requests per tenant"));

    tsv_header(&["leg", "metric", "value"]);
    let mut entries: BTreeMap<String, u128> = BTreeMap::new();

    let open = run_leg(tenants, requests, None);
    let summary = open.recorder.summary();
    println!("open\tthroughput_rps\t{}", f3(open.throughput_rps));
    println!("open\tp50_ns\t{}", summary.p50_ns);
    println!("open\tp95_ns\t{}", summary.p95_ns);
    println!("open\tp99_ns\t{}", summary.p99_ns);
    println!("open\thit_rate\t{}", f3(open.hit_rate));
    println!("open\tevictions\t{}", open.evictions);
    print_pool("open", open.pool.as_ref());
    assert_eq!(open.evictions, 0, "no budget, no evictions");
    entries.insert(
        "serve_loadgen/throughput_rps".into(),
        open.throughput_rps.round() as u128,
    );
    entries.insert("serve_loadgen/p50_ns".into(), summary.p50_ns.into());
    entries.insert("serve_loadgen/p95_ns".into(), summary.p95_ns.into());
    entries.insert("serve_loadgen/p99_ns".into(), summary.p99_ns.into());

    let budget = tight_budget(tenants, requests);
    let tight = run_leg(tenants, requests, Some(budget));
    let tight_summary = tight.recorder.summary();
    println!("tight\tbudget_bytes\t{budget}");
    println!("tight\tthroughput_rps\t{}", f3(tight.throughput_rps));
    println!("tight\tp50_ns\t{}", tight_summary.p50_ns);
    println!("tight\thit_rate\t{}", f3(tight.hit_rate));
    println!("tight\tevictions\t{}", tight.evictions);
    print_pool("tight", tight.pool.as_ref());
    assert!(
        tight.evictions > 0,
        "a budget below the working set must evict"
    );
    entries.insert(
        "serve_loadgen/tight_budget_evictions".into(),
        tight.evictions.into(),
    );
    entries.insert(
        "serve_loadgen/tight_budget_p50_ns".into(),
        tight_summary.p50_ns.into(),
    );

    let ingress = run_ingress_leg(tenants, requests);
    let ingress_summary = ingress.recorder.summary();
    println!("ingress\tthroughput_rps\t{}", f3(ingress.throughput_rps));
    println!(
        "ingress\tp50_submit_to_completion_ns\t{}",
        ingress_summary.p50_ns
    );
    println!(
        "ingress\tp95_submit_to_completion_ns\t{}",
        ingress_summary.p95_ns
    );
    println!(
        "ingress\tp99_submit_to_completion_ns\t{}",
        ingress_summary.p99_ns
    );
    println!("ingress\thit_rate\t{}", f3(ingress.hit_rate));
    print_pool("ingress", ingress.pool.as_ref());
    assert_eq!(ingress.evictions, 0, "no budget, no evictions");
    entries.insert(
        "serve_ingress/throughput_rps".into(),
        ingress.throughput_rps.round() as u128,
    );
    entries.insert(
        "serve_ingress/p50_submit_to_completion_ns".into(),
        ingress_summary.p50_ns.into(),
    );
    entries.insert(
        "serve_ingress/p95_submit_to_completion_ns".into(),
        ingress_summary.p95_ns.into(),
    );
    entries.insert(
        "serve_ingress/p99_submit_to_completion_ns".into(),
        ingress_summary.p99_ns.into(),
    );

    let path = results::default_path();
    match results::merge_into(&path, &entries) {
        Ok(()) => eprintln!(
            "recorded {} serve_loadgen/serve_ingress entries into {path}",
            entries.len()
        ),
        Err(e) => eprintln!("warning: {e}"),
    }
}
