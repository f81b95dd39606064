//! Stand up a multi-tenant MERCURY serving endpoint: the server runs on
//! its own service thread, two tenant threads stream cluster-structured
//! requests through cloned `ServeClient` handles into one shared worker
//! pool under a global memory budget, then shutdown hands the warm
//! server back and the per-tenant reuse hit rates and the budget's
//! eviction log are printed.
//!
//! ```text
//! cargo run --release --example serve_quickstart
//! ```

use mercury_core::MercuryConfig;
use mercury_serve::{EpochPolicy, PacingPolicy, ServeConfig, Server};
use mercury_tensor::rng::Rng;
use mercury_tensor::Tensor;
use mercury_workloads::tenants::TenantMix;

const FEATURES: usize = 32;
const REQUESTS: usize = 96;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One pool, bounded queues, a batching window, saturation pacing
    // (tick as soon as a window fills), and a memory budget small
    // enough to show the eviction machinery working.
    let config = ServeConfig::builder()
        .queue_capacity(32)
        .batch_window(8)
        .memory_budget(Some(256))
        .pacing(PacingPolicy::Saturation)
        .build()?;
    let mut server = Server::new(config)?;

    // Two tenants, two epoch policies: "search" refreshes its banked
    // caches every 32 requests, "embed" lets them persist until the
    // budget reclaims them.
    let search = server.register_tenant(
        "search",
        MercuryConfig::default(),
        7,
        EpochPolicy::EveryRequests(32),
    )?;
    let embed = server.register_tenant("embed", MercuryConfig::default(), 8, EpochPolicy::Never)?;
    let search_fc = server.register_fc(search, Tensor::randn(&[FEATURES, 16], &mut Rng::new(7)))?;
    let embed_fc = server.register_fc(embed, Tensor::randn(&[FEATURES, 16], &mut Rng::new(8)))?;

    // Cluster-structured traffic: each tenant's requests orbit its own
    // prototypes, which is exactly the similarity MERCURY banks on.
    let mix = TenantMix::new(FEATURES, 4, 0.03, 42);

    // Move the server onto its service thread; from here on this
    // process only talks to it through client handles.
    let handle = server.serve();
    let client = handle.client();

    // One submitting thread per tenant, each owning a clone of the
    // client (a clone is just another sender into the ingress channel;
    // every submit gets its own reply channel).
    std::thread::scope(|scope| {
        for (stream_index, (tenant, layer)) in [(search, search_fc), (embed, embed_fc)]
            .into_iter()
            .enumerate()
        {
            let client = client.clone();
            let inputs = mix.tenant_stream(stream_index, REQUESTS);
            scope.spawn(move || {
                for input in inputs {
                    // submit() blocks for admission only; wait() blocks
                    // until the service thread ticks the request through.
                    let ticket = client.submit(tenant, layer, input).expect("admission");
                    ticket.wait().expect("completion");
                }
            });
        }
    });

    // Drain and take the warm server back for inspection.
    let server = handle.shutdown();

    println!("tenant   requests  hit_rate  bank_bytes  epoch");
    for &(tenant, layer) in &[(search, search_fc), (embed, embed_fc)] {
        let session = server.session(tenant).expect("registered tenant");
        let stats = session.layer_stats(layer).expect("registered layer");
        let lookups = stats.hits + stats.maus + stats.mnus;
        println!(
            "{:<8} {:>8}  {:>7.1}%  {:>10}  {:>5}",
            server.tenant_name(tenant).expect("named tenant"),
            server.served(tenant).expect("served count"),
            100.0 * stats.hits as f64 / lookups.max(1) as f64,
            session.bank_bytes(),
            session.epoch(),
        );
    }

    println!("\nmemory budget: {:?} bytes", server.config().memory_budget);
    println!(
        "total resident after final tick: {} bytes",
        server.bank_bytes()
    );
    println!("evictions: {}", server.evictions());
    for e in server.eviction_log() {
        println!(
            "  tick {:>3}: evicted {} ({} bytes freed)",
            e.tick,
            server.tenant_name(e.tenant).expect("named tenant"),
            e.bytes_freed
        );
    }
    Ok(())
}
