//! Model-based randomized test of [`Server`]: random interleavings of
//! `enqueue`, `tick`, `advance_epoch` and `recover` across a conv, an FC
//! and an attention tenant, checked against a reference built from one
//! dedicated [`MercurySession`] per tenant.
//!
//! The reference replays each tenant's completions in admission order and
//! advances its epoch wherever the server's would: at every
//! [`EpochPolicy::EveryRequests`] boundary, at every explicit
//! `advance_epoch`, and at every eviction a [`TickReport`] lists (the
//! last two also restart the boundary count). Every served output and
//! report must be bit-identical to the reference's, completions must
//! arrive in admission order, the memory budget must hold after every
//! tick, and admission must refuse with `QueueFull` exactly at capacity.

use mercury_serve::{
    EpochPolicy, LayerId, MercuryConfig, MercurySession, ServeConfig, ServeError, Server, TenantId,
    TickReport,
};
use mercury_tensor::exec::ExecutorKind;
use mercury_tensor::rng::Rng;
use mercury_tensor::Tensor;
use proptest::prelude::*;

const TENANTS: usize = 3;

/// One generated scenario; the same one runs under every executor.
#[derive(Debug, Clone)]
struct Scenario {
    queue_capacity: usize,
    batch_window: usize,
    memory_budget: Option<usize>,
    policies: [EpochPolicy; TENANTS],
    /// `(op, tenant, payload)`: op `0..5` enqueues payload `payload` for
    /// `tenant`, `5..8` ticks, `8` advances the tenant's epoch, `9`
    /// recovers its layer.
    ops: Vec<(u8, usize, usize)>,
    seed: u64,
}

fn policy(code: u8, every: u64) -> EpochPolicy {
    match code {
        0 => EpochPolicy::EveryRequests(every),
        1 => EpochPolicy::Manual,
        _ => EpochPolicy::Never,
    }
}

/// Three small payloads per tenant: a conv image, FC rows, an attention
/// sequence. Repeats across requests give the persistent caches hits to
/// keep and the budget bytes to evict.
fn payload_pools(seed: u64) -> [Vec<Tensor>; TENANTS] {
    let mut rng = Rng::new(seed);
    let mut pool = |shape: &[usize]| -> Vec<Tensor> {
        (0..3).map(|_| Tensor::randn(shape, &mut rng)).collect()
    };
    [pool(&[1, 6, 6]), pool(&[2, 8]), pool(&[3, 4])]
}

/// The parameters of tenant `t`'s one layer: conv kernels for tenant 0,
/// FC weights for tenant 1 (the attention tenant has none).
fn layer_params(t: usize, seed: u64) -> Tensor {
    let shape: &[usize] = if t == 0 { &[2, 1, 3, 3] } else { &[8, 4] };
    Tensor::randn(shape, &mut Rng::new(seed ^ 0x5EED))
}

/// The dedicated-session side of the model, plus the server-side counts
/// the model predicts.
struct Model {
    sessions: Vec<MercurySession>,
    layers: Vec<LayerId>,
    policies: [EpochPolicy; TENANTS],
    /// Payload index of every admitted request, by admission sequence.
    admitted: [Vec<usize>; TENANTS],
    /// Sequence number of the next completion due per tenant.
    done: [usize; TENANTS],
    /// Requests served since the tenant's last epoch boundary.
    epoch_served: [u64; TENANTS],
    evictions: u64,
}

impl Model {
    fn queued(&self, t: usize) -> usize {
        self.admitted[t].len() - self.done[t]
    }

    fn advance_epoch(&mut self, t: usize) -> u64 {
        self.epoch_served[t] = 0;
        self.sessions[t].advance_epoch()
    }

    /// How many requests the next tick serves for tenant `t`.
    fn next_take(&self, t: usize, window: usize) -> usize {
        let take = self.queued(t).min(window);
        match self.policies[t] {
            EpochPolicy::EveryRequests(n) => take.min((n - self.epoch_served[t]) as usize),
            _ => take,
        }
    }
}

/// Runs one tick on the server and checks it against the model.
fn tick_and_check(
    server: &mut Server,
    model: &mut Model,
    ids: &[TenantId; TENANTS],
    pools: &[Vec<Tensor>; TENANTS],
    scenario: &Scenario,
) -> Result<(), TestCaseError> {
    let takes: Vec<usize> = (0..TENANTS)
        .map(|t| model.next_take(t, scenario.batch_window))
        .collect();
    let report: TickReport = server.tick();
    prop_assert_eq!(report.idle, takes.iter().all(|&n| n == 0));
    prop_assert_eq!(report.completed, takes.iter().sum::<usize>());

    let mut served = [0usize; TENANTS];
    for completion in server.drain_completions() {
        let t = ids
            .iter()
            .position(|&id| id == completion.id.tenant)
            .unwrap();
        prop_assert_eq!(completion.id.seq, model.done[t] as u64, "out of order");
        let input = &pools[t][model.admitted[t][model.done[t]]];
        model.done[t] += 1;
        served[t] += 1;
        let got = completion.result.expect("no fault is injected");
        let want = model.sessions[t].submit(model.layers[t], input).unwrap();
        let bits = |f: &mercury_serve::LayerForward| -> Vec<u32> {
            f.output.data().iter().map(|v| v.to_bits()).collect()
        };
        prop_assert_eq!(bits(&got), bits(&want), "output diverged from the replay");
        prop_assert_eq!(&got.report, &want.report, "report diverged from the replay");
        model.epoch_served[t] += 1;
        if model.policies[t] == EpochPolicy::EveryRequests(model.epoch_served[t]) {
            model.advance_epoch(t);
        }
    }
    prop_assert_eq!(&served[..], &takes[..]);

    for eviction in &report.evictions {
        prop_assert_eq!(eviction.tick, report.tick);
        let t = ids.iter().position(|&id| id == eviction.tenant).unwrap();
        model.advance_epoch(t);
    }
    model.evictions += report.evictions.len() as u64;
    prop_assert_eq!(server.evictions(), model.evictions);
    if let Some(budget) = scenario.memory_budget {
        prop_assert!(server.bank_bytes() <= budget, "budget exceeded");
    }
    for (t, &id) in ids.iter().enumerate() {
        let session = server.session(id).unwrap();
        prop_assert_eq!(session.epoch(), model.sessions[t].epoch());
        prop_assert_eq!(session.bank_bytes(), model.sessions[t].bank_bytes());
        prop_assert_eq!(server.queued(id), Some(model.queued(t)));
    }
    Ok(())
}

fn run(scenario: &Scenario, executor: ExecutorKind) -> Result<(), TestCaseError> {
    let config = ServeConfig::builder()
        .executor(executor)
        .queue_capacity(scenario.queue_capacity)
        .batch_window(scenario.batch_window)
        .memory_budget(scenario.memory_budget)
        .build()
        .unwrap();
    let mut server = Server::new(config).unwrap();
    let tenant_config = MercuryConfig::default();
    let reference_config = MercuryConfig {
        executor: ExecutorKind::Serial,
        ..tenant_config
    };
    let mut ids = Vec::new();
    let mut model = Model {
        sessions: Vec::new(),
        layers: Vec::new(),
        policies: scenario.policies,
        admitted: Default::default(),
        done: [0; TENANTS],
        epoch_served: [0; TENANTS],
        evictions: 0,
    };
    let mut server_layers = Vec::new();
    for (t, name) in ["conv", "fc", "attention"].into_iter().enumerate() {
        let seed = scenario.seed.wrapping_add(t as u64);
        let id = server
            .register_tenant(name, tenant_config, seed, scenario.policies[t])
            .unwrap();
        let layer = match t {
            0 => server.register_conv(id, layer_params(t, seed), 1, 0),
            1 => server.register_fc(id, layer_params(t, seed)),
            _ => server.register_attention(id),
        }
        .unwrap();
        let mut session = MercurySession::new(reference_config, seed).unwrap();
        let reference_layer = match t {
            0 => session.register_conv(layer_params(t, seed), 1, 0),
            1 => session.register_fc(layer_params(t, seed)),
            _ => session.register_attention(),
        }
        .unwrap();
        ids.push(id);
        server_layers.push(layer);
        model.sessions.push(session);
        model.layers.push(reference_layer);
    }
    let ids: [TenantId; TENANTS] = ids.try_into().unwrap();
    let pools = payload_pools(scenario.seed);

    for &(op, t, payload) in &scenario.ops {
        match op {
            0..=4 => {
                let input = pools[t][payload].clone();
                let got = server.enqueue(ids[t], server_layers[t], input);
                if model.queued(t) == scenario.queue_capacity {
                    let full = ServeError::QueueFull {
                        tenant: ids[t],
                        capacity: scenario.queue_capacity,
                    };
                    prop_assert_eq!(got, Err(full));
                } else {
                    let id = got.unwrap();
                    prop_assert_eq!(id.seq, model.admitted[t].len() as u64);
                    model.admitted[t].push(payload);
                }
            }
            5..=7 => tick_and_check(&mut server, &mut model, &ids, &pools, scenario)?,
            8 => {
                let epoch = server.advance_epoch(ids[t]).unwrap();
                prop_assert_eq!(epoch, model.advance_epoch(t));
            }
            _ => {
                server.recover(ids[t], server_layers[t]).unwrap();
                model.sessions[t].recover(model.layers[t]).unwrap();
            }
        }
    }
    while server.has_queued() {
        tick_and_check(&mut server, &mut model, &ids, &pools, scenario)?;
    }
    for t in 0..TENANTS {
        prop_assert_eq!(model.done[t], model.admitted[t].len(), "request stranded");
    }
    Ok(())
}

proptest! {
    /// The served streams equal the dedicated-session replays under a
    /// serial executor and a two-thread pool.
    #[test]
    fn server_matches_dedicated_session_replays(
        queue_capacity in 1usize..6,
        batch_window in 1usize..5,
        budget in 0usize..4,
        codes in (0u8..3, 0u8..3, 0u8..3),
        every in (1u64..5, 1u64..5, 1u64..5),
        ops in proptest::collection::vec((0u8..10, 0usize..TENANTS, 0usize..3), 1usize..48),
        seed in 0u64..1000,
    ) {
        let scenario = Scenario {
            queue_capacity,
            batch_window,
            // A few hundred bytes is below what the three tenants keep
            // resident, so the budget must evict.
            memory_budget: (budget > 0).then_some(budget * 300),
            policies: [
                policy(codes.0, every.0),
                policy(codes.1, every.1),
                policy(codes.2, every.2),
            ],
            ops,
            seed,
        };
        for executor in [ExecutorKind::Serial, ExecutorKind::Threaded { threads: 2 }] {
            run(&scenario, executor)?;
        }
    }
}
