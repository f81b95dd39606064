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
//!
//! Each scenario runs in embedding mode under a serial executor and a
//! two-thread pool, then a third time in service mode: [`Server::serve`]
//! under [`PacingPolicy::Manual`], where enqueue is
//! [`ServeClient::submit`](mercury_serve::ServeClient::submit) and tick
//! is [`ServeHandle::tick_now`]. The handle offers no `advance_epoch` or
//! `recover`, so service mode skips those ops. Every ticket must redeem
//! once, bit-identical to the reference. Without a budget the run ends
//! in [`ServeHandle::shutdown`], whose drain the reference replays; with
//! one, `tick_now` drains first, because a drain reports no evictions.

use mercury_serve::{
    EpochPolicy, LayerForward, LayerId, MercuryConfig, MercurySession, PacingPolicy, RequestId,
    ServeConfig, ServeError, ServeHandle, Server, TenantId, TickReport, Ticket,
};
use mercury_tensor::exec::ExecutorKind;
use mercury_tensor::rng::Rng;
use mercury_tensor::Tensor;
use proptest::prelude::*;
use std::collections::VecDeque;

const TENANTS: usize = 3;

/// One generated scenario; the same one runs in every mode.
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
    ids: [TenantId; TENANTS],
    pools: [Vec<Tensor>; TENANTS],
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
    fn tenant(&self, id: TenantId) -> usize {
        self.ids.iter().position(|&t| t == id).unwrap()
    }

    fn queued(&self, t: usize) -> usize {
        self.admitted[t].len() - self.done[t]
    }

    fn advance_epoch(&mut self, t: usize) -> u64 {
        self.epoch_served[t] = 0;
        self.sessions[t].advance_epoch()
    }

    /// How many requests the next tick serves for each tenant.
    fn takes(&self, window: usize) -> [usize; TENANTS] {
        std::array::from_fn(|t| {
            let take = self.queued(t).min(window);
            match self.policies[t] {
                EpochPolicy::EveryRequests(n) => take.min((n - self.epoch_served[t]) as usize),
                EpochPolicy::Never => take,
            }
        })
    }

    /// Checks an admission verdict: `QueueFull` exactly at capacity,
    /// otherwise the next sequence number.
    fn admit(
        &mut self,
        t: usize,
        payload: usize,
        capacity: usize,
        got: Result<RequestId, ServeError>,
    ) -> Result<(), TestCaseError> {
        if self.queued(t) == capacity {
            let full = ServeError::QueueFull {
                tenant: self.ids[t],
                capacity,
            };
            prop_assert_eq!(got, Err(full));
        } else {
            prop_assert_eq!(got.unwrap().seq, self.admitted[t].len() as u64);
            self.admitted[t].push(payload);
        }
        Ok(())
    }

    /// Checks tenant `t`'s completion `seq` against the dedicated
    /// session's replay of the next request due.
    fn complete(&mut self, t: usize, seq: u64, got: &LayerForward) -> Result<(), TestCaseError> {
        prop_assert_eq!(seq, self.done[t] as u64, "out of order");
        let input = &self.pools[t][self.admitted[t][self.done[t]]];
        self.done[t] += 1;
        let want = self.sessions[t].submit(self.layers[t], input).unwrap();
        let bits = |f: &LayerForward| -> Vec<u32> {
            f.output.data().iter().map(|v| v.to_bits()).collect()
        };
        prop_assert_eq!(bits(got), bits(&want), "output diverged from the replay");
        prop_assert_eq!(&got.report, &want.report, "report diverged from the replay");
        self.epoch_served[t] += 1;
        if self.policies[t] == EpochPolicy::EveryRequests(self.epoch_served[t]) {
            self.advance_epoch(t);
        }
        Ok(())
    }

    /// Checks a tick's report against the takes predicted before it and
    /// follows its evictions.
    fn follow(
        &mut self,
        report: &TickReport,
        takes: &[usize; TENANTS],
        budget: Option<usize>,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(report.idle, takes.iter().all(|&n| n == 0));
        prop_assert_eq!(report.completed, takes.iter().sum::<usize>());
        for eviction in &report.evictions {
            prop_assert_eq!(eviction.tick, report.tick);
            let t = self.tenant(eviction.tenant);
            self.advance_epoch(t);
        }
        self.evictions += report.evictions.len() as u64;
        if let Some(budget) = budget {
            let resident: usize = self.sessions.iter().map(MercurySession::bank_bytes).sum();
            prop_assert!(resident <= budget, "budget exceeded");
        }
        Ok(())
    }

    /// Checks the server's tenants against the model: epochs, resident
    /// bytes, queue depths and the eviction count.
    fn check_server(&self, server: &Server) -> Result<(), TestCaseError> {
        prop_assert_eq!(server.evictions(), self.evictions);
        for (t, &id) in self.ids.iter().enumerate() {
            let session = server.session(id).unwrap();
            prop_assert_eq!(session.epoch(), self.sessions[t].epoch());
            prop_assert_eq!(session.bank_bytes(), self.sessions[t].bank_bytes());
            prop_assert_eq!(server.queued(id), Some(self.queued(t)));
        }
        Ok(())
    }
}

/// A server for `scenario` with its three tenants, the model of it, and
/// the server's layer ids.
fn setup(
    scenario: &Scenario,
    executor: ExecutorKind,
    pacing: PacingPolicy,
) -> (Server, Model, Vec<LayerId>) {
    let config = ServeConfig::builder()
        .executor(executor)
        .queue_capacity(scenario.queue_capacity)
        .batch_window(scenario.batch_window)
        .memory_budget(scenario.memory_budget)
        .pacing(pacing)
        .build()
        .unwrap();
    let mut server = Server::new(config).unwrap();
    let tenant_config = MercuryConfig::default();
    let reference_config = MercuryConfig {
        executor: ExecutorKind::Serial,
        ..tenant_config
    };
    let mut ids = Vec::new();
    let mut sessions = Vec::new();
    let mut layers = Vec::new();
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
        sessions.push(session);
        layers.push(reference_layer);
    }
    let model = Model {
        ids: ids.try_into().unwrap(),
        pools: payload_pools(scenario.seed),
        sessions,
        layers,
        policies: scenario.policies,
        admitted: Default::default(),
        done: [0; TENANTS],
        epoch_served: [0; TENANTS],
        evictions: 0,
    };
    (server, model, server_layers)
}

/// Runs one tick on the server and checks it against the model.
fn tick_and_check(
    server: &mut Server,
    model: &mut Model,
    scenario: &Scenario,
) -> Result<(), TestCaseError> {
    let takes = model.takes(scenario.batch_window);
    let report = server.tick();
    let mut served = [0usize; TENANTS];
    for completion in server.drain_completions() {
        let t = model.tenant(completion.id.tenant);
        served[t] += 1;
        let got = completion.result.expect("no fault is injected");
        model.complete(t, completion.id.seq, &got)?;
    }
    prop_assert_eq!(served, takes);
    model.follow(&report, &takes, scenario.memory_budget)?;
    if let Some(budget) = scenario.memory_budget {
        prop_assert!(server.bank_bytes() <= budget, "budget exceeded");
    }
    model.check_server(server)
}

/// Runs one scenario in embedding mode: `enqueue` and `tick` directly.
fn run_embedded(scenario: &Scenario, executor: ExecutorKind) -> Result<(), TestCaseError> {
    let (mut server, mut model, layers) = setup(scenario, executor, PacingPolicy::default());
    for &(op, t, payload) in &scenario.ops {
        match op {
            0..=4 => {
                let input = model.pools[t][payload].clone();
                let got = server.enqueue(model.ids[t], layers[t], input);
                model.admit(t, payload, scenario.queue_capacity, got)?;
            }
            5..=7 => tick_and_check(&mut server, &mut model, scenario)?,
            8 => {
                let epoch = server.advance_epoch(model.ids[t]).unwrap();
                prop_assert_eq!(epoch, model.advance_epoch(t));
            }
            _ => {
                server.recover(model.ids[t], layers[t]).unwrap();
                model.sessions[t].recover(model.layers[t]).unwrap();
            }
        }
    }
    while server.has_queued() {
        tick_and_check(&mut server, &mut model, scenario)?;
    }
    for t in 0..TENANTS {
        prop_assert_eq!(model.done[t], model.admitted[t].len(), "request stranded");
    }
    Ok(())
}

/// Redeems a ticket whose request has been served: it must not be
/// pending any more, and no fault is injected.
fn redeem(ticket: Ticket) -> Result<(RequestId, LayerForward), TestCaseError> {
    let id = ticket.id();
    match ticket.try_take() {
        Ok(result) => Ok((id, result.expect("no fault is injected"))),
        Err(_) => Err(TestCaseError::fail(format!(
            "{id} was served but is pending"
        ))),
    }
}

/// Pulls `tick_now` and checks the report and the tickets it served
/// against the model.
fn tick_now_and_check(
    handle: &ServeHandle,
    model: &mut Model,
    tickets: &mut [VecDeque<Ticket>; TENANTS],
    scenario: &Scenario,
) -> Result<(), TestCaseError> {
    let takes = model.takes(scenario.batch_window);
    let report = handle.tick_now().unwrap();
    for (t, &take) in takes.iter().enumerate() {
        for ticket in tickets[t].drain(..take) {
            let (id, got) = redeem(ticket)?;
            model.complete(t, id.seq, &got)?;
        }
    }
    model.follow(&report, &takes, scenario.memory_budget)
}

/// Runs one scenario in service mode: `submit` for enqueue and
/// `tick_now` for tick, then `shutdown`.
fn run_served(scenario: &Scenario) -> Result<(), TestCaseError> {
    let (server, mut model, layers) = setup(scenario, ExecutorKind::Serial, PacingPolicy::Manual);
    let handle = server.serve();
    let client = handle.client();
    let mut tickets: [VecDeque<Ticket>; TENANTS] = Default::default();
    for &(op, t, payload) in &scenario.ops {
        match op {
            0..=4 => {
                let input = model.pools[t][payload].clone();
                let (verdict, ticket) = match client.submit(model.ids[t], layers[t], input) {
                    Ok(ticket) => (Ok(ticket.id()), Some(ticket)),
                    Err(e) => (Err(e), None),
                };
                model.admit(t, payload, scenario.queue_capacity, verdict)?;
                tickets[t].extend(ticket);
            }
            5..=7 => tick_now_and_check(&handle, &mut model, &mut tickets, scenario)?,
            _ => {}
        }
    }
    if scenario.memory_budget.is_some() {
        while (0..TENANTS).any(|t| model.queued(t) > 0) {
            tick_now_and_check(&handle, &mut model, &mut tickets, scenario)?;
        }
    }
    // Without a budget the drain evicts nothing, so each tenant's
    // remaining requests replay in order across its epoch boundaries.
    let server = handle.shutdown();
    for (t, queue) in tickets.iter_mut().enumerate() {
        for ticket in queue.drain(..) {
            let (id, got) = redeem(ticket)?;
            model.complete(t, id.seq, &got)?;
        }
    }
    prop_assert!(!server.has_queued(), "shutdown left work queued");
    model.check_server(&server)
}

proptest! {
    /// The served streams equal the dedicated-session replays in
    /// embedding mode under a serial executor and a two-thread pool, and
    /// in service mode.
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
            run_embedded(&scenario, executor)?;
        }
        run_served(&scenario)?;
    }
}
