//! `mercury-serve` — a multi-tenant session service over MERCURY's
//! persistent reuse sessions.
//!
//! The paper's §V banked MCACHEs make a trained-up session a *stateful
//! asset*: its caches embody the input similarity the layer has already
//! paid to discover. This crate turns many such assets into a service.
//! A [`Server`] owns named tenant [`MercurySession`]s that all schedule
//! on **one** shared worker pool (the executor is resolved once and
//! cloned into every session; clones share the pool), fed by a bounded
//! per-tenant ingress queue whose batching window coalesces requests
//! into `submit_batch` calls while preserving per-tenant FIFO order.
//!
//! Four mechanisms ride on that spine:
//!
//! * **Admission control** — bounded queues answer overload with a
//!   typed [`ServeError::QueueFull`] instead of growing without bound.
//! * **Epoch policy** — each tenant picks when its session's epoch
//!   advances ([`EpochPolicy`]): every `n` requests (with the batching
//!   window capped so the boundary lands exactly on the `n`-th), or
//!   never on its own. [`Server::advance_epoch`] ends an epoch
//!   explicitly under either.
//! * **Fault containment** — a poisoned tenant layer answers its own
//!   requests with typed errors while every other tenant serves
//!   bit-identically; under [`RecoveryPolicy::Immediate`] the server
//!   auto-quarantines and re-enters the layer through warm-up.
//! * **Memory budget** — a global cap on the summed
//!   [`bank_bytes`](MercurySession::bank_bytes) — every tenant's resident
//!   tags and stored result rows — enforced after every tick by
//!   flash-clearing tenants' banks, least recently served first
//!   (keyed by [`Server::last_served_tick`]), so the tenants a tick
//!   served are evicted last.
//!
//! # Two ways to drive it
//!
//! **Service mode** (the default front door): [`Server::serve`] moves
//! the server onto a dedicated service thread and returns a
//! [`ServeHandle`]. The handle mints cheap `Clone`-able
//! [`ServeClient`]s whose [`submit`](ServeClient::submit) sends over a
//! bounded MPSC channel and returns a [`Ticket`] redeemable for that
//! request's completion ([`Ticket::wait`] blocking,
//! [`Ticket::try_take`] polling). Backpressure stays typed: a full
//! tenant queue answers the submit itself with
//! [`ServeError::QueueFull`]. The thread runs one pacing loop: it
//! blocks while idle, ticks at once when a batching window fills, and
//! otherwise waits for more work as long as the [`PacingPolicy`] says —
//! not at all ([`Saturation`]), up to a wall-clock deadline
//! ([`Deadline`]), or until an explicit
//! [`tick_now`](ServeHandle::tick_now) ([`Manual`]).
//! [`shutdown`](ServeHandle::shutdown) drains all admitted work and
//! hands the warm [`Server`] back.
//!
//! **Embedding mode**: single-threaded callers (and the service thread
//! itself) own the `&mut Server` and call
//! [`enqueue`](Server::enqueue) / [`tick`](Server::tick) /
//! [`drain_completions`](Server::drain_completions) directly.
//!
//! The load-bearing invariant, pinned by `tests/serve_streaming.rs`
//! and `tests/serve_ingress.rs`: interleaving tenants — or clients, or
//! pacing schedules — changes *throughput*, never *answers*. Each
//! tenant's completion stream is bit-identical to a dedicated
//! single-tenant session replaying its admission order, at any pool
//! width, because admission order is channel order and the tick loop
//! preserves per-tenant FIFO.
//!
//! [`Saturation`]: PacingPolicy::Saturation
//! [`Deadline`]: PacingPolicy::Deadline
//! [`Manual`]: PacingPolicy::Manual
//!
//! # Example
//!
//! ```
//! use mercury_core::MercuryConfig;
//! use mercury_serve::{EpochPolicy, ServeConfig, Server};
//! use mercury_tensor::{rng::Rng, Tensor};
//!
//! let config = ServeConfig::builder()
//!     .queue_capacity(16)
//!     .batch_window(4)
//!     .build()
//!     .unwrap();
//! let mut server = Server::new(config).unwrap();
//!
//! let tenant = server
//!     .register_tenant("vision", MercuryConfig::default(), 42, EpochPolicy::Never)
//!     .unwrap();
//! let mut rng = Rng::new(42);
//! let layer = server
//!     .register_fc(tenant, Tensor::randn(&[8, 4], &mut rng))
//!     .unwrap();
//!
//! // Service mode: the server runs on its own thread; this thread is
//! // just a client.
//! let handle = server.serve();
//! let client = handle.client();
//! let ticket = client
//!     .submit(tenant, layer, Tensor::randn(&[2, 8], &mut rng))
//!     .unwrap();
//! let forward = ticket.wait().unwrap();
//! assert_eq!(forward.output.shape(), &[2, 4]);
//!
//! // Shutdown drains in-flight work and returns the warm server.
//! let server = handle.shutdown();
//! assert_eq!(server.served(tenant), Some(1));
//! ```

#![warn(missing_docs)]

mod client;
mod config;
mod error;
mod ingress;
mod server;

pub use client::{ServeClient, Ticket};
pub use config::{
    EpochPolicy, PacingPolicy, RecoveryPolicy, ServeConfig, ServeConfigBuilder, ServeConfigError,
};
pub use error::ServeError;
pub use ingress::ServeHandle;
pub use server::{
    Completion, Eviction, RequestId, Server, TenantId, TickReport, EVICTION_LOG_CAPACITY,
};

// Re-exported so downstream code can name the session types the server
// hands back without a separate `mercury-core` dependency line.
pub use mercury_core::{LayerForward, LayerId, MercuryConfig, MercuryError, MercurySession};
