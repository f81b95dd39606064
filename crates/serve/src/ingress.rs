//! The service thread behind the channel-driven ingress: owns the
//! [`Server`], drains the bounded MPSC channel, runs the synchronous
//! tick loop under the configured [`PacingPolicy`], and routes each
//! completion to the mailbox of the client that submitted it.
//!
//! The design keeps the determinism law trivially true: **admission
//! order is channel order**. One consumer thread performs every
//! [`enqueue`](Server::enqueue), so each tenant's queue sees the same
//! FIFO admission stream a synchronous caller would have produced, and
//! [`tick`](Server::tick) already guarantees completions bit-identical
//! to a dedicated replay of that stream at any pool width. Pacing
//! therefore only moves *when* ticks happen — a latency/throughput
//! knob — never *what* any request computes.

use crate::client::{Mailbox, ServeClient};
use crate::config::PacingPolicy;
use crate::error::ServeError;
use crate::server::{RequestId, Server, TickReport};
use crate::TenantId;
use mercury_core::LayerId;
use mercury_tensor::Tensor;
use std::collections::HashMap;
use std::fmt;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Messages on the ingress channel. `Submit` carries a rendezvous
/// reply channel so admission verdicts (including `QueueFull`) land
/// synchronously at the submit call site; `TickNow` is the manual
/// pacing lever; `Shutdown` starts the drain.
pub(crate) enum Msg {
    Submit {
        tenant: TenantId,
        layer: LayerId,
        input: Tensor,
        mailbox: Arc<Mailbox>,
        reply: SyncSender<Result<RequestId, ServeError>>,
    },
    TickNow {
        reply: SyncSender<TickReport>,
    },
    Shutdown,
}

/// Routing table from admitted requests to the mailboxes awaiting
/// them, wrapped in a drop guard: if the service thread unwinds (an
/// engine panic mid-tick), `Drop` closes every mailbox still owed a
/// delivery, so no `Ticket::wait` ever hangs on a dead thread.
#[derive(Default)]
struct Routes {
    by_request: HashMap<RequestId, Arc<Mailbox>>,
}

impl Routes {
    fn bind(&mut self, id: RequestId, mailbox: Arc<Mailbox>) {
        self.by_request.insert(id, mailbox);
    }

    /// Drains the server's completion buffer and delivers each result
    /// to the mailbox its submit bound. Completions for requests that
    /// were enqueued outside the handle path (synchronous embedding
    /// calls made before [`Server::serve`]) have no route and are
    /// discarded.
    fn deliver(&mut self, server: &mut Server) {
        for completion in server.drain_completions() {
            if let Some(mailbox) = self.by_request.remove(&completion.id) {
                mailbox.deliver(completion.id, completion.result);
            }
        }
    }
}

impl Drop for Routes {
    fn drop(&mut self) {
        for mailbox in self.by_request.values() {
            mailbox.close();
        }
    }
}

/// What [`handle_msg`] tells the pacing loop to do next.
enum Flow {
    /// Keep serving.
    Continue,
    /// `Shutdown` received: leave the loop and drain.
    Stop,
}

/// Applies one channel message to the server. Submissions run the
/// synchronous admission path and answer through the rendezvous reply;
/// `TickNow` ticks immediately (under any pacing policy — it is the
/// *only* tick source under [`PacingPolicy::Manual`], and a harmless
/// extra tick otherwise) and returns the report.
fn handle_msg(server: &mut Server, routes: &mut Routes, msg: Msg) -> Flow {
    match msg {
        Msg::Submit {
            tenant,
            layer,
            input,
            mailbox,
            reply,
        } => {
            let verdict = server.enqueue(tenant, layer, input);
            if let Ok(id) = &verdict {
                routes.bind(*id, mailbox);
            }
            // A client that gave up on the rendezvous just means nobody
            // is listening for the verdict; the request (if admitted)
            // still serves and its completion still routes.
            let _ = reply.send(verdict);
            Flow::Continue
        }
        Msg::TickNow { reply } => {
            let report = server.tick();
            routes.deliver(server);
            let _ = reply.send(report);
            Flow::Continue
        }
        Msg::Shutdown => Flow::Stop,
    }
}

/// Saturation pacing: absorb whatever is already on the channel, tick
/// as soon as a batching window fills or the channel runs dry with work
/// queued, and block only when there is nothing to do.
fn run_saturation(server: &mut Server, rx: &Receiver<Msg>, routes: &mut Routes) {
    loop {
        // Absorb the channel's backlog without blocking, stopping early
        // once some tenant's window is full — that batch is ready now.
        loop {
            match rx.try_recv() {
                Ok(msg) => match handle_msg(server, routes, msg) {
                    Flow::Continue => {
                        if server.window_filled() {
                            break;
                        }
                    }
                    Flow::Stop => return,
                },
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return,
            }
        }
        if server.has_queued() {
            server.tick();
            routes.deliver(server);
        } else {
            // Idle: park until the next message instead of spinning.
            match rx.recv() {
                Ok(msg) => {
                    if let Flow::Stop = handle_msg(server, routes, msg) {
                        return;
                    }
                }
                Err(_) => return,
            }
        }
    }
}

/// Deadline pacing: the first admitted request opens a wall-clock
/// window of `budget`; the thread keeps absorbing submissions until the
/// window fills or the deadline passes, then ticks. Trades per-request
/// latency for larger (more reuse-friendly) batches under light load.
fn run_deadline(
    server: &mut Server,
    rx: &Receiver<Msg>,
    routes: &mut Routes,
    budget: std::time::Duration,
) {
    'serve: loop {
        if !server.has_queued() {
            // Idle: park until work (or a control message) arrives.
            match rx.recv() {
                Ok(msg) => {
                    if let Flow::Stop = handle_msg(server, routes, msg) {
                        return;
                    }
                }
                Err(_) => return,
            }
            continue;
        }
        let deadline = Instant::now() + budget;
        while !server.window_filled() {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(msg) => {
                    if let Flow::Stop = handle_msg(server, routes, msg) {
                        return;
                    }
                }
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => break 'serve,
            }
        }
        server.tick();
        routes.deliver(server);
    }
}

/// Manual pacing: the thread only admits and answers control messages;
/// every tick is an explicit [`ServeHandle::tick_now`]. Queues fill
/// until then, so sustained submission without ticking surfaces
/// [`ServeError::QueueFull`] — by design.
fn run_manual(server: &mut Server, rx: &Receiver<Msg>, routes: &mut Routes) {
    loop {
        match rx.recv() {
            Ok(msg) => {
                if let Flow::Stop = handle_msg(server, routes, msg) {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// The service thread body: run the pacing loop until shutdown (or
/// every handle and client is gone), then drain all admitted work so
/// no ticket is left unanswered, and hand the server back.
fn service(mut server: Server, rx: Receiver<Msg>) -> Server {
    let mut routes = Routes::default();
    match server.config().pacing {
        PacingPolicy::Saturation => run_saturation(&mut server, &rx, &mut routes),
        PacingPolicy::Deadline(budget) => run_deadline(&mut server, &rx, &mut routes, budget),
        PacingPolicy::Manual => run_manual(&mut server, &rx, &mut routes),
    }
    // Shutdown drain: everything admitted before the stop point serves
    // to completion — zero lost completions, regardless of pacing.
    while server.has_queued() {
        server.tick();
        routes.deliver(&mut server);
    }
    // Dropping `rx` here answers any submit still racing in the channel
    // with `Stopped` (its rendezvous reply sender is dropped unused).
    server
}

/// Owner handle for a serving endpoint running on its own thread.
///
/// Created by [`Server::serve`]. The handle is the *control plane*:
/// mint data-plane [`ServeClient`]s with [`client`](Self::client),
/// force a tick with [`tick_now`](Self::tick_now) (the only tick source
/// under [`PacingPolicy::Manual`]), and stop the endpoint with
/// [`shutdown`](Self::shutdown), which drains all admitted work and
/// returns the [`Server`] for inspection or re-embedding.
///
/// Dropping the handle without calling `shutdown` performs the same
/// drain but discards the server.
pub struct ServeHandle {
    tx: SyncSender<Msg>,
    thread: Option<JoinHandle<Server>>,
}

impl ServeHandle {
    /// Mints a new client with its own completion mailbox. Hand one
    /// (or a clone of one) to each submitting thread.
    pub fn client(&self) -> ServeClient {
        ServeClient::new(self.tx.clone())
    }

    /// Forces one service tick and returns its report — the explicit
    /// pacing lever for [`PacingPolicy::Manual`], and a harmless extra
    /// tick under the other policies. An idle tick (nothing queued)
    /// reports [`idle`](TickReport::idle) and moves no state.
    pub fn tick_now(&self) -> Result<TickReport, ServeError> {
        let (reply_tx, reply_rx) = sync_channel(1);
        self.tx
            .send(Msg::TickNow { reply: reply_tx })
            .map_err(|_| ServeError::Stopped)?;
        reply_rx.recv().map_err(|_| ServeError::Stopped)
    }

    /// Stops the endpoint and returns the [`Server`].
    ///
    /// Work already admitted (any `submit` that returned a ticket)
    /// drains to completion first — no completion is lost or
    /// duplicated; submits that race past the shutdown point are
    /// refused with [`ServeError::Stopped`]. The returned server holds
    /// its tenants' warm sessions and eviction record, ready for
    /// inspection or another [`serve`](Server::serve).
    ///
    /// # Panics
    ///
    /// Re-raises the service thread's panic, if it died to one.
    pub fn shutdown(mut self) -> Server {
        let _ = self.tx.send(Msg::Shutdown);
        let thread = self
            .thread
            .take()
            .expect("shutdown consumes the handle; the thread is present until then");
        match thread.join() {
            Ok(server) => server,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

impl Drop for ServeHandle {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = self.tx.send(Msg::Shutdown);
            // Swallow the join result: a panicking drop path must not
            // double-panic, and the clean path has nothing to return.
            let _ = thread.join();
        }
    }
}

impl fmt::Debug for ServeHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeHandle")
            .field("running", &self.thread.is_some())
            .finish()
    }
}

impl Server {
    /// Moves the server onto a dedicated service thread and returns the
    /// [`ServeHandle`] that controls it.
    ///
    /// The thread owns the server outright and runs the synchronous
    /// embedding-mode loop ([`enqueue`](Self::enqueue) /
    /// [`tick`](Self::tick)) under the configured
    /// [`PacingPolicy`](crate::PacingPolicy); clients reach it through
    /// bounded channels, so the admission order — and therefore every
    /// answer — is exactly what a synchronous caller interleaving the
    /// same stream would have produced.
    ///
    /// Requests enqueued synchronously *before* this call are served by
    /// the thread too, but nothing is waiting on them: their
    /// completions are discarded. Drain them first
    /// ([`run_until_idle`](Self::run_until_idle)) if you need them.
    pub fn serve(self) -> ServeHandle {
        // The channel bound is backpressure of last resort: submits
        // rendezvous on admission anyway, so depth beyond the queue
        // capacity only buffers control messages and racing clients.
        let bound = self.config().queue_capacity.max(1);
        let (tx, rx) = sync_channel(bound);
        let thread = std::thread::Builder::new()
            .name("mercury-serve".into())
            .spawn(move || service(self, rx))
            .expect("spawning the mercury-serve service thread failed");
        ServeHandle {
            tx,
            thread: Some(thread),
        }
    }
}
