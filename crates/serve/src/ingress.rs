//! The service thread behind the channel-driven ingress: owns the
//! [`Server`], drains the bounded MPSC channel, runs the synchronous
//! tick loop under the configured [`PacingPolicy`], and sends each
//! completion down the reply channel of the request it answers.
//!
//! The design keeps the determinism law trivially true: **admission
//! order is channel order**. One consumer thread performs every
//! [`enqueue`](Server::enqueue), so each tenant's queue sees the same
//! FIFO admission stream a synchronous caller would have produced, and
//! [`tick`](Server::tick) already guarantees completions bit-identical
//! to a dedicated replay of that stream at any pool width. Pacing
//! therefore only moves *when* ticks happen — a latency/throughput
//! knob — never *what* any request computes.

use crate::client::ServeClient;
use crate::config::PacingPolicy;
use crate::error::ServeError;
use crate::server::{RequestId, Server, TickReport};
use crate::TenantId;
use mercury_core::{LayerForward, LayerId, MercuryError};
use mercury_tensor::Tensor;
use std::collections::HashMap;
use std::fmt;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Messages on the ingress channel. `Submit` carries the request's own
/// reply channel, so admission verdicts (including `QueueFull`) land
/// synchronously at the submit call site and the completion follows on
/// the same channel; `TickNow` is the manual pacing lever; `Shutdown`
/// starts the drain.
pub(crate) enum Msg {
    Submit {
        tenant: TenantId,
        layer: LayerId,
        input: Tensor,
        reply: SyncSender<Reply>,
    },
    TickNow {
        reply: SyncSender<TickReport>,
    },
    Shutdown,
}

/// What the service thread sends down a request's reply channel: the
/// admission verdict, then, for an admitted request, its completion.
pub(crate) enum Reply {
    Admitted(Result<RequestId, ServeError>),
    Done(Result<LayerForward, MercuryError>),
}

impl Reply {
    /// A request's reply channel. Two slots, one per reply: a tick can
    /// finish before the client reads its verdict, and the service
    /// thread never blocks on a client.
    pub(crate) fn channel() -> (SyncSender<Reply>, Receiver<Reply>) {
        sync_channel(2)
    }
}

/// The reply senders of admitted requests still owed a completion. If
/// the service thread unwinds (an engine panic mid-tick), dropping the
/// table drops every sender in it, so each waiting ticket's channel
/// disconnects and resolves to `Stopped`: no `Ticket::wait` ever hangs
/// on a dead thread.
#[derive(Default)]
struct Routes {
    by_request: HashMap<RequestId, SyncSender<Reply>>,
}

impl Routes {
    /// Ticks the server once and sends each completion down the reply
    /// channel its submit left here. A dropped ticket fails the send,
    /// which frees the completion. Completions for requests that were
    /// enqueued outside the handle path (synchronous embedding calls
    /// made before [`Server::serve`]) have no route and are discarded.
    fn tick(&mut self, server: &mut Server) -> TickReport {
        let report = server.tick();
        for completion in server.drain_completions() {
            if let Some(reply) = self.by_request.remove(&completion.id) {
                let _ = reply.send(Reply::Done(completion.result));
            }
        }
        report
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
/// synchronous admission path and answer down their reply channel;
/// `TickNow` ticks immediately (under any pacing policy — it is the
/// *only* tick source under [`PacingPolicy::Manual`], and a harmless
/// extra tick otherwise) and returns the report.
fn handle_msg(server: &mut Server, routes: &mut Routes, msg: Msg) -> Flow {
    match msg {
        Msg::Submit {
            tenant,
            layer,
            input,
            reply,
        } => {
            let verdict = server.enqueue(tenant, layer, input);
            let admitted = verdict.as_ref().ok().copied();
            // A client that gave up on the rendezvous just means nobody
            // is listening: the request (if admitted) still serves, and
            // with no route its completion is discarded.
            if let (Some(id), Ok(())) = (admitted, reply.send(Reply::Admitted(verdict))) {
                routes.by_request.insert(id, reply);
            }
            Flow::Continue
        }
        Msg::TickNow { reply } => {
            let _ = reply.send(routes.tick(server));
            Flow::Continue
        }
        Msg::Shutdown => Flow::Stop,
    }
}

/// The pacing loop, the same for every [`PacingPolicy`]: the policies
/// differ only in how long it waits for the next message before ticking
/// what is queued.
///
/// * Nothing queued, or [`Manual`](PacingPolicy::Manual) pacing: block
///   until a message arrives (under `Manual` only
///   [`tick_now`](ServeHandle::tick_now) ticks).
/// * A tenant's batching window is full: tick before reading more, since
///   waiting cannot grow that batch.
/// * [`Saturation`](PacingPolicy::Saturation): read without waiting, and
///   tick when the channel is dry.
/// * [`Deadline(d)`](PacingPolicy::Deadline): work first queued after a
///   tick or an idle spell opens a window of `d`; tick when it passes.
///
/// Returns on `Shutdown` or once every sender is gone.
fn pace(server: &mut Server, rx: &Receiver<Msg>, routes: &mut Routes) {
    let pacing = server.config().pacing;
    // When the open window closes under `Deadline` pacing.
    let mut due = None;
    loop {
        let queued = pacing != PacingPolicy::Manual && server.has_queued();
        if queued && server.window_filled() {
            routes.tick(server);
            due = None;
            continue;
        }
        // `Timeout` means "stop waiting and tick".
        let received = if !queued {
            due = None;
            rx.recv().map_err(|_| RecvTimeoutError::Disconnected)
        } else if let PacingPolicy::Deadline(window) = pacing {
            let due = *due.get_or_insert_with(|| Instant::now() + window);
            rx.recv_timeout(due.saturating_duration_since(Instant::now()))
        } else {
            rx.try_recv().map_err(|e| match e {
                TryRecvError::Empty => RecvTimeoutError::Timeout,
                TryRecvError::Disconnected => RecvTimeoutError::Disconnected,
            })
        };
        match received {
            Ok(msg) => {
                if let Flow::Stop = handle_msg(server, routes, msg) {
                    return;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                routes.tick(server);
                due = None;
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// The service thread body: run the pacing loop until shutdown (or
/// every handle and client is gone), then drain all admitted work so
/// no ticket is left unanswered, and hand the server back.
fn service(mut server: Server, rx: Receiver<Msg>) -> Server {
    let mut routes = Routes::default();
    pace(&mut server, &rx, &mut routes);
    // Shutdown drain: everything admitted before the stop point serves
    // to completion — zero lost completions, regardless of pacing.
    while server.has_queued() {
        routes.tick(&mut server);
    }
    // Dropping `rx` here answers any submit still racing in the channel
    // with `Stopped` (its reply sender is dropped unused).
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
    /// Mints a new client: a sender into the ingress channel. Hand one
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EpochPolicy, ServeConfig, Ticket};
    use mercury_core::MercuryConfig;
    use mercury_tensor::rng::Rng;
    use std::time::Duration;

    #[test]
    fn a_full_window_ticks_without_waiting_for_the_deadline() {
        // Under an hour-long deadline only the full-window trigger can
        // serve these two requests in time.
        let config = ServeConfig::builder()
            .batch_window(2)
            .pacing(PacingPolicy::Deadline(Duration::from_secs(3600)))
            .build()
            .unwrap();
        let mut server = Server::new(config).unwrap();
        let tenant = server
            .register_tenant("t", MercuryConfig::default(), 1, EpochPolicy::Never)
            .unwrap();
        let mut rng = Rng::new(1);
        let layer = server
            .register_fc(tenant, Tensor::randn(&[8, 4], &mut rng))
            .unwrap();
        let handle = server.serve();
        let client = handle.client();
        let mut pending: Vec<_> = (0..2)
            .map(|_| {
                client
                    .submit(tenant, layer, Tensor::randn(&[1, 8], &mut rng))
                    .unwrap()
            })
            .collect();
        let give_up = Instant::now() + Duration::from_secs(10);
        while let Some(ticket) = pending.pop() {
            match ticket.try_take() {
                Ok(result) => assert!(result.is_ok()),
                Err(ticket) => {
                    assert!(
                        Instant::now() < give_up,
                        "a full window waited for the deadline"
                    );
                    pending.push(ticket);
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        }
        let server = handle.shutdown();
        assert_eq!(server.ticks(), 1, "one tick served the full window");
    }

    /// An embedded server with one FC tenant and its route table, driven
    /// by hand as the service thread drives them.
    struct Embedded {
        server: Server,
        routes: Routes,
        tenant: TenantId,
        layer: LayerId,
    }

    impl Embedded {
        fn new() -> Self {
            let mut server = Server::new(ServeConfig::default()).unwrap();
            let tenant = server
                .register_tenant("t", MercuryConfig::default(), 3, EpochPolicy::Never)
                .unwrap();
            let layer = server
                .register_fc(tenant, Tensor::randn(&[8, 4], &mut Rng::new(3)))
                .unwrap();
            Embedded {
                server,
                routes: Routes::default(),
                tenant,
                layer,
            }
        }

        /// Runs one submit through `handle_msg` and returns its reply
        /// channel's receiving end, verdict unread.
        fn submit(&mut self) -> Receiver<Reply> {
            let (reply, replies) = Reply::channel();
            let msg = Msg::Submit {
                tenant: self.tenant,
                layer: self.layer,
                input: Tensor::randn(&[1, 8], &mut Rng::new(4)),
                reply,
            };
            let flow = handle_msg(&mut self.server, &mut self.routes, msg);
            assert!(matches!(flow, Flow::Continue));
            replies
        }

        /// Submits one request and reads its verdict, as
        /// `ServeClient::submit` does.
        fn ticket(&mut self) -> Ticket {
            Ticket::admitted(self.submit()).unwrap()
        }
    }

    #[test]
    fn dropping_the_route_table_stops_every_ticket_it_still_owes() {
        let mut e = Embedded::new();
        let waited = e.ticket();
        let Err(polled) = e.ticket().try_take() else {
            panic!("nothing is served yet");
        };
        // What an unwinding service thread does to its route table.
        drop(e.routes);
        assert!(matches!(polled.try_take(), Ok(Err(ServeError::Stopped))));
        assert!(matches!(waited.wait(), Err(ServeError::Stopped)));
    }

    #[test]
    fn a_completion_sent_before_the_route_table_drops_is_still_returned() {
        let mut e = Embedded::new();
        let (waited, polled) = (e.ticket(), e.ticket());
        assert_eq!(e.routes.tick(&mut e.server).completed, 2);
        let unserved = e.ticket();
        drop(e.routes);
        assert_eq!(waited.wait().unwrap().output.shape(), &[1, 4]);
        assert_eq!(polled.try_take().unwrap().unwrap().output.shape(), &[1, 4]);
        assert!(matches!(unserved.try_take(), Ok(Err(ServeError::Stopped))));
    }

    #[test]
    fn a_tick_never_blocks_on_a_client_and_leaves_no_route_behind() {
        let mut e = Embedded::new();
        // One client drops its receiver after reading the verdict; the
        // other has not read its verdict yet when the tick completes it.
        let dropped = e.submit();
        assert!(matches!(dropped.recv(), Ok(Reply::Admitted(Ok(_)))));
        drop(dropped);
        let unread = e.submit();
        assert_eq!(e.routes.by_request.len(), 2);

        // The tick runs on a thread of its own, so a send that blocked
        // would fail this test instead of hanging it.
        let (done_tx, done_rx) = sync_channel(1);
        let tick = std::thread::spawn(move || {
            let report = e.routes.tick(&mut e.server);
            done_tx.send(()).unwrap();
            (report, e.routes)
        });
        done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the tick blocked on a client");
        let (report, routes) = tick.join().unwrap();
        assert_eq!(report.completed, 2);
        assert!(routes.by_request.is_empty());
        assert!(matches!(unread.recv(), Ok(Reply::Admitted(Ok(_)))));
        assert!(matches!(unread.recv(), Ok(Reply::Done(Ok(_)))));
    }
}
