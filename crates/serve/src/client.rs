//! Client-side surface of the channel-driven ingress: cheap handles
//! that submit work into the service thread and tickets that collect
//! the answers.
//!
//! A [`ServeClient`] is the data plane: a sender into the service
//! thread's bounded ingress channel, nothing more, so clones are free
//! and share nothing but that channel. Each [`ServeClient::submit`]
//! opens one reply channel for its request. The service thread sends
//! the admission verdict down it, then the completion; `submit` reads
//! the verdict, and the [`Ticket`] it returns holds the receiving end.
//! `wait` is a blocking `recv`, `try_take` a `try_recv`. Tickets are
//! consumed on redemption, so "read the same completion twice" is
//! unrepresentable, and a dropped ticket drops its receiver, so its
//! completion is freed as soon as the service thread sends it.

use crate::error::ServeError;
use crate::ingress::{Msg, Reply};
use crate::server::RequestId;
use crate::TenantId;
use mercury_core::{LayerForward, LayerId};
use mercury_tensor::Tensor;
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError};

/// A one-shot claim on the completion of one submitted request.
///
/// Obtained from [`ServeClient::submit`]. Redeem it with
/// [`wait`](Self::wait) (blocking) or [`try_take`](Self::try_take)
/// (non-blocking); both consume the ticket, so a completion can be
/// claimed exactly once. The ticket is the receiving end of its
/// request's reply channel, so it stays valid across clones and drops
/// of the originating client.
#[derive(Debug)]
pub struct Ticket {
    id: RequestId,
    replies: Receiver<Reply>,
}

impl Ticket {
    /// Reads a request's admission verdict off its reply channel: the
    /// ticket if the request was admitted, the typed refusal if not, and
    /// [`ServeError::Stopped`] if the service thread dropped the sender
    /// without answering.
    pub(crate) fn admitted(replies: Receiver<Reply>) -> Result<Ticket, ServeError> {
        let Ok(Reply::Admitted(verdict)) = replies.recv() else {
            return Err(ServeError::Stopped);
        };
        Ok(Ticket {
            id: verdict?,
            replies,
        })
    }

    /// The id this ticket redeems — the same value the synchronous
    /// [`enqueue`](crate::Server::enqueue) path would have returned,
    /// with the stable `tenant#<i>/req#<seq>` display form for logs.
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// Blocks until the request completes and returns its result.
    ///
    /// Per-request session failures (rejected input, poisoned layer)
    /// surface as [`ServeError::Session`] — exactly the error the
    /// request's [`Completion`](crate::Completion) carried. Returns
    /// [`ServeError::Stopped`] only if the service thread died before
    /// serving this request; a clean [`shutdown`] drains all admitted
    /// work first, so tickets from successful submits never see it.
    ///
    /// [`shutdown`]: crate::ServeHandle::shutdown
    pub fn wait(self) -> Result<LayerForward, ServeError> {
        completion(self.replies.recv().ok())
    }

    /// Non-blocking poll: returns the result if the request has
    /// completed (consuming the ticket), or hands the ticket back if it
    /// is still in flight.
    ///
    /// Like [`wait`](Self::wait), resolves to
    /// [`Err(ServeError::Stopped)`](ServeError::Stopped) when the
    /// service thread died before serving this request.
    #[allow(clippy::result_large_err)]
    pub fn try_take(self) -> Result<Result<LayerForward, ServeError>, Ticket> {
        match self.replies.try_recv() {
            Err(TryRecvError::Empty) => Err(self),
            reply => Ok(completion(reply.ok())),
        }
    }
}

/// The completion in a ticket's next reply. `submit` has read the
/// verdict, so that reply is the `Done`, or nothing (`None`) once the
/// service thread has dropped the sender without serving the request. A
/// `Done` sent before the drop is still received first.
fn completion(reply: Option<Reply>) -> Result<LayerForward, ServeError> {
    match reply {
        Some(Reply::Done(result)) => result.map_err(ServeError::Session),
        _ => Err(ServeError::Stopped),
    }
}

/// A cheap, cloneable handle for submitting work to a serving endpoint.
///
/// Obtained from [`ServeHandle::client`](crate::ServeHandle::client).
/// A client is a sender into the ingress channel; each
/// [`submit`](Self::submit) opens its own reply channel, and the
/// returned [`Ticket`] redeems that request's completion from it. Clones
/// share only the ingress channel — hand one to each submitting thread.
///
/// Admission is synchronous: `submit` does not return until the service
/// thread has either admitted the request (yielding its [`RequestId`]
/// inside the ticket) or refused it with a typed error — so
/// [`ServeError::QueueFull`] backpressure lands at the submit call
/// site, exactly where the caller can decide to retry, shed, or slow
/// down.
#[derive(Clone, Debug)]
pub struct ServeClient {
    tx: SyncSender<Msg>,
}

impl ServeClient {
    pub(crate) fn new(tx: SyncSender<Msg>) -> Self {
        ServeClient { tx }
    }

    /// Submits one request and returns the ticket that redeems its
    /// completion.
    ///
    /// Blocks for the admission round-trip only (never for service):
    /// the service thread runs the same bounded-queue admission as the
    /// synchronous [`enqueue`](crate::Server::enqueue), so the error
    /// surface is identical — [`ServeError::QueueFull`] under
    /// backpressure, [`ServeError::UnknownTenant`] /
    /// [`ServeError::Session`] for bad routes — plus
    /// [`ServeError::Stopped`] if the endpoint shut down before this
    /// request was admitted.
    ///
    /// Requests admitted through one client are served in submission
    /// order; the per-tenant determinism law (completions bit-identical
    /// to a dedicated synchronous replay of admission order) holds
    /// across any mix of clients, executors, and pacing policies.
    pub fn submit(
        &self,
        tenant: TenantId,
        layer: LayerId,
        input: Tensor,
    ) -> Result<Ticket, ServeError> {
        let (reply, replies) = Reply::channel();
        self.tx
            .send(Msg::Submit {
                tenant,
                layer,
                input,
                reply,
            })
            .map_err(|_| ServeError::Stopped)?;
        Ticket::admitted(replies)
    }
}
