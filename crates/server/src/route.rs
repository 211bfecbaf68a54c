//! Response routing: how a completed command's answer travels back toward the
//! client that asked.
//!
//! The sequencer core does not know whether a client is an in-process test
//! handle or a socket owned by the reactor; it knows only that each registered
//! client has a [`ResponseRoute`]. Two implementations exist:
//!
//! * [`ChannelRoute`] — an mpsc channel, one per client. What
//!   [`ServerCore::register_client`](crate::ServerCore::register_client)
//!   creates; the embedding test blocks on the receiver.
//! * `QueueRoute` (in the server's reactor module) — one shared queue for every
//!   socket-backed client, plus a reactor waker rung when the queue goes
//!   non-empty, so the worker pool never blocks on socket writes and the
//!   reactor coalesces all responses that arrived since its last wakeup into
//!   one flush per connection.
//!
//! Delivery happens under the core's client-state lock, in completion order —
//! which (per the engine's aggregation rules) is log order, so each client's
//! responses are delivered in its request order no matter the route.

use kpg_sync::mpsc;
use kpg_wire::Response;

use crate::ClientId;

/// Where one client's responses go. Implementations must tolerate delivery
/// after the client has departed (drop the response) and must not block: a
/// route is invoked under the core's client-state lock.
pub trait ResponseRoute: Send + Sync {
    /// Delivers the response to `client`'s request number `reply`.
    fn deliver(&self, client: ClientId, reply: u64, response: Response);
}

/// The per-client channel route behind
/// [`ServerCore::register_client`](crate::ServerCore::register_client).
pub struct ChannelRoute {
    sender: mpsc::Sender<(u64, Response)>,
}

impl ChannelRoute {
    /// Wraps the sending half of a client's response channel.
    pub fn new(sender: mpsc::Sender<(u64, Response)>) -> ChannelRoute {
        ChannelRoute { sender }
    }
}

impl ResponseRoute for ChannelRoute {
    fn deliver(&self, _client: ClientId, reply: u64, response: Response) {
        // A send fails only if the receiver is gone — the client departed and
        // the response is moot.
        let _ = self.sender.send((reply, response));
    }
}

impl std::fmt::Debug for ChannelRoute {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelRoute").finish_non_exhaustive()
    }
}
