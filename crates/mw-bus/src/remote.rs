//! TCP bridging of pub/sub topics — the cross-process half of the
//! CORBA stand-in.
//!
//! The original MiddleWhere delivered trigger notifications to remote
//! Gaia applications over CORBA. Here a [`RemoteTopicServer`] exports one
//! typed topic over a TCP listener, and any number of
//! [`remote_subscribe`] clients (possibly in other processes) receive
//! every message published after they connect.
//!
//! # Protocol (v2)
//!
//! Frames (see [`crate::transport`]) carry a kind, a sequence number and
//! a checksum. A connection starts with a handshake: the client sends
//! `Hello(resume_from)` — `0` for "from now", otherwise the first
//! sequence number it still needs — and the server replies
//! `HelloAck(start)` with the sequence it will actually send from
//! (later than requested when history has been evicted from the replay
//! buffer). `Data` frames then carry one published message each, with
//! sequence numbers increasing by one; `Heartbeat` frames keep an idle
//! connection verifiably alive in both directions: the client uses them
//! to detect a dead server, and the server's periodic writes surface
//! broken sockets so dead peers are evicted.
//!
//! # Failure semantics
//!
//! - The client treats EOF, I/O errors, read timeouts (no data or
//!   heartbeat within the liveness window), checksum failures, and
//!   sequence gaps as a broken connection, reconnects with capped
//!   exponential backoff plus deterministic jitter, and resumes from the
//!   last sequence it delivered. Duplicate sequence numbers are
//!   discarded. Delivery to the local subscription is therefore
//!   *exactly-once, in order* for every message still in the server's
//!   replay window at reconnect time; messages evicted before the client
//!   could fetch them are counted in [`ClientStats::frames_lost`].
//! - Per-client server queues are bounded; a slow client loses the
//!   oldest queued frames first (counted in
//!   [`ServerStats::frames_dropped`]) and recovers them from the replay
//!   buffer when it notices the gap — or gives up on the evicted range.
//!
//! # Example
//!
//! ```
//! use mw_bus::{Broker, remote::{RemoteTopicServer, remote_subscribe}};
//!
//! let broker = Broker::new();
//! let topic = broker.topic::<String>("alerts");
//! let server = RemoteTopicServer::bind("127.0.0.1:0", topic.clone())?;
//! // `remote_subscribe` returns only after the server has acknowledged
//! // the subscription, so everything published from here on is
//! // delivered — no sleep needed.
//! let inbox = remote_subscribe::<String>(server.local_addr())?;
//! topic.publish("hello".to_string());
//! assert_eq!(inbox.recv_timeout(std::time::Duration::from_secs(2)), Some("hello".to_string()));
//! # Ok::<(), std::io::Error>(())
//! ```

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::queue::{BoundedQueue, OverflowPolicy, Pushed};
use crate::topic::{Publisher, Subscription};
use crate::transport::{wake_accept_loop, Frame, FrameKind, FrameTransport, TcpFrameTransport};

pub use crate::transport::MAX_FRAME_BYTES;

/// Tuning for a [`RemoteTopicServer`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// How often an idle per-client writer emits a `Heartbeat`. Writes
    /// to a dead socket fail, so this bounds how long a dead peer can
    /// stay registered.
    pub heartbeat_interval: Duration,
    /// Bound on each client's outbound frame queue; beyond it the
    /// oldest queued frame is dropped (and counted).
    pub client_queue_capacity: usize,
    /// How many recent frames are retained for resume-from-sequence
    /// replay after a client reconnects.
    pub replay_capacity: usize,
    /// How long a freshly accepted connection may take to send `Hello`.
    pub handshake_timeout: Duration,
    /// Registry the server's counters are published to (under
    /// `bus.server.*`). `None` keeps them private to
    /// [`RemoteTopicServer::stats`].
    pub metrics: Option<mw_obs::MetricsRegistry>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            heartbeat_interval: Duration::from_millis(250),
            client_queue_capacity: 256,
            replay_capacity: 1024,
            handshake_timeout: Duration::from_secs(1),
            metrics: None,
        }
    }
}

/// Counters exposed by [`RemoteTopicServer::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Successful handshakes over the server's lifetime.
    pub clients_connected: u64,
    /// Clients dropped after a send failure or missed heartbeat write.
    pub clients_evicted: u64,
    /// The subset of [`clients_evicted`](ServerStats::clients_evicted)
    /// proven dead by a failed *heartbeat* write: the peer went silent
    /// without an outstanding frame, and the liveness probe itself
    /// surfaced the broken socket. This is the server-side dead-peer
    /// detector the cluster directory leans on.
    pub evicted_peers: u64,
    /// Messages forwarded from the topic (sequence numbers assigned).
    pub frames_published: u64,
    /// Frames evicted from full per-client queues (slow-subscriber
    /// drops).
    pub frames_dropped: u64,
    /// Heartbeats written across all clients, counted as each write is
    /// issued.
    pub heartbeats_sent: u64,
    /// Connections that failed or garbled the handshake.
    pub handshake_failures: u64,
}

#[derive(Debug, Default)]
struct ServerCounters {
    clients_connected: mw_obs::Counter,
    clients_evicted: mw_obs::Counter,
    evicted_peers: mw_obs::Counter,
    frames_published: mw_obs::Counter,
    frames_dropped: mw_obs::Counter,
    heartbeats_sent: mw_obs::Counter,
    handshake_failures: mw_obs::Counter,
}

impl ServerCounters {
    /// Counters backed by `registry` under `bus.server.*`, so one
    /// [`mw_obs::Snapshot`] covers the bridge alongside the rest of the
    /// pipeline. Detached (`Default`) counters are used otherwise.
    fn new(registry: Option<&mw_obs::MetricsRegistry>) -> Self {
        match registry {
            None => ServerCounters::default(),
            Some(reg) => ServerCounters {
                clients_connected: reg.counter("bus.server.clients_connected"),
                clients_evicted: reg.counter("bus.server.clients_evicted"),
                evicted_peers: reg.counter("bus.server.evicted_peers"),
                frames_published: reg.counter("bus.server.frames_published"),
                frames_dropped: reg.counter("bus.server.frames_dropped"),
                heartbeats_sent: reg.counter("bus.server.heartbeats_sent"),
                handshake_failures: reg.counter("bus.server.handshake_failures"),
            },
        }
    }

    fn snapshot(&self) -> ServerStats {
        ServerStats {
            clients_connected: self.clients_connected.get(),
            clients_evicted: self.clients_evicted.get(),
            evicted_peers: self.evicted_peers.get(),
            frames_published: self.frames_published.get(),
            frames_dropped: self.frames_dropped.get(),
            heartbeats_sent: self.heartbeats_sent.get(),
            handshake_failures: self.handshake_failures.get(),
        }
    }
}

/// One registered client's outbound frames: the publishing thread pushes,
/// the client's writer thread parks on it.
type ClientQueue = BoundedQueue<Arc<Frame>>;

/// State shared between the topic's publishing threads and the
/// per-client threads. One lock covers sequence assignment, the replay
/// buffer, and the client registry so a registering client sees a
/// consistent snapshot. A publish takes it under the topic lock (lock
/// order: topic, then this, then a client queue's); nothing here takes
/// the topic lock.
#[derive(Debug, Default)]
struct ServerShared {
    /// Next sequence number to assign; sequence numbers start at 1.
    next_seq: u64,
    replay: VecDeque<Arc<Frame>>,
    clients: Vec<Arc<ClientQueue>>,
}

impl ServerShared {
    fn new() -> Self {
        ServerShared {
            next_seq: 1,
            replay: VecDeque::new(),
            clients: Vec::new(),
        }
    }
}

/// Exports one typed topic over TCP: every message published on the
/// topic after a client connects is forwarded to that client.
///
/// Forwarding runs on the thread that publishes; the server itself runs
/// one accept thread plus one writer thread per client.
#[derive(Debug)]
pub struct RemoteTopicServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    counters: Arc<ServerCounters>,
    shared: Arc<Mutex<ServerShared>>,
}

impl RemoteTopicServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// forwarding `topic` with default [`ServerOptions`].
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn bind<T>(addr: &str, topic: Publisher<T>) -> std::io::Result<Self>
    where
        T: Clone + Serialize + Send + 'static,
    {
        Self::bind_with(addr, topic, ServerOptions::default())
    }

    /// [`RemoteTopicServer::bind`] with explicit tuning.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn bind_with<T>(
        addr: &str,
        topic: Publisher<T>,
        options: ServerOptions,
    ) -> std::io::Result<Self>
    where
        T: Clone + Serialize + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(ServerCounters::new(options.metrics.as_ref()));
        let shared = Arc::new(Mutex::new(ServerShared::new()));

        // Forwarding runs on the publishing thread, under the topic lock
        // (so in publish order): sequence assignment -> replay buffer ->
        // per-client queues, each push waking that client's writer. It
        // is registered before anything is spawned, so no published
        // message can slip past it; `stop` unsubscribes it.
        {
            let counters = Arc::clone(&counters);
            let shared = Arc::clone(&shared);
            let replay_capacity = options.replay_capacity;
            topic.subscribe_sink(Arc::clone(&stop), move |message: &T| {
                // Encoded outside `shared`; the sequence number is
                // stamped under it. An unserializable message is skipped
                // without using one up.
                let Ok(mut frame) = Frame::data(0, message) else {
                    return;
                };
                let mut state = shared.lock();
                frame.seq = state.next_seq;
                state.next_seq += 1;
                let frame = Arc::new(frame);
                state.replay.push_back(Arc::clone(&frame));
                if state.replay.len() > replay_capacity {
                    state.replay.pop_front();
                }
                for client in &state.clients {
                    if client.push(Arc::clone(&frame)) == Pushed::EvictedOldest {
                        counters.frames_dropped.inc();
                    }
                }
                drop(state);
                counters.frames_published.inc();
            });
        }

        // Accept loop: hand each connection to its own handshake+writer
        // thread. It blocks in `accept`; `shutdown` unblocks it with a
        // connection of its own.
        {
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            let shared = Arc::clone(&shared);
            let options = options.clone();
            std::thread::spawn(move || {
                while let Ok((stream, _)) = listener.accept() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let stop = Arc::clone(&stop);
                    let counters = Arc::clone(&counters);
                    let shared = Arc::clone(&shared);
                    let options = options.clone();
                    std::thread::spawn(move || {
                        serve_client(stream, &stop, &counters, &shared, &options);
                    });
                }
            });
        }

        Ok(RemoteTopicServer {
            local_addr,
            stop,
            counters,
            shared,
        })
    }

    /// The address clients should connect to.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Lifetime counters for observability and tests.
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.counters.snapshot()
    }

    /// Number of currently registered clients.
    #[must_use]
    pub fn active_clients(&self) -> usize {
        self.shared.lock().clients.len()
    }

    /// Stops the accept and per-client threads (also done on drop), and
    /// unsubscribes the server from its topic: nothing more is forwarded,
    /// and the topic drops its forwarding sink (and with it the replay
    /// buffer) at its next publish or `live_subscriber_count`.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::Relaxed) {
            return;
        }
        // Writers park on their queues and the accept loop in `accept`;
        // neither looks at `stop` until woken.
        for client in &self.shared.lock().clients {
            client.close();
        }
        wake_accept_loop(self.local_addr);
    }
}

impl Drop for RemoteTopicServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Handshakes one accepted connection, then becomes its writer thread.
fn serve_client(
    stream: TcpStream,
    stop: &AtomicBool,
    counters: &ServerCounters,
    shared: &Mutex<ServerShared>,
    options: &ServerOptions,
) {
    let mut transport = TcpFrameTransport::new(stream);
    if transport
        .set_read_timeout(Some(options.handshake_timeout))
        .is_err()
    {
        counters.handshake_failures.inc();
        return;
    }
    // A corrupt or missing Hello kills only this connection; the
    // listener, the topic, and every other client continue untouched.
    let resume_from = match transport.recv() {
        Ok(Some(frame)) if frame.kind == FrameKind::Hello => frame.seq,
        _ => {
            counters.handshake_failures.inc();
            return;
        }
    };

    // Register under the shared lock so the preloaded replay frames and
    // the live forwarding stream meet without a gap or overlap.
    let (queue, start) = {
        let mut state = shared.lock();
        if stop.load(Ordering::Relaxed) {
            // `shutdown` has already closed the registered queues; this
            // one would park for a whole heartbeat interval unnoticed.
            return;
        }
        let preload: VecDeque<Arc<Frame>> = if resume_from == 0 {
            // Fresh subscriber: from now, no history.
            VecDeque::new()
        } else {
            // Resume: replay retained frames at or after the requested
            // sequence. Preloading bypasses the queue bound on purpose —
            // clipping the replay would just force another reconnect.
            let resumed = state.replay.iter().filter(|f| f.seq >= resume_from);
            resumed.cloned().collect()
        };
        let start = preload.front().map_or(state.next_seq, |f| f.seq);
        let queue = Arc::new(ClientQueue::new(
            preload,
            options.client_queue_capacity,
            OverflowPolicy::DropOldest,
        ));
        state.clients.push(Arc::clone(&queue));
        (queue, start)
    };

    if transport
        .send(&Frame::control(FrameKind::HelloAck, start))
        .is_err()
    {
        unregister(shared, &queue);
        counters.handshake_failures.inc();
        return;
    }
    counters.clients_connected.inc();

    // Writer loop: park until a publish queues a frame or the
    // next heartbeat is due, whichever is first; evict on any write
    // failure. A failed *data* write and a failed *heartbeat*
    // write are counted apart: the latter means the liveness probe
    // itself proved the peer dead (`evicted_peers`), which is what a
    // cluster directory watches to declare a node gone.
    #[derive(PartialEq)]
    enum Eviction {
        None,
        SendFailure,
        DeadPeer,
    }
    let mut last_write = Instant::now();
    let mut last_seq_sent = start.saturating_sub(1);
    let evicted = loop {
        // An interval too long for the clock to represent: no heartbeat.
        let heartbeat_due = last_write.checked_add(options.heartbeat_interval);
        let next = queue.pop_wait(heartbeat_due);
        if stop.load(Ordering::Relaxed) {
            break Eviction::None;
        }
        match next {
            Some(frame) => {
                if transport.send(&frame).is_err() {
                    break Eviction::SendFailure;
                }
                last_seq_sent = frame.seq;
            }
            // Empty-handed from a closed queue: nothing more will come.
            None if queue.is_closed() => break Eviction::None,
            // Otherwise the deadline passed. The heartbeat is counted
            // before it is written so that no client can have seen one
            // the server has yet to count.
            None => {
                counters.heartbeats_sent.inc();
                if transport
                    .send(&Frame::control(FrameKind::Heartbeat, last_seq_sent))
                    .is_err()
                {
                    break Eviction::DeadPeer;
                }
            }
        }
        last_write = Instant::now();
    };
    unregister(shared, &queue);
    match evicted {
        Eviction::None => {}
        Eviction::SendFailure => counters.clients_evicted.inc(),
        Eviction::DeadPeer => {
            counters.clients_evicted.inc();
            counters.evicted_peers.inc();
        }
    }
}

fn unregister(shared: &Mutex<ServerShared>, queue: &Arc<ClientQueue>) {
    shared.lock().clients.retain(|c| !Arc::ptr_eq(c, queue));
}

/// Tuning for [`remote_subscribe_with`] /
/// [`remote_subscribe_with_transport`].
#[derive(Debug, Clone)]
pub struct SubscribeOptions {
    /// First reconnect delay; doubles (capped) on consecutive failures.
    pub initial_backoff: Duration,
    /// Upper bound on the reconnect delay.
    pub max_backoff: Duration,
    /// Seed for the deterministic backoff jitter (each delay is scaled
    /// by a factor drawn from `[0.5, 1.0)`).
    pub jitter_seed: u64,
    /// Attempts for the *initial* connect before giving up and
    /// returning an error.
    pub connect_attempts: u32,
    /// Consecutive failed reconnect attempts (after the subscription was
    /// established) before the background thread gives up and ends the
    /// local subscription.
    pub max_redial_failures: u32,
    /// How long the handshake may take before an attempt counts as
    /// failed.
    pub handshake_timeout: Duration,
    /// Longest silence (no data, no heartbeat) before the server is
    /// presumed dead and the client reconnects. Must exceed the server's
    /// heartbeat interval.
    pub liveness_timeout: Duration,
    /// Registry the client's counters are published to (under
    /// `bus.client.*`). `None` keeps them private to
    /// [`RemoteSubscription::stats`].
    pub metrics: Option<mw_obs::MetricsRegistry>,
}

impl Default for SubscribeOptions {
    fn default() -> Self {
        SubscribeOptions {
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            jitter_seed: 0x6d77_6275_735f_6a31, // stable default jitter stream
            connect_attempts: 1,
            max_redial_failures: 10,
            handshake_timeout: Duration::from_secs(1),
            liveness_timeout: Duration::from_secs(2),
            metrics: None,
        }
    }
}

/// Counters exposed by [`RemoteSubscription::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientStats {
    /// Reconnections performed after the subscription was established.
    pub reconnects: u64,
    /// Frames discarded because their sequence number was already
    /// delivered (redundant delivery, e.g. duplicated frames).
    pub duplicates_discarded: u64,
    /// Sequence gaps observed (each triggers a reconnect-and-resume).
    pub gaps_detected: u64,
    /// Frames rejected for checksum/parse failures (each triggers a
    /// reconnect).
    pub corrupt_frames: u64,
    /// Heartbeats received.
    pub heartbeats_received: u64,
    /// Messages irrecoverably lost: evicted from the server's replay
    /// buffer before this client could fetch them.
    pub frames_lost: u64,
}

#[derive(Debug, Default)]
struct ClientCounters {
    reconnects: mw_obs::Counter,
    duplicates_discarded: mw_obs::Counter,
    gaps_detected: mw_obs::Counter,
    corrupt_frames: mw_obs::Counter,
    heartbeats_received: mw_obs::Counter,
    frames_lost: mw_obs::Counter,
}

impl ClientCounters {
    /// Counters backed by `registry` under `bus.client.*`; detached
    /// (`Default`) counters otherwise.
    fn new(registry: Option<&mw_obs::MetricsRegistry>) -> Self {
        match registry {
            None => ClientCounters::default(),
            Some(reg) => ClientCounters {
                reconnects: reg.counter("bus.client.reconnects"),
                duplicates_discarded: reg.counter("bus.client.duplicates_discarded"),
                gaps_detected: reg.counter("bus.client.gaps_detected"),
                corrupt_frames: reg.counter("bus.client.corrupt_frames"),
                heartbeats_received: reg.counter("bus.client.heartbeats_received"),
                frames_lost: reg.counter("bus.client.frames_lost"),
            },
        }
    }

    fn snapshot(&self) -> ClientStats {
        ClientStats {
            reconnects: self.reconnects.get(),
            duplicates_discarded: self.duplicates_discarded.get(),
            gaps_detected: self.gaps_detected.get(),
            corrupt_frames: self.corrupt_frames.get(),
            heartbeats_received: self.heartbeats_received.get(),
            frames_lost: self.frames_lost.get(),
        }
    }
}

/// One delivery on an event-aware remote subscription (see
/// [`remote_subscribe_events`]): either a message, or an **explicit
/// resync marker** for a range of messages that are gone for good.
///
/// The plain [`remote_subscribe`] stream silently skips messages that
/// were evicted from the server's replay buffer before the client could
/// resume (they are only visible in [`ClientStats::frames_lost`]).
/// Consumers that must *know* about a gap in-stream — a replica applying
/// ordered state deltas, an auditor — subscribe with the events API and
/// receive [`RemoteEvent::Lost`] at the exact stream position of the
/// gap, before the first message after it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteEvent<T> {
    /// The next message, in order.
    Data(T),
    /// `resumed_at - expected` messages were evicted from the server's
    /// replay buffer before this client could fetch them; the stream
    /// resumes at sequence `resumed_at`. Delivered *before* the first
    /// message after the gap, so a consumer can resynchronize out of
    /// band (e.g. refetch a full state snapshot) instead of applying
    /// deltas across a hole.
    Lost {
        /// First sequence number the client still needed.
        expected: u64,
        /// Sequence number the server could actually resume from.
        resumed_at: u64,
    },
}

impl<T> RemoteEvent<T> {
    /// The message, when this event carries one.
    #[must_use]
    pub fn data(self) -> Option<T> {
        match self {
            RemoteEvent::Data(message) => Some(message),
            RemoteEvent::Lost { .. } => None,
        }
    }

    /// `true` for a [`RemoteEvent::Lost`] resync marker.
    #[must_use]
    pub fn is_lost(&self) -> bool {
        matches!(self, RemoteEvent::Lost { .. })
    }
}

/// A remote subscription: a local [`Subscription`] fed over TCP, plus
/// resilience counters. Dereferences to the inner subscription.
#[derive(Debug)]
pub struct RemoteSubscription<T> {
    subscription: Subscription<T>,
    counters: Arc<ClientCounters>,
}

impl<T> RemoteSubscription<T> {
    /// Lifetime counters for observability and tests.
    #[must_use]
    pub fn stats(&self) -> ClientStats {
        self.counters.snapshot()
    }

    /// Unwraps the plain subscription, discarding the stats handle.
    #[must_use]
    pub fn into_subscription(self) -> Subscription<T> {
        self.subscription
    }
}

impl<T> std::ops::Deref for RemoteSubscription<T> {
    type Target = Subscription<T>;

    fn deref(&self) -> &Subscription<T> {
        &self.subscription
    }
}

/// Connects to a [`RemoteTopicServer`] and returns a local subscription
/// fed by the remote topic, with default [`SubscribeOptions`]. Returns
/// only after the server acknowledged the subscription: messages
/// published after this call returns will be delivered.
///
/// # Errors
///
/// Returns the connection or handshake error when the server is
/// unreachable.
pub fn remote_subscribe<T>(addr: SocketAddr) -> std::io::Result<Subscription<T>>
where
    T: Clone + DeserializeOwned + Send + 'static,
{
    remote_subscribe_with(addr, SubscribeOptions::default())
        .map(RemoteSubscription::into_subscription)
}

/// [`remote_subscribe`] with explicit tuning and access to resilience
/// counters.
///
/// # Errors
///
/// Returns the connection or handshake error when the server is
/// unreachable within `options.connect_attempts` attempts.
pub fn remote_subscribe_with<T>(
    addr: SocketAddr,
    options: SubscribeOptions,
) -> std::io::Result<RemoteSubscription<T>>
where
    T: Clone + DeserializeOwned + Send + 'static,
{
    remote_subscribe_with_transport(
        move || TcpFrameTransport::connect(addr).map(|t| Box::new(t) as Box<dyn FrameTransport>),
        options,
    )
}

/// [`remote_subscribe`] over a caller-supplied transport factory —
/// the hook the fault-injection layer uses: wrap each dialed transport
/// in a [`crate::fault::FaultInjector`] sharing one
/// [`crate::fault::FaultPlan`] across reconnects.
///
/// # Errors
///
/// Returns the last dial or handshake error when no connection could be
/// established within `options.connect_attempts` attempts.
pub fn remote_subscribe_with_transport<T, D>(
    dial: D,
    options: SubscribeOptions,
) -> std::io::Result<RemoteSubscription<T>>
where
    T: Clone + DeserializeOwned + Send + 'static,
    D: FnMut() -> std::io::Result<Box<dyn FrameTransport>> + Send + 'static,
{
    subscribe_inner::<T, T, D>(dial, options, |message| message, None)
}

/// [`remote_subscribe`] variant whose stream makes replay-buffer gaps
/// **explicit**: deliveries are [`RemoteEvent`]s, and a range of
/// messages evicted from the server's replay buffer before the client
/// could resume surfaces as [`RemoteEvent::Lost`] in-stream (at the
/// exact position of the gap) instead of only ticking
/// [`ClientStats::frames_lost`].
///
/// # Errors
///
/// Returns the connection or handshake error when the server is
/// unreachable.
pub fn remote_subscribe_events<T>(
    addr: SocketAddr,
) -> std::io::Result<RemoteSubscription<RemoteEvent<T>>>
where
    T: Clone + DeserializeOwned + Send + 'static,
{
    remote_subscribe_events_with(addr, SubscribeOptions::default())
}

/// [`remote_subscribe_events`] with explicit tuning.
///
/// # Errors
///
/// Returns the connection or handshake error when the server is
/// unreachable within `options.connect_attempts` attempts.
pub fn remote_subscribe_events_with<T>(
    addr: SocketAddr,
    options: SubscribeOptions,
) -> std::io::Result<RemoteSubscription<RemoteEvent<T>>>
where
    T: Clone + DeserializeOwned + Send + 'static,
{
    remote_subscribe_events_with_transport(
        move || TcpFrameTransport::connect(addr).map(|t| Box::new(t) as Box<dyn FrameTransport>),
        options,
    )
}

/// [`remote_subscribe_events`] over a caller-supplied transport factory
/// (see [`remote_subscribe_with_transport`]).
///
/// # Errors
///
/// Returns the last dial or handshake error when no connection could be
/// established within `options.connect_attempts` attempts.
pub fn remote_subscribe_events_with_transport<T, D>(
    dial: D,
    options: SubscribeOptions,
) -> std::io::Result<RemoteSubscription<RemoteEvent<T>>>
where
    T: Clone + DeserializeOwned + Send + 'static,
    D: FnMut() -> std::io::Result<Box<dyn FrameTransport>> + Send + 'static,
{
    subscribe_inner::<T, RemoteEvent<T>, D>(
        dial,
        options,
        RemoteEvent::Data,
        Some(|expected, resumed_at| RemoteEvent::Lost {
            expected,
            resumed_at,
        }),
    )
}

/// The shared subscriber worker behind the plain and event streams:
/// `wrap` lifts a decoded message into the delivered type, and
/// `on_lost` (when present) turns an irrecoverable replay gap into an
/// in-stream delivery.
fn subscribe_inner<T, E, D>(
    mut dial: D,
    options: SubscribeOptions,
    wrap: fn(T) -> E,
    on_lost: Option<fn(u64, u64) -> E>,
) -> std::io::Result<RemoteSubscription<E>>
where
    T: Clone + DeserializeOwned + Send + 'static,
    E: Clone + Send + 'static,
    D: FnMut() -> std::io::Result<Box<dyn FrameTransport>> + Send + 'static,
{
    let counters = Arc::new(ClientCounters::new(options.metrics.as_ref()));
    let mut backoff = Backoff::new(&options);

    // Initial connect, synchronous: the caller gets an error (not a
    // silently dead subscription) when the server is unreachable.
    let mut attempt = 0;
    let (mut transport, start) = loop {
        attempt += 1;
        match establish(&mut dial, 0, &options) {
            Ok(established) => break established,
            Err(e) if attempt >= options.connect_attempts => return Err(e),
            Err(_) => backoff.sleep(),
        }
    };
    backoff.reset();

    let publisher: Publisher<E> = Publisher::new();
    let subscription = publisher.subscribe();
    let thread_counters = Arc::clone(&counters);
    std::thread::spawn(move || {
        let counters = thread_counters;
        let mut last_seq = start.saturating_sub(1);
        'session: loop {
            if transport
                .set_read_timeout(Some(options.liveness_timeout))
                .is_err()
            {
                // fall through to reconnect
            } else {
                loop {
                    match transport.recv() {
                        Ok(Some(frame)) => match frame.kind {
                            FrameKind::Data => {
                                if frame.seq <= last_seq {
                                    counters.duplicates_discarded.inc();
                                    continue;
                                }
                                if frame.seq > last_seq + 1 {
                                    // A frame went missing (dropped in
                                    // transit or evicted from our queue):
                                    // reconnect and refill from replay.
                                    counters.gaps_detected.inc();
                                    break;
                                }
                                let Ok(message) = frame.decode::<T>() else {
                                    counters.corrupt_frames.inc();
                                    break;
                                };
                                if publisher.publish(wrap(message)) == 0 {
                                    return; // local subscriber gone
                                }
                                last_seq = frame.seq;
                            }
                            FrameKind::Heartbeat => {
                                counters.heartbeats_received.inc();
                                // The liveness check publishing provides
                                // for free, on an idle topic: stop (and
                                // close the connection) once the local
                                // subscriber is gone.
                                if publisher.live_subscriber_count() == 0 {
                                    return;
                                }
                            }
                            FrameKind::Hello | FrameKind::HelloAck => break, // protocol error
                        },
                        Ok(None) => break, // server closed cleanly
                        Err(e) => {
                            if e.kind() == std::io::ErrorKind::InvalidData {
                                counters.corrupt_frames.inc();
                            }
                            break;
                        }
                    }
                }
            }

            // Reconnect with capped exponential backoff + jitter,
            // resuming from the next undelivered sequence number.
            if publisher.live_subscriber_count() == 0 {
                return;
            }
            counters.reconnects.inc();
            let mut failures = 0;
            loop {
                backoff.sleep();
                match establish(&mut dial, last_seq + 1, &options) {
                    Ok((t, resumed_at)) => {
                        if resumed_at > last_seq + 1 {
                            // Messages in [last_seq + 1, resumed_at)
                            // were evicted from the server's replay
                            // buffer: irrecoverable. The counter always
                            // records the loss; the events stream also
                            // surfaces it in-band, *before* the first
                            // post-gap message, so no consumer has to
                            // infer a resync from a counter diff.
                            counters.frames_lost.add(resumed_at - (last_seq + 1));
                            if let Some(lost) = on_lost {
                                if publisher.publish(lost(last_seq + 1, resumed_at)) == 0 {
                                    return; // local subscriber gone
                                }
                            }
                            last_seq = resumed_at - 1;
                        }
                        transport = t;
                        backoff.reset();
                        continue 'session;
                    }
                    Err(_) => {
                        failures += 1;
                        if failures >= options.max_redial_failures {
                            return; // server presumed gone for good
                        }
                    }
                }
            }
        }
    });

    Ok(RemoteSubscription {
        subscription,
        counters,
    })
}

/// Dials and handshakes once: sends `Hello(resume_from)`, waits for
/// `HelloAck`, and returns the transport plus the sequence number the
/// server will send from.
fn establish(
    dial: &mut (impl FnMut() -> std::io::Result<Box<dyn FrameTransport>> + Send),
    resume_from: u64,
    options: &SubscribeOptions,
) -> std::io::Result<(Box<dyn FrameTransport>, u64)> {
    let mut transport = dial()?;
    transport.set_read_timeout(Some(options.handshake_timeout))?;
    transport.send(&Frame::control(FrameKind::Hello, resume_from))?;
    match transport.recv()? {
        Some(frame) if frame.kind == FrameKind::HelloAck => Ok((transport, frame.seq)),
        Some(other) => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("expected HelloAck, got {:?}", other.kind),
        )),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed during handshake",
        )),
    }
}

/// Capped exponential backoff with deterministic jitter.
struct Backoff {
    current: Duration,
    initial: Duration,
    max: Duration,
    rng: StdRng,
}

impl Backoff {
    fn new(options: &SubscribeOptions) -> Self {
        Backoff {
            current: options.initial_backoff,
            initial: options.initial_backoff,
            max: options.max_backoff,
            rng: StdRng::seed_from_u64(options.jitter_seed),
        }
    }

    fn reset(&mut self) {
        self.current = self.initial;
    }

    fn sleep(&mut self) {
        let jitter = self.rng.gen_range(0.5..1.0f64);
        std::thread::sleep(self.current.mul_f64(jitter));
        self.current = (self.current * 2).min(self.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultAction, FaultInjector, FaultPlan};
    use crate::Broker;

    fn wait_for<F: FnMut() -> bool>(mut cond: F, what: &str) {
        for _ in 0..500 {
            if cond() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("timed out waiting for {what}");
    }

    fn fast_options() -> SubscribeOptions {
        SubscribeOptions {
            initial_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(20),
            liveness_timeout: Duration::from_millis(500),
            ..SubscribeOptions::default()
        }
    }

    #[test]
    fn remote_delivery_end_to_end_without_sleeps() {
        let broker = Broker::new();
        let topic = broker.topic::<String>("remote-test");
        let server = RemoteTopicServer::bind("127.0.0.1:0", topic.clone()).unwrap();
        // The handshake is the synchronization point: no sleep needed.
        let inbox = remote_subscribe::<String>(server.local_addr()).unwrap();
        topic.publish("over the wire".into());
        let got = inbox.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got, "over the wire");
        assert_eq!(server.stats().clients_connected, 1);
    }

    #[test]
    fn multiple_remote_clients() {
        let broker = Broker::new();
        let topic = broker.topic::<u32>("fanout");
        let server = RemoteTopicServer::bind("127.0.0.1:0", topic.clone()).unwrap();
        let a = remote_subscribe::<u32>(server.local_addr()).unwrap();
        let b = remote_subscribe::<u32>(server.local_addr()).unwrap();
        topic.publish(7);
        assert_eq!(a.recv_timeout(Duration::from_secs(2)), Some(7));
        assert_eq!(b.recv_timeout(Duration::from_secs(2)), Some(7));
        assert_eq!(server.active_clients(), 2);
    }

    #[test]
    fn disconnected_client_does_not_break_the_topic() {
        let broker = Broker::new();
        let topic = broker.topic::<u32>("resilient");
        let server = RemoteTopicServer::bind_with(
            "127.0.0.1:0",
            topic.clone(),
            ServerOptions {
                heartbeat_interval: Duration::from_millis(20),
                ..ServerOptions::default()
            },
        )
        .unwrap();
        {
            let dead = remote_subscribe::<u32>(server.local_addr()).unwrap();
            drop(dead);
        }
        let live = remote_subscribe::<u32>(server.local_addr()).unwrap();
        for i in 0..10 {
            topic.publish(i);
        }
        assert_eq!(live.recv_timeout(Duration::from_secs(2)), Some(0));
        // Heartbeat writes to the dead socket eventually evict it.
        wait_for(|| server.stats().clients_evicted >= 1, "eviction");
        wait_for(|| server.active_clients() == 1, "registry pruned");
    }

    #[test]
    fn ordered_stream_of_messages() {
        let broker = Broker::new();
        let topic = broker.topic::<u32>("ordered");
        let server = RemoteTopicServer::bind("127.0.0.1:0", topic.clone()).unwrap();
        let inbox = remote_subscribe::<u32>(server.local_addr()).unwrap();
        for i in 0..100 {
            topic.publish(i);
        }
        let mut got = Vec::new();
        while got.len() < 100 {
            match inbox.recv_timeout(Duration::from_secs(2)) {
                Some(v) => got.push(v),
                None => break,
            }
        }
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn shutdown_refuses_new_subscriptions() {
        let broker = Broker::new();
        let topic = broker.topic::<u32>("closing");
        let server = RemoteTopicServer::bind("127.0.0.1:0", topic.clone()).unwrap();
        let addr = server.local_addr();
        server.shutdown();
        std::thread::sleep(Duration::from_millis(50));
        // The TCP handshake may still complete in the backlog, but no
        // HelloAck ever arrives, so the subscription fails cleanly.
        let result = remote_subscribe_with::<u32>(
            addr,
            SubscribeOptions {
                handshake_timeout: Duration::from_millis(100),
                ..SubscribeOptions::default()
            },
        );
        assert!(result.is_err());
    }

    #[test]
    fn shutdown_wakes_a_writer_parked_until_a_distant_heartbeat() {
        let broker = Broker::new();
        let topic = broker.topic::<u32>("parked");
        let server = RemoteTopicServer::bind_with(
            "127.0.0.1:0",
            topic.clone(),
            ServerOptions {
                heartbeat_interval: Duration::from_secs(10),
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let _idle = remote_subscribe::<u32>(server.local_addr()).unwrap();
        assert_eq!(server.active_clients(), 1);
        server.shutdown();
        let stopped = Instant::now();
        while server.active_clients() != 0 {
            assert!(
                stopped.elapsed() < Duration::from_millis(200),
                "writer still parked after shutdown"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn closed_loop_ping_pong_is_not_paced_by_a_poll() {
        let broker = Broker::new();
        let topic = broker.topic::<u32>("ping-pong");
        let server = RemoteTopicServer::bind("127.0.0.1:0", topic.clone()).unwrap();
        let inbox = remote_subscribe::<u32>(server.local_addr()).unwrap();
        // Each publish lands on an idle writer. A writer that looks at its
        // queue once a millisecond needs >= 200 ms for this every time;
        // one woken by the enqueue needs a few ms, so the best of five
        // rounds rides out a busy test host without letting a poll pass.
        let mut best = Duration::MAX;
        for round in 0..5u32 {
            let started = Instant::now();
            for i in 0..200u32 {
                let ping = round * 200 + i;
                topic.publish(ping);
                assert_eq!(inbox.recv_timeout(Duration::from_secs(2)), Some(ping));
            }
            best = best.min(started.elapsed());
        }
        assert!(
            best < Duration::from_millis(100),
            "200 round trips took {best:?}"
        );
    }

    #[test]
    fn reset_mid_stream_reconnects_and_resumes() {
        let broker = Broker::new();
        let topic = broker.topic::<u32>("resume");
        let server = RemoteTopicServer::bind("127.0.0.1:0", topic.clone()).unwrap();
        let addr = server.local_addr();
        // Recv index 0 is the HelloAck; reset at the 6th data frame.
        let plan = Arc::new(FaultPlan::scripted().on_recv(6, FaultAction::Reset));
        let dial_plan = Arc::clone(&plan);
        let inbox = remote_subscribe_with_transport::<u32, _>(
            move || {
                TcpFrameTransport::connect(addr)
                    .map(|t| Box::new(FaultInjector::new(t, Arc::clone(&dial_plan))) as Box<_>)
            },
            fast_options(),
        )
        .unwrap();
        for i in 0..50 {
            topic.publish(i);
        }
        let mut got = Vec::new();
        while got.len() < 50 {
            match inbox.recv_timeout(Duration::from_secs(2)) {
                Some(v) => got.push(v),
                None => break,
            }
        }
        assert_eq!(got, (0..50).collect::<Vec<_>>());
        let stats = inbox.stats();
        assert!(stats.reconnects >= 1, "{stats:?}");
        assert_eq!(stats.frames_lost, 0, "{stats:?}");
        assert_eq!(plan.injected(), 1);
    }

    #[test]
    fn corrupt_frame_triggers_recovery_not_loss() {
        let broker = Broker::new();
        let topic = broker.topic::<u32>("corrupt");
        let server = RemoteTopicServer::bind("127.0.0.1:0", topic.clone()).unwrap();
        let addr = server.local_addr();
        let plan = Arc::new(FaultPlan::scripted().on_recv(4, FaultAction::Corrupt));
        let dial_plan = Arc::clone(&plan);
        let inbox = remote_subscribe_with_transport::<u32, _>(
            move || {
                TcpFrameTransport::connect(addr)
                    .map(|t| Box::new(FaultInjector::new(t, Arc::clone(&dial_plan))) as Box<_>)
            },
            fast_options(),
        )
        .unwrap();
        for i in 0..20 {
            topic.publish(i);
        }
        let mut got = Vec::new();
        while got.len() < 20 {
            match inbox.recv_timeout(Duration::from_secs(2)) {
                Some(v) => got.push(v),
                None => break,
            }
        }
        assert_eq!(got, (0..20).collect::<Vec<_>>());
        let stats = inbox.stats();
        assert!(stats.corrupt_frames >= 1, "{stats:?}");
        assert!(stats.reconnects >= 1, "{stats:?}");
        // The server never noticed anything worse than a reconnect.
        assert_eq!(server.stats().handshake_failures, 0);
    }

    #[test]
    fn duplicated_frames_are_delivered_once() {
        let broker = Broker::new();
        let topic = broker.topic::<u32>("dedup");
        let server = RemoteTopicServer::bind("127.0.0.1:0", topic.clone()).unwrap();
        let addr = server.local_addr();
        let plan = Arc::new(
            FaultPlan::scripted()
                .on_recv(2, FaultAction::Duplicate)
                .on_recv(5, FaultAction::Duplicate),
        );
        let dial_plan = Arc::clone(&plan);
        let inbox = remote_subscribe_with_transport::<u32, _>(
            move || {
                TcpFrameTransport::connect(addr)
                    .map(|t| Box::new(FaultInjector::new(t, Arc::clone(&dial_plan))) as Box<_>)
            },
            fast_options(),
        )
        .unwrap();
        for i in 0..10 {
            topic.publish(i);
        }
        let mut got = Vec::new();
        while got.len() < 10 {
            match inbox.recv_timeout(Duration::from_secs(2)) {
                Some(v) => got.push(v),
                None => break,
            }
        }
        assert_eq!(got, (0..10).collect::<Vec<_>>());
        assert!(inbox.stats().duplicates_discarded >= 2);
        // Nothing further arrives.
        assert_eq!(inbox.recv_timeout(Duration::from_millis(100)), None);
    }

    #[test]
    fn heartbeats_flow_on_an_idle_topic() {
        let broker = Broker::new();
        let topic = broker.topic::<u32>("idle");
        let server = RemoteTopicServer::bind_with(
            "127.0.0.1:0",
            topic.clone(),
            ServerOptions {
                heartbeat_interval: Duration::from_millis(20),
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let inbox = remote_subscribe_with::<u32>(server.local_addr(), fast_options()).unwrap();
        wait_for(|| inbox.stats().heartbeats_received >= 3, "heartbeats");
        assert!(server.stats().heartbeats_sent >= 3);
        // Heartbeats are not messages.
        assert_eq!(inbox.recv_timeout(Duration::from_millis(50)), None);
    }

    #[test]
    fn slow_client_queue_is_bounded_and_drops_are_counted() {
        let broker = Broker::new();
        let topic = broker.topic::<String>("slow");
        let server = RemoteTopicServer::bind_with(
            "127.0.0.1:0",
            topic.clone(),
            ServerOptions {
                client_queue_capacity: 8,
                replay_capacity: 8,
                ..ServerOptions::default()
            },
        )
        .unwrap();
        // A raw client that handshakes and then never reads: its queue
        // must stay bounded while the server keeps running.
        let mut stalled = TcpFrameTransport::connect(server.local_addr()).unwrap();
        stalled.send(&Frame::control(FrameKind::Hello, 0)).unwrap();
        stalled
            .set_read_timeout(Some(Duration::from_secs(1)))
            .unwrap();
        assert_eq!(stalled.recv().unwrap().unwrap().kind, FrameKind::HelloAck);
        wait_for(|| server.active_clients() == 1, "registration");
        // Not reading stalls the writer only once the kernel's socket
        // buffers are full, and those would swallow the whole burst of
        // small frames below. Fill them with big frames, one at a time so
        // the writer gets every chance to keep up: the first drop means it
        // is stuck in `send` with a full queue behind it.
        let big = "x".repeat(1 << 20);
        let mut filler = 0;
        while server.stats().frames_dropped == 0 {
            assert!(filler < 256, "the writer never blocked");
            topic.publish(big.clone());
            filler += 1;
            wait_for(|| server.stats().frames_published == filler, "filling");
        }
        for i in 0..200u64 {
            topic.publish(i.to_string());
        }
        wait_for(
            || server.stats().frames_published == filler + 200,
            "forwarding",
        );
        let stats = server.stats();
        assert!(
            stats.frames_dropped >= 180,
            "expected bounded queue to shed load: {stats:?}"
        );
        // The server is still fully functional for a healthy client.
        let healthy = remote_subscribe::<String>(server.local_addr()).unwrap();
        topic.publish("999".to_string());
        let mut last = None;
        while let Some(v) = healthy.recv_timeout(Duration::from_secs(2)) {
            let done = v == "999";
            last = Some(v);
            if done {
                break;
            }
        }
        assert_eq!(last.as_deref(), Some("999"));
    }

    #[test]
    fn concurrent_publishers_arrive_exactly_once_in_their_order() {
        let broker = Broker::new();
        let topic = broker.topic::<u32>("two-publishers");
        // Room for the whole burst: a drop-oldest eviction would show as
        // a gap too, and that is not what this test is about.
        let server = RemoteTopicServer::bind_with(
            "127.0.0.1:0",
            topic.clone(),
            ServerOptions {
                client_queue_capacity: 2048,
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let inbox = remote_subscribe_with::<u32>(server.local_addr(), fast_options()).unwrap();
        // Publisher `p` sends p * 1000 + i. Sequence numbers are assigned
        // and frames queued in one step under the topic lock, so the two
        // streams interleave without a gap, a duplicate or a swap.
        let per = 500u32;
        let publishers: Vec<_> = (0..2u32)
            .map(|p| {
                let topic = topic.clone();
                std::thread::spawn(move || {
                    for i in 0..per {
                        topic.publish(p * 1000 + i);
                    }
                })
            })
            .collect();
        for publisher in publishers {
            publisher.join().unwrap();
        }
        let mut got = Vec::new();
        while got.len() < 2 * per as usize {
            match inbox.recv_timeout(Duration::from_secs(2)) {
                Some(v) => got.push(v),
                None => break,
            }
        }
        for p in 0..2 {
            let mine: Vec<u32> = got.iter().copied().filter(|v| v / 1000 == p).collect();
            assert_eq!(mine, (0..per).map(|i| p * 1000 + i).collect::<Vec<_>>());
        }
        assert_eq!(got.len(), 2 * per as usize);
        let server_stats = server.stats();
        assert_eq!(server_stats.frames_published, u64::from(2 * per));
        assert_eq!(server_stats.frames_dropped, 0);
        let stats = inbox.stats();
        assert_eq!((stats.gaps_detected, stats.reconnects), (0, 0), "{stats:?}");
    }

    #[test]
    fn publish_never_waits_for_a_stuck_writer() {
        let broker = Broker::new();
        let topic = broker.topic::<String>("stuck");
        let server = RemoteTopicServer::bind_with(
            "127.0.0.1:0",
            topic.clone(),
            ServerOptions {
                client_queue_capacity: 8,
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let mut stalled = TcpFrameTransport::connect(server.local_addr()).unwrap();
        stalled.send(&Frame::control(FrameKind::Hello, 0)).unwrap();
        stalled
            .set_read_timeout(Some(Duration::from_secs(1)))
            .unwrap();
        assert_eq!(stalled.recv().unwrap().unwrap().kind, FrameKind::HelloAck);
        wait_for(|| server.active_clients() == 1, "registration");
        // As in `slow_client_queue_is_bounded_and_drops_are_counted`: big
        // frames fill the socket buffers until the writer is stuck in
        // `send`; the first drop means its queue is full behind it. From
        // a full queue every publish evicts exactly one frame (from an
        // empty one, N publishes would drop N - capacity). Publishing
        // runs on a thread of its own, so a publish that waits for the
        // writer fails the test instead of hanging it.
        let n = 50u64;
        let counters = Arc::clone(&server.counters);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let big = "x".repeat(1 << 20);
            let mut filler = 0u64;
            while counters.frames_dropped.get() == 0 {
                assert!(filler < 256, "the writer never blocked");
                topic.publish(big.clone());
                filler += 1;
            }
            let before = counters.frames_dropped.get();
            for i in 0..n {
                topic.publish(i.to_string());
            }
            done_tx.send((filler, before)).unwrap();
        });
        let Ok((filler, before)) = done_rx.recv_timeout(Duration::from_secs(10)) else {
            // A publish parked inside the server holds its lock, which
            // dropping the server would wait for too.
            std::mem::forget(server);
            panic!("the publisher did not finish: a publish waited for the writer");
        };
        let stats = server.stats();
        assert_eq!(stats.frames_dropped - before, n, "{stats:?}");
        assert_eq!(stats.frames_published, filler + n);
    }

    #[test]
    fn shutdown_unsubscribes_the_server() {
        let broker = Broker::new();
        let topic = broker.topic::<u32>("after-shutdown");
        let local = topic.subscribe();
        let server = RemoteTopicServer::bind("127.0.0.1:0", topic.clone()).unwrap();
        assert_eq!(topic.publish(1), 2, "the server counts as one delivery");
        server.shutdown();
        // The server stops counting at once, on an idle topic too, and
        // forwards nothing more; the topic's other subscribers are
        // untouched.
        assert_eq!(topic.live_subscriber_count(), 1);
        assert_eq!(topic.publish(2), 1);
        assert_eq!(topic.subscriber_count(), 1);
        assert_eq!(server.stats().frames_published, 1);
        assert_eq!(local.drain(), vec![1, 2]);
        assert_eq!(topic.publish(3), 1);
        assert_eq!(local.recv_timeout(Duration::from_secs(1)), Some(3));
    }

    #[test]
    fn client_gives_up_after_server_disappears() {
        let broker = Broker::new();
        let topic = broker.topic::<u32>("vanish");
        let server = RemoteTopicServer::bind("127.0.0.1:0", topic.clone()).unwrap();
        let inbox = remote_subscribe_with::<u32>(
            server.local_addr(),
            SubscribeOptions {
                max_redial_failures: 2,
                ..fast_options()
            },
        )
        .unwrap();
        topic.publish(1);
        assert_eq!(inbox.recv_timeout(Duration::from_secs(2)), Some(1));
        drop(server);
        drop(broker);
        // Liveness timeout fires, redials fail, the subscription ends.
        assert_eq!(inbox.recv_timeout(Duration::from_secs(3)), None);
    }

    #[test]
    fn dead_peer_heartbeat_eviction_is_counted_and_mirrored() {
        let registry = mw_obs::MetricsRegistry::new();
        let broker = Broker::new();
        let topic = broker.topic::<u32>("dead-peer");
        let server = RemoteTopicServer::bind_with(
            "127.0.0.1:0",
            topic.clone(),
            ServerOptions {
                heartbeat_interval: Duration::from_millis(10),
                metrics: Some(registry.clone()),
                ..ServerOptions::default()
            },
        )
        .unwrap();
        // A raw peer that handshakes, then vanishes without a word; the
        // topic stays idle so only heartbeat writes can notice.
        {
            let mut peer = TcpFrameTransport::connect(server.local_addr()).unwrap();
            peer.send(&Frame::control(FrameKind::Hello, 0)).unwrap();
            peer.set_read_timeout(Some(Duration::from_secs(1))).unwrap();
            assert_eq!(peer.recv().unwrap().unwrap().kind, FrameKind::HelloAck);
        }
        wait_for(|| server.stats().evicted_peers >= 1, "dead-peer eviction");
        let stats = server.stats();
        assert!(
            stats.clients_evicted >= stats.evicted_peers,
            "dead-peer evictions are a subset of all evictions: {stats:?}"
        );
        // Mirrored into the registry under the documented name.
        assert_eq!(
            registry.counter("bus.server.evicted_peers").get(),
            stats.evicted_peers
        );
    }

    #[test]
    fn replay_overflow_surfaces_explicit_resync_event() {
        let broker = Broker::new();
        let topic = broker.topic::<u32>("overflow-resync");
        let server = RemoteTopicServer::bind_with(
            "127.0.0.1:0",
            topic.clone(),
            ServerOptions {
                replay_capacity: 4,
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        // Kill the connection after the client has the first two data
        // frames (recv 0 is the HelloAck), then hold every redial until
        // the publisher has blown far past the 4-frame replay window.
        let plan = Arc::new(FaultPlan::scripted().on_recv(3, FaultAction::Reset));
        let gate = Arc::new(AtomicBool::new(false));
        let dial_plan = Arc::clone(&plan);
        let dial_gate = Arc::clone(&gate);
        let mut dials = 0u32;
        let inbox = remote_subscribe_events_with_transport::<u32, _>(
            move || {
                dials += 1;
                if dials > 1 {
                    while !dial_gate.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                TcpFrameTransport::connect(addr)
                    .map(|t| Box::new(FaultInjector::new(t, Arc::clone(&dial_plan))) as Box<_>)
            },
            fast_options(),
        )
        .unwrap();

        // Values 0..=2 are seqs 1..=3; the reset fires on seq 3's recv.
        for i in 0..3u32 {
            topic.publish(i);
        }
        assert_eq!(
            inbox.recv_timeout(Duration::from_secs(2)),
            Some(RemoteEvent::Data(0))
        );
        assert_eq!(
            inbox.recv_timeout(Duration::from_secs(2)),
            Some(RemoteEvent::Data(1))
        );
        wait_for(|| plan.injected() == 1, "scripted reset");

        // While the client is locked out, 18 more publishes (seqs
        // 4..=21) overflow the 4-frame replay buffer: only 18..=21
        // survive. The client still needs seq 3.
        for i in 3..21u32 {
            topic.publish(i);
        }
        wait_for(|| server.stats().frames_published == 21, "forwarding");
        gate.store(true, Ordering::Relaxed);

        // The gap [3, 18) must arrive as an explicit in-stream resync
        // marker, before the first surviving message — never silently.
        assert_eq!(
            inbox.recv_timeout(Duration::from_secs(5)),
            Some(RemoteEvent::Lost {
                expected: 3,
                resumed_at: 18,
            })
        );
        for i in 17..21u32 {
            assert_eq!(
                inbox.recv_timeout(Duration::from_secs(2)),
                Some(RemoteEvent::Data(i))
            );
        }
        assert_eq!(inbox.stats().frames_lost, 15);
    }

    #[test]
    fn plain_stream_still_counts_replay_overflow_loss() {
        let broker = Broker::new();
        let topic = broker.topic::<u32>("overflow-plain");
        let server = RemoteTopicServer::bind_with(
            "127.0.0.1:0",
            topic.clone(),
            ServerOptions {
                replay_capacity: 4,
                ..ServerOptions::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let plan = Arc::new(FaultPlan::scripted().on_recv(3, FaultAction::Reset));
        let gate = Arc::new(AtomicBool::new(false));
        let dial_plan = Arc::clone(&plan);
        let dial_gate = Arc::clone(&gate);
        let mut dials = 0u32;
        let inbox = remote_subscribe_with_transport::<u32, _>(
            move || {
                dials += 1;
                if dials > 1 {
                    while !dial_gate.load(Ordering::Relaxed) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                TcpFrameTransport::connect(addr)
                    .map(|t| Box::new(FaultInjector::new(t, Arc::clone(&dial_plan))) as Box<_>)
            },
            fast_options(),
        )
        .unwrap();
        for i in 0..3u32 {
            topic.publish(i);
        }
        assert_eq!(inbox.recv_timeout(Duration::from_secs(2)), Some(0));
        assert_eq!(inbox.recv_timeout(Duration::from_secs(2)), Some(1));
        wait_for(|| plan.injected() == 1, "scripted reset");
        for i in 3..21u32 {
            topic.publish(i);
        }
        wait_for(|| server.stats().frames_published == 21, "forwarding");
        gate.store(true, Ordering::Relaxed);
        // The plain stream resumes at the first surviving message and
        // accounts for the hole in `frames_lost`.
        assert_eq!(inbox.recv_timeout(Duration::from_secs(5)), Some(17));
        assert_eq!(inbox.stats().frames_lost, 15);
    }

    #[test]
    fn garbage_handshake_does_not_kill_the_server() {
        use std::io::Write;
        let broker = Broker::new();
        let topic = broker.topic::<u32>("garbage");
        let server = RemoteTopicServer::bind("127.0.0.1:0", topic.clone()).unwrap();
        {
            let mut raw = TcpStream::connect(server.local_addr()).unwrap();
            raw.write_all(&[0xFF; 64]).unwrap();
        }
        wait_for(|| server.stats().handshake_failures >= 1, "rejection");
        // Normal clients still work.
        let inbox = remote_subscribe::<u32>(server.local_addr()).unwrap();
        topic.publish(5);
        assert_eq!(inbox.recv_timeout(Duration::from_secs(2)), Some(5));
    }
}
