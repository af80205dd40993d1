//! Cross-process request/response over the framed transport — the RPC
//! counterpart to the [`crate::remote`] pub/sub bridge.
//!
//! The in-process [`crate::RpcClient`]/[`crate::RpcServer`] pair moves
//! typed requests over crossbeam channels and cannot leave the process.
//! [`RemoteRpcServer`] exports a handler over a TCP listener speaking
//! the same checksummed frame protocol as the topic bridge (`Data`
//! frames both ways, matched by sequence number), and
//! [`RemoteRpcClient`] issues blocking calls against it with a pooled
//! connection that is re-dialed transparently when the server restarts.
//!
//! # Failure semantics
//!
//! Calls are **at-most-once**. A send failure on a pooled connection is
//! retried once on a fresh connection (the request provably never
//! reached the server). A failure *after* the request was written —
//! EOF, timeout, corrupt response — returns the error to the caller and
//! poisons the pooled connection, so the next call starts clean; the
//! server may or may not have executed the request. Cluster routing
//! layers build their failover on exactly this contract: an errored
//! call is the signal to try the replica.

use std::marker::PhantomData;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::transport::{wake_accept_loop, Frame, FrameKind, FrameTransport, TcpFrameTransport};

/// Lifetime counters exposed by [`RemoteRpcServer::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RpcServerStats {
    /// Connections accepted.
    pub connections_accepted: u64,
    /// Requests decoded, handled, and answered.
    pub requests_served: u64,
    /// Frames that failed checksum/parse — each closes its connection.
    pub decode_failures: u64,
}

#[derive(Debug, Default)]
struct RpcServerCounters {
    connections_accepted: mw_obs::Counter,
    requests_served: mw_obs::Counter,
    decode_failures: mw_obs::Counter,
}

impl RpcServerCounters {
    fn new(registry: Option<&mw_obs::MetricsRegistry>) -> Self {
        match registry {
            None => RpcServerCounters::default(),
            Some(reg) => RpcServerCounters {
                connections_accepted: reg.counter("bus.rpc.connections_accepted"),
                requests_served: reg.counter("bus.rpc.requests_served"),
                decode_failures: reg.counter("bus.rpc.decode_failures"),
            },
        }
    }

    fn snapshot(&self) -> RpcServerStats {
        RpcServerStats {
            connections_accepted: self.connections_accepted.get(),
            requests_served: self.requests_served.get(),
            decode_failures: self.decode_failures.get(),
        }
    }
}

/// Tuning for a [`RemoteRpcServer`].
#[derive(Debug, Clone)]
pub struct RpcServerOptions {
    /// Read-timeout slice per blocking wait; bounds how long a
    /// connection thread takes to notice shutdown.
    pub poll_interval: Duration,
    /// Registry the server's counters are published to (under
    /// `bus.rpc.*`). `None` keeps them private to
    /// [`RemoteRpcServer::stats`].
    pub metrics: Option<mw_obs::MetricsRegistry>,
}

impl Default for RpcServerOptions {
    fn default() -> Self {
        RpcServerOptions {
            poll_interval: Duration::from_millis(100),
            metrics: None,
        }
    }
}

/// Serves a typed request/response handler over TCP. Each connection
/// gets its own thread; requests on one connection are handled in
/// order, connections are independent.
#[derive(Debug)]
pub struct RemoteRpcServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    counters: Arc<RpcServerCounters>,
}

impl RemoteRpcServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and serves
    /// `handler` with default options.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn bind<Req, Rep, H>(addr: &str, handler: H) -> std::io::Result<Self>
    where
        Req: DeserializeOwned + 'static,
        Rep: Serialize + 'static,
        H: Fn(Req) -> Rep + Send + Sync + 'static,
    {
        Self::bind_with(addr, handler, RpcServerOptions::default())
    }

    /// [`RemoteRpcServer::bind`] with explicit tuning.
    ///
    /// # Errors
    ///
    /// Returns the bind error when the address is unavailable.
    pub fn bind_with<Req, Rep, H>(
        addr: &str,
        handler: H,
        options: RpcServerOptions,
    ) -> std::io::Result<Self>
    where
        Req: DeserializeOwned + 'static,
        Rep: Serialize + 'static,
        H: Fn(Req) -> Rep + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(RpcServerCounters::new(options.metrics.as_ref()));
        let handler = Arc::new(handler);
        {
            let stop = Arc::clone(&stop);
            let counters = Arc::clone(&counters);
            // Blocks in `accept`; `shutdown` unblocks it with a connection
            // of its own.
            std::thread::spawn(move || {
                while let Ok((stream, _)) = listener.accept() {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    counters.connections_accepted.inc();
                    let stop = Arc::clone(&stop);
                    let counters = Arc::clone(&counters);
                    let handler = Arc::clone(&handler);
                    let options = options.clone();
                    std::thread::spawn(move || {
                        serve_connection::<Req, Rep, H>(
                            TcpFrameTransport::new(stream),
                            &stop,
                            &counters,
                            &handler,
                            &options,
                        );
                    });
                }
            });
        }
        Ok(RemoteRpcServer {
            local_addr,
            stop,
            counters,
        })
    }

    /// The address clients should connect to.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Lifetime counters for observability and tests.
    #[must_use]
    pub fn stats(&self) -> RpcServerStats {
        self.counters.snapshot()
    }

    /// Stops the accept loop and lets connection threads drain (also
    /// done on drop).
    pub fn shutdown(&self) {
        if !self.stop.swap(true, Ordering::Relaxed) {
            wake_accept_loop(self.local_addr);
        }
    }
}

impl Drop for RemoteRpcServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_connection<Req, Rep, H>(
    mut transport: TcpFrameTransport,
    stop: &AtomicBool,
    counters: &RpcServerCounters,
    handler: &H,
    options: &RpcServerOptions,
) where
    Req: DeserializeOwned,
    Rep: Serialize,
    H: Fn(Req) -> Rep,
{
    if transport
        .set_read_timeout(Some(options.poll_interval))
        .is_err()
    {
        return;
    }
    loop {
        if stop.load(Ordering::Relaxed) {
            return;
        }
        match transport.recv() {
            Ok(Some(frame)) if frame.kind == FrameKind::Data => {
                if stop.load(Ordering::Relaxed) {
                    return; // shut down between recv slices: don't serve
                }
                let Ok(request) = frame.decode::<Req>() else {
                    counters.decode_failures.inc();
                    return; // a garbled request poisons only this connection
                };
                let reply = handler(request);
                let Ok(reply_frame) = Frame::data(frame.seq, &reply) else {
                    return; // unserializable reply: close, client times out
                };
                counters.requests_served.inc();
                if transport.send(&reply_frame).is_err() {
                    return;
                }
            }
            Ok(Some(frame)) if frame.kind == FrameKind::Heartbeat => {} // liveness ping, no reply
            Ok(Some(_)) => return, // protocol error (stray handshake frame)
            Ok(None) => return,    // client closed cleanly
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Idle slice: loop to re-check the stop flag.
            }
            Err(e) => {
                if e.kind() == std::io::ErrorKind::InvalidData {
                    counters.decode_failures.inc();
                }
                return;
            }
        }
    }
}

/// A blocking RPC client over one pooled connection. Calls are
/// serialized (one in flight); the connection is established lazily and
/// re-dialed transparently after the server restarts.
#[derive(Debug)]
pub struct RemoteRpcClient<Req, Rep> {
    addr: SocketAddr,
    timeout: Duration,
    inner: Mutex<ClientConn>,
    _marker: PhantomData<fn(&Req) -> Rep>,
}

#[derive(Debug, Default)]
struct ClientConn {
    transport: Option<TcpFrameTransport>,
    next_seq: u64,
}

impl<Req, Rep> RemoteRpcClient<Req, Rep>
where
    Req: Serialize,
    Rep: DeserializeOwned,
{
    /// A client for the server at `addr`; every call is bounded by
    /// `timeout`. No connection is made until the first call.
    #[must_use]
    pub fn new(addr: SocketAddr, timeout: Duration) -> Self {
        RemoteRpcClient {
            addr,
            timeout,
            inner: Mutex::new(ClientConn {
                transport: None,
                next_seq: 1,
            }),
            _marker: PhantomData,
        }
    }

    /// The server address this client dials.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn dial(&self) -> std::io::Result<TcpFrameTransport> {
        let mut transport = TcpFrameTransport::connect(self.addr)?;
        transport.set_read_timeout(Some(self.timeout))?;
        Ok(transport)
    }

    /// Sends `request` and blocks for the matching reply.
    ///
    /// # Errors
    ///
    /// Connection, timeout, or decode errors. An error after the
    /// request was written means the server *may* have executed it
    /// (at-most-once; see the module docs) — cluster routers treat any
    /// error as "fail over to the replica".
    pub fn call(&self, request: &Req) -> std::io::Result<Rep> {
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let frame = Frame::data(seq, request)?;

        // Send, with one retry on a fresh connection when a *pooled*
        // connection turns out stale (server restarted since the last
        // call): the request never reached the new server, so the
        // retry cannot double-execute it.
        let pooled = inner.transport.is_some();
        if inner.transport.is_none() {
            inner.transport = Some(self.dial()?);
        }
        if let Err(first) = inner.transport.as_mut().expect("just set").send(&frame) {
            inner.transport = None;
            if !pooled {
                return Err(first);
            }
            inner.transport = Some(self.dial()?);
            if let Err(e) = inner.transport.as_mut().expect("just set").send(&frame) {
                inner.transport = None;
                return Err(e);
            }
        }

        let transport = inner.transport.as_mut().expect("present after send");
        loop {
            match transport.recv() {
                Ok(Some(frame)) if frame.kind == FrameKind::Data && frame.seq == seq => {
                    return frame.decode::<Rep>();
                }
                // A stray reply to an abandoned earlier call would only
                // appear if the connection survived it — it cannot (an
                // errored call drops the connection) — but skipping is
                // still the safe reaction.
                Ok(Some(frame)) if frame.kind == FrameKind::Data => {}
                Ok(Some(frame)) if frame.kind == FrameKind::Heartbeat => {}
                Ok(Some(_)) | Ok(None) => {
                    inner.transport = None;
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server closed the connection before replying",
                    ));
                }
                Err(e) => {
                    inner.transport = None;
                    return Err(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_roundtrips_typed_messages() {
        let server =
            RemoteRpcServer::bind::<u32, String, _>("127.0.0.1:0", |n| format!("got {n}")).unwrap();
        let client =
            RemoteRpcClient::<u32, String>::new(server.local_addr(), Duration::from_secs(2));
        assert_eq!(client.call(&7).unwrap(), "got 7");
        assert_eq!(client.call(&8).unwrap(), "got 8");
        assert_eq!(server.stats().requests_served, 2);
        assert_eq!(server.stats().connections_accepted, 1, "pooled connection");
    }

    #[test]
    fn client_redials_after_server_restart() {
        let server = RemoteRpcServer::bind::<u32, u32, _>("127.0.0.1:0", |n| n * 2).unwrap();
        let addr = server.local_addr();
        let client = RemoteRpcClient::<u32, u32>::new(addr, Duration::from_secs(2));
        assert_eq!(client.call(&21).unwrap(), 42);
        drop(server);
        // Rebind the same port: the pooled connection is now stale; the
        // next call must re-dial transparently (possibly after an error
        // while the port is still down).
        std::thread::sleep(Duration::from_millis(50));
        let server = RemoteRpcServer::bind::<u32, u32, _>(&addr.to_string(), |n| n * 3).unwrap();
        let mut last = None;
        for _ in 0..50 {
            match client.call(&10) {
                Ok(v) => {
                    last = Some(v);
                    break;
                }
                Err(_) => std::thread::sleep(Duration::from_millis(20)),
            }
        }
        assert_eq!(last, Some(30));
        drop(server);
    }

    #[test]
    fn shutdown_unblocks_the_accept_loop_and_closes_the_listener() {
        // The second listener is bound to the wildcard address, which
        // `shutdown` has to reach over loopback.
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            let server = RemoteRpcServer::bind::<u32, u32, _>(bind, |n| n).unwrap();
            let addr = server.local_addr();
            server.shutdown();
            // The accept thread owns the listener: the port is free only
            // once it has come out of `accept` and exited. Probing with
            // `bind` rather than `connect` keeps the test from waking it.
            let stopped = std::time::Instant::now();
            while TcpListener::bind(addr).is_err() {
                assert!(
                    stopped.elapsed() < Duration::from_secs(2),
                    "accept loop on {bind} still listening after shutdown"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    #[test]
    fn dead_server_is_an_error_not_a_hang() {
        let server = RemoteRpcServer::bind::<u32, u32, _>("127.0.0.1:0", |n| n).unwrap();
        let addr = server.local_addr();
        drop(server);
        std::thread::sleep(Duration::from_millis(50));
        let client = RemoteRpcClient::<u32, u32>::new(addr, Duration::from_millis(200));
        assert!(client.call(&1).is_err());
    }

    #[test]
    fn slow_handler_times_out_and_next_call_recovers() {
        let server = RemoteRpcServer::bind::<u32, u32, _>("127.0.0.1:0", |n| {
            if n == 0 {
                std::thread::sleep(Duration::from_millis(500));
            }
            n + 1
        })
        .unwrap();
        let client =
            RemoteRpcClient::<u32, u32>::new(server.local_addr(), Duration::from_millis(100));
        let err = client.call(&0).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "{err:?}"
        );
        // The poisoned connection was dropped; a fresh call succeeds.
        assert_eq!(client.call(&4).unwrap(), 5);
    }
}
