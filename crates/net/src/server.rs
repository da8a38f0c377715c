//! The threaded TCP server: accept loop, connection budget, deadlines,
//! and graceful drain over a shared [`ModelServer`].
//!
//! ## Lifecycle
//!
//! [`NetServer::bind`] spawns one accept thread; every accepted
//! connection is switched to `TCP_NODELAY` and gets its own handler
//! thread running a strict request-reply loop (one frame in, one frame
//! out, each reply handed to the socket as one write — see
//! [`crate::frame`]). A request runs on the handler thread that read
//! it, so concurrency comes from connections alone. The accept loop
//! joins handler threads that have exited, so a long-lived server holds
//! one thread per open connection, not one per connection ever
//! accepted. Admission is
//! guarded by a **connection budget**: a connection over the budget
//! receives a typed `overloaded` reply and a clean close — never a
//! silent drop — without ever occupying a serving slot.
//!
//! [`NetServer::shutdown`] stops accepting, then **drains**: handler
//! threads keep serving any request whose frame has started arriving
//! (the shutdown flag is only honoured *between* frames — see
//! [`crate::frame::read_frame_deadline`]), answer it against the
//! snapshot generation pinned by the underlying [`ModelServer`] call,
//! and exit at the next idle poll. Because every `score`/`top_n`/
//! `batch` call pins exactly one snapshot, a hot swap racing a drain
//! can never mix generations inside one reply — the drain contract is
//! inherited from the in-process server, not re-implemented here.
//!
//! ## Panic containment
//!
//! The connection loop itself is panic-free (enforced by clippy through
//! the `deny` line below), but a handler thread could
//! still die to a bug below it; the drain counts such deaths in
//! [`DrainReport::worker_panics`] instead of hanging or hiding them.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use gmlfm_service::{FeedSink, ModelServer};

use crate::frame::{
    read_frame_deadline, write_frame_deadline, Deadlines, FrameError, DEFAULT_MAX_FRAME_BYTES,
};
use crate::wire::{self, code, NetReply, NetRequest, NetResponse};

/// Tuning knobs of the network server. The defaults suit interactive
/// serving; tests shrink the timeouts to keep fault injection fast.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Connections served concurrently; arrivals beyond this receive a
    /// typed `overloaded` reply and a clean close.
    pub max_connections: usize,
    /// Cap on a frame's payload size, enforced from the header alone.
    pub max_frame_bytes: usize,
    /// How long a connection may idle between requests before it is
    /// closed.
    pub idle_timeout: Duration,
    /// How long a request frame may take from its first byte to its
    /// last — the slow-loris reaper.
    pub frame_timeout: Duration,
    /// How long a reply frame may take to drain to the peer.
    pub write_timeout: Duration,
    /// Poll quantum for deadline and shutdown checks (clamped ≥ 1 ms).
    pub poll: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            idle_timeout: Duration::from_secs(30),
            frame_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            poll: Duration::from_millis(5),
        }
    }
}

impl ServerConfig {
    fn deadlines(&self) -> Deadlines {
        Deadlines { idle: self.idle_timeout, frame: self.frame_timeout, poll: self.poll }
    }
}

/// What a completed drain observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// Requests answered over the server's lifetime (including typed
    /// error replies).
    pub served: u64,
    /// Connections shed with an `overloaded` reply.
    pub shed: u64,
    /// Handler threads joined during shutdown: the connections still
    /// open, or closed but not yet reaped by the accept loop.
    pub connections_drained: usize,
    /// Handler threads that died to a panic instead of exiting cleanly,
    /// over the server's lifetime (always 0 unless a layer below the
    /// connection loop has a bug).
    pub worker_panics: usize,
}

struct Inner {
    model: Arc<ModelServer>,
    /// Ingest endpoint for `feed` requests; servers bound without one
    /// answer them with the typed `feed_unavailable` code.
    feed: Option<Arc<dyn FeedSink>>,
    config: ServerConfig,
    shutdown: AtomicBool,
    active: AtomicUsize,
    served: AtomicU64,
    shed: AtomicU64,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Panics of handler threads the accept loop reaped before shutdown.
    reaped_panics: AtomicUsize,
}

/// Decrements the active-connection counter when a handler exits, on
/// every path out of the loop — including an unwinding one.
struct ConnSlot<'a>(&'a Inner);

impl Drop for ConnSlot<'_> {
    fn drop(&mut self) {
        // ORDERING: Relaxed — the counter only gates admission; no data
        // is published through it, and a momentarily stale value merely
        // sheds (or admits) one connection near the budget boundary.
        self.0.active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A running network server. Dropping it without calling
/// [`NetServer::shutdown`] still stops and joins everything, discarding
/// the report.
pub struct NetServer {
    inner: Arc<Inner>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// accepting connections served against `model`. `feed` requests
    /// receive the typed `feed_unavailable` reply; use
    /// [`NetServer::bind_with_feed`] to serve an online ingest loop.
    pub fn bind(model: Arc<ModelServer>, addr: impl ToSocketAddrs, config: ServerConfig) -> io::Result<Self> {
        Self::bind_inner(model, None, addr, config)
    }

    /// [`NetServer::bind`] plus an ingest sink answering wire `feed`
    /// requests — the transport half of the online learning loop. The
    /// sink validates, folds exclusions and enqueues; its typed errors
    /// (including the retryable `backpressure`) travel as ordinary
    /// error envelopes.
    pub fn bind_with_feed(
        model: Arc<ModelServer>,
        feed: Arc<dyn FeedSink>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Self> {
        Self::bind_inner(model, Some(feed), addr, config)
    }

    fn bind_inner(
        model: Arc<ModelServer>,
        feed: Option<Arc<dyn FeedSink>>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let inner = Arc::new(Inner {
            model,
            feed,
            config,
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            served: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
            reaped_panics: AtomicUsize::new(0),
        });
        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::Builder::new()
            .name("gmlfm-net-accept".into())
            .spawn(move || accept_loop(&accept_inner, &listener))?;
        Ok(Self { inner, addr: local, accept: Some(accept) })
    }

    /// The bound address (the ephemeral port, when bound with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Generation of the model snapshot currently being served.
    pub fn generation(&self) -> u64 {
        self.inner.model.generation()
    }

    /// The shared in-process server, for hot-swapping models while the
    /// network server runs.
    pub fn model(&self) -> &Arc<ModelServer> {
        &self.inner.model
    }

    /// Stops accepting, drains in-flight requests, joins every worker,
    /// and reports what happened. Idempotent with [`Drop`]: calling
    /// this consumes the server.
    pub fn shutdown(mut self) -> DrainReport {
        self.stop_and_join()
    }

    fn stop_and_join(&mut self) -> DrainReport {
        // ORDERING: Relaxed — the flag is a pure control signal polled
        // in a loop by every worker; a stale read costs one extra poll
        // quantum and is self-correcting. The joins below provide the
        // happens-before edges for the counters read afterwards.
        self.inner.shutdown.store(true, Ordering::Relaxed);
        // Unblock the accept loop: a throw-away connection makes
        // `accept` return so it can observe the flag. If the connect
        // fails the listener is already gone and accept has errored out
        // on its own.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let workers = {
            let mut guard = self.inner.workers.lock().unwrap_or_else(|poison| poison.into_inner());
            std::mem::take(&mut *guard)
        };
        let connections_drained = workers.len();
        let worker_panics = workers.into_iter().map(|w| w.join()).filter(Result::is_err).count()
            // ORDERING: Relaxed — the accept thread, the only writer,
            // was joined above.
            + self.inner.reaped_panics.load(Ordering::Relaxed);
        DrainReport {
            // ORDERING: Relaxed — every writer thread was joined above,
            // which synchronises-with this thread; the loads see final
            // values.
            served: self.inner.served.load(Ordering::Relaxed),
            shed: self.inner.shed.load(Ordering::Relaxed), // ORDERING: Relaxed — same joins as above.
            connections_drained,
            worker_panics,
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.accept.is_some() {
            let _ = self.stop_and_join();
        }
    }
}

fn accept_loop(inner: &Arc<Inner>, listener: &TcpListener) {
    loop {
        let conn = listener.accept();
        // ORDERING: Relaxed — see `stop_and_join`: the wake-up connect
        // guarantees another pass through this check, so a stale read
        // at worst handles one extra connection before stopping.
        if inner.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match conn {
            Ok((stream, _peer)) => {
                // Never hold a reply's tail segment back for the ACK of
                // the one before it (a `topn` reply can span several). A
                // socket that refuses the option still serves, slower.
                let _ = stream.set_nodelay(true);
                let worker_inner = Arc::clone(inner);
                let spawned = std::thread::Builder::new()
                    .name("gmlfm-net-conn".into())
                    .spawn(move || handle_connection(&worker_inner, stream));
                match spawned {
                    Ok(handle) => {
                        let mut guard = inner.workers.lock().unwrap_or_else(|poison| poison.into_inner());
                        reap_finished(&mut guard, &inner.reaped_panics);
                        guard.push(handle);
                    }
                    // Thread exhaustion: shed at the OS boundary; the
                    // stream closes and the client sees a clean close.
                    Err(_) => {
                        // ORDERING: Relaxed — statistics counter only.
                        inner.shed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            // Transient accept failures (EMFILE under a storm, aborted
            // handshakes): back off one poll quantum and keep accepting.
            Err(_) => std::thread::sleep(inner.config.poll.max(Duration::from_millis(1))),
        }
    }
}

/// Joins the handler threads that have already exited — each holds a
/// mapped stack until joined — and counts their panics for the drain
/// report.
fn reap_finished(workers: &mut Vec<JoinHandle<()>>, panics: &AtomicUsize) {
    let mut i = 0;
    while i < workers.len() {
        if !workers[i].is_finished() {
            i += 1;
        } else if workers.swap_remove(i).join().is_err() {
            // ORDERING: Relaxed — read only after this thread is joined.
            panics.fetch_add(1, Ordering::Relaxed);
        }
    }
}

fn handle_connection(inner: &Inner, mut stream: TcpStream) {
    // ORDERING: Relaxed — admission gate only (see `ConnSlot::drop`);
    // no data is transferred through this counter.
    if inner.active.fetch_add(1, Ordering::Relaxed) >= inner.config.max_connections {
        // Over budget: typed reply, not a silent drop. The slot guard
        // below is never constructed, so undo the increment directly.
        // ORDERING: Relaxed — same admission-gate counter.
        inner.active.fetch_sub(1, Ordering::Relaxed);
        // ORDERING: Relaxed — statistics counter only.
        inner.shed.fetch_add(1, Ordering::Relaxed);
        let msg = format!("connection budget ({}) exhausted; retry later", inner.config.max_connections);
        let payload = wire::encode_error(code::OVERLOADED, &msg);
        let _ = write_frame_deadline(
            &mut stream,
            payload.as_bytes(),
            inner.config.max_frame_bytes,
            inner.config.write_timeout,
            inner.config.poll,
        );
        return;
    }
    let _slot = ConnSlot(inner);
    let deadlines = inner.config.deadlines();

    loop {
        let payload =
            match read_frame_deadline(&mut stream, inner.config.max_frame_bytes, &deadlines, &inner.shutdown)
            {
                Ok(payload) => payload,
                Err(FrameError::Oversized { len, max }) => {
                    // The oversized payload was never read, so the
                    // stream cannot be re-synchronised: reply typed,
                    // then close.
                    let msg = format!("declared frame length {len} exceeds the {max}-byte cap");
                    let _ = reply(inner, &mut stream, &wire::encode_error(code::OVERSIZED_FRAME, &msg));
                    return;
                }
                // Clean close, idle/slow-loris reaping, truncation,
                // socket errors, shutdown while idle: close. There is
                // no request to answer, and writing an unsolicited
                // frame would desynchronise the peer's request-reply
                // pairing.
                Err(_) => return,
            };

        let reply_payload = match wire::decode_request(&payload) {
            // Malformed JSON inside a well-formed frame: the stream is
            // still frame-synchronised, so answer typed and keep the
            // connection.
            Err(e) => wire::encode_error(code::BAD_REQUEST, &e.message),
            Ok(req) => answer(&inner.model, inner.feed.as_deref(), &req),
        };
        // ORDERING: Relaxed — statistics counter only; final values
        // are read after the drain joins this thread.
        inner.served.fetch_add(1, Ordering::Relaxed);
        if reply(inner, &mut stream, &reply_payload).is_err() {
            return;
        }
    }
}

fn reply(inner: &Inner, stream: &mut TcpStream, payload: &str) -> Result<(), FrameError> {
    write_frame_deadline(
        stream,
        payload.as_bytes(),
        inner.config.max_frame_bytes,
        inner.config.write_timeout,
        inner.config.poll,
    )
}

/// Answers one decoded request against the shared model. Each arm makes
/// exactly one `ModelServer` call, which pins exactly one snapshot —
/// the generation stamped on the reply is the generation every number
/// in it was computed from. `feed` requests route to the bound sink
/// instead (which validates against the same server's current snapshot).
fn answer(model: &ModelServer, feed: Option<&dyn FeedSink>, req: &NetRequest) -> String {
    match req {
        NetRequest::Score(score) => match model.score(score) {
            Ok(resp) => wire::encode_response(&NetResponse {
                generation: resp.generation,
                reply: NetReply::Score(resp.value),
            }),
            Err(e) => wire::encode_error(e.code(), &e.to_string()),
        },
        NetRequest::TopN(topn) => match model.top_n(topn) {
            Ok(resp) => wire::encode_response(&NetResponse {
                generation: resp.generation,
                reply: NetReply::TopN(resp.value),
            }),
            Err(e) => wire::encode_error(e.code(), &e.to_string()),
        },
        NetRequest::Batch(batch) => {
            let resp = model.batch(batch);
            let slots = resp
                .value
                .iter()
                .map(|slot| match slot {
                    Ok(r) => Ok(NetReply::from_reply(r)),
                    Err(e) => Err(wire::NetError::from_request_error(e)),
                })
                .collect();
            wire::encode_response(&NetResponse { generation: resp.generation, reply: NetReply::Batch(slots) })
        }
        NetRequest::Feed(event) => match feed {
            None => {
                wire::encode_error(code::FEED_UNAVAILABLE, "this server has no online ingest loop behind it")
            }
            Some(sink) => match sink.feed(event) {
                Ok(resp) => wire::encode_response(&NetResponse {
                    generation: resp.generation,
                    reply: NetReply::Feed(resp.value),
                }),
                Err(e) => wire::encode_error(e.code(), &e.to_string()),
            },
        },
    }
}
