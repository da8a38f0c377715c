//! A thin blocking client for the gmlfm-net protocol: connect/request
//! timeouts, typed errors, and jittered exponential-backoff retries.
//!
//! ## Retry policy
//!
//! Connect failures and the server's transient codes (`overloaded`,
//! `shutting_down`, `backpressure`) mean the request was not acted on,
//! so they are retried, reconnecting each time (a failed exchange
//! leaves the old stream's framing in an unknown state). A transport
//! failure or timeout after the frame went out is ambiguous: the server
//! may have acted on it. Such a failure is retried only for idempotent
//! requests — scores, top-n, batches, and feeds carrying an `id`, which
//! the online log deduplicates. An id-less feed would be enqueued and
//! trained once per attempt, so it is not retried. Request-validation
//! errors (`unknown_user`, …) are deterministic and are **not** retried.
//!
//! Backoff is exponential with **full jitter**: attempt `k` sleeps
//! `min(max_backoff, base · 2^(k-1)) · u` with `u` uniform in
//! `[0.5, 1)`, from a deterministic xorshift stream seeded per client —
//! reproducible in tests, yet de-synchronised across clients so a
//! recovering server is not hit by a retry stampede.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::frame::{read_frame, write_frame, FrameError, DEFAULT_MAX_FRAME_BYTES};
use crate::wire::{self, code, NetError, NetRequest, NetResponse};

/// Tuning knobs of the client.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Whole-exchange budget per attempt: the socket read/write timeout
    /// while sending the request and awaiting the reply.
    pub request_timeout: Duration,
    /// Total attempts per request (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before retry 1 (doubles per retry).
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Cap on reply frame size.
    pub max_frame_bytes: usize,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(10),
            max_attempts: 3,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_secs(1),
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            jitter_seed: 0x6d6c_666d,
        }
    }
}

/// Why a request ultimately failed, after any retries.
#[derive(Debug)]
pub enum ClientError {
    /// No connection could be established within the budget.
    Connect(std::io::Error),
    /// The exchange failed at the framing/socket layer.
    Transport(FrameError),
    /// The reply was not a well-formed envelope.
    Protocol(wire::WireError),
    /// The server answered with a typed error (`unknown_user`,
    /// `overloaded` after retries were exhausted, …).
    Server(NetError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect failed: {e}"),
            ClientError::Transport(e) => write!(f, "transport failed: {e}"),
            ClientError::Protocol(e) => write!(f, "{e}"),
            ClientError::Server(e) => write!(f, "server error {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// Whether retrying could help: transport-level failures and the
    /// server's transient codes — `overloaded`, `shutting_down`, and the
    /// online loop's `backpressure` (the interaction log drains at the
    /// next retrain). Validation errors are deterministic and final.
    /// Whether a transport failure may be retried also depends on the
    /// request ([`NetClient::request`]).
    pub fn is_retryable(&self) -> bool {
        match self {
            ClientError::Connect(_) | ClientError::Transport(_) => true,
            ClientError::Protocol(_) => false,
            ClientError::Server(e) => {
                e.code == code::OVERLOADED || e.code == code::SHUTTING_DOWN || e.code == "backpressure"
            }
        }
    }
}

/// xorshift64*: tiny deterministic jitter source (not for cryptography).
fn next_jitter(state: &mut u64) -> f64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    let bits = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    // Upper 53 bits → uniform in [0, 1).
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// A blocking protocol client. One request is in flight at a time; a
/// fresh connection is established per request attempt (the protocol is
/// cheap to connect and a failed exchange leaves framing unknown).
pub struct NetClient {
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    jitter: u64,
}

impl NetClient {
    /// A client for the server at `addr` with default tuning.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::with_config(addr, ClientConfig::default())
    }

    /// A client with explicit tuning.
    pub fn with_config(addr: impl ToSocketAddrs, config: ClientConfig) -> std::io::Result<Self> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address resolved"));
        }
        let jitter = config.jitter_seed | 1; // xorshift state must be non-zero
        Ok(Self { addrs, config, jitter })
    }

    /// Sends one request, retrying retryable failures up to
    /// `max_attempts` with jittered exponential backoff — a transport
    /// failure only when `req` is idempotent (see the module docs). `Ok`
    /// carries the generation-stamped response; `Err` the final typed
    /// failure.
    pub fn request(&mut self, req: &NetRequest) -> Result<NetResponse, ClientError> {
        let payload = wire::encode_request(req);
        let idempotent = !matches!(req, NetRequest::Feed(event) if event.id.is_none());
        let mut last = None;
        for attempt in 1..=self.config.max_attempts.max(1) {
            if attempt > 1 {
                std::thread::sleep(self.backoff(attempt - 1));
            }
            match self.attempt(&payload) {
                Ok(resp) => return Ok(resp),
                Err(e) if e.is_retryable() && (idempotent || !matches!(e, ClientError::Transport(_))) => {
                    last = Some(e)
                }
                Err(e) => return Err(e),
            }
        }
        // `max_attempts` is clamped ≥ 1, so at least one attempt ran
        // and `last` is populated on this path.
        Err(last.unwrap_or_else(|| ClientError::Connect(std::io::Error::other("no attempt ran"))))
    }

    /// One exchange over a fresh connection.
    fn attempt(&self, payload: &str) -> Result<NetResponse, ClientError> {
        let mut stream = self.open()?;
        write_frame(&mut stream, payload.as_bytes(), self.config.max_frame_bytes)
            .map_err(ClientError::Transport)?;
        let reply = read_frame(&mut stream, self.config.max_frame_bytes).map_err(ClientError::Transport)?;
        match wire::decode_response(&reply).map_err(ClientError::Protocol)? {
            Ok(resp) => Ok(resp),
            Err(server) => Err(ClientError::Server(server)),
        }
    }

    fn open(&self) -> Result<TcpStream, ClientError> {
        let mut last: Option<std::io::Error> = None;
        for addr in &self.addrs {
            match TcpStream::connect_timeout(addr, self.config.connect_timeout) {
                Ok(stream) => {
                    stream
                        .set_read_timeout(Some(self.config.request_timeout))
                        .map_err(ClientError::Connect)?;
                    stream
                        .set_write_timeout(Some(self.config.request_timeout))
                        .map_err(ClientError::Connect)?;
                    stream.set_nodelay(true).map_err(ClientError::Connect)?;
                    return Ok(stream);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(ClientError::Connect(last.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::AddrNotAvailable, "no address to connect to")
        })))
    }

    /// Backoff before retry `k` (1-based): exponential with full jitter
    /// in `[0.5, 1) ·` the capped exponential term.
    fn backoff(&mut self, k: u32) -> Duration {
        let exp = self
            .config
            .base_backoff
            .saturating_mul(1u32.checked_shl(k - 1).unwrap_or(u32::MAX));
        let capped = exp.min(self.config.max_backoff);
        let u = 0.5 + 0.5 * next_jitter(&mut self.jitter);
        capped.mul_f64(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jitter_is_deterministic_and_in_range() {
        let mut a = 42u64;
        let mut b = 42u64;
        for _ in 0..1000 {
            let x = next_jitter(&mut a);
            assert_eq!(x, next_jitter(&mut b));
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn backoff_doubles_under_the_cap_with_jitter() {
        let config = ClientConfig {
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_millis(350),
            ..ClientConfig::default()
        };
        let mut client = NetClient::with_config("127.0.0.1:9", config).unwrap();
        let b1 = client.backoff(1);
        let b2 = client.backoff(2);
        let b3 = client.backoff(3);
        assert!(b1 >= Duration::from_millis(50) && b1 < Duration::from_millis(100), "{b1:?}");
        assert!(b2 >= Duration::from_millis(100) && b2 < Duration::from_millis(200), "{b2:?}");
        // 400 ms capped at 350 ms before jitter.
        assert!(b3 >= Duration::from_millis(175) && b3 < Duration::from_millis(350), "{b3:?}");
    }

    #[test]
    fn retryability_matches_the_policy() {
        assert!(ClientError::Connect(std::io::Error::other("x")).is_retryable());
        assert!(ClientError::Transport(FrameError::Closed).is_retryable());
        assert!(ClientError::Server(NetError::new(code::OVERLOADED, "")).is_retryable());
        assert!(ClientError::Server(NetError::new(code::SHUTTING_DOWN, "")).is_retryable());
        // The online loop's backpressure is transient: the log drains at
        // the next retrain, and id-carrying feeds deduplicate on retry.
        assert!(ClientError::Server(NetError::new("backpressure", "")).is_retryable());
        // A server without a feed sink will never grow one mid-flight.
        assert!(!ClientError::Server(NetError::new(code::FEED_UNAVAILABLE, "")).is_retryable());
        assert!(!ClientError::Server(NetError::new("unknown_user", "")).is_retryable());
        assert!(!ClientError::Protocol(wire::WireError { message: "x".into() }).is_retryable());
    }
}
