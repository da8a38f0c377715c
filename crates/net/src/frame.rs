//! Length-prefixed framing: the byte-level layer of the wire protocol.
//!
//! A frame is a 4-byte **big-endian** `u32` payload length followed by
//! exactly that many payload bytes (UTF-8 JSON at the layer above; this
//! module never looks inside). The codec's robustness contract:
//!
//! * **Arbitrary bytes can never panic it.** Every malformed input —
//!   truncated header, truncated payload, a length above the cap — is a
//!   typed [`FrameError`]; the proptests in `tests/frame_proptest.rs`
//!   drive random byte streams through [`read_frame`] to pin this.
//! * **Oversized lengths are rejected *before* allocation.** The header
//!   is decoded and checked against `max` by [`frame_len`]; a hostile
//!   4-GiB length never reaches `Vec::with_capacity`.
//! * **One frame, one write.** Header and payload leave as one buffer
//!   ([`write_frame`], [`write_frame_deadline`]). Written as two
//!   segments, the second waits under Nagle's algorithm for the ACK of
//!   the first, and a peer that delays its ACK (40 ms on Linux) stalls
//!   every reply by that much.
//! * **Deadlines, not hangs.** The `*_deadline` variants drive a socket
//!   in short poll quanta ([`Deadlines::poll`]) and enforce two budgets:
//!   an *idle* budget while waiting for a frame to start, and a *frame*
//!   budget from the first byte of a frame to its last — so a slow-loris
//!   client trickling one byte per second is reaped no matter how it
//!   paces the trickle. The same polling observes a shutdown flag, which
//!   is what bounds graceful-drain time on idle connections.
//!
//! A read that ends exactly on a frame boundary with zero bytes read is
//! a **clean close** ([`FrameError::Closed`]) — how well-behaved peers
//! hang up — and is distinguished from a mid-frame EOF
//! ([`FrameError::Truncated`]), which is a fault.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable
)]

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Bytes in the length prefix.
pub const HEADER_BYTES: usize = 4;

/// Default cap on a frame's payload size (8 MiB): far above any sane
/// request, far below an allocation that could hurt the process.
pub const DEFAULT_MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

/// Every way framed I/O can fail, none of them a panic.
#[derive(Debug)]
pub enum FrameError {
    /// The declared payload length exceeds the frame-size cap. Detected
    /// from the 4 header bytes alone, before any payload allocation.
    Oversized {
        /// The declared payload length.
        len: usize,
        /// The configured cap.
        max: usize,
    },
    /// The peer closed the connection cleanly, on a frame boundary.
    Closed,
    /// The stream ended mid-frame: `got` of `wanted` bytes arrived.
    Truncated {
        /// Bytes received before EOF.
        got: usize,
        /// Bytes the frame section needed.
        wanted: usize,
    },
    /// A deadline elapsed. `phase` is `"idle"` (no frame started),
    /// `"frame"` (a started frame did not complete in time) or
    /// `"write"` (the peer did not drain our response in time).
    TimedOut {
        /// Which budget ran out.
        phase: &'static str,
    },
    /// The shutdown flag was observed while waiting between frames.
    ShuttingDown,
    /// Any other socket-level failure.
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { len, max } => {
                write!(f, "declared frame length {len} exceeds the {max}-byte cap")
            }
            FrameError::Closed => write!(f, "connection closed on a frame boundary"),
            FrameError::Truncated { got, wanted } => {
                write!(f, "stream ended mid-frame ({got} of {wanted} bytes)")
            }
            FrameError::TimedOut { phase } => write!(f, "{phase} deadline elapsed"),
            FrameError::ShuttingDown => write!(f, "server is shutting down"),
            FrameError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Decodes and validates a frame header: the payload length, checked
/// against `max` **before** the caller allocates anything.
pub fn frame_len(header: [u8; HEADER_BYTES], max: usize) -> Result<usize, FrameError> {
    let len = u32::from_be_bytes(header) as usize;
    if len > max {
        return Err(FrameError::Oversized { len, max });
    }
    Ok(len)
}

/// Encodes a frame header, rejecting payloads above `max` (and, on
/// 64-bit targets, above the `u32` wire limit) with a typed error.
pub fn encode_header(len: usize, max: usize) -> Result<[u8; HEADER_BYTES], FrameError> {
    if len > max || u32::try_from(len).is_err() {
        return Err(FrameError::Oversized { len, max });
    }
    // The check above proves `len` fits u32; `as` cannot truncate here.
    Ok((len as u32).to_be_bytes())
}

/// Reads as much of `buf` as the source yields, returning the count
/// (shorter than `buf` only at EOF). `Interrupted` reads are retried.
fn read_full<R: Read + ?Sized>(r: &mut R, buf: &mut [u8]) -> Result<usize, FrameError> {
    let mut got = 0usize;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(got)
}

/// Blocking frame read from any byte source (the client path, and the
/// codec proptests): header, size gate, then payload. Clean EOF before
/// any header byte is [`FrameError::Closed`]; EOF anywhere later is
/// [`FrameError::Truncated`].
pub fn read_frame<R: Read + ?Sized>(r: &mut R, max: usize) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; HEADER_BYTES];
    match read_full(r, &mut header)? {
        0 => return Err(FrameError::Closed),
        n if n < HEADER_BYTES => return Err(FrameError::Truncated { got: n, wanted: HEADER_BYTES }),
        _ => {}
    }
    let len = frame_len(header, max)?;
    // Allocation happens only after the size gate above.
    let mut payload = vec![0u8; len];
    let got = read_full(r, &mut payload)?;
    if got < len {
        return Err(FrameError::Truncated { got, wanted: len });
    }
    Ok(payload)
}

/// A whole frame in one buffer: the size-gated header, then the
/// payload. The gate runs first, so the allocation is bounded by `max`.
fn frame_bytes(payload: &[u8], max: usize) -> Result<Vec<u8>, FrameError> {
    let header = encode_header(payload.len(), max)?;
    let mut frame = Vec::with_capacity(HEADER_BYTES + payload.len());
    frame.extend_from_slice(&header);
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// Blocking frame write to any byte sink: the size gate, then header
/// and payload in **one** write.
pub fn write_frame<W: Write + ?Sized>(w: &mut W, payload: &[u8], max: usize) -> Result<(), FrameError> {
    let frame = frame_bytes(payload, max)?;
    w.write_all(&frame).map_err(FrameError::Io)?;
    w.flush().map_err(FrameError::Io)
}

/// The three time budgets of deadline-driven socket reads.
#[derive(Debug, Clone, Copy)]
pub struct Deadlines {
    /// How long a connection may sit idle waiting for a frame to start.
    pub idle: Duration,
    /// How long a started frame may take from first byte to last.
    pub frame: Duration,
    /// Poll quantum: how often a blocked read wakes to re-check budgets
    /// and the shutdown flag. Clamped to at least 1 ms.
    pub poll: Duration,
}

impl Deadlines {
    fn poll_quantum(&self) -> Duration {
        self.poll.max(Duration::from_millis(1))
    }
}

fn is_poll_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Deadline-driven frame read from a socket.
///
/// The socket's read timeout is set to the poll quantum; every wakeup
/// re-checks (a) the shutdown flag — but only while **no** frame byte
/// has arrived, so a request already in flight completes and can be
/// drained — (b) the idle budget while waiting for a frame to start,
/// and (c) the frame budget once the first byte arrived. Timeout
/// mid-frame is how slow-loris clients are reaped.
pub fn read_frame_deadline(
    stream: &mut TcpStream,
    max: usize,
    deadlines: &Deadlines,
    stop: &AtomicBool,
) -> Result<Vec<u8>, FrameError> {
    stream
        .set_read_timeout(Some(deadlines.poll_quantum()))
        .map_err(FrameError::Io)?;
    let idle_from = Instant::now();
    let mut frame_from: Option<Instant> = None;

    let mut header = [0u8; HEADER_BYTES];
    read_section(stream, &mut header, deadlines, stop, idle_from, &mut frame_from, 0)?;
    let len = frame_len(header, max)?;
    // Allocation happens only after the size gate above.
    let mut payload = vec![0u8; len];
    read_section(stream, &mut payload, deadlines, stop, idle_from, &mut frame_from, HEADER_BYTES)?;
    Ok(payload)
}

/// Reads one section (header or payload) of a frame under the budgets.
/// `already` is how many frame bytes earlier sections consumed — it
/// distinguishes a clean close (nothing read at all) from truncation.
#[allow(clippy::too_many_arguments)]
fn read_section(
    stream: &mut TcpStream,
    buf: &mut [u8],
    deadlines: &Deadlines,
    stop: &AtomicBool,
    idle_from: Instant,
    frame_from: &mut Option<Instant>,
    already: usize,
) -> Result<(), FrameError> {
    let mut got = 0usize;
    while got < buf.len() {
        match stream.read(&mut buf[got..]) {
            Ok(0) => {
                return if got + already == 0 {
                    Err(FrameError::Closed)
                } else {
                    Err(FrameError::Truncated { got: got + already, wanted: buf.len() + already })
                };
            }
            Ok(n) => {
                if frame_from.is_none() {
                    *frame_from = Some(Instant::now());
                }
                got += n;
            }
            Err(e) if is_poll_timeout(&e) => match *frame_from {
                // Waiting for a frame to start: shutdown wins, then the
                // idle budget.
                // ORDERING: Relaxed — the flag is a pure control signal
                // (no data is published through it); the server's
                // thread joins provide all happens-before edges.
                None if stop.load(Ordering::Relaxed) => return Err(FrameError::ShuttingDown),
                None if idle_from.elapsed() >= deadlines.idle => {
                    return Err(FrameError::TimedOut { phase: "idle" })
                }
                // Mid-frame: only the frame budget applies (a started
                // request gets to finish even during shutdown — that is
                // the drain contract).
                Some(t0) if t0.elapsed() >= deadlines.frame => {
                    return Err(FrameError::TimedOut { phase: "frame" })
                }
                _ => {}
            },
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Deadline-driven frame write to a socket: the whole frame (header +
/// payload, handed over as one buffer) must drain within `timeout`,
/// re-checked every `poll`. A
/// peer that stops reading — the write-side slow-loris — is reaped with
/// [`FrameError::TimedOut`].
pub fn write_frame_deadline(
    stream: &mut TcpStream,
    payload: &[u8],
    max: usize,
    timeout: Duration,
    poll: Duration,
) -> Result<(), FrameError> {
    let frame = frame_bytes(payload, max)?;
    stream
        .set_write_timeout(Some(poll.max(Duration::from_millis(1))))
        .map_err(FrameError::Io)?;
    let deadline = Instant::now() + timeout;
    let mut off = 0usize;
    while off < frame.len() {
        match stream.write(&frame[off..]) {
            Ok(0) => return Err(FrameError::Closed),
            Ok(n) => off += n,
            Err(e) if is_poll_timeout(&e) => {
                if Instant::now() >= deadline {
                    return Err(FrameError::TimedOut { phase: "write" });
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn round_trips_through_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello", 64).unwrap();
        write_frame(&mut buf, b"", 64).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r, 64).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 64).unwrap(), b"");
        assert!(matches!(read_frame(&mut r, 64), Err(FrameError::Closed)));
    }

    #[test]
    fn oversized_length_rejected_from_header_alone() {
        // Header declares u32::MAX bytes; nothing follows. The typed
        // error must come from the 4 header bytes, before allocation.
        let bytes = u32::MAX.to_be_bytes().to_vec();
        let err = read_frame(&mut Cursor::new(bytes), 1024).unwrap_err();
        assert!(matches!(err, FrameError::Oversized { len, max: 1024 } if len == u32::MAX as usize));
    }

    #[test]
    fn writer_refuses_oversized_payloads() {
        let mut buf = Vec::new();
        let err = write_frame(&mut buf, &[0u8; 100], 10).unwrap_err();
        assert!(matches!(err, FrameError::Oversized { len: 100, max: 10 }));
        assert!(buf.is_empty(), "nothing must reach the wire");
    }

    /// A sink that counts `write` calls: on a socket each call is a
    /// segment, and a second segment waits for the ACK of the first.
    #[derive(Default)]
    struct CountingSink {
        writes: usize,
        bytes: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes += buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        for payload in [&b"hello"[..], b"", &[7u8; 70_000]] {
            let mut sink = CountingSink::default();
            write_frame(&mut sink, payload, 1 << 20).unwrap();
            assert_eq!((sink.writes, sink.bytes), (1, HEADER_BYTES + payload.len()));
        }
        let mut sink = CountingSink::default();
        assert!(write_frame(&mut sink, &[0u8; 100], 10).is_err());
        assert_eq!(sink.writes, 0, "the size gate runs before anything is written");
    }

    #[test]
    fn truncation_is_typed_at_both_sections() {
        // Two header bytes only.
        let err = read_frame(&mut Cursor::new(vec![0u8, 0]), 64).unwrap_err();
        assert!(matches!(err, FrameError::Truncated { got: 2, wanted: HEADER_BYTES }));
        // Full header declaring 8 bytes, 3 delivered.
        let mut bytes = 8u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(b"abc");
        let err = read_frame(&mut Cursor::new(bytes), 64).unwrap_err();
        assert!(matches!(err, FrameError::Truncated { got: 3, wanted: 8 }));
    }

    #[test]
    fn boundary_lengths() {
        // Exactly max passes, max + 1 is rejected.
        assert_eq!(frame_len(16u32.to_be_bytes(), 16).unwrap(), 16);
        assert!(matches!(
            frame_len(17u32.to_be_bytes(), 16),
            Err(FrameError::Oversized { len: 17, max: 16 })
        ));
    }
}
