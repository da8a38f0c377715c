//! Fault-tolerant TCP serving of the gmlfm online protocol.
//!
//! This crate puts the in-process [`gmlfm_service::ModelServer`] behind
//! a real network boundary without giving up its robustness contract:
//! every failure a hostile or unlucky client can produce — truncated,
//! oversized or garbage frames, byte-at-a-time slow-loris writes,
//! connection storms, a hot swap or shutdown racing an in-flight
//! request — degrades into a **typed error or a clean close**, never a
//! panic, a hung thread, or a reply mixing model generations.
//!
//! The layers, bottom-up:
//!
//! * [`frame`] — length-prefixed framing with a size cap enforced
//!   before allocation and deadline-driven socket I/O.
//! * [`wire`] — the JSON wire format for the typed Score/TopN/Batch
//!   protocol; total decoding into [`wire::WireError`].
//! * [`server`] — threaded accept loop, connection budget with typed
//!   `overloaded` shedding, per-connection deadlines, graceful drain.
//! * [`client`] — blocking client with connect/request timeouts and
//!   jittered exponential-backoff retries (after an ambiguous transport
//!   failure, only of idempotent requests).
//!
//! See the README's "Network serving" section for the wire grammar and
//! the failure-mode table.
#![forbid(unsafe_code)]

pub mod client;
pub mod frame;
pub mod server;
pub mod wire;

pub use client::{ClientConfig, ClientError, NetClient};
pub use frame::{FrameError, DEFAULT_MAX_FRAME_BYTES};
pub use server::{DrainReport, NetServer, ServerConfig};
pub use wire::{NetError, NetReply, NetRequest, NetResponse};
