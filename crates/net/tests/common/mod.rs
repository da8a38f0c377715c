//! Shared fixture for the network tests: the generation-marker model
//! from the service hot-swap suite (every score of generation `g` is
//! exactly `g * 1000.0`, so any response whose value disagrees with
//! `marker(response.generation)` proves a torn or cross-generation
//! read), plus a fast-timeout server config for fault injection, and
//! the tree-based wire decoders the byte-level ones are checked against.
#![allow(dead_code)]

pub mod json_tree;
pub mod tree_decode;

use std::sync::Arc;
use std::time::Duration;

use gmlfm_data::{FieldKind, Schema};
use gmlfm_net::{NetServer, ServerConfig};
use gmlfm_serve::{FrozenModel, SecondOrder};
use gmlfm_service::{Catalog, ModelServer, ModelSnapshot};
use gmlfm_tensor::Matrix;

pub const N_USERS: usize = 8;
pub const N_ITEMS: usize = 12;

/// The score every request against generation `g` must return.
pub fn marker(generation: u64) -> f64 {
    generation as f64 * 1000.0
}

/// A snapshot whose every score is exactly `marker(generation)`.
pub fn snapshot(generation: u64) -> ModelSnapshot {
    constant_snapshot(N_ITEMS, marker(generation))
}

/// A snapshot over `N_USERS` users and `n_items` items whose every
/// score is exactly `score`.
pub fn constant_snapshot(n_items: usize, score: f64) -> ModelSnapshot {
    let n = N_USERS + n_items;
    let schema =
        Schema::from_specs(&[("user", N_USERS, FieldKind::User), ("item", n_items, FieldKind::Item)]);
    let catalog = Catalog::new(
        vec![1],
        (0..N_USERS as u32).map(|u| vec![u, N_USERS as u32]).collect(),
        (0..n_items as u32).map(|i| vec![N_USERS as u32 + i]).collect(),
    );
    let frozen = FrozenModel::from_parts(score, vec![0.0; n], Matrix::zeros(n, 3), SecondOrder::Dot);
    ModelSnapshot { schema, frozen, catalog: Some(catalog), seen: None, index: None }
}

/// Timeouts small enough that fault-injection tests finish in seconds
/// but large enough that a loaded CI machine does not trip them on
/// healthy traffic.
pub fn fast_config() -> ServerConfig {
    ServerConfig {
        max_connections: 16,
        idle_timeout: Duration::from_millis(500),
        frame_timeout: Duration::from_millis(400),
        write_timeout: Duration::from_millis(500),
        poll: Duration::from_millis(2),
        ..ServerConfig::default()
    }
}

/// A running server over the marker model at generation 1.
pub fn start(config: ServerConfig) -> NetServer {
    let model = Arc::new(ModelServer::new(snapshot(1)).expect("consistent snapshot"));
    NetServer::bind(model, "127.0.0.1:0", config).expect("bind loopback")
}
