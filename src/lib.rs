//! Umbrella crate for the REX reproduction.
//!
//! Re-exports every subsystem so examples and integration tests can depend
//! on a single crate. See `README.md` for the architecture overview
//! ("Architecture") and the paper-to-module map ("Paper ↔ code map").

pub use rex_core as core;
pub use rex_crypto as crypto;
pub use rex_data as data;
pub use rex_ml as ml;
pub use rex_net as net;
pub use rex_node as node;
pub use rex_sim as sim;
pub use rex_tee as tee;
pub use rex_topology as topology;
