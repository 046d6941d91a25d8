//! Rating-dataset substrate for the REX reproduction.
//!
//! The paper evaluates on MovieLens Latest (100 k ratings, 610 users, 9 k
//! items) and a 15 000-user cap of MovieLens 25M (Table I). Real MovieLens
//! files are not redistributable with this repository, so [`synthetic`]
//! provides a generator that reproduces the *shape* that matters for every
//! reported metric: matrix dimensions, sparsity pattern (Zipf item
//! popularity, heavy-tailed user activity), the 0.5–5.0 half-star rating
//! grid, and learnable low-rank structure. [`loader`] can ingest the real
//! `ratings.csv` when available; everything downstream is agnostic.
//!
//! Downstream crates consume three things:
//! * [`Dataset`] — the global rating table,
//! * [`split::TrainTestSplit`] — per-user 70/30 split (paper §IV-A3),
//! * [`partition`] — assignment of users to nodes (one-user-per-node or
//!   multi-user cohorts, paper §IV-A5).

pub mod dist;
pub mod loader;
pub mod partition;
pub mod presets;
pub mod rating;
pub mod split;
pub mod synthetic;

pub use partition::{Partition, UserBlock};
pub use presets::DatasetSpec;
pub use rating::{Dataset, Rating};
pub use split::TrainTestSplit;
pub use synthetic::SyntheticConfig;
