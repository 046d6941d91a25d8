//! Machine-learning substrate for the REX reproduction.
//!
//! Two recommender families, mirroring the paper (§II-A):
//!
//! * [`mf`] — biased matrix factorization trained by plain SGD
//!   (k = 10, η = 0.005, λ = 0.1 in the paper's experiments);
//! * [`dnn`] — an embedding + 4-hidden-layer MLP recommender trained with
//!   Adam (k = 20, η = 1e-4, weight decay 1e-5, dropout 0.02/0.15).
//!
//! Both implement the [`Model`] trait consumed by `rex-core`: fixed-step
//! training epochs (paper §III-E fixes SGD steps per epoch so epoch time
//! stays constant as the data store grows), weighted merging with
//! missing-embedding handling (paper §III-C2), and byte serialization for
//! network-volume accounting.

// Every `unsafe` block states the invariant it rests on; a block without
// a `// SAFETY:` comment does not build under clippy.
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod bytesio;
pub mod dnn;
pub mod kernel;
pub mod metrics;
pub mod mf;
pub mod model;
mod rows;

pub use dnn::{DnnHyperParams, DnnModel};
pub use kernel::KernelLevel;
pub use metrics::{mae, rmse};
pub use mf::{MfHyperParams, MfModel};
pub use model::{Model, ModelCodecError, ModelView};
