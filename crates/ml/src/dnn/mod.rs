//! DNN recommender (paper §II-A-c, §IV-A3b).
//!
//! Architecture, matching the paper's description: a user and an item
//! embedding (k = 20) are concatenated and fed through four hidden
//! Linear+ReLU layers with dropout (0.02 on the embedding layer, 0.15 on
//! the first two hidden layers), a final linear unit and a closing ReLU.
//! Training uses Adam (η = 1e-4, weight decay 1e-5) on minibatches.
//!
//! Everything — forward, backward, Adam — is hand-written on a small
//! row-major [`tensor::Matrix`]; no autograd framework is involved (the
//! PyTorch substitution: the `crates/ml` entry of README.md
//! "Architecture").

pub mod layer;
pub mod model;
pub mod tensor;

pub use model::{DnnHyperParams, DnnModel};
pub use tensor::Matrix;
