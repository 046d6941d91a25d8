//! Shared harness for regenerating every table and figure of the paper.
//!
//! The `repro` binary (`src/bin/repro.rs`) is the one entry point for the
//! figures, tables and ablations: each is a view of runs made here, and
//! README.md "Paper ↔ code map" maps each paper artefact to its
//! experiment name. The four `bench_*` bins measure through [`harness`].
//!
//! Two scales per experiment:
//! * **quick** (default) — a reduced node count / epoch budget that runs in
//!   seconds to a few minutes and preserves every qualitative conclusion;
//! * **full** (`--full`) — the paper's exact shape (610 nodes, 400 epochs,
//!   MovieLens-scale data); expect long runtimes, as the authors did
//!   (their D-PSGD/ER simulation took 5 h).

pub mod args;
pub mod baseline;
pub mod dnn_experiments;
pub mod harness;
pub mod mf_experiments;
pub mod output;
pub mod reference;
pub mod sgx_experiments;

pub use args::BenchArgs;
