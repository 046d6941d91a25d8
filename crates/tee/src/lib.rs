//! Simulated Intel SGX platform (the hardware substitution: the
//! `crates/tee` entry of README.md "Architecture").
//!
//! The paper runs REX inside real SGX enclaves on Xeon E-2288G machines.
//! This crate reproduces, in software, every SGX property the paper's
//! evaluation depends on:
//!
//! * **identity** — an enclave's [`measurement`] is a hash of its initial
//!   code/data, so all honest REX nodes share one measurement and a rogue
//!   build is detected (paper §III-A);
//! * **attestation** — [`report`]s are locally MAC'd per platform, converted
//!   to signed [`quote`]s by a per-platform quoting enclave, and verified
//!   remotely through a [`dcap`] service (paper §II-D); the quote's
//!   user-data field carries an X25519 public key from which mutually
//!   attested nodes derive AEAD [`session`] keys (paper §III-A);
//! * **cost** — enclaves pay for ecall/ocall transitions, boundary copies
//!   and EPC paging ([`cost`], [`epc`], [`meter`]); these charges drive the
//!   SGX-vs-native results (paper Figs 6–7, Table IV).
//!
//! Cost-model constants come from published SGX microbenchmarks (Costan &
//! Devadas, "Intel SGX Explained"; ~8–13 k cycles per transition, ~40 k
//! cycles per EPC fault) and are configurable per experiment.

pub mod attestation;
pub mod cost;
pub mod dcap;
pub mod enclave;
pub mod epc;
pub mod join;
pub mod measurement;
pub mod meter;
pub mod platform;
pub mod quote;
pub mod report;
pub mod session;

pub use attestation::{AttestationError, AttestationMsg, Attestor};
pub use cost::SgxCostModel;
pub use dcap::DcapService;
pub use enclave::Enclave;
pub use epc::EpcTracker;
pub use measurement::Measurement;
pub use meter::CostMeter;
pub use platform::SgxPlatform;
pub use quote::Quote;
pub use report::Report;
pub use session::SecureSession;
