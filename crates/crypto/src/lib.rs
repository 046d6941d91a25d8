//! Cryptographic primitives for the REX reproduction, written from scratch.
//!
//! The REX protocol (paper §III-A/B) needs exactly four cryptographic
//! capabilities inside its simulated enclaves:
//!
//! * a **measurement hash** for enclave identity ([`sha256`]),
//! * **keyed integrity** for the simulated quoting-enclave signature chain
//!   ([`hmac`]),
//! * an **ECDH key agreement** whose public key piggybacks on the quote's
//!   user-data field ([`x25519`], paper §III-A), and
//! * an **AEAD channel** for all post-attestation traffic
//!   ([`aead`], ChaCha20-Poly1305; the paper uses Intel SGX SSL / AES-GCM —
//!   the substitution is the `crates/tee` / `crates/crypto` entries of
//!   README.md "Architecture": a simulated enclave, so any AEAD will do).
//!
//! All primitives are validated against the relevant RFC test vectors
//! (RFC 6234, RFC 4231, RFC 5869, RFC 8439, RFC 7748) in their module tests.
//!
//! This crate is deliberately dependency-free except for `rand` (key
//! generation). It is **not** hardened against side channels beyond
//! best-effort constant-time tag/point comparisons ([`ct`]); it substitutes
//! for SGX SSL inside a *simulated* enclave, not a production one.

// Every `unsafe` block states the invariant it rests on; a block without
// a `// SAFETY:` comment does not build under clippy.
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod aead;
pub mod chacha20;
pub mod ct;
pub mod error;
pub mod hkdf;
pub mod hmac;
pub mod mix;
pub mod poly1305;
pub mod sha256;
pub mod simd;
pub mod x25519;

pub use aead::ChaCha20Poly1305;
pub use error::CryptoError;
pub use hkdf::Hkdf;
pub use hmac::HmacSha256;
pub use mix::splitmix64;
pub use sha256::Sha256;
pub use simd::SimdLevel;
pub use x25519::{PublicKey, SharedSecret, StaticSecret};
