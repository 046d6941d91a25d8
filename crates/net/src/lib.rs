//! Networking substrate for the REX reproduction.
//!
//! The paper's implementation uses ZeroMQ between 8 processes on 4 SGX
//! machines and a simulator for the larger sweeps. Both deployments report
//! the same two network metrics: bytes in+out per node (Figs 2, 3, 5b, 6b,
//! 7b) and transfer time contributions. This crate supplies:
//!
//! * [`message`] — the REX wire protocol: cleartext attestation messages
//!   and AEAD-sealed payloads (raw-rating batches or serialized models,
//!   each tagged with the sender's degree for Metropolis–Hastings merging);
//! * [`codec`] — a self-contained length-prefixed binary encoding;
//! * [`transport`] — the backend seam: the [`Endpoint`] trait every
//!   backend implements, [`Fabric`], the one [`Transport`] (`n`
//!   endpoints driven by one owner), which the generic engine in
//!   `rex-core` is written against;
//! * [`channel`] — [`channel::ChannelEndpoint`], the in-memory endpoint:
//!   a node's mailbox, counters and seat at a shared split barrier;
//! * [`mem`] — [`MemNetwork`], the fabric of in-memory endpoints: the
//!   discrete-event simulator drives it from one thread, the
//!   real-thread deployment splits it into one endpoint per node;
//! * [`fault`] — [`FaultPlan`] and the [`fault::FaultyEndpoint`]
//!   wrapper: deterministic, seeded drop/delay/duplicate/reorder,
//!   partition and crash schedules composing over any backend;
//! * [`frame`] — the length-prefixed socket framing (hello/data/barrier);
//! * [`tcp`] — [`tcp::TcpEndpoint`], the real-socket backend, and
//!   [`TcpTransport`], its loopback fabric in-process; one endpoint per
//!   OS process for the `rex-node` distributed deployment;
//! * [`stats`] — per-node traffic accounting;
//! * [`link`] — a latency/bandwidth model that converts bytes to
//!   simulated transfer time.
//!
//! A fabric is its endpoints, so both backends run the protocol
//! bit-identically whether one owner drives every endpoint or each node
//! drives its own (the cross-backend equivalence tests hold them to
//! it); a further backend only has to implement [`Endpoint`] here — the
//! protocol engine and every experiment binary are generic over the
//! [`Fabric`] of it.

pub mod channel;
pub mod codec;
pub mod compress;
pub mod fault;
pub mod frame;
pub mod link;
pub mod mem;
pub mod message;
mod reactor;
pub mod stats;
pub mod tcp;
pub mod transport;

pub use codec::CodecError;
pub use fault::{CrashSpec, FaultPlan, LinkFaults, PartitionSpec};
pub use frame::{Frame, FrameError};
pub use link::LinkModel;
pub use mem::{Envelope, MemNetwork};
pub use message::{Payload, Plain};
pub use stats::{DeliveryStats, TrafficStats};
pub use tcp::TcpTransport;
pub use transport::{BarrierKind, Endpoint, Fabric, PeerCommitment, Transport, TransportError};
