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
//! * [`transport`] — the backend seam: the [`Transport`]/[`Endpoint`]
//!   fabric abstraction and the [`Clock`] time hook that the generic
//!   engine in `rex-core` is written against;
//! * [`mem`] — [`MemNetwork`], the in-memory backend: single-owner
//!   instrumented mailboxes for the discrete-event simulator, split into
//!   per-node endpoints for the real-thread deployment;
//! * [`channel`] — [`channel::ChannelEndpoint`], the crossbeam-channel
//!   endpoint a split [`MemNetwork`] hands each node thread;
//! * [`fault`] — [`FaultPlan`] and the [`FaultyTransport`] /
//!   [`fault::FaultyEndpoint`] wrappers: deterministic, seeded
//!   drop/delay/duplicate/reorder, partition and crash schedules
//!   composing over any backend;
//! * [`frame`] — the length-prefixed socket framing (hello/data/barrier);
//! * [`tcp`] — [`TcpTransport`]/[`tcp::TcpEndpoint`], the real-socket
//!   backend: loopback fabric in-process, or one endpoint per OS process
//!   for the `rex-node` distributed deployment;
//! * [`stats`] — per-node traffic accounting;
//! * [`link`] — a latency/bandwidth model that converts bytes to
//!   simulated transfer time.
//!
//! Both [`Transport`] backends run the protocol bit-identically, split
//! or not (the cross-backend equivalence tests hold them to it); a
//! further backend only has to implement [`Transport`] + [`Endpoint`]
//! here — the protocol engine and every experiment binary are generic
//! over it.

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
pub use fault::{CrashSpec, FaultPlan, FaultyTransport, LinkFaults, PartitionSpec};
pub use frame::{Frame, FrameError};
pub use link::LinkModel;
pub use mem::{Envelope, MemNetwork};
pub use message::{Payload, Plain};
pub use stats::{DeliveryStats, TrafficStats};
pub use tcp::TcpTransport;
pub use transport::{
    BarrierKind, Clock, Endpoint, PeerCommitment, Transport, TransportError, WallClock,
};
