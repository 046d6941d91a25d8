//! REX: the first enclave-based decentralized collaborative-filtering
//! recommender (paper: Dhasade, Dresevic, Kermarrec, Pires — IPDPS 2022).
//!
//! This crate is the paper's primary contribution. A REX deployment is a
//! set of nodes, each holding private rating data, connected by a gossip
//! topology. Per epoch every node runs the merge→train→share→test pipeline
//! of Algorithm 2:
//!
//! * **merge** — incorporate received models (weighted average) and/or
//!   append received raw ratings to the local store (deduplicated);
//! * **train** — a fixed number of SGD steps on the local store (fixed so
//!   epoch time stays flat as the store grows, §III-E);
//! * **share** — [`config::SharingMode::RawData`] (REX: a random sample of
//!   the store) or [`config::SharingMode::Model`] (the baseline: the full
//!   serialized model), sent to one random neighbour
//!   ([`config::GossipAlgorithm::Rmw`]) or all neighbours
//!   ([`config::GossipAlgorithm::DPsgd`], §III-C);
//! * **test** — RMSE on the local held-out set.
//!
//! In SGX mode every node's protocol state lives inside a simulated enclave
//! (`rex-tee`): peers mutually attest before exchanging anything, payloads
//! travel AEAD-sealed, and the runtime charges transition/paging costs that
//! surface in the experiment traces.
//!
//! # Architecture: one engine, one round, many backends
//!
//! All deployments run through a single transport-generic
//! [`engine::Engine`], and a node's epoch is sequenced once, by the
//! [`round::NodeRound`] state machine and carried out on the node's
//! endpoint by one driver; every deployment only schedules that driver:
//!
//! * [`round`] — the machine, and the **endpoint driver** that maps its
//!   actions onto one `rex_net::transport::Endpoint` (what a `rex-node`
//!   process runs, what both [`engine::Driver`]s run per node), with the
//!   bounded-async inbox policy beside it; also the one place a
//!   membership view transition is applied to a node;
//! * [`engine`] — the shared pipeline: TEE setup, the split of the
//!   fabric into endpoints, and the one fold of the nodes' reports into
//!   the trace;
//! * [`pool`] — the fixed work-stealing worker pool
//!   ([`engine::Driver::WorkSteal`]): it steps every node's driver in
//!   phases that end at the epoch's barriers and answers the waits
//!   between them, inline on the driver thread with one worker, on
//!   persistent workers otherwise, bit-identical either way;
//! * [`membership`] — epoch-scoped views of the live fleet: online
//!   joins with late attestation and sponsored raw-share bootstraps,
//!   graceful leaves with live topology rewiring, all part of the
//!   seeded scenario so churn replays bit-for-bit;
//! * [`commitment`] — per-epoch signed model-digest commitments: every
//!   node chains a SHA-256 digest over its epoch history and binds it to
//!   its identity with an HMAC tag, making any epoch auditable by replay
//!   (the `rex-node --challenge` workflow);
//! * [`serve`] — the read side: blocked, bound-pruned top-k scoring
//!   over a node's live factors ([`serve::Scorer`]), the brute-force
//!   oracle it is tested against, the seeded query stream, and the
//!   epoch-consistent [`serve::SnapshotQueue`] serve threads consume
//!   while training continues;
//! * [`setup`] — the one TEE provisioning + pairwise-attestation path,
//!   plus the [`setup::TeeDirectory`] late joins attest against;
//! * [`centralized`] — the engine's degenerate no-fabric deployment
//!   behind [`centralized::run_baseline`], the baseline curve.
//!
//! [`engine::Engine::new`] is the single entry point: the transport picks
//! the deployment and [`engine::EngineConfig`] the rest. A `MemNetwork`
//! under the default config (the worker pool, simulated time)
//! is the discrete-event simulator at any node count; the same
//! `MemNetwork` under [`engine::Driver::ThreadPerNode`] and
//! [`engine::TimeAxis::Wall`] splits into one endpoint per node and runs
//! one OS thread per node on the endpoint driver, the paper's 8-node
//! deployment.
//!
//! # User shards
//!
//! A node may host a **user shard** — a contiguous block of user rows
//! ([`rex_data::UserBlock`], cut by [`rex_data::Partition::user_blocks`])
//! instead of a single user — pushing one in-process fleet to hundreds of
//! thousands to millions of *virtual users* across ordinary node counts.
//! Construction goes through [`node::NodeBuilder::shard`] (a sharded
//! [`builder::Scenario`] cuts the blocks); the store grows a row index
//! ([`store::RawDataStore::for_space`]), training switches to the
//! row-block-batched [`rex_ml::Model::train_steps_batched`], EPC
//! accounting reports the index as its own `rex_tee` region, and the
//! share stage aggregates the whole shard into one wire message per
//! recipient (traffic scales with shards, not users). Width-1 shards
//! normalize away at build time, so `users_per_node = 1` deployments are
//! bit-identical to the legacy per-user fleet on every backend.

pub mod builder;
pub mod centralized;
pub mod commitment;
pub mod config;
pub mod engine;
pub mod membership;
pub mod node;
pub mod pool;
pub mod round;
pub mod serve;
pub mod setup;
pub mod store;
pub mod trace_out;

pub use builder::{build_dnn_nodes, build_mf_nodes, Scenario};
pub use centralized::run_baseline;
pub use commitment::{CommitmentChain, EpochCommitment};
pub use config::{ExecutionMode, GossipAlgorithm, ProtocolConfig, SharingMode, WireCodec};
pub use engine::{Driver, Engine, EngineConfig, EngineResult, TimeAxis};
pub use membership::{JoinSpec, LeaveSpec, MembershipPlan, MembershipView, ViewTransition};
pub use node::{NoEnclave, Node, NodeBuilder};
pub use serve::{
    naive_top_k, score_one, snapshot_digest, ModelSnapshot, QueryStream, ScoredItem, Scorer,
    SnapshotQueue, TopKQuery,
};
pub use store::RawDataStore;
