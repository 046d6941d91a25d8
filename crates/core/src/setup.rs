//! The single TEE provisioning + attestation path shared by every
//! deployment backend.
//!
//! Before the seed refactor, the simulator and the threaded deployment each
//! carried their own `establish_tee` with diverging details (platform
//! packing, byte accounting). This module is now the only place that
//! provisions SGX platforms, installs enclaves, and runs the pairwise
//! attestation handshake of Algorithm 1 over the topology edges — generic
//! over [`Transport`], so handshake bytes are accounted by whichever
//! backend carries them.

use crate::membership::{MembershipPlan, MembershipView};
use crate::node::Node;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rex_ml::Model;
use rex_net::codec::encode_payload;
use rex_net::fault::FaultPlan;
use rex_net::link::LinkModel;
use rex_net::message::Payload;
use rex_net::transport::Transport;
use rex_sim::stopwatch::Stopwatch;
use rex_tee::attestation::Attestor;
use rex_tee::measurement::REX_ENCLAVE_V1;
use rex_tee::{DcapService, SgxCostModel, SgxPlatform};

/// What TEE setup measured, for conversion onto either time axis.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupReport {
    /// Wall-clock time of provisioning + all handshakes, ns.
    pub measured_ns: u64,
    /// Largest single handshake message on the wire, bytes.
    pub handshake_bytes_max: u64,
    /// Number of attested topology edges.
    pub edges: usize,
}

impl SetupReport {
    /// Projects the measurement onto the simulated time axis: handshakes
    /// across distinct pairs run concurrently in a real deployment, so
    /// charge the serially-measured compute scaled down by the fleet
    /// parallelism, plus two link trips for the longest handshake chain.
    #[must_use]
    pub fn simulated_ns(&self, num_nodes: usize, link: &LinkModel) -> u64 {
        if self.edges == 0 {
            return 0;
        }
        self.measured_ns / num_nodes.max(1) as u64 + 2 * link.transfer_ns(self.handshake_bytes_max)
    }

    /// Projects the measurement onto the wall-clock axis (setup ran
    /// in-process, so the measurement *is* the cost).
    #[must_use]
    pub fn wall_ns(&self) -> u64 {
        self.measured_ns
    }
}

/// The TEE infrastructure a fleet was provisioned with, retained past
/// setup so **late joins** can attest after epoch 0: the DCAP service
/// that knows every platform, the platforms themselves (quoting
/// enclaves), the packing factor, and the infrastructure seed the
/// deterministic joiner material derives from. Every process that
/// replays setup from the same seed holds an identical directory, so
/// late attestation needs no coordinator (see [`rex_tee::join`]).
pub struct TeeDirectory {
    /// The attestation verification service.
    pub dcap: DcapService,
    /// Provisioned platforms, `platforms[node / processes_per_platform]`
    /// hosting `node`'s enclave.
    pub platforms: Vec<SgxPlatform>,
    /// REX processes packed per platform.
    pub processes_per_platform: usize,
    /// The infrastructure seed everything was derived from.
    pub seed: u64,
}

impl TeeDirectory {
    /// The platform hosting `node`'s enclave.
    #[must_use]
    pub fn platform_of(&self, node: usize) -> &SgxPlatform {
        &self.platforms[node / self.processes_per_platform.max(1)]
    }
}

/// Reduces every node's neighbour list to the edges of `overlay` — the
/// membership twin of [`prune_dead_nodes`]: edges whose far end is not
/// yet (or no longer) a member are stripped before TEE setup, so
/// attestation covers exactly the founding overlay and latent edges are
/// attested later, when they materialize. Run by the engine and by every
/// deployed `rex-node` process, which is what keeps multi-process
/// attestation replay bit-identical with the in-process engine.
pub fn prune_to_overlay<M: Model>(nodes: &mut [Node<M>], overlay: &rex_topology::Graph) {
    assert_eq!(nodes.len(), overlay.len(), "overlay/fleet size mismatch");
    for (id, node) in nodes.iter_mut().enumerate() {
        for peer in node.neighbors().to_vec() {
            if !overlay.has_edge(id, peer) {
                node.remove_neighbor(peer);
            }
        }
    }
}

/// The founding membership view of a fleet under `plan`, applied to it:
/// nodes `faults` keeps dead at setup are excluded from membership
/// outright (repair never bridges to them), the epoch-0 view is built
/// over the fleet's current overlay, and every neighbour list is pruned
/// to it, so edges touching future joiners stay latent and TEE setup
/// attests exactly the founding overlay. The engine and every deployed
/// `rex-node` process build their view here.
pub fn founding_view<M: Model>(
    nodes: &mut [Node<M>],
    plan: MembershipPlan,
    faults: Option<&FaultPlan>,
) -> MembershipView {
    let excluded = faults
        .map(|p| p.dead_at_setup(nodes.len()))
        .unwrap_or_default();
    let view = MembershipView::new(plan, &overlay_of(nodes), &excluded);
    prune_to_overlay(nodes, view.overlay());
    view
}

/// Rebuilds the overlay graph a fleet's neighbour lists currently
/// describe (used to seed a [`MembershipView`] after the fault-plan
/// pruning already ran).
#[must_use]
pub fn overlay_of<M: Model>(nodes: &[Node<M>]) -> rex_topology::Graph {
    let mut g = rex_topology::Graph::empty(nodes.len());
    for (id, node) in nodes.iter().enumerate() {
        for &peer in node.neighbors() {
            g.add_edge(id, peer);
        }
    }
    g
}

/// The crash-aware pre-setup step: prunes nodes that a fault plan keeps
/// down for the entire run (crash at epoch 0, no rejoin) out of the
/// overlay — every survivor drops them from its neighbour list (so
/// Metropolis–Hastings weights renormalize over the surviving degree)
/// and the dead nodes' own lists are cleared (so [`establish_tee`],
/// whose edge list derives from the neighbour views, attests no edge
/// touching them). The engine and the deployed `rex-node` fleet builder
/// both run exactly this function, which is what keeps multi-process
/// attestation replay bit-identical with the in-process engine.
pub fn prune_dead_nodes<M: Model>(nodes: &mut [Node<M>], plan: &FaultPlan) {
    let dead = plan.dead_at_setup(nodes.len());
    if !dead.iter().any(|&d| d) {
        return;
    }
    for (id, node) in nodes.iter_mut().enumerate() {
        if dead[id] {
            for peer in node.neighbors().to_vec() {
                node.remove_neighbor(peer);
            }
        } else {
            for (peer, _) in dead.iter().enumerate().filter(|(_, &d)| d) {
                node.remove_neighbor(peer);
            }
        }
    }
}

/// Provisions platforms and enclaves, then mutually attests every topology
/// edge, installing a `SecureSession` at both ends.
///
/// `processes_per_platform` models machine packing: the paper's testbed
/// runs 2 REX processes per SGX server, the simulator one platform per
/// node. Handshake messages travel through `transport` so their bytes are
/// accounted; the caller's epoch loop starts with clean inboxes because
/// the handshake traffic is drained here.
///
/// # Panics
/// On attestation failure between honest peers (a protocol bug, not an
/// input condition).
pub fn establish_tee<M: Model, T: Transport>(
    nodes: &mut [Node<M>],
    transport: &mut T,
    cost: SgxCostModel,
    processes_per_platform: usize,
    seed: u64,
) -> SetupReport {
    establish_tee_with_directory(nodes, transport, cost, processes_per_platform, seed).0
}

/// [`establish_tee`], additionally returning the [`TeeDirectory`] the
/// fleet was provisioned with — callers that support **late joins**
/// (dynamic membership) retain it so joiners can attest after epoch 0.
///
/// # Panics
/// As [`establish_tee`].
pub fn establish_tee_with_directory<M: Model, T: Transport>(
    nodes: &mut [Node<M>],
    transport: &mut T,
    cost: SgxCostModel,
    processes_per_platform: usize,
    seed: u64,
) -> (SetupReport, TeeDirectory) {
    let sw = Stopwatch::start();
    let dcap = DcapService::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let ppp = processes_per_platform.max(1);
    let num_platforms = nodes.len().div_ceil(ppp);
    let platforms: Vec<SgxPlatform> = (0..num_platforms)
        .map(|i| SgxPlatform::provision(i as u64, &dcap, &mut rng))
        .collect();
    for (i, node) in nodes.iter_mut().enumerate() {
        node.install_enclave(platforms[i / ppp].create_enclave(REX_ENCLAVE_V1, cost));
    }

    // Attest every edge once, initiator = lower id, in deterministic order.
    let mut edges = Vec::new();
    for (a, node) in nodes.iter().enumerate() {
        for &b in node.neighbors() {
            if a < b {
                edges.push((a, b));
            }
        }
    }

    let mut handshake_bytes_max = 0u64;
    for &(a, b) in &edges {
        let att_a = Attestor::new(&mut rng);
        let att_b = Attestor::new(&mut rng);

        let quote_a = {
            let enclave = nodes[a].enclave_mut().expect("enclave installed");
            let report = enclave.create_report(att_a.user_data());
            platforms[a / ppp]
                .quote_report(&report)
                .expect("own QE accepts")
        };
        let quote_b = {
            let enclave = nodes[b].enclave_mut().expect("enclave installed");
            let report = enclave.create_report(att_b.user_data());
            platforms[b / ppp]
                .quote_report(&report)
                .expect("own QE accepts")
        };

        // A -> B : Hello (through the transport for byte accounting).
        let hello = Attestor::hello(quote_a.clone());
        let hello_bytes = encode_payload(&Payload::Attestation(hello.clone()));
        handshake_bytes_max = handshake_bytes_max.max(hello_bytes.len() as u64);
        transport.send(a, b, hello_bytes);

        // B -> A : quote + key share reply.
        let (reply, session_b) = att_b
            .respond(
                nodes[b].enclave_mut().expect("enclave"),
                &dcap,
                quote_b,
                &hello,
            )
            .expect("honest peers attest");
        let reply_bytes = encode_payload(&Payload::Attestation(reply.clone()));
        handshake_bytes_max = handshake_bytes_max.max(reply_bytes.len() as u64);
        transport.send(b, a, reply_bytes);

        let session_a = att_a
            .finish(
                nodes[a].enclave_mut().expect("enclave"),
                &dcap,
                &quote_a,
                &reply,
            )
            .expect("honest peers attest");

        // Both enclaves answered the handshake above, so both are
        // installed.
        nodes[a].install_session(b, session_a).expect("enclave");
        nodes[b].install_session(a, session_b).expect("enclave");
    }

    // Drain the handshake traffic so epoch 0 starts with clean inboxes.
    // The flush is the round barrier: on fabrics with real propagation
    // delay (TCP) it guarantees every handshake frame has landed in its
    // destination mailbox before the drain, so none can leak into the
    // epoch loop; on the in-memory fabrics it is a no-op.
    transport.flush();
    for id in 0..nodes.len() {
        let _ = transport.recv(id);
    }

    (
        SetupReport {
            measured_ns: sw.elapsed_ns(),
            handshake_bytes_max,
            edges: edges.len(),
        },
        TeeDirectory {
            dcap,
            platforms,
            processes_per_platform: ppp,
            seed,
        },
    )
}
