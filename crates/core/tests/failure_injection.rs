//! Failure injection: hostile or corrupted traffic must be dropped without
//! derailing the protocol (the enclave boundary is the paper's defence
//! surface — anything unauthenticated simply never reaches rex_protocol).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rex_core::builder::Scenario;
use rex_core::config::{ExecutionMode, ProtocolConfig};
use rex_core::engine::{Engine, EngineConfig};
use rex_core::Node;
use rex_data::SyntheticConfig;
use rex_ml::MfModel;
use rex_net::mem::{Envelope, MemNetwork};
use rex_tee::SgxCostModel;

/// Attests the pair without running any protocol epochs (so both ends'
/// session counters start aligned at zero).
fn attest_only(nodes: &mut [Node<MfModel>]) {
    let cfg = EngineConfig {
        epochs: 0,
        execution: ExecutionMode::Sgx(SgxCostModel::default()),
        ..EngineConfig::default()
    };
    let result = Engine::new(MemNetwork::new(nodes.len()), cfg).run("setup", nodes);
    assert!(result.setup_ns > 0);
}

fn sgx_pair() -> Vec<Node<MfModel>> {
    Scenario {
        dataset: SyntheticConfig {
            num_users: 8,
            num_items: 60,
            num_ratings: 400,
            seed: 31,
            ..SyntheticConfig::default()
        },
        split_seed: 1,
        nodes: 2,
        protocol: ProtocolConfig {
            points_per_epoch: 30,
            steps_per_epoch: 60,
            ..Scenario::default().protocol
        },
        ..Scenario::default()
    }
    .build_fleet()
}

/// Runs an SGX fleet to establish sessions, then injects corrupted frames.
#[test]
fn tampered_sealed_frames_are_dropped_silently() {
    let mut nodes = sgx_pair();
    attest_only(&mut nodes);

    // Produce a genuine sealed message from node 0...
    let (outgoing, _) = nodes[0].epoch(Vec::new());
    let (dest, mut bytes) = outgoing.into_iter().next().unwrap();
    assert_eq!(dest, 1);
    // ...then corrupt its ciphertext.
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;

    let store_before = nodes[1].store().len();
    let (_, report) = nodes[1].epoch(vec![Envelope { from: 0, bytes }]);
    assert_eq!(
        report.new_points, 0,
        "corrupted frame must contribute nothing"
    );
    assert_eq!(nodes[1].store().len(), store_before);
    assert!(report.rmse.is_some(), "protocol must keep running");
}

#[test]
fn replayed_frames_are_rejected_by_session_counters() {
    let mut nodes = sgx_pair();
    attest_only(&mut nodes);
    let (outgoing, _) = nodes[0].epoch(Vec::new());
    let (_, bytes) = outgoing.into_iter().next().unwrap();

    // First delivery: accepted.
    let (_, first) = nodes[1].epoch(vec![Envelope {
        from: 0,
        bytes: bytes.clone(),
    }]);
    assert!(first.new_points > 0);
    // Replay: the AEAD nonce counter has advanced, so it must be dropped.
    let before = nodes[1].store().len();
    let (_, replay) = nodes[1].epoch(vec![Envelope { from: 0, bytes }]);
    assert_eq!(replay.new_points, 0, "replay accepted");
    assert_eq!(nodes[1].store().len(), before);
}

#[test]
fn random_garbage_flood_does_not_panic() {
    let mut nodes = sgx_pair();
    attest_only(&mut nodes);
    let mut rng = StdRng::seed_from_u64(5);
    let mut inbox = Vec::new();
    for _ in 0..50 {
        let len = 1 + (rand::Rng::gen_range(&mut rng, 0..200usize));
        let mut bytes = vec![0u8; len];
        rand::RngCore::fill_bytes(&mut rng, &mut bytes);
        inbox.push(Envelope { from: 0, bytes });
    }
    let (_, report) = nodes[1].epoch(inbox);
    assert_eq!(report.new_points, 0);
    assert!(report.rmse.is_some());
}
