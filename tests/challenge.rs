//! Challenger-mode oracle: a real multi-process TCP cluster run is
//! replayable bit-for-bit, so `rex-node --challenge` accepts every
//! honest recorded summary and flags (then evicts) a tampered one.
//!
//! The launcher needs the `rex-node` binary, which `cargo test` builds as
//! part of the workspace; if it is missing (e.g. a filtered build), the
//! tests skip with a notice instead of failing.

use rex_repro::core::commitment::verify_tag;
use rex_repro::core::CommitmentChain;
use rex_repro::node::launcher::{find_node_binary, launch_cluster, scratch_dir};
use rex_repro::node::{
    challenge_node, run_cluster_in_process, ChallengeVerdict, ClusterConfig, NodeSummary,
};
use std::path::{Path, PathBuf};
use std::process::Command;

fn tiny_cfg(n: usize) -> ClusterConfig {
    ClusterConfig {
        // Placeholder addresses; the launcher reserves real ports.
        nodes: (0..n).map(|i| format!("127.0.0.1:{}", 7300 + i)).collect(),
        epochs: 4,
        num_users: 16,
        num_items: 80,
        num_ratings: 1_000,
        points_per_epoch: 20,
        steps_per_epoch: 60,
        audit: true,
        ..ClusterConfig::default()
    }
}

fn require_binary() -> Option<PathBuf> {
    let bin = find_node_binary();
    if bin.is_none() {
        eprintln!("[challenge] rex-node binary not built; skipping");
    }
    bin
}

/// Runs `rex-node --challenge` against a recorded summary and returns
/// `(exit_code, stdout)`.
fn run_challenger(bin: &Path, config: &Path, suspect: usize, summary: &Path) -> (i32, String) {
    let output = Command::new(bin)
        .arg("--config")
        .arg(config)
        .arg("--challenge")
        .arg(suspect.to_string())
        .arg("--summary")
        .arg(summary)
        .output()
        .expect("spawning challenger");
    (
        output.status.code().expect("challenger exit code"),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

#[test]
fn challenger_audits_a_deployed_cluster_end_to_end() {
    let Some(bin) = require_binary() else {
        return;
    };
    let cfg = tiny_cfg(4);
    let dir = scratch_dir("challenge");
    // Keep the workdir alive: the challenger reads the very config file
    // and summary files the deployed cluster wrote.
    let deployed = launch_cluster(&bin, &cfg, &dir).expect("cluster run failed");
    let config_path = dir.join("cluster.toml");

    // The deployed processes committed every epoch with verifiable tags.
    for s in &deployed {
        assert_eq!(s.commitments.len(), cfg.epochs, "node {}", s.id);
        for (epoch, c) in s.commitments.iter().enumerate() {
            let c = c.expect("static fleet commits every epoch");
            assert!(
                verify_tag(cfg.protocol_seed, s.id, epoch, &c),
                "node {} epoch {epoch}: deployed tag does not verify",
                s.id
            );
        }
    }

    // Honest recorded summary: the binary replays the run from seed and
    // accepts (exit 0).
    let (code, stdout) = run_challenger(&bin, &config_path, 1, &dir.join("node1.summary"));
    assert_eq!(code, 0, "honest challenge failed:\n{stdout}");
    assert!(stdout.contains("verdict = honest"), "{stdout}");
    assert!(stdout.contains("epochs_committed = 4"), "{stdout}");

    // Library-level: every node's deployed summary matches the replay.
    let recorded_cfg =
        ClusterConfig::parse(&std::fs::read_to_string(&config_path).expect("config readback"))
            .expect("config reparse");
    for s in &deployed {
        let verdict = challenge_node(&recorded_cfg, s.id, s).expect("challenge ran");
        assert_eq!(
            verdict,
            ChallengeVerdict::Honest {
                epochs_checked: cfg.epochs,
                epochs_committed: cfg.epochs,
            },
            "node {}",
            s.id
        );
    }

    // Tamper with the recorded chain (flip one digest bit, keep the
    // stale tag) and challenge again: flagged, eviction demonstrated,
    // exit 1.
    let mut tampered = deployed[1].clone();
    let mut c = tampered.commitments[2].expect("epoch 2 commitment");
    c.digest[0] ^= 0x01;
    tampered.commitments[2] = Some(c);
    let tampered_path = dir.join("node1.tampered.summary");
    std::fs::write(&tampered_path, tampered.to_text()).expect("writing tampered summary");

    let (code, stdout) = run_challenger(&bin, &config_path, 1, &tampered_path);
    assert_eq!(code, 1, "tampered challenge not flagged:\n{stdout}");
    assert!(stdout.contains("verdict = divergent"), "{stdout}");
    assert!(stdout.contains("divergent_epoch = 2"), "{stdout}");
    assert!(stdout.contains("eviction_epoch = 2"), "{stdout}");
    assert!(stdout.contains("post_eviction_survivors = 3"), "{stdout}");

    // A garbage summary is an error (exit 2), not a verdict.
    let bad_path = dir.join("garbage.summary");
    std::fs::write(&bad_path, "not a summary").expect("writing garbage");
    let output = Command::new(&bin)
        .arg("--config")
        .arg(&config_path)
        .arg("--challenge")
        .arg("1")
        .arg("--summary")
        .arg(&bad_path)
        .output()
        .expect("spawning challenger");
    assert_eq!(output.status.code(), Some(2));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_run_model_tamper_diverges_at_the_flipped_epoch() {
    // The subtle forgery: the suspect trains honestly through epoch 1,
    // then flips a bit in one model row and keeps signing its (now
    // wrong) chain with its *real* key. Every tag verifies — only the
    // replay exposes that the committed models are not the protocol's.
    let cfg = tiny_cfg(4);
    let summaries = run_cluster_in_process(&cfg).expect("reference run");
    let mut tampered = summaries[2].clone();
    let honest_head = tampered.commitments[1].expect("epoch 1").digest;
    let mut forged = CommitmentChain::resume(cfg.protocol_seed, 2, honest_head);
    // Static fleet: the chain index the tag binds equals the epoch.
    tampered.commitments[2] = Some(forged.advance(2, b"model with one row bit-flipped"));
    tampered.commitments[3] = Some(forged.advance(3, b"the divergence persists"));
    for (epoch, c) in tampered.commitments.iter().enumerate() {
        assert!(
            verify_tag(cfg.protocol_seed, 2, epoch, &c.unwrap()),
            "epoch {epoch}: the forger signs with its real key"
        );
    }

    let ChallengeVerdict::Divergent {
        epoch,
        reason,
        eviction_epoch,
        post_eviction,
    } = challenge_node(&cfg, 2, &tampered).expect("challenge ran")
    else {
        panic!("mid-run tamper accepted");
    };
    assert_eq!(epoch, 2);
    assert!(
        reason.contains("model digest diverges"),
        "valid tag, wrong model: {reason}"
    );
    assert_eq!(eviction_epoch, 2);
    // The eviction re-run: suspect sits out from the divergent epoch on,
    // the surviving fleet completes the whole run.
    assert_eq!(post_eviction.len(), 4);
    assert!(post_eviction[2].rmse_trace_bits[2..]
        .iter()
        .all(Option::is_none));
    assert!(post_eviction[2].commitments[2..]
        .iter()
        .all(Option::is_none));
    for s in &post_eviction {
        if s.id != 2 {
            assert!(
                s.rmse_trace_bits.iter().all(Option::is_some),
                "node {}",
                s.id
            );
            assert!(s.commitments.iter().all(Option::is_some), "node {}", s.id);
        }
    }
}

#[test]
fn recorded_summary_roundtrips_through_disk_for_the_challenger() {
    // The challenger consumes summaries through the text format; the
    // commitment log must survive the disk roundtrip bit-for-bit.
    let cfg = tiny_cfg(3);
    let summaries = run_cluster_in_process(&cfg).expect("reference run");
    for s in &summaries {
        let reparsed = NodeSummary::parse(&s.to_text()).expect("roundtrip");
        assert_eq!(&reparsed, s);
        assert_eq!(
            challenge_node(&cfg, s.id, &reparsed).expect("challenge ran"),
            ChallengeVerdict::Honest {
                epochs_checked: cfg.epochs,
                epochs_committed: cfg.epochs,
            }
        );
    }
}
