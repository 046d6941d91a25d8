//! Challenger mode: replay a recorded node's epochs and check its
//! signed commitments.
//!
//! Determinism is the audit mechanism. Every epoch of a lockstep
//! cluster is exactly reproducible from the shared config seeds, so a
//! challenger can rebuild the whole fleet, re-run the suspect's epochs
//! in process, and compare the replayed commitment chain against the
//! chain the suspect published ([`crate::NodeSummary::commitments`]).
//! A node that trained something other than what the protocol
//! prescribes — skipped steps, tampered model rows, forged tags —
//! produces a chain that diverges at the first dishonest epoch and
//! stays divergent forever after (digests are history-chained).
//!
//! A confirmed divergence is answered through the membership machinery:
//! the suspect is scheduled out with a graceful leave at the divergent
//! epoch (clamped to the schedule's legality rules) and the cluster is
//! re-run under the eviction plan to demonstrate the surviving fleet
//! completes the run without it.

use crate::{run_cluster_in_process, ClusterConfig, NodeDriver, NodeSummary};
use rex_core::commitment::verify_tag;

/// What a challenge replay concluded.
#[derive(Debug, Clone, PartialEq)]
pub enum ChallengeVerdict {
    /// Every recorded commitment matched the replayed chain bit-for-bit.
    Honest {
        /// Epochs compared (the run's full span).
        epochs_checked: usize,
        /// Epochs the suspect actually executed and committed.
        epochs_committed: usize,
    },
    /// The recorded chain diverged from the replay.
    Divergent {
        /// First epoch whose commitment disagrees with the replay.
        epoch: usize,
        /// What disagreed, human-readable.
        reason: String,
        /// The epoch the eviction schedules the suspect's leave at.
        eviction_epoch: usize,
        /// Summaries of the re-run under the eviction plan — proof the
        /// surviving fleet completes the run without the suspect.
        post_eviction: Vec<NodeSummary>,
    },
}

/// Replays the cluster `cfg` describes and audits node `suspect`'s
/// recorded summary against the replayed commitment chain. On
/// divergence, schedules the suspect's eviction and re-runs the fleet
/// under the eviction plan (see the module docs).
///
/// Only lockstep clusters are challengeable: bounded-async trajectories
/// over real sockets depend on arrival timing, so a replay is not
/// bit-comparable evidence there.
///
/// # Errors
/// When the config and summary disagree on shape, the summary carries
/// no commitment log, the driver is not lockstep, or a replay fails.
pub fn challenge_node(
    cfg: &ClusterConfig,
    suspect: usize,
    recorded: &NodeSummary,
) -> Result<ChallengeVerdict, String> {
    let n = cfg.num_nodes();
    if suspect >= n {
        return Err(format!("challenge: node {suspect} outside cluster of {n}"));
    }
    if recorded.id != suspect {
        return Err(format!(
            "challenge: summary belongs to node {}, not suspect {suspect}",
            recorded.id
        ));
    }
    if cfg.driver != NodeDriver::Lockstep {
        return Err(
            "challenge: only lockstep clusters replay bit-for-bit; a bounded-async \
             trajectory depends on real arrival timing and is not comparable evidence"
                .to_string(),
        );
    }
    if recorded.epochs != cfg.epochs {
        return Err(format!(
            "challenge: summary spans {} epochs, config runs {}",
            recorded.epochs, cfg.epochs
        ));
    }
    if recorded.commitments.is_empty() {
        return Err(
            "challenge: summary carries no commitment log (recorded before verifiable \
             epochs, or truncated)"
                .to_string(),
        );
    }

    // Ground truth: the full fleet replayed in process. The suspect's
    // thread recomputes exactly the chain an honest deployed process
    // would have published.
    let reference = run_cluster_in_process(cfg).map_err(|e| format!("challenge replay: {e}"))?;
    let expected = &reference[suspect].commitments;

    // The chain index (what each HMAC tag binds) counts *executed*
    // epochs, which the replay's schedule dictates.
    let mut chain_index = 0usize;
    let mut divergence: Option<(usize, String)> = None;
    for epoch in 0..cfg.epochs {
        let exp = expected.get(epoch).copied().flatten();
        let got = recorded.commitments.get(epoch).copied().flatten();
        match (exp, got) {
            (None, None) => {}
            (Some(_), None) => {
                divergence = Some((epoch, "commitment withheld for an executed epoch".into()));
            }
            (None, Some(_)) => {
                divergence = Some((
                    epoch,
                    "commitment published for an epoch the schedule sat out".into(),
                ));
            }
            (Some(exp), Some(got)) => {
                if got == exp {
                    chain_index += 1;
                    continue;
                }
                let reason = if !verify_tag(cfg.protocol_seed, suspect, chain_index, &got) {
                    "commitment tag fails HMAC verification (forged or mis-keyed)"
                } else if got.digest != exp.digest {
                    "model digest diverges from the replayed chain"
                } else {
                    "commitment tag diverges from the replayed chain"
                };
                divergence = Some((epoch, reason.into()));
            }
        }
        if divergence.is_some() {
            break;
        }
    }

    let Some((epoch, reason)) = divergence else {
        return Ok(ChallengeVerdict::Honest {
            epochs_checked: cfg.epochs,
            epochs_committed: chain_index,
        });
    };

    // Evict through the membership machinery: a graceful leave at the
    // divergent epoch — the peers retire the suspect at that exact
    // schedule point, before it executes the tainted round. Clamped to
    // the plan's legality rules: at least 1 (the node already ran epoch
    // 0 by the time anyone can compare commitments) and after the
    // suspect's own join.
    let plan = cfg.membership.clone().unwrap_or_default();
    let mut eviction_epoch = epoch.max(1);
    if let Some(j) = plan.join_epoch(suspect) {
        eviction_epoch = eviction_epoch.max(j + 1);
    }
    let plan = match plan.leave_epoch(suspect) {
        // Already scheduled out no later than the eviction point — the
        // schedule handles it; re-adding would be a duplicate leave.
        Some(l) if l <= eviction_epoch => plan,
        Some(l) => {
            return Err(format!(
                "challenge: node {suspect} diverged at epoch {epoch} but its scheduled \
                 leave at {l} is later; rewrite the [membership] schedule manually"
            ));
        }
        None => plan.with_leave(suspect, eviction_epoch),
    };
    plan.check(n)
        .map_err(|e| format!("challenge: eviction plan invalid: {e}"))?;
    let mut evicted_cfg = cfg.clone();
    evicted_cfg.membership = Some(plan);
    let post_eviction = run_cluster_in_process(&evicted_cfg)
        .map_err(|e| format!("challenge: post-eviction replay: {e}"))?;

    Ok(ChallengeVerdict::Divergent {
        epoch,
        reason,
        eviction_epoch,
        post_eviction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize) -> ClusterConfig {
        ClusterConfig {
            nodes: (0..n).map(|i| format!("127.0.0.1:{}", 7400 + i)).collect(),
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

    #[test]
    fn honest_summary_is_accepted() {
        let cfg = cfg(4);
        let summaries = run_cluster_in_process(&cfg).unwrap();
        let verdict = challenge_node(&cfg, 2, &summaries[2]).unwrap();
        assert_eq!(
            verdict,
            ChallengeVerdict::Honest {
                epochs_checked: 4,
                epochs_committed: 4,
            }
        );
    }

    #[test]
    fn tampered_digest_is_flagged_and_evicted() {
        let cfg = cfg(4);
        let summaries = run_cluster_in_process(&cfg).unwrap();
        let mut tampered = summaries[1].clone();
        // Bit-flip the epoch-2 digest: the forger re-signs it with some
        // key, but the chain no longer matches the replay.
        let mut c = tampered.commitments[2].unwrap();
        c.digest[7] ^= 0x40;
        tampered.commitments[2] = Some(c);
        let ChallengeVerdict::Divergent {
            epoch,
            reason,
            eviction_epoch,
            post_eviction,
        } = challenge_node(&cfg, 1, &tampered).unwrap()
        else {
            panic!("tampered summary accepted");
        };
        assert_eq!(epoch, 2);
        assert!(
            reason.contains("HMAC"),
            "stale tag over a flipped digest: {reason}"
        );
        assert_eq!(eviction_epoch, 2);
        // The surviving fleet completed the run; the suspect sat out
        // every epoch from its eviction on.
        assert_eq!(post_eviction.len(), 4);
        assert!(post_eviction[1].rmse_trace_bits[2..]
            .iter()
            .all(Option::is_none));
        for s in &post_eviction {
            if s.id != 1 {
                assert!(s.rmse_trace_bits.iter().all(Option::is_some));
            }
        }
    }

    #[test]
    fn forged_tag_is_flagged() {
        let cfg = cfg(3);
        let summaries = run_cluster_in_process(&cfg).unwrap();
        let mut forged = summaries[0].clone();
        let mut c = forged.commitments[1].unwrap();
        c.tag[0] ^= 1;
        forged.commitments[1] = Some(c);
        let ChallengeVerdict::Divergent { epoch, reason, .. } =
            challenge_node(&cfg, 0, &forged).unwrap()
        else {
            panic!("forged tag accepted");
        };
        assert_eq!(epoch, 1);
        assert!(reason.contains("HMAC"), "{reason}");
    }

    #[test]
    fn withheld_commitment_is_flagged() {
        let cfg = cfg(3);
        let summaries = run_cluster_in_process(&cfg).unwrap();
        let mut withheld = summaries[2].clone();
        withheld.commitments[3] = None;
        let ChallengeVerdict::Divergent { epoch, reason, .. } =
            challenge_node(&cfg, 2, &withheld).unwrap()
        else {
            panic!("withheld commitment accepted");
        };
        assert_eq!(epoch, 3);
        assert!(reason.contains("withheld"), "{reason}");
    }

    #[test]
    fn shape_mismatches_are_errors_not_verdicts() {
        let cfg4 = cfg(4);
        let summaries = run_cluster_in_process(&cfg4).unwrap();
        // Wrong suspect id.
        assert!(challenge_node(&cfg4, 9, &summaries[0]).is_err());
        assert!(challenge_node(&cfg4, 2, &summaries[0]).is_err());
        // No commitment log.
        let mut bare = summaries[3].clone();
        bare.commitments = Vec::new();
        assert!(challenge_node(&cfg4, 3, &bare).is_err());
        // Epoch-span mismatch.
        let mut short = cfg4.clone();
        short.epochs = 3;
        assert!(challenge_node(&short, 0, &summaries[0]).is_err());
        // Bounded-async is not challengeable.
        let mut async_cfg = cfg4.clone();
        async_cfg.driver = NodeDriver::BoundedAsync { k: 2 };
        let err = challenge_node(&async_cfg, 0, &summaries[0]).unwrap_err();
        assert!(err.contains("lockstep"), "{err}");
    }
}
