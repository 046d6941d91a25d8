//! Brute-force oracle conformance for the serve path: the blocked,
//! bound-pruned [`Scorer`] must return **exactly** what a naive
//! full-scan argsort returns — same items, same unclamped score bits,
//! same deterministic tie order — for random factors, every k regime
//! (1, 10, dim, over-ask), with and without exclusion lists, and across
//! interleaved `train_steps_batched` updates that invalidate the norm
//! cache mid-stream.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rex_repro::core::serve::{naive_top_k, score_one, QueryStream, Scorer, TopKQuery};
use rex_repro::data::Rating;
use rex_repro::ml::{MfHyperParams, MfModel, Model};

/// A rating on the half-star grid, over a small dense universe so
/// random draws actually collide into seen users/items.
fn arb_rating(users: u32, items: u32) -> impl Strategy<Value = Rating> {
    (0..users, 0..items, 1u32..=10).prop_map(|(user, item, halves)| Rating {
        user,
        item,
        value: halves as f32 * 0.5,
    })
}

/// A model trained on random data for a random number of steps: random
/// factors with the real generating process (so seen-masks, biases and
/// embeddings all carry realistic structure).
fn trained(seed: u64, users: u32, items: u32, data: &[Rating], steps: usize) -> MfModel {
    let mut m = MfModel::new(users, items, MfHyperParams::default(), 3.3, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
    m.train_steps(data, steps, &mut rng);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The headline oracle: every block size, every k regime, random
    /// factors — pruned/blocked top-k equals full-scan argsort exactly.
    #[test]
    fn scorer_equals_oracle(
        seed in 0u64..1_000,
        data in proptest::collection::vec(arb_rating(12, 90), 1..300),
        steps in 1usize..600,
        block in 1usize..130,
        user in 0u32..12,
    ) {
        let m = trained(seed, 12, 90, &data, steps);
        let mut scorer = Scorer::new(block);
        // k = 1, the paper's k = 10, k = dim (90), and an over-ask.
        for k in [1usize, 10, 90, 150] {
            let got = scorer.top_k(&m, &TopKQuery { user, k }, &[]);
            let want = naive_top_k(&m, user, k, &[]);
            prop_assert_eq!(&got, &want, "block {} k {}", block, k);
            // Scores are the exact unclamped bits of score_one.
            for s in &got {
                prop_assert_eq!(s.score.to_bits(), score_one(&m, user, s.item).to_bits());
            }
        }
    }

    /// Exclusion lists (per-shard candidate pruning) never change the
    /// relative order of what remains, and excluded items never appear.
    #[test]
    fn scorer_equals_oracle_under_exclusions(
        seed in 0u64..1_000,
        data in proptest::collection::vec(arb_rating(10, 60), 1..200),
        excl in proptest::collection::vec(0u32..60, 0..40),
        block in 1usize..70,
        user in 0u32..10,
        k in 1usize..70,
    ) {
        let m = trained(seed, 10, 60, &data, 300);
        let mut exclude = excl;
        exclude.sort_unstable();
        exclude.dedup();
        let mut scorer = Scorer::new(block);
        let got = scorer.top_k(&m, &TopKQuery { user, k }, &exclude);
        prop_assert_eq!(&got, &naive_top_k(&m, user, k, &exclude));
        for s in &got {
            prop_assert!(exclude.binary_search(&s.item).is_err(), "excluded item served");
        }
    }

    /// Unseen users (cold-start) and a fully tied score surface: the
    /// answer is the k smallest admissible item ids, deterministically.
    #[test]
    fn cold_start_ties_break_by_item_id(
        users in 1u32..8,
        items in 1u32..120,
        k in 1usize..130,
        block in 1usize..40,
    ) {
        let m = MfModel::new(users, items, MfHyperParams::default(), 3.0, 1);
        let mut scorer = Scorer::new(block);
        let got = scorer.top_k(&m, &TopKQuery { user: 0, k }, &[]);
        let want: Vec<u32> = (0..items).take(k).collect();
        prop_assert_eq!(got.iter().map(|s| s.item).collect::<Vec<_>>(), want);
    }

    /// Norm-cache invalidation under interleaved batched training: the
    /// same `Scorer` instance queried between `train_steps_batched`
    /// rounds (the user-sharded training path) must track every factor
    /// mutation — a stale cached bound that survived an update would
    /// prune the wrong block and diverge from the oracle.
    #[test]
    fn cache_survives_interleaved_batched_training(
        seed in 0u64..1_000,
        data in proptest::collection::vec(arb_rating(8, 64), 4..200),
        rounds in 1usize..12,
        block in 1usize..70,
    ) {
        let mut m = trained(seed, 8, 64, &data, 50);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xBA7C);
        let mut scorer = Scorer::new(block);
        let mut stream = QueryStream::new(seed, 8, 10);
        for _ in 0..rounds {
            m.train_steps_batched(&data, 40, &mut rng);
            for _ in 0..4 {
                let q = stream.next_query();
                prop_assert_eq!(
                    scorer.top_k(&m, &q, &[]),
                    naive_top_k(&m, q.user, q.k, &[])
                );
            }
        }
    }
}

/// Merges — the other write path the serve thread can observe between
/// epochs — also re-key the cache: score a model, merge a peer into it,
/// score again, and check both answers against the oracle.
#[test]
fn cache_tracks_merges() {
    let data_a: Vec<Rating> = (0..80)
        .map(|j| Rating {
            user: j % 8,
            item: (j * 7) % 64,
            value: 0.5 + (j % 9) as f32 * 0.5,
        })
        .collect();
    let data_b: Vec<Rating> = (0..80)
        .map(|j| Rating {
            user: j % 8,
            item: (j * 11 + 3) % 64,
            value: 0.5 + (j % 7) as f32 * 0.5,
        })
        .collect();
    let mut a = trained(1, 8, 64, &data_a, 300);
    let b = trained(2, 8, 64, &data_b, 300);
    let mut scorer = Scorer::new(16);
    for user in 0..8 {
        assert_eq!(
            scorer.top_k(&a, &TopKQuery { user, k: 10 }, &[]),
            naive_top_k(&a, user, 10, &[])
        );
    }
    a.merge(&[(0.5, &b)], 0.5);
    for user in 0..8 {
        assert_eq!(
            scorer.top_k(&a, &TopKQuery { user, k: 10 }, &[]),
            naive_top_k(&a, user, 10, &[]),
            "user {user}: stale cache after merge"
        );
    }
}

/// Duplicated factor rows produce exact score ties between *different*
/// items; the tie must always resolve to the smaller item id, from both
/// the scorer and the oracle, at every block size.
#[test]
fn exact_ties_from_duplicated_rows_resolve_deterministically() {
    // Train, serialize, and duplicate item rows via the byte codec so
    // items (i, i + 32) are bit-identical without touching private
    // fields: decode, re-encode with the y/c/seen sections rewritten.
    let data: Vec<Rating> = (0..120)
        .map(|j| Rating {
            user: j % 10,
            item: j % 32, // only items 0..32 are ever seen
            value: 0.5 + (j % 10) as f32 * 0.5,
        })
        .collect();
    let m = trained(9, 10, 64, &data, 500);
    // Rebuild a 64-item model whose rows 32..64 mirror rows 0..32.
    let k = m.hyper_params().k;
    let mut y = m.item_factors()[..32 * k].to_vec();
    y.extend_from_slice(&m.item_factors()[..32 * k]);
    let mut c: Vec<f32> = (0..32).map(|i| m.item_row(i).1).collect();
    c.extend_from_within(..);
    let mut seen = m.item_seen_mask()[..32].to_vec();
    seen.extend_from_slice(&m.item_seen_mask()[..32]);
    // Same seeds + data + steps reproduce m bit-for-bit — the codec
    // image we splice the mirrored item tables into.
    let base = trained(9, 10, 64, &data, 500);
    assert_eq!(base.to_bytes(), m.to_bytes());
    // Scores must tie exactly between i and i+32 when both are seen:
    // assert through the public scoring surface by comparing the two
    // halves of the oracle's full ranking on a synthetic model built
    // from the mirrored tables.
    let bytes = {
        // Splice the mirrored tables into the wire image: header (4*4+4
        // bytes mean) + b (10 f32) + c (64 f32) + x (10k f32) + y (64k
        // f32) + masks. Easier: build via from_bytes of a hand-packed
        // image matching MfModel's codec layout.
        let mut buf = Vec::new();
        let src = base.to_bytes();
        buf.extend_from_slice(&src[..4 * 4 + 4]); // magic, dims, k, mean
        let mut off = 4 * 4 + 4;
        buf.extend_from_slice(&src[off..off + 10 * 4]); // b
        off += 10 * 4;
        for v in &c {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        off += 64 * 4;
        buf.extend_from_slice(&src[off..off + 10 * k * 4]); // x
        off += 10 * k * 4;
        for v in &y {
            buf.extend_from_slice(&v.to_le_bytes());
        }
        off += 64 * k * 4;
        // user mask passes through; item mask rebuilt from `seen`.
        buf.extend_from_slice(&src[off..off + 2]); // 10 users → 2 bytes
        let mut packed = [0u8; 8];
        for (i, &s) in seen.iter().enumerate() {
            if s {
                packed[i / 8] |= 1 << (i % 8);
            }
        }
        buf.extend_from_slice(&packed);
        buf
    };
    let tied = MfModel::from_bytes(&bytes).expect("hand-packed image decodes");
    for user in 0..10 {
        for (i, twin) in (0..32u32).map(|i| (i, i + 32)) {
            assert_eq!(
                score_one(&tied, user, i).to_bits(),
                score_one(&tied, user, twin).to_bits(),
                "rows {i}/{twin} are bit-identical, scores must tie"
            );
        }
        // Full ranking: every tied pair appears smaller-id-first, and
        // the scorer agrees with the oracle bit-for-bit at several
        // block sizes spanning the tie distance.
        for block in [1usize, 8, 32, 64, 128] {
            let mut scorer = Scorer::new(block);
            let got = scorer.top_k(&tied, &TopKQuery { user, k: 64 }, &[]);
            assert_eq!(got, naive_top_k(&tied, user, 64, &[]), "block {block}");
            for pair in got.windows(2) {
                if pair[0].score.to_bits() == pair[1].score.to_bits() {
                    assert!(pair[0].item < pair[1].item, "tie out of order");
                }
            }
        }
    }
}
