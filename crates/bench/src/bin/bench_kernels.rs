//! Kernel-layer benchmark with machine-readable output: per-primitive
//! throughput of the levelled `rex_ml::kernel` primitives (`dot`,
//! `norm_sq`, `sgd_update`) at the embedding dimensions the paper
//! sweeps (k = 16/32/128), the ChaCha20 keystream, the Poly1305 MAC and
//! one AEAD seal of the paper-shaped model, plus two end-to-end arms
//! — MF epoch time and serve-path p99 — each measured under every
//! dispatch level (scalar, AVX2, and for the crypto arms AVX-512) the
//! host has, and the SHA-256
//! arms behind the per-epoch model commitment: hash throughput on the
//! scalar and SHA-extension block functions over a model-sized buffer,
//! and one commitment of the paper-shaped 424 KiB model the old way
//! (`to_bytes` + `advance`) against the streamed `advance_with`, and one
//! chain link after a 300-step sweep in its full form against the row
//! form that hashes only the rows the sweep wrote — and the sweep arms:
//! 20 k SGD steps and a 20 k-rating RMSE evaluation on that model,
//! dispatched per element against dispatched once per sweep, and a
//! `rex-raw`-shaped node's test set scored one rating at a time against
//! eight at a time — and two
//! ungated rows no other artifact carries: an X25519 Diffie-Hellman
//! (the session setup behind every attested edge) and a 16 k-rating
//! `append_batch` into a 256-user sharded store — and the merge arm: one
//! model-sharing merge on an `ms-model`-shaped pair, decoding the peer
//! (`from_bytes` + `merge`) against merging from a view of its wire
//! bytes (`view` + `merge_views`) — and the layout arm: the full-form
//! chain link of a `serve-live`-shaped trainer whose table lies in
//! first-write order against one that owns it in row order. Every arm owns its
//! state and takes its windows in rotation with the arms it is compared
//! with ([`rex_bench::harness`]). Writes (and prints)
//! `results/BENCH_kernels.json`.
//!
//! The summary keys are machine-speed-independent *ratios* of the
//! scalar reference over the best level (AVX2 where detected):
//!
//! * `dot32_speedup` — the headline: scalar ns/op over best-SIMD ns/op
//!   for [`kernel::dot`] at k = 32 (the acceptance floor is 2x on an
//!   AVX2 host);
//! * `epoch_speedup` — `train_steps_batched` wall time, scalar / best;
//! * `serve_p99_speedup` — top-k query p99, scalar / best;
//! * `chacha_speedup` — keystream MiB/s, best / scalar;
//! * `chacha_wide_speedup` — keystream MiB/s, the 16-wide AVX-512 body
//!   over the 8-wide AVX2 one (1.00 on a host without AVX-512F: there is
//!   no 16-wide row);
//! * `poly_speedup` — Poly1305 MiB/s, best / scalar;
//! * `sha256_speedup` — SHA-256 MiB/s, SHA extensions / scalar (1.00
//!   on a host without them: both sides are the scalar path): both
//!   sides timed in every window, in alternating order, and the median
//!   of the windows' ratios kept;
//! * `sweep_speedup` — an epoch's compute (the train arm plus the RMSE
//!   arm) at the best level, per-element dispatch / one sweep;
//! * `rmse_lanes_speedup` — a trained `rex-raw`-shaped node's test set
//!   at the best level, scored one rating at a time / eight at a time
//!   (`Lanes::dot8`): both sides in every window, alternating, the
//!   median ratio kept;
//! * `commit_speedup` — one chain link after a raw-sharing epoch's 300
//!   SGD steps on the process's SHA path, full form / row form (the
//!   acceptance floor is 5x);
//! * `merge_view_speedup` — one model-sharing merge, `from_bytes` +
//!   `merge` / `view` + `merge_views`: both sides timed in every window,
//!   in alternating order, and the median of the windows' ratios kept;
//! * `row_order_commit_speedup` — one full-form chain link of a
//!   `serve-live`-shaped model after one epoch, its table in first-write
//!   order / in row order (owned at build): both sides in every window,
//!   alternating, the median ratio kept.
//!
//! `--check-baseline <path>` compares this run's `dot32_speedup`,
//! `poly_speedup`, `chacha_wide_speedup`, `sha256_speedup`,
//! `sweep_speedup`, `rmse_lanes_speedup`, `commit_speedup`,
//! `merge_view_speedup` and `row_order_commit_speedup` against a
//! committed baseline
//! JSON (`rex_bench::baseline`) and exits non-zero when any regressed by
//! more than 25%. On a host without AVX2 (for `chacha_wide_speedup`,
//! without AVX-512F; for the two SHA ratios, without the SHA
//! extensions) that gate is skipped with a notice — the committed
//! baseline was measured on a runner that has them and the ratio is not
//! comparable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rex_bench::harness::{self, Arm, Gate, Report, Row};
use rex_bench::BenchArgs;
use rex_core::builder::Scenario;
use rex_core::commitment::CommitmentChain;
use rex_core::config::ProtocolConfig;
use rex_core::serve::{QueryStream, Scorer};
use rex_core::store::RawDataStore;
use rex_crypto::poly1305::Poly1305;
use rex_crypto::simd::{self, SimdLevel};
use rex_crypto::{chacha20, ChaCha20Poly1305, Sha256, StaticSecret};
use rex_data::{Dataset, Rating, SyntheticConfig, TrainTestSplit, UserBlock};
use rex_ml::bytesio::ByteCount;
use rex_ml::kernel::{self, KernelLevel, Lanes, Sweep};
use rex_ml::{MfHyperParams, MfModel, Model};
use std::hint::black_box;

/// Embedding dimensions for the micro arms (the paper's Fig 3 sweeps
/// k = 10–50; 128 probes the wide-vector regime).
const DIMS: [usize; 3] = [16, 32, 128];
/// Distinct vectors cycled through per micro window so the arms stream
/// factor rows instead of hammering two cache lines.
const POOL: usize = 256;
/// Windows per arm of the end-to-end, keystream and ungated arms: two
/// and four arms per rotation, so every arm runs first equally often.
const WINDOW_REPS: usize = 4;
/// Windows per arm of the micro and SHA arms, which feed the ratio
/// gate. A shared single-core host can stall for longer than a few
/// short windows in a row, so the gated ratios get more chances to land
/// a clean window on each side.
const MICRO_WINDOW_REPS: usize = 9;
/// SGD steps between the links of the `commitment_rowlog` arm: one
/// raw-sharing epoch's worth (`steps_per_epoch` of `rex-raw` and
/// `sim-fleet`).
const LINK_STEPS: usize = 300;
/// Steps per training window and ratings per evaluation window of the
/// sweep arms: one `serve-live` epoch's worth of each.
const SWEEP_OPS: usize = 20_000;

/// One `e2e` row: `{"arm", "level", ["entry",] "<unit>": value}`.
fn e2e(arm: &str, level: &str, entry: &str, unit: &str, value: f64) -> Row {
    let row = Row::new().str("arm", arm).str("level", level);
    let row = if entry.is_empty() {
        row
    } else {
        row.str("entry", entry)
    };
    row.num(unit, value, 2)
}

/// Best ns/op per level for one primitive at one `k`: one arm per level,
/// each streaming its own copy of the operand pools.
fn time_levels<R>(
    primitive: &str,
    k: usize,
    levels: &[KernelLevel],
    iters: usize,
    op: impl Fn(KernelLevel, &mut [f32], &mut [f32]) -> R + Copy,
) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(0xD07 + k as u64);
    let a: Vec<f32> = (0..2 * POOL * k)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let (a, b) = a.split_at(POOL * k);
    let mut arms: Vec<Arm<'_>> = levels
        .iter()
        .map(|&l| {
            let (mut a, mut b) = (a.to_vec(), b.to_vec());
            Box::new(move || {
                harness::time_ns(|| {
                    for i in 0..iters {
                        let row = (i % POOL) * k;
                        black_box(op(l, &mut a[row..row + k], &mut b[row..row + k]));
                    }
                    black_box((&a, &b));
                }) / iters as f64
            }) as Arm<'_>
        })
        .collect();
    harness::best_of(&format!("{primitive} k={k}"), MICRO_WINDOW_REPS, &mut arms)
}

/// Micro arms: every levelled primitive at every `k`, per dispatch
/// level. Returns the rows and `dot32_speedup`.
fn micro_arms(levels: &[KernelLevel], iters: usize) -> (Vec<Row>, f64) {
    let (mut rows, mut dot32) = (Vec::new(), 0.0);
    for k in DIMS {
        let cells = [
            (
                "dot",
                time_levels("dot", k, levels, iters, |l, a, b| kernel::dot_with(l, a, b)),
            ),
            (
                "norm_sq",
                time_levels("norm_sq", k, levels, iters, |l, a, _| {
                    kernel::norm_sq_with(l, a)
                }),
            ),
            (
                "sgd_update",
                time_levels("sgd_update", k, levels, iters, |l, x, y| {
                    kernel::sgd_update_with(l, x, y, 0.005, 0.33, 0.1);
                }),
            ),
        ];
        for (primitive, ns) in cells {
            if (primitive, k) == ("dot", 32) {
                dot32 = ns[0] / ns[ns.len() - 1];
            }
            for (l, ns) in levels.iter().zip(ns) {
                rows.push(
                    Row::new()
                        .str("primitive", primitive)
                        .int("k", k)
                        .str("level", l.name())
                        .num("ns_per_op", ns, 2),
                );
            }
        }
    }
    (rows, dot32)
}

/// ChaCha20 keystream throughput (MiB/s) per crypto dispatch level.
/// Returns the rows, `chacha_speedup` and `chacha_wide_speedup`.
fn chacha_arms(levels: &[SimdLevel], buf_kib: usize) -> (Vec<Row>, f64, f64) {
    let mut arms: Vec<Arm<'_>> = levels
        .iter()
        .map(|&l| {
            let mut buf = vec![0u8; buf_kib * 1024];
            Box::new(move || {
                harness::time_ns(|| {
                    chacha20::xor_stream_with(l, &[0x42; 32], 1, &[0x17; 12], black_box(&mut buf));
                })
            }) as Arm<'_>
        })
        .collect();
    let ns = harness::best_of("chacha20 keystream", WINDOW_REPS, &mut arms);
    let mib_s: Vec<f64> = ns
        .iter()
        .map(|ns| buf_kib as f64 / 1024.0 / (ns / 1e9))
        .collect();
    let rows = levels
        .iter()
        .zip(&mib_s)
        .map(|(l, &v)| e2e("chacha20_stream", l.name(), "", "mib_per_s", v))
        .collect();
    let at = |level| levels.iter().position(|&l| l == level).map(|i| mib_s[i]);
    let wide = match (at(SimdLevel::Avx2), at(SimdLevel::Avx512)) {
        (Some(avx2), Some(avx512)) => avx512 / avx2,
        _ => 1.0,
    };
    (rows, mib_s[mib_s.len() - 1] / mib_s[0], wide)
}

/// Poly1305 arms, per crypto dispatch level: `poly1305_stream`, MiB/s
/// of a MAC over a `buf_kib` buffer, and `aead_seal_424k`, µs per seal
/// of the paper-shaped model's wire bytes (what the model-sharing
/// baseline seals on every edge, every epoch) with the process pinned
/// to that level, so keystream and MAC both run on it. Returns the rows
/// and `poly_speedup`.
fn poly_arms(levels: &[SimdLevel], buf_kib: usize, reps: usize) -> (Vec<Row>, f64) {
    /// MACs per `poly1305_stream` window.
    const PASSES: usize = 4;
    let buf = vec![0xa5u8; buf_kib * 1024];
    let model = paper_model().to_bytes();
    let cipher = ChaCha20Poly1305::new(&[0x42; 32]);
    let process_level = simd::level();
    let mut arms: Vec<Arm<'_>> = Vec::new();
    for &l in levels {
        let buf = &buf;
        arms.push(Box::new(move || {
            harness::time_ns(|| {
                for _ in 0..PASSES {
                    let mut mac = Poly1305::new_with(l, &[0x42; 32]);
                    mac.update(black_box(buf));
                    black_box(mac.finalize());
                }
            }) / PASSES as f64
        }));
    }
    for &l in levels {
        let (model, cipher) = (&model, &cipher);
        arms.push(Box::new(move || {
            simd::force_level(l);
            harness::time_ns(|| {
                for _ in 0..reps {
                    black_box(cipher.seal(&[0x17; 12], b"", black_box(model)));
                }
            }) / 1e3
                / reps as f64
        }));
    }
    let v = harness::best_of("poly1305 + aead seal", MICRO_WINDOW_REPS, &mut arms);
    simd::force_level(process_level);
    let (mac_ns, seal_us) = v.split_at(levels.len());
    let mib_s: Vec<f64> = mac_ns
        .iter()
        .map(|ns| buf_kib as f64 / 1024.0 / (ns / 1e9))
        .collect();
    let rows = levels
        .iter()
        .zip(&mib_s)
        .map(|(l, &v)| e2e("poly1305_stream", l.name(), "", "mib_per_s", v))
        .chain(
            levels
                .iter()
                .zip(seal_us)
                .map(|(l, &v)| e2e("aead_seal_424k", l.name(), "", "us", v)),
        )
        .collect();
    (rows, mib_s[mib_s.len() - 1] / mib_s[0])
}

/// The paper-shaped synthetic dataset (610 users × 9000 items, 100 k
/// ratings) the SHA and sweep arms train on.
fn paper_dataset() -> Dataset {
    SyntheticConfig {
        num_users: 610,
        num_items: 9_000,
        num_ratings: 100_000,
        seed: 42,
        ..SyntheticConfig::default()
    }
    .generate()
}

/// A fresh paper-shaped model (610 × 9000, k = 10: 424 KiB on the wire).
fn paper_model() -> MfModel {
    MfModel::new(610, 9_000, MfHyperParams::default(), 3.5, 9)
}

/// SHA-256 arms, on the paper-shaped model (424 KiB on the wire, what
/// every node commits to every epoch). `sha256_stream`: MiB/s over that
/// model's wire bytes on the scalar block function and, where this host
/// has them, on the SHA extensions, both timed in each of `windows`
/// windows ([`paired_windows`]). `commitment_424k`: one chain link
/// over that model on the process's block function, serialise-then-hash
/// against streamed. `commitment_rowlog`: one chain link after
/// [`LINK_STEPS`] SGD steps on one of two shards' ratings (the `rex-raw`
/// node shape), per SHA path — the full form (`write_bytes`, what every
/// link hashed before the write log) against the row form
/// (`write_changes`: the rows the sweep wrote). Each link arm trains its
/// own model from the same seed. Returns the rows, `sha256_speedup` (the
/// median over windows of scalar over the best block function) and
/// `commit_speedup` (on the best SHA path).
fn sha_arms(best: SimdLevel, reps: usize, windows: usize) -> (Vec<Row>, f64, f64) {
    type Link = fn(&mut CommitmentChain, usize, &mut MfModel);
    let full: Link = |chain, epoch, model| {
        black_box(chain.advance_with(epoch, |link| black_box(&*model).write_bytes(link)));
    };
    let rows_only: Link = |chain, epoch, model| {
        let mut link_rows = None;
        black_box(chain.advance_with(epoch, |link| link_rows = model.write_changes(link)));
        assert!(link_rows.is_some(), "a 300-step link took the full form");
    };
    let serialised: Link = |chain, epoch, model| {
        black_box(chain.advance(epoch, &black_box(&*model).to_bytes()));
    };
    let ds = paper_dataset();
    let shard: Vec<Rating> = ds.ratings.into_iter().filter(|r| r.user < 305).collect();
    let bytes = paper_model().to_bytes();
    let mut paths = vec![("scalar", SimdLevel::Scalar)];
    if simd::sha_ni_with(best) {
        paths.push(("sha_ni", best));
    }
    let process_level = simd::level();
    // µs per hash of the model bytes on `level`'s block function.
    let stream = |level: SimdLevel| {
        harness::time_ns(|| {
            for _ in 0..reps {
                let mut h = Sha256::with_level(level);
                h.update(black_box(&bytes));
                black_box(h.finalize());
            }
        }) / 1e3
            / reps as f64
    };
    let best_path = paths[paths.len() - 1].1;
    let (scalar_us, best_us, sha256_speedup) = paired_windows(
        "sha256 stream: scalar vs best block function",
        windows,
        || stream(SimdLevel::Scalar),
        || stream(best_path),
    );
    // µs per chain link on `level`'s SHA path, with `LINK_STEPS` of
    // (untimed) training before each link when `train`.
    let link_arm = |level: SimdLevel, train: bool, link: Link| -> Arm<'_> {
        let mut model = paper_model();
        // A model's first record is the full form; the arms time later ones.
        model.write_changes(&mut ByteCount::default());
        let mut rng = StdRng::seed_from_u64(0xC0117);
        let mut chain = CommitmentChain::new(42, 0);
        let shard = &shard;
        Box::new(move || {
            // The chain hashes on the process's path: pin it per arm.
            simd::force_level(level);
            let mut ns = 0.0;
            for epoch in 0..reps {
                if train {
                    model.train_steps(shard, LINK_STEPS, &mut rng);
                }
                ns += harness::time_ns(|| link(&mut chain, epoch, &mut model));
            }
            ns / 1e3 / reps as f64
        })
    };
    let mut arms: Vec<Arm<'_>> = vec![link_arm(process_level, false, serialised)];
    arms.push(link_arm(process_level, false, full));
    for &(_, level) in &paths {
        arms.push(link_arm(level, true, full));
        arms.push(link_arm(level, true, rows_only));
    }
    let us = harness::best_of("sha256 + commitment", MICRO_WINDOW_REPS, &mut arms);
    simd::force_level(process_level);

    let mib = bytes.len() as f64 / (1024.0 * 1024.0);
    let mut rows: Vec<Row> = paths
        .iter()
        .zip([scalar_us, best_us])
        .map(|(&(name, _), us)| e2e("sha256_stream", name, "", "mib_per_s", mib / (us / 1e6)))
        .collect();
    rows.push(e2e("commitment_424k", "to_bytes+advance", "", "us", us[0]));
    rows.push(e2e("commitment_424k", "advance_with", "", "us", us[1]));
    for (&(name, _), forms) in paths.iter().zip(us[2..].chunks(2)) {
        rows.push(e2e("commitment_rowlog", name, "full", "us", forms[0]));
        rows.push(e2e("commitment_rowlog", name, "rows", "us", forms[1]));
    }
    let (best_full, best_rows) = (us[us.len() - 2], us[us.len() - 1]);
    (rows, sha256_speedup, best_full / best_rows)
}

/// Sweep arms, on the paper-shaped model under each dispatch level:
/// `sweep_train_20k` runs 20 k SGD steps as a loop over the public
/// one-step `sgd_step` (one dispatch and one factor stamp per step)
/// against one `train_steps` call (one of each per sweep);
/// `sweep_rmse_20k` folds 20 k `predict` calls against one
/// `squared_error` call. Both sides draw the same indices and compute
/// the same bits. ns per step / per rating; every (level, arm, entry)
/// trains its own copy of one pre-trained model. Returns the rows and
/// `sweep_speedup` (train + RMSE at the best level, element / sweep).
fn sweep_arms(levels: &[KernelLevel], reps: usize) -> (Vec<Row>, f64) {
    type Op = fn(&mut MfModel, &mut StdRng, &[Rating], &[Rating]);
    let ops: [(&str, &str, Op); 4] = [
        ("sweep_train_20k", "element", |model, rng, train, _| {
            for _ in 0..SWEEP_OPS {
                let idx = rng.gen_range(0..train.len());
                model.sgd_step(&train[idx]);
            }
        }),
        ("sweep_train_20k", "sweep", |model, rng, train, _| {
            model.train_steps(train, SWEEP_OPS, rng);
        }),
        ("sweep_rmse_20k", "element", |model, _, _, test| {
            let mut sum = 0.0f64;
            for r in test {
                let err = f64::from(model.predict(r.user, r.item)) - f64::from(r.value);
                sum += err * err;
            }
            black_box(sum);
        }),
        ("sweep_rmse_20k", "sweep", |model, _, _, test| {
            black_box(model.squared_error(test));
        }),
    ];
    let ds = paper_dataset();
    let split = TrainTestSplit::standard(&ds, 7);
    let (train, test) = (&split.train, &split.test[..SWEEP_OPS]);
    let mut trained = paper_model();
    trained.train_steps(train, train.len(), &mut StdRng::seed_from_u64(0x5EE9));
    let mut arms: Vec<Arm<'_>> = Vec::new();
    for &l in levels {
        for &(_, _, op) in &ops {
            let mut model = trained.clone();
            let mut rng = StdRng::seed_from_u64(0x5EE9);
            arms.push(Box::new(move || {
                kernel::force_level(l);
                harness::time_ns(|| op(&mut model, &mut rng, train, test)) / SWEEP_OPS as f64
            }));
        }
    }
    let ns = harness::best_of("sweep", reps, &mut arms);
    let rows = levels
        .iter()
        .flat_map(|l| {
            ops.iter()
                .map(move |&(arm, entry, _)| (l.name(), arm, entry))
        })
        .zip(&ns)
        .map(|((level, arm, entry), &ns)| e2e(arm, level, entry, "ns_per_op", ns))
        .collect();
    let best = &ns[ns.len() - 4..];
    (rows, (best[0] + best[2]) / (best[1] + best[3]))
}

/// Test-set evaluations per side per window of the `rmse_lanes` arm.
const EVALS_PER_WINDOW: usize = 4;

/// `Model::squared_error` of `MfModel` one rating at a time: one
/// `predict` per rating ([`MfModel::predict_in`]) in one sweep frame,
/// the reference side of the `rmse_lanes` arm, checked to the bit
/// against the model's own.
struct PerRating<'a>(&'a MfModel, &'a [Rating]);

impl Sweep for PerRating<'_> {
    type Output = f64;
    #[inline(always)]
    fn run<L: Lanes>(self, lanes: L) -> f64 {
        let PerRating(m, test) = self;
        let mut sum = 0.0f64;
        for r in test {
            let e = f64::from(m.predict_in(lanes, r.user, r.item)) - f64::from(r.value);
            sum += e * e;
        }
        sum
    }
}

/// The test stage of a trained `rex-raw`-shaped node (node 0 of the
/// paper-shaped data on two round-robin nodes, its model trained for
/// 100 raw-sharing epochs' worth of steps on its store), scored one
/// rating at a time ([`PerRating`]) and eight at a time
/// (`squared_error`), both in every window, in alternating order, on
/// `level`; ns per rating. Returns the rows and `rmse_lanes_speedup`,
/// the median over windows of the two sides' ratio.
fn rmse_lanes_arms(level: KernelLevel, reps: usize) -> (Vec<Row>, f64) {
    let s = Scenario {
        dataset: SyntheticConfig {
            num_users: 610,
            num_items: 9_000,
            num_ratings: 100_000,
            seed: 42,
            ..SyntheticConfig::default()
        },
        nodes: 2,
        protocol: ProtocolConfig::default(),
        ..Scenario::default()
    };
    let fleet = s.build_fleet();
    let node = &fleet[0];
    let mut model = node.model().clone();
    let steps = 100 * s.protocol.steps_per_epoch;
    model.train_steps(
        node.store().ratings(),
        steps,
        &mut StdRng::seed_from_u64(0x7E57),
    );
    let test = node.test_data();
    kernel::force_level(level);
    assert_eq!(
        kernel::sweep(PerRating(&model, test)).to_bits(),
        model.squared_error(test).to_bits(),
        "the two test stages parted ways"
    );
    let per_rating = (EVALS_PER_WINDOW * test.len()) as f64;
    let (one_ns, eight_ns, ratio) = paired_windows(
        "test stage: one rating vs eight at a time",
        reps,
        || {
            harness::time_ns(|| {
                for _ in 0..EVALS_PER_WINDOW {
                    black_box(kernel::sweep(PerRating(&model, black_box(test))));
                }
            }) / per_rating
        },
        || {
            harness::time_ns(|| {
                for _ in 0..EVALS_PER_WINDOW {
                    black_box(model.squared_error(black_box(test)));
                }
            }) / per_rating
        },
    );
    let rows = vec![
        e2e(
            "rmse_lanes_rex_raw",
            level.name(),
            "per_rating",
            "ns_per_op",
            one_ns,
        ),
        e2e(
            "rmse_lanes_rex_raw",
            level.name(),
            "lanes8",
            "ns_per_op",
            eight_ns,
        ),
    ];
    (rows, ratio)
}

/// Full-form links per side per window of the `row_order_commit` arm.
const LINKS_PER_WINDOW: usize = 8;

/// The full-form commitment link of a `serve-live`-shaped trainer, in
/// the two layouts its table can have: two paper-shaped models trained
/// from the shared init through one `serve-live` epoch (20 000 steps on
/// all 610 users' ratings, the same draws on both), one copy-on-write
/// (its written rows in first-write order, so a whole-table pass gathers
/// a run per written row) and one that owned every row in row order
/// before training, as the builder's ownership rule has it. Both sides
/// hash `write_bytes` — what a full-form link hashes — on the process's
/// SHA path, in every window, in alternating order; µs per link. Returns
/// the rows and `row_order_commit_speedup`, the median over windows of
/// the two sides' ratio.
fn row_order_commit_arms(reps: usize) -> (Vec<Row>, f64) {
    let ds = paper_dataset();
    let (mut scattered, mut ordered) = (paper_model(), paper_model());
    ordered.own_all_rows();
    for model in [&mut scattered, &mut ordered] {
        model.train_steps(&ds.ratings, SWEEP_OPS, &mut StdRng::seed_from_u64(0x5E7E));
    }
    assert_eq!(
        scattered.to_bytes(),
        ordered.to_bytes(),
        "the layouts parted ways"
    );
    let [mut first_write, mut row_order] =
        [CommitmentChain::new(42, 0), CommitmentChain::new(42, 0)];
    // µs per full-form link of `model`.
    let link = |chain: &mut CommitmentChain, model: &MfModel| {
        harness::time_ns(|| {
            for epoch in 0..LINKS_PER_WINDOW {
                black_box(chain.advance_with(epoch, |link| black_box(model).write_bytes(link)));
            }
        }) / 1e3
            / LINKS_PER_WINDOW as f64
    };
    let (first_write_us, row_order_us, ratio) = paired_windows(
        "full-form link: first-write vs row order",
        reps,
        || link(&mut first_write, &scattered),
        || link(&mut row_order, &ordered),
    );
    let rows = vec![
        e2e(
            "commitment_serve_live",
            "first_write_order",
            "full",
            "us",
            first_write_us,
        ),
        e2e(
            "commitment_serve_live",
            "row_order",
            "full",
            "us",
            row_order_us,
        ),
    ];
    (rows, ratio)
}

/// Times the two sides of one comparison in every one of `reps` windows,
/// in alternating order (`a` first in every other window), on one
/// rotated arm ([`harness::rotate`]). Returns each side's best window
/// and the median over windows of `a`'s time over `b`'s.
fn paired_windows(
    label: &str,
    reps: usize,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> (f64, f64, f64) {
    let mut window = 0;
    let mut arm: Arm<'_, (f64, f64)> = Box::new(|| {
        window += 1;
        if window % 2 == 0 {
            let first = a();
            (first, b())
        } else {
            let second = b();
            (a(), second)
        }
    });
    let windows = harness::rotate(label, reps, std::slice::from_mut(&mut arm))
        .pop()
        .expect("one arm");
    let best =
        |side: fn(&(f64, f64)) -> f64| windows.iter().map(side).fold(f64::INFINITY, f64::min);
    let mut ratios: Vec<f64> = windows.iter().map(|(a, b)| a / b).collect();
    ratios.sort_by(f64::total_cmp);
    (best(|w| w.0), best(|w| w.1), ratios[ratios.len() / 2])
}

/// Merges per side per window of the `merge_view` arm.
const MERGES_PER_WINDOW: usize = 8;
/// `ms-model` epochs (300 steps on each side's users, then one merge
/// each way) the `merge_view` pair runs before it is timed: far enough
/// that the pair's seen rows, and so its row ranges, have settled.
const PAIR_EPOCHS: usize = 200;

/// The model-sharing merge on an `ms-model`-shaped pair: two
/// paper-shaped models owning their rows in row order (as a
/// model-sharing fleet builds them), each trained on its half of the
/// users and merged with the other for [`PAIR_EPOCHS`] epochs — a 2-node
/// D-PSGD run past its start. One side merges the peer's wire bytes
/// the way the receive path did before views (`from_bytes`, then
/// `merge`); the other through a view (`view`, then `merge_views`). Both
/// sides time in every window, in alternating order, each on its own
/// copy of the local model; µs per merge. Returns the rows and
/// `merge_view_speedup`, the median over windows of the two sides'
/// ratio.
fn merge_view_arms(reps: usize) -> (Vec<Row>, f64) {
    let ds = paper_dataset();
    let half = |lo: u32, hi: u32| -> Vec<Rating> {
        ds.ratings
            .iter()
            .filter(|r| (lo..hi).contains(&r.user))
            .copied()
            .collect()
    };
    let (ours, theirs) = (half(0, 305), half(305, 610));
    let mut rng = StdRng::seed_from_u64(0x3E26E);
    let [mut local, mut peer] = [paper_model(), paper_model()];
    local.own_all_rows();
    peer.own_all_rows();
    for _ in 0..PAIR_EPOCHS {
        local.train_steps(&ours, 300, &mut rng);
        peer.train_steps(&theirs, 300, &mut rng);
        let (local_bytes, peer_bytes) = (local.to_bytes(), peer.to_bytes());
        local.merge_views(&[(0.5, &local.view(&peer_bytes).unwrap())], 0.5);
        peer.merge_views(&[(0.5, &peer.view(&local_bytes).unwrap())], 0.5);
    }
    let bytes = peer.to_bytes();
    let (mut decoded, mut viewed) = (local.clone(), local);
    let per_merge = 1e3 * MERGES_PER_WINDOW as f64;
    let (decode_us, view_us, ratio) = paired_windows(
        "merge: from_bytes + merge vs view",
        reps,
        || {
            harness::time_ns(|| {
                for _ in 0..MERGES_PER_WINDOW {
                    let alien = MfModel::from_bytes(black_box(&bytes)).unwrap();
                    decoded.merge(&[(0.5, &alien)], 0.5);
                }
            }) / per_merge
        },
        || {
            harness::time_ns(|| {
                for _ in 0..MERGES_PER_WINDOW {
                    let alien = viewed.view(black_box(&bytes)).unwrap();
                    viewed.merge_views(&[(0.5, &alien)], 0.5);
                }
            }) / per_merge
        },
    );
    assert_eq!(
        decoded.to_bytes(),
        viewed.to_bytes(),
        "the two merges parted ways"
    );
    let rows = vec![
        e2e("merge_ms_model", "from_bytes+merge", "", "us", decode_us),
        e2e("merge_ms_model", "view+merge_views", "", "us", view_us),
    ];
    (rows, ratio)
}

/// End-to-end arms at k = 32: MF training wall time (ms) and serve-path
/// p99 (ns), per kernel dispatch level (flipped in-process via
/// `force_level`). Returns the rows, `epoch_speedup` and
/// `serve_p99_speedup`.
fn e2e_arms(levels: &[KernelLevel], steps: usize, queries: usize) -> (Vec<Row>, f64, f64) {
    let ds = SyntheticConfig {
        num_users: 64,
        num_items: 1024,
        num_ratings: 6_000,
        seed: 42,
        ..SyntheticConfig::default()
    }
    .generate();
    let split = TrainTestSplit::standard(&ds, 7);
    let hp = MfHyperParams {
        k: 32,
        ..MfHyperParams::default()
    };
    let global_mean =
        split.train.iter().map(|r| f64::from(r.value)).sum::<f64>() / split.train.len() as f64;
    let fresh = || MfModel::new(ds.num_users, ds.num_items, hp, global_mean as f32, 9);
    let mut served = fresh();
    served.train_steps_batched(
        &split.train,
        split.train.len(),
        &mut StdRng::seed_from_u64(0x5E37),
    );

    let mut arms: Vec<Arm<'_>> = Vec::new();
    for &l in levels {
        // One batched sweep of `steps` SGD steps from a fresh model.
        let (mut rep, train, fresh) = (0u64, &split.train, &fresh);
        arms.push(Box::new(move || {
            kernel::force_level(l);
            let mut model = fresh();
            let mut rng = StdRng::seed_from_u64(0xEB0C + rep);
            rep += 1;
            let ns = harness::time_ns(|| model.train_steps_batched(train, steps, &mut rng));
            black_box(&model);
            ns / 1e6
        }));
        // Top-10 queries against the trained model.
        let (mut rep, served) = (0u64, &served);
        arms.push(Box::new(move || {
            kernel::force_level(l);
            let mut scorer = Scorer::default();
            let mut stream = QueryStream::new(0xF00D + rep, ds.num_users, 10);
            rep += 1;
            let mut lat: Vec<u64> = (0..queries)
                .map(|_| {
                    let q = stream.next_query();
                    harness::time_ns(|| {
                        black_box(scorer.top_k(served, &q, &[]));
                    }) as u64
                })
                .collect();
            lat.sort_unstable();
            harness::percentile(&lat, 0.99) as f64
        }));
    }
    let v = harness::best_of("epoch train + serve p99", WINDOW_REPS, &mut arms);
    let rows = levels
        .iter()
        .zip(v.chunks(2))
        .flat_map(|(l, pair)| {
            [
                e2e("epoch_train_k32", l.name(), "", "ms", pair[0]),
                e2e("serve_p99_top10", l.name(), "", "ns", pair[1]),
            ]
        })
        .collect();
    let last = v.len() - 2;
    (rows, v[0] / v[last], v[1] / v[last + 1])
}

/// The ungated arms with no row elsewhere: one X25519 Diffie-Hellman
/// (µs) and a 16 k-rating `append_batch` into a fresh 256-user sharded
/// store (ns per rating).
fn ungated_arms(reps: usize) -> Vec<Row> {
    let mut rng = StdRng::seed_from_u64(1);
    let secret = StaticSecret::random(&mut rng);
    let peer = StaticSecret::random(&mut rng).public_key();
    let batch: Vec<Rating> = (0..16_384u32)
        .map(|i| Rating {
            user: i % 256,
            item: i * 13 % 4_096,
            value: 3.5,
        })
        .collect();
    let mut arms: Vec<Arm<'_>> = vec![
        Box::new(|| {
            harness::time_ns(|| {
                for _ in 0..reps {
                    black_box(
                        secret
                            .diffie_hellman(black_box(&peer))
                            .expect("valid point"),
                    );
                }
            }) / 1e3
                / reps as f64
        }),
        Box::new(|| {
            harness::time_ns(|| {
                for _ in 0..reps {
                    let mut store =
                        RawDataStore::with_shard(UserBlock { start: 0, end: 256 }, Vec::new());
                    store.append_batch(black_box(&batch));
                    black_box(store);
                }
            }) / (reps * batch.len()) as f64
        }),
    ];
    let v = harness::best_of("x25519 + sharded append", WINDOW_REPS, &mut arms);
    vec![
        e2e("x25519_dh", "scalar", "", "us", v[0]),
        e2e("store_append_16k", "sharded_256u", "", "ns_per_op", v[1]),
    ]
}

fn main() {
    let args = BenchArgs::parse();
    let mode = if args.full { "full" } else { "quick" };
    let iters = if args.full { 2_000_000 } else { 400_000 };
    let steps = args
        .epochs
        .unwrap_or(if args.full { 60_000 } else { 12_000 });
    let queries = if args.full { 4_000 } else { 1_500 };
    let buf_kib = if args.full { 4_096 } else { 1_024 };
    let reps = if args.full { 200 } else { 40 };

    let levels = kernel::available_levels();
    let crypto_levels = simd::available_levels();
    let best = *levels.last().expect("scalar is always available");
    let crypto_best = *crypto_levels.last().expect("scalar is always available");
    let sha_ni = simd::sha_ni_with(crypto_best);
    eprintln!(
        "[bench_kernels] levels: {:?}, best: {}, crypto best: {}, sha_ni: {sha_ni}",
        levels.iter().map(|l| l.name()).collect::<Vec<_>>(),
        best.name(),
        crypto_best.name()
    );

    let (micro, dot32) = micro_arms(&levels, iters);
    let (mut rows, chacha, chacha_wide) = chacha_arms(&crypto_levels, buf_kib);
    let (poly_rows, poly) = poly_arms(&crypto_levels, buf_kib, reps);
    let (sha_rows, sha256, commit) = sha_arms(crypto_best, reps, if args.full { 31 } else { 11 });
    let (e2e_rows, epoch, serve) = e2e_arms(&levels, steps, queries);
    let (sweep_rows, sweep) = sweep_arms(&levels, if args.full { 16 } else { 8 });
    let (lanes_rows, rmse_lanes) = rmse_lanes_arms(best, if args.full { 31 } else { 11 });
    let (merge_rows, merge_view) = merge_view_arms(if args.full { 31 } else { 11 });
    let (order_rows, row_order_commit) = row_order_commit_arms(if args.full { 31 } else { 11 });
    kernel::force_level(best);
    rows.extend(
        poly_rows
            .into_iter()
            .chain(sha_rows)
            .chain(e2e_rows)
            .chain(sweep_rows)
            .chain(lanes_rows)
            .chain(merge_rows)
            .chain(order_rows),
    );
    rows.extend(ungated_arms(reps));

    let json = Report::new("kernels", mode)
        .fields(Row::new().str("best_level", best.name()))
        .rows("micro", &micro)
        .rows("e2e", &rows)
        .render(
            &Row::new()
                .num("dot32_speedup", dot32, 2)
                .num("epoch_speedup", epoch, 2)
                .num("serve_p99_speedup", serve, 2)
                .num("chacha_speedup", chacha, 2)
                .num("chacha_wide_speedup", chacha_wide, 2)
                .num("poly_speedup", poly, 2)
                .num("sha256_speedup", sha256, 2)
                .num("sweep_speedup", sweep, 2)
                .num("rmse_lanes_speedup", rmse_lanes, 2)
                .num("commit_speedup", commit, 2)
                .num("merge_view_speedup", merge_view, 2)
                .num("row_order_commit_speedup", row_order_commit, 2),
        );
    let no_avx2 = (best != KernelLevel::Avx2).then(|| {
        format!(
            "best level here is {}, not the baseline's avx2",
            best.name()
        )
    });
    let no_avx512 = (crypto_best != SimdLevel::Avx512).then(|| {
        format!(
            "best crypto level here is {}, not the baseline's avx512",
            crypto_best.name()
        )
    });
    let no_sha_ni =
        (!sha_ni).then(|| "this host lacks the SHA extensions the baseline had".to_string());
    harness::finish(
        &args,
        "BENCH_kernels.json",
        &json,
        &[
            Gate::floor("dot32_speedup", dot32).unless(no_avx2.clone()),
            Gate::floor("poly_speedup", poly).unless(no_avx2.clone()),
            Gate::floor("chacha_wide_speedup", chacha_wide).unless(no_avx512),
            Gate::floor("sha256_speedup", sha256).unless(no_sha_ni.clone()),
            Gate::floor("sweep_speedup", sweep).unless(no_avx2.clone()),
            Gate::floor("rmse_lanes_speedup", rmse_lanes).unless(no_avx2),
            Gate::floor("commit_speedup", commit).unless(no_sha_ni),
            Gate::floor("merge_view_speedup", merge_view),
            Gate::floor("row_order_commit_speedup", row_order_commit),
        ],
    );
}
