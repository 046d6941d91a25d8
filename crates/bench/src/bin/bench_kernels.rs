//! Kernel-layer benchmark with machine-readable output: per-primitive
//! throughput of the levelled `rex_ml::kernel` primitives (`dot`,
//! `norm_sq`, `sgd_update`) and the ChaCha20 keystream at the embedding
//! dimensions the paper sweeps (k = 16/32/128), plus two end-to-end arms
//! — MF epoch time and serve-path p99 — each measured under both
//! dispatch levels (scalar, AVX2) where the host has them, and the SHA-256
//! arms behind the per-epoch model commitment: hash throughput on the
//! scalar and SHA-extension block functions over a model-sized buffer,
//! and one commitment of the paper-shaped 424 KiB model the old way
//! (`to_bytes` + `advance`) against the streamed `advance_with`, and one
//! chain link after a 300-step sweep in its full form against the row
//! form that hashes only the rows the sweep wrote — and the sweep arms:
//! 20 k SGD steps and a 20 k-rating RMSE evaluation on that model,
//! dispatched per element against dispatched once per sweep.
//! Writes `results/BENCH_kernels.json`.
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
//! * `sha256_speedup` — SHA-256 MiB/s, SHA extensions / scalar (1.00
//!   on a host without them: both sides are the scalar path);
//! * `sweep_speedup` — an epoch's compute (the train arm plus the RMSE
//!   arm) at the best level, per-element dispatch / one sweep;
//! * `commit_speedup` — one chain link after a raw-sharing epoch's 300
//!   SGD steps on the process's SHA path, full form / row form (the
//!   acceptance floor is 5x).
//!
//! `--check-baseline <path>` compares this run's `dot32_speedup`,
//! `sha256_speedup`, `sweep_speedup` and `commit_speedup` against a
//! committed baseline JSON (`rex_bench::baseline`) and exits non-zero
//! when any regressed by more than 25%. On a host without AVX2 (or, for the two SHA ratios, without
//! the SHA extensions) that gate is skipped with a notice — the
//! committed baseline was measured on a runner that has them and the
//! ratio is not comparable.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rex_bench::{baseline, output, BenchArgs};
use rex_core::commitment::CommitmentChain;
use rex_core::serve::{QueryStream, Scorer};
use rex_crypto::simd::{self, SimdLevel};
use rex_crypto::{chacha20, Sha256};
use rex_data::{Dataset, SyntheticConfig, TrainTestSplit};
use rex_ml::bytesio::ByteCount;
use rex_ml::kernel::{self, KernelLevel};
use rex_ml::{MfHyperParams, MfModel, Model};
use std::hint::black_box;
use std::time::Instant;

/// Embedding dimensions for the micro arms (the paper's Fig 3 sweeps
/// k = 10–50; 128 probes the wide-vector regime).
const DIMS: [usize; 3] = [16, 32, 128];
/// Distinct vectors cycled through per micro window so the arms stream
/// factor rows instead of hammering two cache lines.
const POOL: usize = 256;
/// Windows per measurement; the best (fastest) window is reported.
/// Scheduling hiccups only ever slow a window down, so the minimum
/// filters OS noise while a real regression shows in every window.
const WINDOW_REPS: usize = 3;

/// Window count for the micro arms, which feed the ratio gate. A
/// shared single-core host can stall for longer than three short
/// windows in a row, so the gated ratios get more chances to land a
/// clean window on each side.
const MICRO_WINDOW_REPS: usize = 9;

struct MicroRow {
    primitive: &'static str,
    k: usize,
    level: &'static str,
    ns_per_op: f64,
}

struct E2eRow {
    arm: &'static str,
    level: &'static str,
    /// `element` / `sweep` on the sweep arms, empty elsewhere.
    entry: &'static str,
    value: f64,
    unit: &'static str,
}

/// Deterministic f32 in [-1, 1) from splitmix64.
fn fill(seed: u64, out: &mut [f32]) {
    let mut s = seed;
    for v in out.iter_mut() {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        let bits = (z ^ (z >> 31)) as u32;
        *v = (bits % 65536) as f32 / 32768.0 - 1.0;
    }
}

/// Best ns/op per level for one primitive, windows interleaved across
/// levels: rep `r` times every level back-to-back before rep `r + 1`
/// starts, so a burst of steal time on a shared host slows every
/// level's window in that rep together instead of silently skewing one
/// side of the scalar-vs-SIMD ratio the CI gate compares.
fn time_levels<F: FnMut(KernelLevel)>(levels: &[KernelLevel], iters: usize, mut op: F) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; levels.len()];
    for _ in 0..MICRO_WINDOW_REPS {
        for (slot, &l) in levels.iter().enumerate() {
            let start = Instant::now();
            for _ in 0..iters {
                op(l);
            }
            best[slot] = best[slot].min(start.elapsed().as_nanos() as f64 / iters as f64);
        }
    }
    best
}

/// Micro arms: every levelled primitive at every `k`, per dispatch level.
fn micro_arms(levels: &[KernelLevel], iters: usize) -> Vec<MicroRow> {
    let mut rows = Vec::new();
    let push = |rows: &mut Vec<MicroRow>, primitive, k, per_level: Vec<f64>| {
        for (&l, ns) in levels.iter().zip(per_level) {
            rows.push(MicroRow {
                primitive,
                k,
                level: l.name(),
                ns_per_op: ns,
            });
        }
    };
    for &k in &DIMS {
        let mut a = vec![0.0f32; POOL * k];
        let mut b = vec![0.0f32; POOL * k];
        fill(0xD07 + k as u64, &mut a);
        fill(0xA11 + k as u64, &mut b);

        let mut i = 0usize;
        let per_level = time_levels(levels, iters, |l| {
            let row = (i % POOL) * k;
            i += 1;
            black_box(kernel::dot_with(l, &a[row..row + k], &b[row..row + k]));
        });
        push(&mut rows, "dot", k, per_level);

        let mut i = 0usize;
        let per_level = time_levels(levels, iters, |l| {
            let row = (i % POOL) * k;
            i += 1;
            black_box(kernel::norm_sq_with(l, &a[row..row + k]));
        });
        push(&mut rows, "norm_sq", k, per_level);

        let mut x = a.clone();
        let mut y = b.clone();
        let mut i = 0usize;
        let per_level = time_levels(levels, iters, |l| {
            let row = (i % POOL) * k;
            i += 1;
            kernel::sgd_update_with(
                l,
                &mut x[row..row + k],
                &mut y[row..row + k],
                0.005,
                0.33,
                0.1,
            );
        });
        black_box((&x, &y));
        push(&mut rows, "sgd_update", k, per_level);
    }
    rows
}

/// ChaCha20 keystream throughput (MiB/s) per crypto dispatch level.
fn chacha_arms(levels: &[SimdLevel], buf_kib: usize) -> Vec<E2eRow> {
    let key = [0x42u8; 32];
    let nonce = [0x17u8; 12];
    let mut buf = vec![0u8; buf_kib * 1024];
    levels
        .iter()
        .map(|&l| {
            let mut best = f64::INFINITY;
            for _ in 0..WINDOW_REPS {
                let start = Instant::now();
                chacha20::xor_stream_with(l, &key, 1, &nonce, &mut buf);
                best = best.min(start.elapsed().as_secs_f64());
            }
            black_box(&buf);
            E2eRow {
                arm: "chacha20_stream",
                level: l.name(),
                entry: "",
                value: buf.len() as f64 / (1024.0 * 1024.0) / best,
                unit: "mib_per_s",
            }
        })
        .collect()
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

/// SHA-256 arms, on the paper-shaped model (610 users × 9000 items,
/// k = 10: 424 KiB on the wire, what every node commits to every
/// epoch). `sha256_stream`: MiB/s over that model's wire bytes on the
/// scalar block function and, where this host has them, on
/// the SHA extensions. `commitment_424k`: one chain link over that model
/// on the process's block function, serialise-then-hash against
/// streamed. `commitment_rowlog`: one chain link after [`LINK_STEPS`] SGD
/// steps on one of two shards' ratings (the `rex-raw` node shape), per
/// SHA path — the full form (`write_bytes`, what every link hashed
/// before the write log) against the row form (`write_changes`: the
/// rows the sweep wrote). Windows interleave the two sides of each ratio.
fn sha_arms(best: SimdLevel, reps: usize) -> Vec<E2eRow> {
    let ds = paper_dataset();
    let shard: Vec<_> = ds.ratings.into_iter().filter(|r| r.user < 305).collect();
    let mut rng = StdRng::seed_from_u64(0xC0117);
    let mut model = MfModel::new(610, 9_000, MfHyperParams::default(), 3.5, 9);
    // A model's first record is the full form; the arm times later ones.
    model.write_changes(&mut ByteCount::default());
    let bytes = model.to_bytes();
    let mib = bytes.len() as f64 / (1024.0 * 1024.0);
    let mut paths = vec![("scalar", SimdLevel::Scalar)];
    if simd::sha_ni_with(best) {
        paths.push(("sha_ni", best));
    }
    let mut stream = vec![f64::INFINITY; paths.len()];
    // Per SHA path: [full form, row form], seconds per link.
    let mut rowlog = vec![[f64::INFINITY; 2]; paths.len()];
    let mut chain = CommitmentChain::new(42, 0);
    let mut commit = [f64::INFINITY; 2];
    let process_level = simd::level();
    for _ in 0..MICRO_WINDOW_REPS {
        for (slot, &(_, level)) in paths.iter().enumerate() {
            let start = Instant::now();
            for _ in 0..reps {
                let mut h = Sha256::with_level(level);
                h.update(black_box(&bytes));
                black_box(h.finalize());
            }
            stream[slot] = stream[slot].min(start.elapsed().as_secs_f64() / reps as f64);

            // The chain hashes on the process's path: pin it per side.
            simd::force_level(level);
            let mut window = [0.0f64; 2];
            for epoch in 0..reps {
                model.train_steps(&shard, LINK_STEPS, &mut rng);
                let start = Instant::now();
                black_box(chain.advance_with(epoch, |link| black_box(&model).write_bytes(link)));
                window[0] += start.elapsed().as_secs_f64();
                let mut link_rows = None;
                let start = Instant::now();
                black_box(chain.advance_with(epoch, |link| {
                    link_rows = model.write_changes(link);
                }));
                window[1] += start.elapsed().as_secs_f64();
                assert!(link_rows.is_some(), "a 300-step link took the full form");
            }
            for (best, total) in rowlog[slot].iter_mut().zip(window) {
                *best = best.min(total / reps as f64);
            }
        }
        simd::force_level(process_level);
        let start = Instant::now();
        for epoch in 0..reps {
            black_box(chain.advance(epoch, &black_box(&model).to_bytes()));
        }
        commit[0] = commit[0].min(start.elapsed().as_secs_f64() / reps as f64);
        let start = Instant::now();
        for epoch in 0..reps {
            black_box(chain.advance_with(epoch, |link| black_box(&model).write_bytes(link)));
        }
        commit[1] = commit[1].min(start.elapsed().as_secs_f64() / reps as f64);
    }
    let mut rows: Vec<E2eRow> = paths
        .iter()
        .zip(stream)
        .map(|(&(name, _), secs)| E2eRow {
            arm: "sha256_stream",
            level: name,
            entry: "",
            value: mib / secs,
            unit: "mib_per_s",
        })
        .collect();
    for (name, secs) in ["to_bytes+advance", "advance_with"].into_iter().zip(commit) {
        rows.push(E2eRow {
            arm: "commitment_424k",
            level: name,
            entry: "",
            value: secs * 1e6,
            unit: "us",
        });
    }
    for (&(name, _), forms) in paths.iter().zip(rowlog) {
        for (entry, secs) in ["full", "rows"].into_iter().zip(forms) {
            rows.push(E2eRow {
                arm: "commitment_rowlog",
                level: name,
                entry,
                value: secs * 1e6,
                unit: "us",
            });
        }
    }
    rows
}

/// SGD steps between the links of the `commitment_rowlog` arm: one
/// raw-sharing epoch's worth (`steps_per_epoch` of `rex-raw` and
/// `sim-fleet`).
const LINK_STEPS: usize = 300;

/// Steps per training window and ratings per evaluation window of the
/// sweep arms: one `serve-live` epoch's worth of each.
const SWEEP_OPS: usize = 20_000;

/// Sweep arms, on the paper-shaped model (610 × 9000, k = 10) under each
/// dispatch level: `sweep_train_20k` runs 20 k SGD steps as a loop over
/// the public one-step `sgd_step` (one dispatch and one factor stamp per
/// step) against one `train_steps` call (one of each per sweep);
/// `sweep_rmse_20k` folds 20 k `predict` calls against one
/// `squared_error` call. Both sides draw the same indices and compute
/// the same bits. ns per step / per rating, windows interleaved.
fn sweep_arms(levels: &[KernelLevel], reps: usize) -> Vec<E2eRow> {
    let ds = paper_dataset();
    let split = TrainTestSplit::standard(&ds, 7);
    let (train, test) = (&split.train, &split.test[..SWEEP_OPS]);
    let mut model = MfModel::new(610, 9_000, MfHyperParams::default(), 3.5, 9);
    let mut rng = StdRng::seed_from_u64(0x5EE9);
    model.train_steps(train, train.len(), &mut rng);

    let mut rows = Vec::new();
    for &l in levels {
        kernel::force_level(l);
        // [train element, train sweep, rmse element, rmse sweep]
        let mut best = [f64::INFINITY; 4];
        for _ in 0..reps {
            let mut window = |slot: usize, op: &mut dyn FnMut()| {
                let start = Instant::now();
                op();
                best[slot] = best[slot].min(start.elapsed().as_nanos() as f64 / SWEEP_OPS as f64);
            };
            window(0, &mut || {
                for _ in 0..SWEEP_OPS {
                    let idx = rng.gen_range(0..train.len());
                    model.sgd_step(&train[idx]);
                }
            });
            window(1, &mut || model.train_steps(train, SWEEP_OPS, &mut rng));
            window(2, &mut || {
                let mut sum = 0.0f64;
                for r in test {
                    let err = f64::from(model.predict(r.user, r.item)) - f64::from(r.value);
                    sum += err * err;
                }
                black_box(sum);
            });
            window(3, &mut || {
                black_box(model.squared_error(test));
            });
        }
        for (slot, arm) in ["sweep_train_20k", "sweep_rmse_20k"]
            .into_iter()
            .enumerate()
        {
            for (side, entry) in ["element", "sweep"].into_iter().enumerate() {
                rows.push(E2eRow {
                    arm,
                    level: l.name(),
                    entry,
                    value: best[2 * slot + side],
                    unit: "ns_per_op",
                });
            }
        }
    }
    rows
}

/// End-to-end arms at k = 32: MF training wall time and serve-path p99,
/// per kernel dispatch level (flipped in-process via `force_level`).
fn e2e_arms(levels: &[KernelLevel], steps: usize, queries: usize) -> Vec<E2eRow> {
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

    let mut rows = Vec::new();
    for &l in levels {
        kernel::force_level(l);

        // Training arm: one batched sweep of `steps` SGD steps.
        let mut best = f64::INFINITY;
        for rep in 0..WINDOW_REPS {
            let mut model = MfModel::new(ds.num_users, ds.num_items, hp, global_mean as f32, 9);
            let mut rng = StdRng::seed_from_u64(0xEB0C + rep as u64);
            let start = Instant::now();
            model.train_steps_batched(&split.train, steps, &mut rng);
            best = best.min(start.elapsed().as_secs_f64());
            black_box(&model);
        }
        rows.push(E2eRow {
            arm: "epoch_train_k32",
            level: l.name(),
            entry: "",
            value: best * 1e3,
            unit: "ms",
        });

        // Serve arm: top-10 queries against a trained model.
        let mut model = MfModel::new(ds.num_users, ds.num_items, hp, global_mean as f32, 9);
        let mut rng = StdRng::seed_from_u64(0x5E37);
        model.train_steps_batched(&split.train, split.train.len(), &mut rng);
        let mut p99 = f64::INFINITY;
        for rep in 0..WINDOW_REPS {
            let mut scorer = Scorer::default();
            let mut stream = QueryStream::new(0xF00D + rep as u64, ds.num_users, 10);
            let mut lat: Vec<u64> = Vec::with_capacity(queries);
            for _ in 0..queries {
                let q = stream.next_query();
                let t = Instant::now();
                black_box(scorer.top_k(&model, &q, &[]));
                lat.push(t.elapsed().as_nanos() as u64);
            }
            lat.sort_unstable();
            p99 = p99.min(lat[(lat.len() as f64 * 0.99) as usize - 1] as f64);
        }
        rows.push(E2eRow {
            arm: "serve_p99_top10",
            level: l.name(),
            entry: "",
            value: p99,
            unit: "ns",
        });
    }
    rows
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    mode: &str,
    best: &str,
    micro: &[MicroRow],
    crypto: &[E2eRow],
    e2e: &[E2eRow],
    dot32: f64,
    epoch: f64,
    serve: f64,
    chacha_speedup: f64,
    sha256_speedup: f64,
    sweep_speedup: f64,
    commit_speedup: f64,
) -> String {
    // Hand-rolled JSON: fixed schema, no strings that need escaping.
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"bench\": \"kernels\",\n  \"mode\": \"{mode}\",\n  \"best_level\": \"{best}\",\n"
    ));
    out.push_str("  \"micro\": [\n");
    for (i, r) in micro.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"primitive\": \"{}\", \"k\": {}, \"level\": \"{}\", \"ns_per_op\": {:.2}}}{}\n",
            r.primitive,
            r.k,
            r.level,
            r.ns_per_op,
            if i + 1 < micro.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"e2e\": [\n");
    let all: Vec<&E2eRow> = crypto.iter().chain(e2e.iter()).collect();
    for (i, r) in all.iter().enumerate() {
        let entry = if r.entry.is_empty() {
            String::new()
        } else {
            format!(" \"entry\": \"{}\",", r.entry)
        };
        out.push_str(&format!(
            "    {{\"arm\": \"{}\", \"level\": \"{}\",{entry} \"{}\": {:.2}}}{}\n",
            r.arm,
            r.level,
            r.unit,
            r.value,
            if i + 1 < all.len() { "," } else { "" },
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"summary\": {{\"dot32_speedup\": {dot32:.2}, \"epoch_speedup\": {epoch:.2}, \
         \"serve_p99_speedup\": {serve:.2}, \"chacha_speedup\": {chacha_speedup:.2}, \
         \"sha256_speedup\": {sha256_speedup:.2}, \"sweep_speedup\": {sweep_speedup:.2}, \
         \"commit_speedup\": {commit_speedup:.2}}}\n}}\n"
    ));
    out
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

    let levels = kernel::available_levels();
    let crypto_levels = simd::available_levels();
    let best = *levels.last().expect("scalar is always available");
    eprintln!(
        "[bench_kernels] levels: {:?}, best: {}",
        levels.iter().map(|l| l.name()).collect::<Vec<_>>(),
        best.name()
    );

    let micro = micro_arms(&levels, iters);
    let mut crypto = chacha_arms(&crypto_levels, buf_kib);
    let crypto_best = *crypto_levels.last().expect("scalar is always available");
    let sha_ni = simd::sha_ni_with(crypto_best);
    eprintln!(
        "[bench_kernels] sha256: {}",
        if sha_ni {
            "sha_ni present"
        } else {
            "no SHA extensions, scalar only"
        }
    );
    crypto.extend(sha_arms(crypto_best, if args.full { 200 } else { 40 }));
    let mut e2e = e2e_arms(&levels, steps, queries);
    e2e.extend(sweep_arms(&levels, if args.full { 15 } else { 5 }));
    kernel::force_level(best);

    println!("kernel micro arms ({mode} mode, {iters} iters, best of {WINDOW_REPS}):");
    for r in &micro {
        println!(
            "  {:<10} k={:<4} {:<7} {:>8.2} ns/op",
            r.primitive, r.k, r.level, r.ns_per_op
        );
    }
    for r in crypto.iter().chain(e2e.iter()) {
        println!(
            "  {:<16} {:<7} {:<8} {:>12.2} {}",
            r.arm, r.level, r.entry, r.value, r.unit
        );
    }

    let micro_ns = |primitive: &str, k: usize, level: &str| {
        micro
            .iter()
            .find(|r| r.primitive == primitive && r.k == k && r.level == level)
            .expect("all micro cells measured")
            .ns_per_op
    };
    let e2e_val = |arm: &str, level: &str| {
        e2e.iter()
            .chain(crypto.iter())
            .find(|r| r.arm == arm && r.level == level)
            .expect("all e2e cells measured")
            .value
    };
    let dot32 = micro_ns("dot", 32, "scalar") / micro_ns("dot", 32, best.name());
    let epoch = e2e_val("epoch_train_k32", "scalar") / e2e_val("epoch_train_k32", best.name());
    let serve = e2e_val("serve_p99_top10", "scalar") / e2e_val("serve_p99_top10", best.name());
    let chacha_speedup =
        e2e_val("chacha20_stream", best.name()) / e2e_val("chacha20_stream", "scalar");
    let sha_path = if sha_ni { "sha_ni" } else { "scalar" };
    let sha256_speedup = e2e_val("sha256_stream", sha_path) / e2e_val("sha256_stream", "scalar");
    let link_us = |entry: &str| {
        crypto
            .iter()
            .find(|r| r.arm == "commitment_rowlog" && r.level == sha_path && r.entry == entry)
            .expect("both link forms measured")
            .value
    };
    let commit_speedup = link_us("full") / link_us("rows");
    let epoch_ns = |entry: &str| -> f64 {
        e2e.iter()
            .filter(|r| r.arm.starts_with("sweep_") && r.level == best.name() && r.entry == entry)
            .map(|r| r.value)
            .sum()
    };
    let sweep_speedup = epoch_ns("element") / epoch_ns("sweep");
    println!(
        "summary: dot32 {dot32:.2}x, epoch {epoch:.2}x, serve p99 {serve:.2}x, \
         chacha {chacha_speedup:.2}x (scalar over {}), sha256 {sha256_speedup:.2}x \
         (scalar over sha_ni), sweep {sweep_speedup:.2}x (per-element over one sweep), \
         commitment {:.0} -> {:.0} us, link after 300 steps {:.1} -> {:.1} us \
         ({commit_speedup:.2}x, full form over row form)",
        best.name(),
        e2e_val("commitment_424k", "to_bytes+advance"),
        e2e_val("commitment_424k", "advance_with"),
        link_us("full"),
        link_us("rows"),
    );

    // Read the baseline *before* saving: the committed baseline is
    // usually the same results/ file this run is about to overwrite.
    let baseline = args.check_baseline.as_ref().map(|path| {
        baseline::read(
            path,
            [
                "dot32_speedup",
                "sha256_speedup",
                "sweep_speedup",
                "commit_speedup",
            ],
        )
    });

    let json = render_json(
        mode,
        best.name(),
        &micro,
        &crypto,
        &e2e,
        dot32,
        epoch,
        serve,
        chacha_speedup,
        sha256_speedup,
        sweep_speedup,
        commit_speedup,
    );
    match output::save("BENCH_kernels.json", &json) {
        Ok(path) => println!("[saved] {}", path.display()),
        Err(e) => {
            eprintln!("could not save BENCH_kernels.json: {e}");
            std::process::exit(1);
        }
    }

    if let Some([dot32_baseline, sha256_baseline, sweep_baseline, commit_baseline]) = baseline {
        let no_avx2 =
            (best != KernelLevel::Avx2).then(|| format!("best level here is {}", best.name()));
        let no_sha_ni = (!sha_ni).then(|| "this host lacks the SHA extensions".to_string());
        let gates = [
            ("dot32_speedup", dot32, dot32_baseline, no_avx2.clone()),
            ("sweep_speedup", sweep_speedup, sweep_baseline, no_avx2),
            (
                "sha256_speedup",
                sha256_speedup,
                sha256_baseline,
                no_sha_ni.clone(),
            ),
            ("commit_speedup", commit_speedup, commit_baseline, no_sha_ni),
        ];
        let mut regressed = false;
        for (name, got, committed, skip) in gates {
            if let Some(why) = skip {
                println!(
                    "baseline check SKIPPED for {name}: {why} but the committed baseline \
                     was measured on a host with AVX2 and SHA-NI; ratios are not comparable"
                );
                continue;
            }
            regressed |= !baseline::holds_floor(name, got, committed);
        }
        if regressed {
            std::process::exit(1);
        }
    }
}
