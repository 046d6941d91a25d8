//! Kernel-parity property suite: every dispatch level this host can
//! execute (scalar, and AVX2 where detected) must agree with the scalar
//! reference **bit for bit**, on every levelled primitive, for arbitrary
//! lengths (including ragged tails shorter than a vector width) and
//! adversarial bit patterns — subnormals, ±0.0, ±inf, and NaNs with
//! arbitrary payload bits. `axpy` and `scale_add` have no level — they
//! are plain loops — so there is nothing of theirs to compare here.
//!
//! Float comparisons go through `to_bits()`: `assert_eq!` on floats would
//! pass `-0.0 == 0.0` and fail all NaNs, neither of which is the contract.
//! The contract is the exact IEEE-754 bit pattern — with one carve-out:
//! a NaN *result* must be NaN on every level, but its payload bits are
//! implementation-defined (IEEE-754 §6.2 leaves payload propagation to
//! the implementation; LLVM commutes `fmul`/`fadd` operands and x86
//! selects the first operand's NaN, so register allocation picks the
//! payload). Comparisons therefore canonicalize NaNs to one quiet-NaN
//! pattern and compare everything else bit-for-bit.
//!
//! The sweep arm holds the kernel's second entry to the same contract:
//! a whole loop run inside one level's frame (`MfModel::train_steps`,
//! `Model::squared_error`, `Scorer::top_k`) lands on the bits the
//! per-element entry produces, on every level — and the training sweep's
//! block draw and read-ahead leave it the plain pick-by-pick loop's bits.
//! Those tests pin the process level, one at a time, behind
//! [`forced_levels`]' lock.
//!
//! The change-record arm holds the model's write log — kept inside that
//! sweep — to the property the chained commitment rests on: under every
//! level, whatever mix of training, merging and decoding ran, each
//! record rebuilds the model from its state at the record before.
//!
//! The SHA-256 arm holds the two block functions (scalar reference, SHA
//! extensions) to the same digests: published vectors, random lengths
//! split at random `update` boundaries, and HMAC on top. Where no level
//! of this host hashes on the extensions, that arm says so and proves
//! only the reference.
//!
//! The ChaCha20 arm holds every crypto level's keystream — the scalar
//! reference, the 8-wide AVX2 body and, where AVX-512F is detected, the
//! 16-wide body with the 8-wide one on its tail — to the reference over
//! random keys, nonces, counters (wrapping ones among them) and lengths
//! up to four 16-block batches and a ragged tail.
//!
//! The Poly1305 arm holds every level's MAC to the radix-2^44 scalar
//! reference over random keys (all-ones r and s among them), random and
//! all-0xFF data, and 1-3 random `update` splits, so each hand-off
//! between the partial-block buffer, the 4-lane kernel and the scalar
//! tail is crossed; and the AEAD built on it seals the same bytes on
//! every level and opens what it sealed.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rex_repro::core::serve::{naive_top_k, Scorer, TopKQuery};
use rex_repro::crypto::poly1305::Poly1305;
use rex_repro::crypto::simd as crypto_simd;
use rex_repro::crypto::{chacha20, ChaCha20Poly1305, CryptoError};
use rex_repro::crypto::{HmacSha256, Sha256};
use rex_repro::data::{Rating, SyntheticConfig};
use rex_repro::ml::bytesio::Reader;
use rex_repro::ml::dnn::DnnHyperParams;
use rex_repro::ml::kernel::{self, KernelLevel};
use rex_repro::ml::{rmse, DnnModel, MfHyperParams, MfModel, Model};
use std::sync::{Mutex, MutexGuard};

const CANON_QNAN32: u32 = 0x7fc0_0000;
const CANON_QNAN64: u64 = 0x7ff8_0000_0000_0000;

fn canon32(x: f32) -> u32 {
    if x.is_nan() {
        CANON_QNAN32
    } else {
        x.to_bits()
    }
}

fn canon64(x: f64) -> u64 {
    if x.is_nan() {
        CANON_QNAN64
    } else {
        x.to_bits()
    }
}

/// f32 bit patterns weighted toward the edge cases that distinguish a
/// bit-exact kernel from a merely accurate one.
fn arb_f32() -> impl Strategy<Value = f32> {
    (any::<u32>(), 0u8..8).prop_map(|(bits, class)| {
        f32::from_bits(match class {
            // Subnormal: zero exponent, random non-zero-ish mantissa.
            0 => bits & 0x807f_ffff,
            // ±0.0.
            1 => bits & 0x8000_0000,
            // NaN with a random payload (quiet bit forced on so the
            // pattern stays NaN even if the payload is zero).
            2 => (bits & 0x807f_ffff) | 0x7fc0_0000,
            // ±inf.
            3 => (bits & 0x8000_0000) | 0x7f80_0000,
            // Huge finite magnitudes (exponent pinned high).
            4 => (bits & 0x803f_ffff) | 0x7e00_0000,
            // Anything at all, including signaling-NaN encodings.
            _ => bits,
        })
    })
}

fn arb_vec(max_len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(arb_f32(), 0..max_len)
}

fn bits32(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| canon32(*x)).collect()
}

proptest! {
    #[test]
    fn dot_is_bit_identical_across_levels(a in arb_vec(67), b in arb_vec(67)) {
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        let reference = kernel::dot_scalar(a, b);
        for l in kernel::available_levels() {
            let got = kernel::dot_with(l, a, b);
            prop_assert_eq!(
                canon32(got), canon32(reference),
                "dot {} vs scalar at len {} ({} vs {})", l.name(), n, got, reference
            );
        }
    }

    #[test]
    fn norm_sq_is_bit_identical_across_levels(a in arb_vec(67)) {
        let reference = kernel::norm_sq_scalar(&a);
        for l in kernel::available_levels() {
            let got = kernel::norm_sq_with(l, &a);
            prop_assert_eq!(
                canon64(got), canon64(reference),
                "norm_sq {} vs scalar at len {}", l.name(), a.len()
            );
        }
    }

    /// The embedding width the paper trains at (k = 10: one chunk plus a
    /// 2-element tail) and every width below one chunk, where the whole
    /// vector is tail.
    #[test]
    fn ragged_tails_at_k10_and_below_one_chunk(
        a in proptest::collection::vec(arb_f32(), 10..11),
        b in proptest::collection::vec(arb_f32(), 10..11),
    ) {
        for k in (1..=7).chain([10]) {
            // Own allocations of exactly k, taken from the far end.
            let (a, b) = (a[10 - k..].to_vec(), b[10 - k..].to_vec());
            for l in kernel::available_levels() {
                prop_assert_eq!(
                    canon32(kernel::dot_with(l, &a, &b)), canon32(kernel::dot_scalar(&a, &b)),
                    "dot {} at k = {}", l.name(), k
                );
                prop_assert_eq!(
                    canon64(kernel::norm_sq_with(l, &a)), canon64(kernel::norm_sq_scalar(&a)),
                    "norm_sq {} at k = {}", l.name(), k
                );
            }
        }
    }

    #[test]
    fn sgd_update_is_bit_identical_across_levels(
        lr in arb_f32(),
        err in arb_f32(),
        reg in arb_f32(),
        x in arb_vec(67),
        y in arb_vec(67),
    ) {
        let n = x.len().min(y.len());
        let (x0, y0) = (&x[..n], &y[..n]);
        let (mut rx, mut ry) = (x0.to_vec(), y0.to_vec());
        kernel::sgd_update_scalar(&mut rx, &mut ry, lr, err, reg);
        for l in kernel::available_levels() {
            let (mut gx, mut gy) = (x0.to_vec(), y0.to_vec());
            kernel::sgd_update_with(l, &mut gx, &mut gy, lr, err, reg);
            prop_assert_eq!(bits32(&gx), bits32(&rx), "sgd_update x {} len {}", l.name(), n);
            prop_assert_eq!(bits32(&gy), bits32(&ry), "sgd_update y {} len {}", l.name(), n);
        }
    }

    #[test]
    fn chacha20_stream_is_identical_across_levels(
        key_seed in any::<u64>(),
        nonce_seed in any::<u64>(),
        counter in any::<u32>(),
        len in 0usize..4200,
    ) {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = (key_seed.rotate_left((i % 64) as u32) >> (i % 8)) as u8;
        }
        let mut nonce = [0u8; 12];
        for (i, b) in nonce.iter_mut().enumerate() {
            *b = (nonce_seed.rotate_left((i % 64) as u32) >> (i % 8)) as u8;
        }
        let plain: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let mut reference = plain.clone();
        chacha20::xor_stream_with(
            crypto_simd::SimdLevel::Scalar, &key, counter, &nonce, &mut reference,
        );
        for l in crypto_simd::available_levels() {
            let mut got = plain.clone();
            chacha20::xor_stream_with(l, &key, counter, &nonce, &mut got);
            prop_assert_eq!(&got, &reference, "chacha20 {} len {} ctr {}", l.name(), len, counter);
        }
    }

    #[test]
    fn sha256_is_identical_across_block_functions_and_update_splits(
        seed in any::<u64>(),
        len in 0usize..4096,
        cuts in proptest::collection::vec(0usize..4096, 0..6),
    ) {
        let data = sha_message(seed, len);
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(len)).collect();
        cuts.sort_unstable();
        let one_shot = Sha256::digest(&data);
        for l in crypto_simd::available_levels() {
            let mut h = Sha256::with_level(l);
            let mut from = 0;
            for &cut in cuts.iter().chain([&len]) {
                h.update(&data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(
                h.finalize(), one_shot,
                "sha256 {} len {} split at {:?}", l.name(), len, &cuts
            );
        }
        let parts: Vec<&[u8]> = cuts
            .iter()
            .chain([&len])
            .scan(0, |from, &cut| {
                let part = &data[*from..cut];
                *from = cut;
                Some(part)
            })
            .collect();
        prop_assert_eq!(Sha256::digest_parts(&parts), one_shot, "digest_parts at {:?}", &cuts);
    }

    #[test]
    fn poly1305_is_identical_across_levels_and_update_splits(
        key in any::<[u8; 32]>(),
        key_shape in 0u8..4,
        seed in any::<u64>(),
        fill in 0u8..3,
        len in 0usize..8193,
        cuts in proptest::collection::vec(0usize..8193, 1..4),
    ) {
        let mut key = key;
        // 1: all-ones r, 2: all-ones s, 3: both.
        if key_shape & 1 != 0 {
            key[..16].fill(0xff);
        }
        if key_shape & 2 != 0 {
            key[16..].fill(0xff);
        }
        // 0: random, 1: all 0xFF, 2: random with a 0xFF run.
        let mut data = sha_message(seed, len);
        match fill {
            1 => data.fill(0xff),
            2 => {
                let from = (seed % (len as u64 + 1)) as usize;
                let to = (from + len / 2).min(len);
                data[from..to].fill(0xff);
            }
            _ => {}
        }
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(len)).collect();
        cuts.sort_unstable();
        let mut reference = Poly1305::new_with(crypto_simd::SimdLevel::Scalar, &key);
        reference.update(&data);
        let reference = reference.finalize();
        for l in crypto_simd::available_levels() {
            let mut mac = Poly1305::new_with(l, &key);
            let mut from = 0;
            for &cut in cuts.iter().chain([&len]) {
                mac.update(&data[from..cut]);
                from = cut;
            }
            prop_assert_eq!(
                mac.finalize(), reference,
                "poly1305 {} len {} key shape {} fill {} split at {:?}",
                l.name(), len, key_shape, fill, &cuts
            );
        }
    }
}

/// Deterministic message bytes from splitmix64.
fn sha_message(seed: u64, len: usize) -> Vec<u8> {
    let mut s = seed;
    (0..len)
        .map(|_| {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (s ^ (s >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            (z >> 56) as u8
        })
        .collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Says once per test when the SHA-extension arm cannot run here.
fn note_sha_ni(test: &str) {
    let best = *crypto_simd::available_levels()
        .last()
        .expect("scalar is always available");
    if !crypto_simd::sha_ni_with(best) {
        eprintln!(
            "{test}: SKIPPED SHA-NI arm — no pinnable level of this host hashes on the SHA \
             extensions (needs sha/ssse3/sse4.1 and a level above scalar); scalar only"
        );
    }
}

#[test]
fn sha256_fips_180_4_vectors_hold_on_every_block_function() {
    note_sha_ni("sha256_fips_180_4_vectors");
    let million_a = vec![b'a'; 1_000_000];
    let vectors: [(&[u8], &str); 5] = [
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
        (
            b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
              hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
        ),
        (
            &million_a,
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        ),
    ];
    for l in crypto_simd::available_levels() {
        for (msg, want) in vectors {
            let mut h = Sha256::with_level(l);
            h.update(msg);
            assert_eq!(
                hex(&h.finalize()),
                want,
                "{} on {} bytes",
                l.name(),
                msg.len()
            );
        }
    }
}

/// Serialises the tests that pin the process crypto level (HMAC and the
/// AEAD build their primitives through it), so each one really runs
/// under the level it names. The other crypto tests pass their level
/// explicitly.
fn crypto_pin() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// HMAC builds its hashers through `Sha256::new`, so the two paths are
/// reached by pinning the process level.
#[test]
fn hmac_rfc_4231_cases_hold_on_every_block_function() {
    let _pin = crypto_pin();
    note_sha_ni("hmac_rfc_4231_cases");
    let long_key = [0xaau8; 131];
    let cases: [(&[u8], &[u8], &str); 5] = [
        (
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        ),
        (
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        ),
        (
            &[0xaa; 20],
            &[0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        ),
        (
            &long_key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        ),
        (
            &long_key,
            b"This is a test using a larger than block-size key and a larger \
              than block-size data. The key needs to be hashed before being \
              used by the HMAC algorithm.",
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        ),
    ];
    let pinned = crypto_simd::level();
    for l in crypto_simd::available_levels() {
        crypto_simd::force_level(l);
        for (key, msg, want) in cases {
            assert_eq!(hex(&HmacSha256::mac(key, msg)), want, "{}", l.name());
            let mut keyed = HmacSha256::new(key);
            let (head, tail) = msg.split_at(msg.len() / 2);
            keyed.update(head);
            keyed.update(tail);
            assert_eq!(hex(&keyed.finalize()), want, "{} split", l.name());
        }
    }
    crypto_simd::force_level(pinned);
}

/// `seal` runs ChaCha20 and Poly1305 on the process level: every level
/// seals the scalar reference's bytes (the wide MAC runs from 256 bytes,
/// the 8-wide keystream from 512 and the 16-wide one from 1 KiB), opens
/// them, and rejects a flipped tag.
#[test]
fn aead_seal_is_identical_across_levels_and_open_round_trips() {
    let _pin = crypto_pin();
    let pinned = crypto_simd::level();
    let cipher = ChaCha20Poly1305::new(&[0x5c; 32]);
    let nonce = [0x3a; 12];
    for (len, aad_len) in [
        (0, 0),
        (15, 3),
        (255, 12),
        (256, 0),
        (1_029, 12),
        (434_179, 7),
    ] {
        let plain = sha_message(len as u64, len);
        let aad = sha_message(!(len as u64), aad_len);
        crypto_simd::force_level(crypto_simd::SimdLevel::Scalar);
        let reference = cipher.seal(&nonce, &aad, &plain);
        for l in crypto_simd::available_levels() {
            crypto_simd::force_level(l);
            let sealed = cipher.seal(&nonce, &aad, &plain);
            assert!(sealed == reference, "seal {} len {len}", l.name());
            assert_eq!(cipher.open(&nonce, &aad, &sealed), Ok(plain.clone()));
            let mut forged = sealed;
            *forged.last_mut().unwrap() ^= 1;
            assert_eq!(
                cipher.open(&nonce, &aad, &forged),
                Err(CryptoError::DecryptionFailed),
                "open {} len {len} accepted a flipped tag",
                l.name()
            );
        }
    }
    crypto_simd::force_level(pinned);
}

// ---------------------------------------------------------------------
// Sweep entry == element entry
// ---------------------------------------------------------------------

/// Serialises the tests that pin the process kernel level, so each one
/// really runs under the level it names; restores the entry level on drop.
struct ForcedLevels {
    entry: KernelLevel,
    _lock: MutexGuard<'static, ()>,
}

fn forced_levels() -> ForcedLevels {
    static LOCK: Mutex<()> = Mutex::new(());
    ForcedLevels {
        _lock: LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner()),
        entry: kernel::level(),
    }
}

impl Drop for ForcedLevels {
    fn drop(&mut self) {
        kernel::force_level(self.entry);
    }
}

fn tiny_ratings() -> Vec<Rating> {
    SyntheticConfig {
        num_users: 20,
        num_items: 50,
        num_ratings: 600,
        seed: 3,
        ..SyntheticConfig::default()
    }
    .generate()
    .ratings
}

fn fresh_model() -> MfModel {
    MfModel::new(20, 50, MfHyperParams::default(), 3.5, 1)
}

/// What `train_steps` and `train_steps_batched` must equal, as the plain
/// loops they replaced: draw one pick, take one `sgd_step` — and, for the
/// batched path, draw them all, stable-sort by user, then step — from RNG
/// seed 7 on the scalar reference kernels. Each model with its RNG as
/// the loop left it.
fn plain_step_loops(
    fresh: impl Fn() -> MfModel,
    data: &[Rating],
    steps: usize,
) -> [(MfModel, StdRng); 2] {
    kernel::force_level(KernelLevel::Scalar);
    let mut seq = fresh();
    let mut seq_rng = StdRng::seed_from_u64(7);
    for _ in 0..steps {
        let idx = seq_rng.gen_range(0..data.len());
        seq.sgd_step(&data[idx]);
    }
    let mut bat = fresh();
    let mut bat_rng = StdRng::seed_from_u64(7);
    let mut picks: Vec<usize> = (0..steps)
        .map(|_| bat_rng.gen_range(0..data.len()))
        .collect();
    picks.sort_by_key(|&idx| data[idx].user);
    for idx in picks {
        bat.sgd_step(&data[idx]);
    }
    [(seq, seq_rng), (bat, bat_rng)]
}

#[test]
fn train_sweeps_equal_the_per_element_step_loop_on_every_level() {
    let _pin = forced_levels();
    let data = tiny_ratings();
    const STEPS: usize = 1_500;

    let [(seq, seq_rng), (bat, bat_rng)] = plain_step_loops(fresh_model, &data, STEPS);

    for l in kernel::available_levels() {
        kernel::force_level(l);
        let mut m = fresh_model();
        let mut rng = StdRng::seed_from_u64(7);
        m.train_steps(&data, STEPS, &mut rng);
        // The wire bytes hold all six tables (x, y, b, c, both masks).
        assert_eq!(m.to_bytes(), seq.to_bytes(), "train_steps on {}", l.name());
        assert_eq!(rng, seq_rng, "train_steps RNG on {}", l.name());

        let mut m = fresh_model();
        let mut rng = StdRng::seed_from_u64(7);
        m.train_steps_batched(&data, STEPS, &mut rng);
        assert_eq!(m.to_bytes(), bat.to_bytes(), "batched on {}", l.name());
        assert_eq!(rng, bat_rng, "batched RNG on {}", l.name());
    }
}

/// The training sweep draws its picks a block at a time and reads the
/// next block's operands ahead (`rex_ml::mf`, `LOOKAHEAD` picks): the
/// plain loop it replaced — draw one pick, take one step — lives on here
/// as the reference. Factors, biases and seen masks (the wire bytes), the
/// write log (the change record, row form throughout: the model is wide
/// enough that 1 000 steps log under a quarter of its rows) and the
/// caller's RNG must come out the same to the bit, at block boundaries
/// and on data shorter than a block, on every level.
#[test]
fn look_ahead_sweeps_equal_the_plain_pick_by_pick_loop_on_every_level() {
    /// `rex_ml::mf`'s block length.
    const W: usize = 16;
    const USERS: u32 = 1_000;
    const ITEMS: u32 = 8_000;
    let _pin = forced_levels();
    let fresh = || {
        let mut m = MfModel::new(USERS, ITEMS, MfHyperParams::default(), 3.5, 1);
        // A new model's first record is the full form; take it, so the
        // next one shows the log.
        m.write_changes(&mut Vec::new());
        m
    };
    let mut data_rng = StdRng::seed_from_u64(23);
    let pool: Vec<Rating> = (0..10_000)
        .map(|_| Rating {
            user: data_rng.gen_range(0..USERS),
            item: data_rng.gen_range(0..ITEMS),
            value: data_rng.gen_range(1..11) as f32 * 0.5,
        })
        .collect();

    for len in [1, 7, 10_000] {
        let data = &pool[..len];
        for steps in [0, 1, W - 1, W, W + 1, 300, 1_000] {
            let want = plain_step_loops(fresh, data, steps).map(|(mut m, mut rng)| {
                let mut record = Vec::new();
                let rows = m.write_changes(&mut record);
                assert!(rows.is_some(), "row form, so the record shows the log");
                (m.to_bytes(), rows, record, rng.gen::<u64>())
            });

            for l in kernel::available_levels() {
                kernel::force_level(l);
                type Train = fn(&mut MfModel, &[Rating], usize, &mut StdRng);
                let sweeps: [Train; 2] = [MfModel::train_steps, MfModel::train_steps_batched];
                for (sweep, (bytes, rows, record, next)) in sweeps.into_iter().zip(&want) {
                    let at = format!("{steps} steps over {len} ratings on {}", l.name());
                    let mut m = fresh();
                    let mut rng = StdRng::seed_from_u64(7);
                    sweep(&mut m, data, steps, &mut rng);
                    assert_eq!(&m.to_bytes(), bytes, "tables, {at}");
                    let mut got = Vec::new();
                    assert_eq!(m.write_changes(&mut got), *rows, "logged rows, {at}");
                    assert_eq!(&got, record, "change record, {at}");
                    assert_eq!(rng.gen::<u64>(), *next, "next RNG draw, {at}");
                }
            }
        }
    }
}

/// `Σ (predict − value)²` one `predict` call at a time: what
/// `squared_error` must equal, whatever a model overrides it with.
fn predict_fold<M: Model>(model: &M, test: &[Rating]) -> f64 {
    let mut sum = 0.0f64;
    for r in test {
        let err = f64::from(model.predict(r.user, r.item)) - f64::from(r.value);
        sum += err * err;
    }
    sum
}

#[test]
fn squared_error_equals_the_predict_fold_on_every_level() {
    let _pin = forced_levels();
    let data = tiny_ratings();
    // Trained on users < 12 and items < 30 only: the rest stay unseen.
    let part: Vec<Rating> = data
        .iter()
        .filter(|r| r.user < 12 && r.item < 30)
        .copied()
        .collect();
    let mut trained = fresh_model();
    trained.train_steps(&part, 4_000, &mut StdRng::seed_from_u64(5));
    // A mean far outside the rating scale: every prediction clamps.
    let mut clamped = trained.clone();
    clamped.set_global_mean(40.0);
    // Every seen/unseen pairing, plus ids outside the model's universe.
    let mut test = data.clone();
    for (user, item) in [(20, 3), (3, 50), (20, 50), (u32::MAX, u32::MAX)] {
        test.push(Rating {
            user,
            item,
            value: 2.5,
        });
    }
    assert!(trained.has_user(part[0].user) && trained.has_item(part[0].item));
    assert!(!trained.has_user(19) && !trained.has_item(49));

    kernel::force_level(KernelLevel::Scalar);
    let want: Vec<u64> = [&trained, &clamped]
        .iter()
        .map(|m| predict_fold(*m, &test).to_bits())
        .collect();
    for l in kernel::available_levels() {
        kernel::force_level(l);
        for (m, want) in [&trained, &clamped].iter().zip(&want) {
            assert_eq!(m.squared_error(&test).to_bits(), *want, "{}", l.name());
            assert_eq!(
                rmse(*m, &test).map(f64::to_bits),
                Some((f64::from_bits(*want) / test.len() as f64).sqrt().to_bits()),
                "rmse on {}",
                l.name()
            );
            assert_eq!(m.squared_error(&[]).to_bits(), 0.0f64.to_bits());
        }
    }
}

#[test]
fn scorer_equals_the_brute_force_oracle_on_every_level() {
    let _pin = forced_levels();
    let data = tiny_ratings();
    let mut model = fresh_model();
    model.train_steps(&data[..400], 3_000, &mut StdRng::seed_from_u64(9));
    kernel::force_level(KernelLevel::Scalar);
    let exclude = [0u32, 7, 13, 49];
    let queries: Vec<(TopKQuery, Vec<_>)> = (0..21u32)
        .flat_map(|user| [1usize, 10, 50].map(|k| TopKQuery { user, k }))
        .map(|q| (q, naive_top_k(&model, q.user, q.k, &exclude)))
        .collect();
    for l in kernel::available_levels() {
        kernel::force_level(l);
        // Small blocks, so the bound check prunes and is seen not to.
        let mut scorer = Scorer::new(8);
        for (q, want) in &queries {
            assert_eq!(
                &scorer.top_k(&model, q, &exclude),
                want,
                "{q:?} on {}",
                l.name()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Change records bind the model
// ---------------------------------------------------------------------

/// The (user, item) rows whose embedding, bias or seen flag differ
/// between two models, compared bit for bit.
fn changed_rows(a: &MfModel, b: &MfModel) -> (Vec<u32>, Vec<u32>) {
    let users = (0..a.num_users())
        .filter(|&u| {
            bits32(a.user_factors(u)) != bits32(b.user_factors(u))
                || a.user_bias(u).to_bits() != b.user_bias(u).to_bits()
                || a.has_user(u) != b.has_user(u)
        })
        .collect();
    let items = (0..a.num_items())
        .filter(|&i| {
            let ((ya, ca), (yb, cb)) = (a.item_row(i), b.item_row(i));
            bits32(ya) != bits32(yb)
                || ca.to_bits() != cb.to_bits()
                || a.has_item(i) != b.has_item(i)
        })
        .collect();
    (users, items)
}

/// The (user, item) row ids a row-form change record carries; `None`
/// for the full form.
fn record_rows(record: &[u8]) -> Option<(Vec<u32>, Vec<u32>)> {
    let mut r = Reader::new(record);
    if r.u32().unwrap() != u32::from_be_bytes(*b"MFD1") {
        return None;
    }
    let (_users, _items, k) = (r.u32().unwrap(), r.u32().unwrap(), r.u32().unwrap());
    let _mean = r.f32().unwrap();
    let mut section = || {
        let count = r.u32().unwrap() as usize;
        let ids = r.u32_vec(count).unwrap();
        // Seen flags, then bias + embedding per row.
        r.bytes(count.div_ceil(8) + count * 4 * (1 + k as usize))
            .unwrap();
        ids
    };
    Some((section(), section()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Over any interleaving of every path that writes a model, under
    /// every level: (i) each change record, decoded onto a copy of the
    /// model as of the previous record, reproduces the model bit for
    /// bit; (ii) the rows it logs cover a brute-force diff against that
    /// copy; (iii) a record taken right after it is the empty row form;
    /// (iv) a clone carries its source's log.
    #[test]
    fn change_records_rebuild_the_model_on_every_level(
        ops in proptest::collection::vec((0u8..10, any::<u64>()), 1..40),
    ) {
        let _pin = forced_levels();
        let data = tiny_ratings();
        let init = fresh_model();
        let fingerprint = init.ref_fingerprint();
        let alien = |seed: u64| {
            let mut m = fresh_model();
            m.train_steps(&data, 300, &mut StdRng::seed_from_u64(seed));
            m
        };
        let aliens = [alien(21), alien(22)];
        // A trailing record, so every write lands in one.
        let ops = ops.iter().copied().chain([(9, 0)]);
        for l in kernel::available_levels() {
            kernel::force_level(l);
            let mut model = init.clone();
            let mut previous = init.clone();
            for (op, p) in ops.clone() {
                let pick = p as usize;
                let alien = &aliens[pick % 2];
                let mut rng = StdRng::seed_from_u64(p);
                match op {
                    0 | 1 => model.sgd_step(&data[pick % data.len()]),
                    2 => model.train_steps(&data, 1 + pick % 12, &mut rng),
                    3 => model.train_steps_batched(&data, 1 + pick % 12, &mut rng),
                    4 => model.merge(&[(0.25, alien)], 0.75),
                    5 => model.set_global_mean(1.0 + (pick % 40) as f32 / 10.0),
                    6 => model = MfModel::from_bytes(&alien.to_bytes()).unwrap(),
                    7 => {
                        let delta = alien.delta_bytes(&init, fingerprint, 1.0).unwrap();
                        model = MfModel::apply_delta(&init, fingerprint, &delta).unwrap();
                    }
                    _ => {
                        let mut twin = model.clone();
                        let (mut record, mut twin_record) = (Vec::new(), Vec::new());
                        let rows = model.write_changes(&mut record);
                        prop_assert_eq!(twin.write_changes(&mut twin_record), rows);
                        prop_assert_eq!(&twin_record, &record, "clone's record on {}", l.name());

                        match record_rows(&record) {
                            Some((users, items)) => {
                                prop_assert_eq!(rows, Some(users.len() + items.len()));
                                let (changed_users, changed_items) = changed_rows(&previous, &model);
                                prop_assert!(
                                    changed_users.iter().all(|u| users.contains(u))
                                        && changed_items.iter().all(|i| items.contains(i)),
                                    "{}: changed {:?} / {:?} but logged {:?} / {:?}",
                                    l.name(), changed_users, changed_items, users, items
                                );
                            }
                            None => {
                                prop_assert_eq!(rows, None);
                                prop_assert_eq!(&record, &model.to_bytes());
                            }
                        }
                        previous.apply_changes(&record).unwrap();
                        prop_assert_eq!(previous.to_bytes(), model.to_bytes(), "on {}", l.name());

                        let mut empty = Vec::new();
                        prop_assert_eq!(model.write_changes(&mut empty), Some(0));
                        // Header and mean, then two zero row counts.
                        prop_assert_eq!(empty.len(), 16 + 4 + 2 * 4);
                        previous.apply_changes(&empty).unwrap();
                        prop_assert_eq!(previous.to_bytes(), model.to_bytes());
                    }
                }
            }
        }
    }
}

/// The builder's ownership rule moves no value: a `serve-live`-shaped
/// node (all 610 users of the paper's 610 × 9 000 data on one node,
/// 20 000 steps an epoch) owns its rows at build, in row order, and its
/// model and a copy-on-write twin that never owns agree over 20 epochs on
/// every level: the same change record each epoch (the bytes its
/// commitment link hashes), the same RMSE bits, the same wire bytes.
#[test]
fn a_model_owned_at_build_records_what_its_copy_on_write_twin_does_on_every_level() {
    use rex_repro::core::builder::Scenario;
    let _pin = forced_levels();
    let s = Scenario {
        dataset: SyntheticConfig {
            num_users: 610,
            num_items: 9_000,
            num_ratings: 100_000,
            seed: 42,
            ..SyntheticConfig::default()
        },
        nodes: 1,
        ..Scenario::default()
    };
    let built = s.build_fleet();
    let owned = built[0].model();
    assert_eq!(owned.base_bytes(), 0, "the serve-live shape owns at build");
    let mut twin = MfModel::new(610, 9_000, s.hp, 3.5, s.model_seed);
    twin.set_global_mean(owned.global_mean());
    assert!(twin.base_bytes() > 0);
    let (train, test) = (built[0].store().ratings(), built[0].test_data());
    for l in kernel::available_levels() {
        kernel::force_level(l);
        let (mut a, mut b) = (owned.clone(), twin.clone());
        let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(0x5E7E), StdRng::seed_from_u64(0x5E7E));
        for epoch in 0..20 {
            a.train_steps(train, 20_000, &mut rng_a);
            b.train_steps(train, 20_000, &mut rng_b);
            let (mut link_a, mut link_b) = (Vec::new(), Vec::new());
            let rows = a.write_changes(&mut link_a);
            assert_eq!(
                rows,
                b.write_changes(&mut link_b),
                "epoch {epoch} on {}",
                l.name()
            );
            assert!(
                link_a == link_b,
                "epoch {epoch} on {}: links differ",
                l.name()
            );
            assert_eq!(
                rmse(&a, test).map(f64::to_bits),
                rmse(&b, test).map(f64::to_bits),
                "epoch {epoch} on {}",
                l.name()
            );
        }
        assert_eq!(a.to_bytes(), b.to_bytes(), "on {}", l.name());
    }
}

#[test]
fn dnn_takes_the_default_squared_error() {
    let data = tiny_ratings();
    let hp = DnnHyperParams {
        k: 4,
        hidden: vec![8, 6],
        ..DnnHyperParams::default()
    };
    let mut dnn = DnnModel::new(20, 50, hp, 3.5, 2);
    dnn.train_steps(&data, 40, &mut StdRng::seed_from_u64(1));
    let want = predict_fold(&dnn, &data);
    assert_eq!(dnn.squared_error(&data).to_bits(), want.to_bits());
    assert_eq!(
        rmse(&dnn, &data).map(f64::to_bits),
        Some((want / data.len() as f64).sqrt().to_bits())
    );
}
