//! The ChaCha20 stream cipher (RFC 8439 §2.3–2.4).
//!
//! The keystream generator has three paths, one per
//! [`crate::simd::SimdLevel`], dispatched at runtime by
//! [`crate::simd::level`]:
//!
//! * the scalar block function, the reference;
//! * on x86_64 with AVX2, a **multi-block kernel** that runs the
//!   20-round permutation 8 blocks wide (one block per 32-bit lane);
//! * on x86_64 with AVX-512F (and AVX2), the same permutation 16 blocks
//!   wide on `zmm` registers with native `vprold` rotates, transposed in
//!   registers and XORed straight into the data.
//!
//! Each level drains what it can and hands the rest down: a 16-wide
//! run leaves under 1 KiB, of which the 8-wide body takes a 512-byte
//! batch when there is one, and the scalar block loop finishes the last
//! blocks. So `Avx512` runs the AVX2 body too, and on an AVX2-only host
//! the 8-wide body is the whole path. `REX_KERNEL=avx2` pins the 8-wide
//! body; no `REX_KERNEL` value names the 16-wide one, because `rex-ml`
//! parses the same variable and knows no such level (see
//! [`crate::simd`]). ChaCha20 is pure integer arithmetic, so every path
//! produces bit-identical keystream by construction; the RFC vectors
//! and the kernel-parity suite pin it anyway.

use crate::simd::{self, SimdLevel};

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes (IETF variant).
pub const NONCE_LEN: usize = 12;
/// Keystream block size in bytes.
pub const BLOCK_LEN: usize = 64;
/// Blocks per batch of the wide kernel (AVX2: one per 32-bit lane).
pub const WIDE_BLOCKS: usize = 8;
/// Bytes per batch of the wide kernel.
pub const WIDE_LEN: usize = WIDE_BLOCKS * BLOCK_LEN;
/// Blocks per batch of the 16-wide kernel (AVX-512: one per 32-bit
/// lane of a `zmm` register).
pub const WIDE16_BLOCKS: usize = 16;
/// Bytes per batch of the 16-wide kernel.
pub const WIDE16_LEN: usize = WIDE16_BLOCKS * BLOCK_LEN;

const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// The RFC 8439 initial state for (`key`, `counter`, `nonce`).
#[inline]
fn init_state(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u32; 16] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&SIGMA);
    for i in 0..8 {
        state[4 + i] = u32::from_le_bytes(key[i * 4..i * 4 + 4].try_into().unwrap());
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes(nonce[i * 4..i * 4 + 4].try_into().unwrap());
    }
    state
}

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Computes one 64-byte keystream block for (`key`, `counter`, `nonce`)
/// — the scalar reference the wide kernel must match bit-for-bit.
#[must_use]
pub fn block(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; BLOCK_LEN] {
    let state = init_state(key, counter, nonce);

    let mut working = state;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }

    let mut out = [0u8; BLOCK_LEN];
    for i in 0..16 {
        let word = working[i].wrapping_add(state[i]);
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// The x86_64 multi-block keystream kernels. One 32-bit lane per
/// block: all 16 state words live in vector registers, the counter word
/// holds lanes `counter + {0..N-1}`, and the 20 rounds run on every
/// block at once. Everything is wrapping integer arithmetic, so the
/// output is bit-identical to [`block`].
#[cfg(target_arch = "x86_64")]
mod wide {
    use super::{BLOCK_LEN, WIDE16_LEN, WIDE_BLOCKS, WIDE_LEN};
    use std::arch::x86_64::*;

    macro_rules! rotl {
        ($v:expr, $n:literal) => {
            _mm256_or_si256(_mm256_slli_epi32($v, $n), _mm256_srli_epi32($v, 32 - $n))
        };
    }
    /// A quarter round on 8 blocks; rotations are `slli | srli` pairs.
    macro_rules! quarter_round {
        ($v:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {
            $v[$a] = _mm256_add_epi32($v[$a], $v[$b]);
            $v[$d] = rotl!(_mm256_xor_si256($v[$d], $v[$a]), 16);
            $v[$c] = _mm256_add_epi32($v[$c], $v[$d]);
            $v[$b] = rotl!(_mm256_xor_si256($v[$b], $v[$c]), 12);
            $v[$a] = _mm256_add_epi32($v[$a], $v[$b]);
            $v[$d] = rotl!(_mm256_xor_si256($v[$d], $v[$a]), 8);
            $v[$c] = _mm256_add_epi32($v[$c], $v[$d]);
            $v[$b] = rotl!(_mm256_xor_si256($v[$b], $v[$c]), 7);
        };
    }
    /// A quarter round on 16 blocks; rotations are one `vprold` each.
    macro_rules! quarter_round16 {
        ($v:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {
            $v[$a] = _mm512_add_epi32($v[$a], $v[$b]);
            $v[$d] = _mm512_rol_epi32(_mm512_xor_si512($v[$d], $v[$a]), 16);
            $v[$c] = _mm512_add_epi32($v[$c], $v[$d]);
            $v[$b] = _mm512_rol_epi32(_mm512_xor_si512($v[$b], $v[$c]), 12);
            $v[$a] = _mm512_add_epi32($v[$a], $v[$b]);
            $v[$d] = _mm512_rol_epi32(_mm512_xor_si512($v[$d], $v[$a]), 8);
            $v[$c] = _mm512_add_epi32($v[$c], $v[$d]);
            $v[$b] = _mm512_rol_epi32(_mm512_xor_si512($v[$b], $v[$c]), 7);
        };
    }
    /// The 20 rounds, as ten column + diagonal double rounds of `$qr`.
    macro_rules! rounds {
        ($v:ident, $qr:ident) => {
            for _ in 0..10 {
                // Column rounds.
                $qr!($v, 0, 4, 8, 12);
                $qr!($v, 1, 5, 9, 13);
                $qr!($v, 2, 6, 10, 14);
                $qr!($v, 3, 7, 11, 15);
                // Diagonal rounds.
                $qr!($v, 0, 5, 10, 15);
                $qr!($v, 1, 6, 11, 12);
                $qr!($v, 2, 7, 8, 13);
                $qr!($v, 3, 4, 9, 14);
            }
        };
    }

    /// Writes 8 keystream blocks (counters `state[12] + {0..7}`) into
    /// `out`.
    ///
    /// # Safety
    /// The CPU must support AVX2. Nothing else: every memory access is
    /// a checked slice index or the one store into the local `lanes`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn blocks8_avx2(state: &[u32; 16], out: &mut [u8; WIDE_LEN]) {
        let mut v = [_mm256_setzero_si256(); 16];
        for (vi, &w) in v.iter_mut().zip(state.iter()) {
            *vi = _mm256_set1_epi32(w as i32);
        }
        v[12] = _mm256_add_epi32(v[12], _mm256_set_epi32(7, 6, 5, 4, 3, 2, 1, 0));
        let init = v;
        rounds!(v, quarter_round);
        let mut lanes = [0u32; WIDE_BLOCKS];
        for (i, (&w, &s)) in v.iter().zip(init.iter()).enumerate() {
            let sum = _mm256_add_epi32(w, s);
            // SAFETY: `lanes` is eight u32s = the 32 bytes one unaligned
            // `storeu` writes.
            unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), sum) };
            for (b, &lane) in lanes.iter().enumerate() {
                out[b * BLOCK_LEN + i * 4..b * BLOCK_LEN + i * 4 + 4]
                    .copy_from_slice(&lane.to_le_bytes());
            }
        }
    }

    /// XORs 16 keystream blocks (counters `state[12] + {0..15}`) into
    /// `data`, block `j` into bytes `64j..64j + 64`.
    ///
    /// After the rounds, register `i` holds word `i` of every block; a
    /// block's 64 bytes are one register across all 16 words. The
    /// transpose takes three steps, all in registers. 32- and 64-bit
    /// interleaves of each four-register group `4g..4g+3` give `t[4g +
    /// m]`, whose 128-bit lane `k` is words `4g..4g+3` of block `4k +
    /// m`. Then a 4×4 transpose of 128-bit lanes across `t[m]`,
    /// `t[4 + m]`, `t[8 + m]` and `t[12 + m]` puts block `4k + m` in one
    /// register, which is XORed into its row of `data` and stored.
    ///
    /// # Safety
    /// The CPU must support AVX-512F. Nothing else: each load and store
    /// moves one 64-byte block of `data` through a pointer taken from a
    /// checked 64-byte slice of it.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn xor16_avx512(state: &[u32; 16], data: &mut [u8; WIDE16_LEN]) {
        let mut v = [_mm512_setzero_si512(); 16];
        for (vi, &w) in v.iter_mut().zip(state.iter()) {
            *vi = _mm512_set1_epi32(w as i32);
        }
        let lane_offsets = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        v[12] = _mm512_add_epi32(v[12], lane_offsets);
        let init = v;
        rounds!(v, quarter_round16);
        for (w, &s) in v.iter_mut().zip(init.iter()) {
            *w = _mm512_add_epi32(*w, s);
        }

        let mut t = [_mm512_setzero_si512(); 16];
        for g in 0..4 {
            let (a, b, c, d) = (v[4 * g], v[4 * g + 1], v[4 * g + 2], v[4 * g + 3]);
            let (ab_lo, ab_hi) = (_mm512_unpacklo_epi32(a, b), _mm512_unpackhi_epi32(a, b));
            let (cd_lo, cd_hi) = (_mm512_unpacklo_epi32(c, d), _mm512_unpackhi_epi32(c, d));
            t[4 * g] = _mm512_unpacklo_epi64(ab_lo, cd_lo);
            t[4 * g + 1] = _mm512_unpackhi_epi64(ab_lo, cd_lo);
            t[4 * g + 2] = _mm512_unpacklo_epi64(ab_hi, cd_hi);
            t[4 * g + 3] = _mm512_unpackhi_epi64(ab_hi, cd_hi);
        }
        for m in 0..4 {
            // Lanes 0-1 and 2-3 of each pair of groups, then every
            // other lane of those: one block per register.
            let lo01 = _mm512_shuffle_i32x4(t[m], t[4 + m], 0x44);
            let hi01 = _mm512_shuffle_i32x4(t[m], t[4 + m], 0xee);
            let lo23 = _mm512_shuffle_i32x4(t[8 + m], t[12 + m], 0x44);
            let hi23 = _mm512_shuffle_i32x4(t[8 + m], t[12 + m], 0xee);
            let blocks = [
                _mm512_shuffle_i32x4(lo01, lo23, 0x88),
                _mm512_shuffle_i32x4(lo01, lo23, 0xdd),
                _mm512_shuffle_i32x4(hi01, hi23, 0x88),
                _mm512_shuffle_i32x4(hi01, hi23, 0xdd),
            ];
            for (k, ks) in blocks.into_iter().enumerate() {
                let j = 4 * k + m;
                let row = &mut data[j * BLOCK_LEN..(j + 1) * BLOCK_LEN];
                let p = row.as_mut_ptr().cast::<__m512i>();
                // SAFETY: `row` is 64 bytes of `data`, exactly what one
                // unaligned `loadu` reads and one `storeu` writes.
                unsafe { _mm512_storeu_si512(p, _mm512_xor_si512(_mm512_loadu_si512(p), ks)) };
            }
        }
    }
}

/// XORs the ChaCha20 keystream (starting at `initial_counter`) into `data`
/// in place, via the process-wide [`simd::level`] kernel. Encryption and
/// decryption are the same operation.
pub fn xor_stream(
    key: &[u8; KEY_LEN],
    initial_counter: u32,
    nonce: &[u8; NONCE_LEN],
    data: &mut [u8],
) {
    xor_stream_with(simd::level(), key, initial_counter, nonce, data);
}

/// [`xor_stream`] pinned to a specific dispatch level (bench/parity hook).
///
/// # Panics
/// When this host cannot execute `level`.
pub fn xor_stream_with(
    level: SimdLevel,
    key: &[u8; KEY_LEN],
    initial_counter: u32,
    nonce: &[u8; NONCE_LEN],
    data: &mut [u8],
) {
    assert!(
        level.is_available(),
        "simd level {} unavailable",
        level.name()
    );
    let mut counter = initial_counter;
    let mut off = 0usize;

    // AVX-512 drains whole 16-block batches, AVX2 (at both vector
    // levels) whole 8-block batches of the rest, and the scalar loop
    // below finishes what is left (all of it at `Scalar`). Every path
    // emits the same RFC keystream, so the split points are invisible
    // in the output.
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx512 {
        while data.len() - off >= WIDE16_LEN {
            let state = init_state(key, counter, nonce);
            let batch: &mut [u8; WIDE16_LEN] = (&mut data[off..off + WIDE16_LEN])
                .try_into()
                .expect("a batch is WIDE16_LEN bytes");
            // SAFETY: `level.is_available()` was asserted on entry, and
            // for `Avx512` that includes `is_x86_feature_detected!
            // ("avx512f")` — the one feature `xor16_avx512` is compiled
            // with, and its only requirement.
            unsafe { wide::xor16_avx512(&state, batch) };
            counter = counter.wrapping_add(WIDE16_BLOCKS as u32);
            off += WIDE16_LEN;
        }
    }
    #[cfg(target_arch = "x86_64")]
    if level >= SimdLevel::Avx2 {
        let mut ks = [0u8; WIDE_LEN];
        while data.len() - off >= WIDE_LEN {
            let state = init_state(key, counter, nonce);
            // SAFETY: `level.is_available()` was asserted on entry, and
            // for `Avx2` and `Avx512` that includes
            // `is_x86_feature_detected!("avx2")` — the one feature
            // `blocks8_avx2` is compiled with, and its only requirement.
            unsafe { wide::blocks8_avx2(&state, &mut ks) };
            for (byte, k) in data[off..off + WIDE_LEN].iter_mut().zip(ks.iter()) {
                *byte ^= k;
            }
            counter = counter.wrapping_add(WIDE_BLOCKS as u32);
            off += WIDE_LEN;
        }
    }

    for chunk in data[off..].chunks_mut(BLOCK_LEN) {
        let ks = block(key, counter, nonce);
        for (byte, k) in chunk.iter_mut().zip(ks.iter()) {
            *byte ^= k;
        }
        counter = counter.wrapping_add(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 8439 §2.3.2 block function test vector.
    #[test]
    fn rfc8439_block() {
        let key: [u8; 32] =
            unhex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
                .try_into()
                .unwrap();
        let nonce: [u8; 12] = unhex("000000090000004a00000000").try_into().unwrap();
        let ks = block(&key, 1, &nonce);
        let expected = unhex(
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e",
        );
        assert_eq!(ks.to_vec(), expected);
    }

    // RFC 8439 §2.4.2 encryption test vector.
    #[test]
    fn rfc8439_encrypt() {
        let key: [u8; 32] =
            unhex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
                .try_into()
                .unwrap();
        let nonce: [u8; 12] = unhex("000000000000004a00000000").try_into().unwrap();
        let mut data = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it."
            .to_vec();
        xor_stream(&key, 1, &nonce, &mut data);
        let expected = unhex(
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736
             5af90bbf74a35be6b40b8eedf2785e42874d",
        );
        assert_eq!(data, expected);
    }

    #[test]
    fn xor_roundtrip() {
        let key = [7u8; 32];
        let nonce = [9u8; 12];
        let plaintext: Vec<u8> = (0..1000u32).map(|i| (i % 256) as u8).collect();
        let mut data = plaintext.clone();
        xor_stream(&key, 0, &nonce, &mut data);
        assert_ne!(data, plaintext);
        xor_stream(&key, 0, &nonce, &mut data);
        assert_eq!(data, plaintext);
    }

    // Every available kernel produces byte-identical streams, including
    // ragged lengths that exercise 16-wide batches, 8-wide batches and
    // scalar remainders in every combination, and counters that wrap
    // through u32::MAX mid-batch (`u32::MAX - 14` inside one 16-block
    // batch).
    #[test]
    fn all_levels_agree_on_every_length() {
        let key = [0xa5u8; 32];
        let nonce = [0x5au8; 12];
        let lens = [
            0usize, 1, 63, 64, 65, 255, 256, 257, 511, 512, 513, 1000, 1023, 1024, 1025, 1535,
            1536, 2047, 3072,
        ];
        for &counter in &[0u32, 1, u32::MAX - 2, u32::MAX - 14] {
            for &len in &lens {
                let mut reference: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
                let plain = reference.clone();
                xor_stream_with(SimdLevel::Scalar, &key, counter, &nonce, &mut reference);
                for l in simd::available_levels() {
                    let mut data = plain.clone();
                    xor_stream_with(l, &key, counter, &nonce, &mut data);
                    assert_eq!(
                        data,
                        reference,
                        "level {} len {len} ctr {counter}",
                        l.name()
                    );
                }
            }
        }
    }

    // One 16-wide batch, lane by lane: block `j` of a 1 KiB stream is
    // `block(key, c + j)`, on every level, including a batch whose
    // counter lanes wrap through u32::MAX.
    #[test]
    fn a_kib_of_stream_is_sixteen_consecutive_blocks() {
        let key: [u8; 32] = std::array::from_fn(|i| (i * 7 + 3) as u8);
        let nonce: [u8; 12] = std::array::from_fn(|i| (i * 13 + 1) as u8);
        for &c in &[0u32, 7, u32::MAX - 9] {
            for l in simd::available_levels() {
                let mut data = vec![0u8; WIDE16_LEN];
                xor_stream_with(l, &key, c, &nonce, &mut data);
                for (j, got) in data.chunks_exact(BLOCK_LEN).enumerate() {
                    let want = block(&key, c.wrapping_add(j as u32), &nonce);
                    assert_eq!(got, &want, "level {} ctr {c} block {j}", l.name());
                }
            }
        }
    }

    #[test]
    fn counter_advances_across_blocks() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        // Stream over 3 blocks equals blockwise XOR with counters 5,6,7.
        let mut data = vec![0u8; 192];
        xor_stream(&key, 5, &nonce, &mut data);
        for (i, b) in (5u32..8).enumerate() {
            assert_eq!(&data[i * 64..(i + 1) * 64], &block(&key, b, &nonce));
        }
    }
}
