//! The ChaCha20 stream cipher (RFC 8439 §2.3–2.4).
//!
//! The keystream generator has two paths: the scalar block function,
//! and on x86_64 with AVX2 a **multi-block kernel** that runs the
//! 20-round permutation 8 blocks wide (one block per 32-bit lane),
//! dispatched at runtime by [`crate::simd::level`] and overridable with
//! `REX_KERNEL`. What the 8-wide batch leaves (under 512 bytes, at most
//! 7 blocks) goes through the scalar block loop. ChaCha20 is pure
//! integer arithmetic, so both paths produce bit-identical keystream by
//! construction; the RFC vectors and the kernel-parity suite pin it
//! anyway.

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

/// The x86_64 multi-block keystream kernel. One 32-bit lane per block:
/// all 16 state words live in vector registers, the counter word holds
/// lanes `counter + {0..7}`, and the 20 rounds run on every block at
/// once. Rotations are `slli | srli` pairs; everything is wrapping
/// integer arithmetic, so the output is bit-identical to [`block`].
#[cfg(target_arch = "x86_64")]
mod wide {
    use super::{BLOCK_LEN, WIDE_BLOCKS, WIDE_LEN};
    use std::arch::x86_64::*;

    macro_rules! rotl {
        ($v:expr, $n:literal) => {
            _mm256_or_si256(_mm256_slli_epi32($v, $n), _mm256_srli_epi32($v, 32 - $n))
        };
    }
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
        for _ in 0..10 {
            // Column rounds.
            quarter_round!(v, 0, 4, 8, 12);
            quarter_round!(v, 1, 5, 9, 13);
            quarter_round!(v, 2, 6, 10, 14);
            quarter_round!(v, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round!(v, 0, 5, 10, 15);
            quarter_round!(v, 1, 6, 11, 12);
            quarter_round!(v, 2, 7, 8, 13);
            quarter_round!(v, 3, 4, 9, 14);
        }
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

    // AVX2 drains whole 8-block batches; the scalar loop below finishes
    // what is left (all of it at `Scalar`). Both emit the same RFC
    // keystream, so the split point is invisible in the output.
    #[cfg(target_arch = "x86_64")]
    if level == SimdLevel::Avx2 {
        let mut ks = [0u8; WIDE_LEN];
        while data.len() - off >= WIDE_LEN {
            let state = init_state(key, counter, nonce);
            // SAFETY: `level.is_available()` was asserted on entry, and
            // for `Avx2` that is `is_x86_feature_detected!("avx2")` — the
            // one feature `blocks8_avx2` is compiled with, and its only
            // requirement.
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
    // ragged lengths that exercise wide batches + scalar remainders and
    // counters that wrap through u32::MAX mid-batch.
    #[test]
    fn all_levels_agree_on_every_length() {
        let key = [0xa5u8; 32];
        let nonce = [0x5au8; 12];
        let lens = [0usize, 1, 63, 64, 65, 255, 256, 257, 511, 512, 513, 1000];
        for &counter in &[0u32, 1, u32::MAX - 2] {
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
