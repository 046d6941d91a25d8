//! Poly1305 one-time authenticator (RFC 8439 §2.5).
//!
//! Two block functions compute the same tags. The scalar reference
//! holds the accumulator in three radix-2^44 limbs and multiplies with
//! `u128` products (the poly1305-donna-64 shape). On x86_64 with AVX2,
//! a run of at least 256 bytes (`WIDE_MIN`) of full blocks goes through a
//! 4-lane kernel instead: radix-2^26 limbs, one block per 64-bit lane
//! (`vpmuludq`), every lane a Horner chain on r^4. At the end of the run
//! the lanes are multiplied by r^4, r^3, r^2 and r, summed, and handed
//! back to the scalar state, so the partial-block buffer and the tail
//! of the run stay on the reference. The r^2..r^4 table is built the
//! first time a MAC reaches the wide kernel, so short messages (session
//! handshakes, raw-data shares) never pay for it.
//!
//! Which path runs is [`crate::simd::level`], read when the MAC is built
//! (`REX_KERNEL=scalar` pins the reference). The AVX-512 level keeps the
//! 4-lane AVX2 kernel: it widens only the keystream. Both paths compute the same
//! polynomial mod 2^130 − 5 in exact integer arithmetic, so tags are
//! identical by construction; the RFC 8439 vectors below and the
//! kernel-parity suite pin it anyway.

use crate::simd::{self, SimdLevel};

/// Key length in bytes (r ‖ s).
pub const KEY_LEN: usize = 32;
/// Tag length in bytes.
pub const TAG_LEN: usize = 16;
/// Message block length in bytes.
const BLOCK_LEN: usize = 16;
/// Bytes per step of the wide kernel: four blocks, one per 64-bit lane.
const WIDE_LEN: usize = 4 * BLOCK_LEN;
/// The shortest run of full blocks [`Poly1305::update`] sends through
/// the wide kernel. A MAC that goes wide pays for the r^2..r^4 table,
/// and each run for its lane set-up and final multiply-and-sum: on a
/// 2.1 GHz Xeon a fresh MAC over 128 bytes took as long either way, and
/// the wide kernel was ~1.2x faster at 192 bytes and ~1.4x at 256.
const WIDE_MIN: usize = 4 * WIDE_LEN;

const M26: u64 = (1 << 26) - 1;
const M42: u64 = (1 << 42) - 1;
const M44: u64 = (1 << 44) - 1;
/// The 2^128 bit every full block carries, at its place in limb 2.
const HIBIT: u64 = 1 << 40;

/// An element of GF(2^130 − 5) in radix-2^44 limbs (44, 44 and 42
/// bits), with a little carry slack between reductions.
type Limbs = [u64; 3];

/// The same element in radix-2^26 limbs, as the wide kernel holds it.
type Limbs26 = [u64; 5];

#[inline(always)]
fn wide_mul(a: u64, b: u64) -> u128 {
    u128::from(a) * u128::from(b)
}

/// `a · b` mod 2^130 − 5, partially reduced: limb 0 below 2^44, limb 2
/// below 2^42, limb 1 below 2^44 plus a carry of a few bits.
#[inline(always)]
fn mul(a: Limbs, b: Limbs) -> Limbs {
    let [a0, a1, a2] = a;
    let [b0, b1, b2] = b;
    // Limb products that land at 2^132 and above wrap round as
    // 2^132 = 2^2 · 2^130 ≡ 4 · 5.
    let (s1, s2) = (b1 * 20, b2 * 20);
    let d0 = wide_mul(a0, b0) + wide_mul(a1, s2) + wide_mul(a2, s1);
    let mut d1 = wide_mul(a0, b1) + wide_mul(a1, b0) + wide_mul(a2, s2);
    let mut d2 = wide_mul(a0, b2) + wide_mul(a1, b1) + wide_mul(a2, b0);

    d1 += d0 >> 44;
    let h0 = d0 as u64 & M44;
    d2 += d1 >> 44;
    let h1 = d1 as u64 & M44;
    let c = (d2 >> 42) as u64;
    let h2 = d2 as u64 & M42;
    let h0 = h0 + c * 5;
    [h0 & M44, h1 + (h0 >> 44), h2]
}

/// Absorbs whole 16-byte blocks, each with the 2^128 bit set.
fn scalar_blocks(h: &mut Limbs, r: Limbs, blocks: &[u8]) {
    for block in blocks.chunks_exact(BLOCK_LEN) {
        *h = mul(add_block(*h, block, HIBIT), r);
    }
}

/// `h` plus one 16-byte little-endian block and the given high bit.
#[inline(always)]
fn add_block(h: Limbs, block: &[u8], hibit: u64) -> Limbs {
    let t0 = u64::from_le_bytes(block[0..8].try_into().unwrap());
    let t1 = u64::from_le_bytes(block[8..16].try_into().unwrap());
    [
        h[0] + (t0 & M44),
        h[1] + (((t0 >> 44) | (t1 << 20)) & M44),
        h[2] + ((t1 >> 24) | hibit),
    ]
}

/// Radix 2^44 → 2^26, for any output of [`mul`] (limb 1 is carried
/// into limb 2 first, so every limb but the top one is exact).
fn to_radix26(h: Limbs) -> Limbs26 {
    let [h0, h1, h2] = h;
    let (h1, h2) = (h1 & M44, h2 + (h1 >> 44));
    [
        h0 & M26,
        ((h0 >> 26) | (h1 << 18)) & M26,
        (h1 >> 8) & M26,
        ((h1 >> 34) | (h2 << 10)) & M26,
        h2 >> 16,
    ]
}

/// Radix 2^26 → 2^44, for limbs that each fit a few bits past 26.
fn from_radix26(l: Limbs26) -> Limbs {
    let [l0, l1, l2, l3, l4] = l;
    let x = l0 + (l1 << 26);
    let y = (x >> 44) + (l2 << 8) + (l3 << 34);
    [x & M44, y & M44, (y >> 44) + (l4 << 16)]
}

/// r, r^2, r^3 and r^4 in radix-2^26 limbs: the wide kernel's table.
fn powers(r: Limbs) -> [Limbs26; 4] {
    let r2 = mul(r, r);
    let r3 = mul(r2, r);
    let r4 = mul(r3, r);
    [r, r2, r3, r4].map(to_radix26)
}

/// The x86_64 4-lane kernel. Vector lane `j` of a step holds one block
/// of the step's four; each limb is one `__m256i` of four 64-bit lanes,
/// of which `vpmuludq` reads the low 32 bits. Between steps each lane
/// is multiplied by r^4 and carried lazily, so limbs stay under 2^28
/// and the five-term products under 2^60.
#[cfg(target_arch = "x86_64")]
mod wide {
    use super::{from_radix26, to_radix26, Limbs, Limbs26, M26, WIDE_LEN};
    use std::arch::x86_64::*;

    type Vec5 = [__m256i; 5];

    /// The vector whose 64-bit lane `j` is `l[j]`.
    #[target_feature(enable = "avx2")]
    fn lanes(l: [u64; 4]) -> __m256i {
        _mm256_set_epi64x(l[3] as i64, l[2] as i64, l[1] as i64, l[0] as i64)
    }

    /// `vpmuludq`: the low 32 bits of each 64-bit lane of `a` times
    /// those of `b`. One instruction, not `_mm256_mul_epu32`: LLVM drops
    /// that intrinsic's 32-bit masks once it proves a limb fits, and
    /// where the proof runs through the loop's back edge, instruction
    /// selection no longer sees it and emits a full 64-bit multiply
    /// (three `vpmuludq` plus shifts and adds).
    #[target_feature(enable = "avx2")]
    #[inline]
    fn mul32(a: __m256i, b: __m256i) -> __m256i {
        let out;
        // SAFETY: one register-to-register instruction of the AVX2 set
        // this function is compiled with; no memory, stack or flags.
        unsafe {
            std::arch::asm!(
                "vpmuludq {o}, {a}, {b}",
                o = lateout(ymm_reg) out,
                a = in(ymm_reg) a,
                b = in(ymm_reg) b,
                options(pure, nomem, nostack, preserves_flags),
            );
        }
        out
    }

    /// `Σ h[i] · f[i]`, summed as a tree.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn dot5(h: &Vec5, f: [__m256i; 5]) -> __m256i {
        let p = |i: usize| mul32(h[i], f[i]);
        let add = |a, b| _mm256_add_epi64(a, b);
        add(add(add(p(0), p(1)), add(p(2), p(3))), p(4))
    }

    /// Lane-wise `h · r` mod 2^130 − 5, unreduced; `s` is `5 · r`.
    /// Limb product `h[i] · r[j]` lands in limb `i + j`, and from limb 5
    /// on wraps round to limb `i + j − 5` times 5 (2^130 ≡ 5).
    #[target_feature(enable = "avx2")]
    #[inline]
    fn mul(h: &Vec5, r: &Vec5, s: &Vec5) -> Vec5 {
        [
            dot5(h, [r[0], s[4], s[3], s[2], s[1]]),
            dot5(h, [r[1], r[0], s[4], s[3], s[2]]),
            dot5(h, [r[2], r[1], r[0], s[4], s[3]]),
            dot5(h, [r[3], r[2], r[1], r[0], s[4]]),
            dot5(h, [r[4], r[3], r[2], r[1], r[0]]),
        ]
    }

    /// One lazy carry pass over every lane: two interleaved chains,
    /// limb 4's carry wrapping into limb 0 times 5. Leaves each limb
    /// under 2^26 plus a carry of at most 11 bits.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn carry(d: Vec5) -> Vec5 {
        let m = _mm256_set1_epi64x(M26 as i64);
        let [mut d0, mut d1, mut d2, mut d3, mut d4] = d;
        d1 = _mm256_add_epi64(d1, _mm256_srli_epi64::<26>(d0));
        d0 = _mm256_and_si256(d0, m);
        d4 = _mm256_add_epi64(d4, _mm256_srli_epi64::<26>(d3));
        d3 = _mm256_and_si256(d3, m);
        d2 = _mm256_add_epi64(d2, _mm256_srli_epi64::<26>(d1));
        d1 = _mm256_and_si256(d1, m);
        let c = _mm256_srli_epi64::<26>(d4);
        d4 = _mm256_and_si256(d4, m);
        d0 = _mm256_add_epi64(d0, _mm256_add_epi64(c, _mm256_slli_epi64::<2>(c)));
        d3 = _mm256_add_epi64(d3, _mm256_srli_epi64::<26>(d2));
        d2 = _mm256_and_si256(d2, m);
        d1 = _mm256_add_epi64(d1, _mm256_srli_epi64::<26>(d0));
        d0 = _mm256_and_si256(d0, m);
        d4 = _mm256_add_epi64(d4, _mm256_srli_epi64::<26>(d3));
        d3 = _mm256_and_si256(d3, m);
        [d0, d1, d2, d3, d4]
    }

    /// Splits four blocks into radix-2^26 limbs, 2^128 bit set. The
    /// 64-bit unpacks leave the blocks in lane order 0, 2, 1, 3.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn load(step: &[u8; WIDE_LEN]) -> Vec5 {
        // SAFETY: `step` is 64 bytes; the two unaligned loads read
        // bytes 0..32 and 32..64.
        let (v0, v1) = unsafe {
            (
                _mm256_loadu_si256(step.as_ptr().cast::<__m256i>()),
                _mm256_loadu_si256(step.as_ptr().add(32).cast::<__m256i>()),
            )
        };
        let m = _mm256_set1_epi64x(M26 as i64);
        let lo = _mm256_unpacklo_epi64(v0, v1);
        let hi = _mm256_unpackhi_epi64(v0, v1);
        [
            _mm256_and_si256(lo, m),
            _mm256_and_si256(_mm256_srli_epi64::<26>(lo), m),
            _mm256_and_si256(
                _mm256_or_si256(_mm256_srli_epi64::<52>(lo), _mm256_slli_epi64::<12>(hi)),
                m,
            ),
            _mm256_and_si256(_mm256_srli_epi64::<14>(hi), m),
            _mm256_or_si256(_mm256_srli_epi64::<40>(hi), _mm256_set1_epi64x(1 << 24)),
        ]
    }

    /// Absorbs `blocks` (a non-empty whole number of 64-byte steps) into
    /// `h`, given `powers` = r, r^2, r^3, r^4 in radix 2^26.
    ///
    /// # Safety
    /// The CPU must support AVX2. Nothing else: the only memory access
    /// outside checked indexing is [`load`]'s, inside one 64-byte step.
    #[target_feature(enable = "avx2")]
    pub unsafe fn blocks4_avx2(h: &mut Limbs, powers: &[Limbs26; 4], blocks: &[u8]) {
        assert!(!blocks.is_empty() && blocks.len().is_multiple_of(WIDE_LEN));
        let mut steps = blocks
            .chunks_exact(WIDE_LEN)
            .map(|s| <&[u8; WIDE_LEN]>::try_from(s).expect("exact chunk"));
        // The running state joins the first block's lane (lane 0).
        let mut acc = load(steps.next().expect("non-empty run"));
        for (a, x) in acc.iter_mut().zip(to_radix26(*h)) {
            *a = _mm256_add_epi64(*a, lanes([x, 0, 0, 0]));
        }
        let r4 = powers[3].map(|x| _mm256_set1_epi64x(x as i64));
        let s4 = powers[3].map(|x| _mm256_set1_epi64x((x * 5) as i64));
        for step in steps {
            let next = load(step);
            let prod = carry(mul(&acc, &r4, &s4));
            for (a, (p, n)) in acc.iter_mut().zip(prod.into_iter().zip(next)) {
                *a = _mm256_add_epi64(p, n);
            }
        }
        // Lane j holds blocks 4k + {0, 2, 1, 3}[j]; after the last step
        // they are r^4, r^2, r^3, r^1 from the end of the run.
        let last = [&powers[3], &powers[1], &powers[2], &powers[0]];
        let r: Vec5 = std::array::from_fn(|i| lanes(last.map(|p| p[i])));
        let s: Vec5 = std::array::from_fn(|i| lanes(last.map(|p| p[i] * 5)));
        let d = mul(&acc, &r, &s);
        // Sum the lanes (each is under 2^58), then carry once.
        let mut sum = [0u64; 5];
        for (t, v) in sum.iter_mut().zip(d) {
            let mut lanes = [0u64; 4];
            // SAFETY: `lanes` is four u64s = the 32 bytes one unaligned
            // `storeu` writes.
            unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), v) };
            *t = lanes.iter().sum();
        }
        for i in 0..4 {
            sum[i + 1] += sum[i] >> 26;
            sum[i] &= M26;
        }
        sum[0] += (sum[4] >> 26) * 5;
        sum[4] &= M26;
        sum[1] += sum[0] >> 26;
        sum[0] &= M26;
        *h = from_radix26(sum);
    }
}

/// Incremental Poly1305 MAC.
pub struct Poly1305 {
    r: Limbs,
    h: Limbs,
    /// s, the second half of the key, as two little-endian words.
    pad: [u64; 2],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    /// Block function, fixed when the MAC is built.
    level: SimdLevel,
    /// The wide kernel's r..r^4 table, built at the first wide run.
    powers: Option<[Limbs26; 4]>,
}

impl Poly1305 {
    /// Creates a one-time MAC keyed with a 32-byte key, on the block
    /// function of the process's [`simd::level`]. The key **must not**
    /// be reused across messages; the AEAD derives a fresh one per nonce.
    #[must_use]
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        Self::new_with(simd::level(), key)
    }

    /// [`Poly1305::new`] pinned to a specific dispatch level (bench and
    /// parity hook).
    ///
    /// # Panics
    /// When this host cannot execute `level`.
    #[must_use]
    pub fn new_with(level: SimdLevel, key: &[u8; KEY_LEN]) -> Self {
        assert!(
            level.is_available(),
            "simd level {} unavailable",
            level.name()
        );
        let word = |i: usize| u64::from_le_bytes(key[i..i + 8].try_into().unwrap());
        let (t0, t1) = (word(0), word(8));
        // r is clamped per RFC 8439.
        let r = [
            t0 & 0xffc_0fff_ffff,
            ((t0 >> 44) | (t1 << 20)) & 0xfff_ffc0_ffff,
            (t1 >> 24) & 0x00f_ffff_fc0f,
        ];
        Poly1305 {
            r,
            h: [0; 3],
            pad: [word(16), word(24)],
            buf: [0; BLOCK_LEN],
            buf_len: 0,
            level,
            powers: None,
        }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < BLOCK_LEN {
                return;
            }
            scalar_blocks(&mut self.h, self.r, &self.buf);
            self.buf_len = 0;
        }

        // AVX2 (at both vector levels) takes whole 4-block steps of a
        // long run; the scalar loop finishes the run (all of it at
        // `Scalar`).
        #[cfg(target_arch = "x86_64")]
        if self.level >= SimdLevel::Avx2 && data.len() >= WIDE_MIN {
            let (run, rest) = data.split_at(data.len() - data.len() % WIDE_LEN);
            let r = self.r;
            let powers = self.powers.get_or_insert_with(|| powers(r));
            // SAFETY: `new_with` asserted `level.is_available()`, and for
            // `Avx2` and `Avx512` that includes
            // `is_x86_feature_detected!("avx2")` — the one feature
            // `blocks4_avx2` is compiled with, and its only requirement.
            unsafe { wide::blocks4_avx2(&mut self.h, powers, run) };
            data = rest;
        }

        let full = data.len() - data.len() % BLOCK_LEN;
        scalar_blocks(&mut self.h, self.r, &data[..full]);
        let tail = &data[full..];
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Emits the 16-byte tag, consuming the MAC.
    #[must_use]
    pub fn finalize(self) -> [u8; TAG_LEN] {
        let mut h = self.h;
        if self.buf_len > 0 {
            // Final partial block: append 0x01 then zero-pad; no high bit.
            let mut block = [0u8; BLOCK_LEN];
            block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            block[self.buf_len] = 1;
            h = mul(add_block(h, &block, 0), self.r);
        }
        let [mut h0, mut h1, mut h2] = h;

        // Fully carry h (two passes).
        for _ in 0..2 {
            h2 += h1 >> 44;
            h1 &= M44;
            h0 += (h2 >> 42) * 5;
            h2 &= M42;
            h1 += h0 >> 44;
            h0 &= M44;
        }

        // g = h + -p = h + 5 - 2^130.
        let mut g0 = h0 + 5;
        let mut g1 = h1 + (g0 >> 44);
        g0 &= M44;
        let mut g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
        g1 &= M44;

        // Select h if h < p, else g = h - p (constant time): g2 wrapped
        // below zero exactly when h < p.
        let mask = (g2 >> 63).wrapping_sub(1);
        g0 &= mask;
        g1 &= mask;
        g2 &= mask;
        h0 = (h0 & !mask) | g0;
        h1 = (h1 & !mask) | g1;
        h2 = (h2 & !mask) | g2;

        // h = (h + s) mod 2^128.
        let [t0, t1] = self.pad;
        h0 += t0 & M44;
        h1 += (((t0 >> 44) | (t1 << 20)) & M44) + (h0 >> 44);
        h0 &= M44;
        h2 += (t1 >> 24) + (h1 >> 44);
        h1 &= M44;
        h2 &= M42;

        let mut tag = [0u8; TAG_LEN];
        tag[0..8].copy_from_slice(&(h0 | (h1 << 44)).to_le_bytes());
        tag[8..16].copy_from_slice(&((h1 >> 20) | (h2 << 24)).to_le_bytes());
        tag
    }

    /// One-shot MAC.
    #[must_use]
    pub fn mac(key: &[u8; KEY_LEN], data: &[u8]) -> [u8; TAG_LEN] {
        let mut p = Self::new(key);
        p.update(data);
        p.finalize()
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

    fn mac_with(level: SimdLevel, key: &[u8; KEY_LEN], data: &[u8]) -> [u8; TAG_LEN] {
        let mut p = Poly1305::new_with(level, key);
        p.update(data);
        p.finalize()
    }

    const IETF_TEXT: &[u8] = b"Any submission to the IETF intended by the Contributor for \
publication as all or part of an IETF Internet-Draft or RFC and any statement made within the \
context of an IETF activity is considered an \"IETF Contribution\". Such statements include oral \
statements in IETF sessions, as well as written and electronic communications made at any time \
or place, which are addressed to";

    const JABBERWOCKY: &[u8] = b"'Twas brillig, and the slithy toves\nDid gyre and gimble in the \
wabe:\nAll mimsy were the borogoves,\nAnd the mome raths outgrabe.";

    /// RFC 8439 §2.5.2 and Appendix A.3 vectors #1–#11, as (key, message,
    /// tag) in hex (the two long texts as bytes).
    fn rfc8439_vectors() -> Vec<(Vec<u8>, Vec<u8>, Vec<u8>)> {
        let r0_s0 = "00".repeat(32);
        let one = format!("01{}", "00".repeat(31));
        let two = format!("02{}", "00".repeat(31));
        let r10 = format!("01{}04{}", "00".repeat(7), "00".repeat(23));
        let v10 = "e33594d7505e43b900000000000000003394d7505e4379cd0100000000000000\
                   0000000000000000000000000000000001000000000000000000000000000000";
        let hex = |k: &str, m: &str, t: &str| (unhex(k), unhex(m), unhex(t));
        let text = |k: &str, m: &[u8], t: &str| (unhex(k), m.to_vec(), unhex(t));
        vec![
            text(
                "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b",
                b"Cryptographic Forum Research Group",
                "a8061dc1305136c6c22b8baf0c0127a9",
            ),
            hex(&r0_s0, &"00".repeat(64), &"00".repeat(16)),
            text(
                &format!("{}36e5f6b5c5e06070f0efca96227a863e", "00".repeat(16)),
                IETF_TEXT,
                "36e5f6b5c5e06070f0efca96227a863e",
            ),
            text(
                &format!("36e5f6b5c5e06070f0efca96227a863e{}", "00".repeat(16)),
                IETF_TEXT,
                "f3477e7cd95417af89a6b8794c310cf0",
            ),
            text(
                "1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0",
                JABBERWOCKY,
                "4541669a7eaaee61e708dc7cbcc5eb62",
            ),
            hex(&two, &"ff".repeat(16), &format!("03{}", "00".repeat(15))),
            hex(
                &format!("02{}{}", "00".repeat(15), "ff".repeat(16)),
                &format!("02{}", "00".repeat(15)),
                &format!("03{}", "00".repeat(15)),
            ),
            hex(
                &one,
                &format!(
                    "{}f0{}11{}",
                    "ff".repeat(16),
                    "ff".repeat(15),
                    "00".repeat(15)
                ),
                &format!("05{}", "00".repeat(15)),
            ),
            hex(
                &one,
                &format!(
                    "{}fb{}{}",
                    "ff".repeat(16),
                    "fe".repeat(15),
                    "01".repeat(16)
                ),
                &"00".repeat(16),
            ),
            hex(
                &two,
                &format!("fd{}", "ff".repeat(15)),
                &format!("fa{}", "ff".repeat(15)),
            ),
            hex(&r10, v10, "14000000000000005500000000000000"),
            hex(&r10, &v10[..96], "13000000000000000000000000000000"),
        ]
    }

    #[test]
    fn rfc8439_vectors_hold_on_every_level() {
        let vectors = rfc8439_vectors();
        assert_eq!(vectors.len(), 12);
        assert_eq!(IETF_TEXT.len(), 375);
        assert_eq!(JABBERWOCKY.len(), 127);
        for level in simd::available_levels() {
            for (i, (key, msg, tag)) in vectors.iter().enumerate() {
                let key: [u8; KEY_LEN] = key.as_slice().try_into().unwrap();
                assert_eq!(
                    mac_with(level, &key, msg).to_vec(),
                    *tag,
                    "vector {i} on {}",
                    level.name()
                );
            }
        }
    }

    // RFC 8439 §2.5.2 test vector, through the one-shot entry.
    #[test]
    fn rfc8439_tag() {
        let key: [u8; 32] =
            unhex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
                .try_into()
                .unwrap();
        let tag = Poly1305::mac(&key, b"Cryptographic Forum Research Group");
        assert_eq!(tag.to_vec(), unhex("a8061dc1305136c6c22b8baf0c0127a9"));
    }

    // RFC 8439 §A.3 vector #1: all-zero key and message.
    #[test]
    fn zero_key_zero_message() {
        let key = [0u8; 32];
        let msg = [0u8; 64];
        assert_eq!(Poly1305::mac(&key, &msg), [0u8; 16]);
    }

    // RFC 8439 §A.3 vector #5 exercises the 2^130-5 wraparound.
    #[test]
    fn wraparound_vector() {
        let key: [u8; 32] =
            unhex("0200000000000000000000000000000000000000000000000000000000000000")
                .try_into()
                .unwrap();
        let msg = unhex("ffffffffffffffffffffffffffffffff");
        assert_eq!(
            Poly1305::mac(&key, &msg).to_vec(),
            unhex("03000000000000000000000000000000")
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = [0x42u8; 32];
        let data: Vec<u8> = (0..3 * WIDE_MIN as u32).map(|i| i as u8).collect();
        for level in simd::available_levels() {
            let whole = mac_with(level, &key, &data);
            for split in [0usize, 1, 15, 16, 17, 31, 100, 199, WIDE_MIN + 5] {
                let mut p = Poly1305::new_with(level, &key);
                p.update(&data[..split]);
                p.update(&data[split..]);
                assert_eq!(p.finalize(), whole, "split {split} on {}", level.name());
            }
        }
    }
}
