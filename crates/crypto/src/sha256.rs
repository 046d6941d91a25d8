//! SHA-256 (FIPS 180-4 / RFC 6234).
//!
//! Used for enclave measurements (the simulated `MRENCLAVE`), report MACs via
//! [`crate::hmac`], the HKDF key schedule of attested sessions, and the
//! per-epoch model commitments of `rex-core`.
//!
//! Two block functions produce the same digests: the scalar reference
//! and, on CPUs with the SHA extensions, a `sha256rnds2` / `sha256msg1`
//! / `sha256msg2` one. Which runs is resolved once per process in
//! [`crate::simd`]: the extensions whenever the CPU has them, unless
//! `REX_KERNEL=scalar` pins the reference.

use crate::simd::{self, SimdLevel};

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block size in bytes (needed by HMAC).
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use rex_crypto::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(digest[..4], [0xba, 0x78, 0x16, 0xbf]);
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
    /// Block function, fixed when the hasher is built: the SHA
    /// extensions when set, the scalar reference otherwise.
    sha_ni: bool,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher with the standard initial state, on the block
    /// function [`simd::sha_ni`] resolved for this process.
    #[must_use]
    pub fn new() -> Self {
        Self::with_block_fn(simd::sha_ni())
    }

    /// [`Sha256::new`] as a process pinned at `level` would build it
    /// (bench/parity hook, the twin of `chacha20::xor_stream_with`).
    ///
    /// # Panics
    /// When this host cannot execute `level`.
    #[must_use]
    pub fn with_level(level: SimdLevel) -> Self {
        assert!(
            level.is_available(),
            "simd level {} unavailable",
            level.name()
        );
        Self::with_block_fn(simd::sha_ni_with(level))
    }

    fn with_block_fn(sha_ni: bool) -> Self {
        Sha256 {
            state: H0,
            buf: [0; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
            sha_ni,
        }
    }

    /// One-shot convenience: digest of `data`.
    #[must_use]
    pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// One-shot digest of the concatenation of `parts` — the building
    /// block of domain-separated chained hashes (epoch commitments): the
    /// caller passes label, prior digest and payload as distinct slices
    /// without allocating the concatenation.
    #[must_use]
    pub fn digest_parts(parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
        let mut h = Self::new();
        for part in parts {
            h.update(part);
        }
        h.finalize()
    }

    /// Absorbs `data`. Whole blocks are compressed where they lie in the
    /// caller's slice; only a ragged head or tail passes through the
    /// hasher's 64-byte buffer.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < BLOCK_LEN {
                return;
            }
            let block = self.buf;
            self.compress_blocks(&block);
            self.buf_len = 0;
        }
        let (blocks, tail) = data.split_at(data.len() - data.len() % BLOCK_LEN);
        self.compress_blocks(blocks);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// Emits the digest, consuming the hasher.
    #[must_use]
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // Padding: 0x80, zeros to 56 mod 64, 64-bit big-endian bit
        // length — one block, or two when the tail leaves no room.
        let mut pad = [0u8; 2 * BLOCK_LEN];
        pad[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        pad[self.buf_len] = 0x80;
        let end = if self.buf_len < BLOCK_LEN - 8 {
            BLOCK_LEN
        } else {
            2 * BLOCK_LEN
        };
        pad[end - 8..end].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        self.compress_blocks(&pad[..end]);
        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Runs the compression function over every 64-byte block of
    /// `blocks` (a whole number of them), in order.
    fn compress_blocks(&mut self, blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
        #[cfg(target_arch = "x86_64")]
        if self.sha_ni {
            // SAFETY: the private `sha_ni` is set only by the two
            // constructors, from `simd::sha_ni` / `simd::sha_ni_with`,
            // which answer true only after `is_x86_feature_detected!`
            // saw `sha`, `ssse3` and `sse4.1` on this CPU (SSE2 is
            // baseline on x86_64) — every feature the function is
            // compiled with, whatever level was detected or pinned.
            // `blocks` is a whole number of 64-byte blocks (asserted
            // above in debug builds; the callee walks it with
            // `chunks_exact`, so a ragged tail would be skipped, never
            // over-read).
            unsafe { compress_blocks_sha_ni(&mut self.state, blocks) };
            return;
        }
        compress_blocks_scalar(&mut self.state, blocks);
    }
}

/// The scalar reference block function (FIPS 180-4 §6.2.2), over every
/// 64-byte block of `blocks`.
fn compress_blocks_scalar(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(BLOCK_LEN) {
        let mut w = [0u32; 64];
        for (wi, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wi = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The SHA-extension block function: the working variables stay in two
/// registers (`ABEF` / `CDGH`, the layout `sha256rnds2` wants) across
/// every block of `blocks` and are written back to `state` once.
///
/// # Safety
/// The CPU must support `sha`, `ssse3` and `sse4.1` (SSE2 is x86_64
/// baseline). Nothing is asked of `blocks`: it is walked with
/// `chunks_exact`, so a ragged tail is skipped, never over-read.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn compress_blocks_sha_ni(state: &mut [u32; 8], blocks: &[u8]) {
    use std::arch::x86_64::*;

    /// Four rounds on the message quad `$w` (schedule words 4i..4i+4).
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
            // SAFETY: `$i < 16`, so the 16 bytes at `K[4 * $i]` are
            // inside the 64-word table; `loadu` takes any alignment.
            let k = unsafe { _mm_loadu_si128(K.as_ptr().add(4 * $i).cast()) };
            let wk = _mm_add_epi32($w, k);
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0E));
        }};
    }
    /// Schedule words 4i..4i+4 from the four quads before them.
    macro_rules! schedule {
        ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
            _mm_sha256msg2_epu32(
                _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4)),
                $w3,
            )
        };
    }

    debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
    // Big-endian message words → little-endian lanes.
    let be_words = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    // SAFETY: `state` is eight u32s, so both unaligned 16-byte loads
    // are in bounds.
    let (abcd, efgh) = unsafe {
        (
            _mm_loadu_si128(state.as_ptr().cast()),
            _mm_loadu_si128(state.as_ptr().add(4).cast()),
        )
    };
    let cdab = _mm_shuffle_epi32(abcd, 0xB1);
    let hgfe = _mm_shuffle_epi32(efgh, 0x1B);
    let mut abef = _mm_alignr_epi8(cdab, hgfe, 8);
    let mut cdgh = _mm_blend_epi16(hgfe, cdab, 0xF0);

    for block in blocks.chunks_exact(BLOCK_LEN) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // SAFETY: `chunks_exact` hands out exactly `BLOCK_LEN` = 64
        // bytes, so the four unaligned 16-byte loads at offsets 0, 16,
        // 32 and 48 are in bounds.
        let load = |quad: usize| unsafe {
            _mm_shuffle_epi8(
                _mm_loadu_si128(block.as_ptr().add(16 * quad).cast()),
                be_words,
            )
        };
        let (mut w0, mut w1, mut w2, mut w3) = (load(0), load(1), load(2), load(3));
        rounds4!(abef, cdgh, w0, 0);
        rounds4!(abef, cdgh, w1, 1);
        rounds4!(abef, cdgh, w2, 2);
        rounds4!(abef, cdgh, w3, 3);
        for i in [4, 8, 12] {
            w0 = schedule!(w0, w1, w2, w3);
            rounds4!(abef, cdgh, w0, i);
            w1 = schedule!(w1, w2, w3, w0);
            rounds4!(abef, cdgh, w1, i + 1);
            w2 = schedule!(w2, w3, w0, w1);
            rounds4!(abef, cdgh, w2, i + 2);
            w3 = schedule!(w3, w0, w1, w2);
            rounds4!(abef, cdgh, w3, i + 3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1B);
    let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
    // SAFETY: as for the loads — two unaligned 16-byte stores into the
    // eight-word `state`.
    unsafe {
        _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xF0));
        _mm_storeu_si128(
            state.as_mut_ptr().add(4).cast(),
            _mm_alignr_epi8(dchg, feba, 8),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // Vectors from FIPS 180-4 / RFC 6234.
    #[test]
    fn empty() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0u32..10_000).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 63, 64, 65, 127, 4096, 9999] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split at {split}");
        }
    }

    #[test]
    fn digest_parts_matches_concatenation() {
        let parts: [&[u8]; 3] = [b"rex-commit-v1", &42u64.to_le_bytes(), &[7u8; 100]];
        let concat: Vec<u8> = parts.iter().flat_map(|p| p.iter().copied()).collect();
        assert_eq!(Sha256::digest_parts(&parts), Sha256::digest(&concat));
        assert_eq!(Sha256::digest_parts(&[]), Sha256::digest(b""));
    }

    #[test]
    fn exact_block_boundary() {
        let data = [0xabu8; 64];
        let mut h = Sha256::new();
        h.update(&data);
        assert_eq!(h.finalize(), Sha256::digest(&data));
    }
}
