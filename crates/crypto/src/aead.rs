//! ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).
//!
//! This is the encrypted channel used for all post-attestation REX traffic
//! (paper Algorithm 1 `ocall_send` / Algorithm 2 `ecall_input`): raw rating
//! triplets and serialized models travel inside these sealed frames.

use crate::chacha20::{self, NONCE_LEN};
use crate::ct::ct_eq;
use crate::error::CryptoError;
use crate::poly1305::{Poly1305, TAG_LEN};

/// Key length in bytes.
pub const KEY_LEN: usize = 32;

/// An AEAD cipher instance bound to one 256-bit key.
///
/// ```
/// use rex_crypto::ChaCha20Poly1305;
/// let cipher = ChaCha20Poly1305::new(&[7u8; 32]);
/// let nonce = [1u8; 12];
/// let sealed = cipher.seal(&nonce, b"header", b"secret payload");
/// let opened = cipher.open(&nonce, b"header", &sealed).unwrap();
/// assert_eq!(opened, b"secret payload");
/// ```
#[derive(Clone)]
pub struct ChaCha20Poly1305 {
    key: [u8; KEY_LEN],
}

impl ChaCha20Poly1305 {
    /// Creates a cipher with the given key.
    #[must_use]
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        ChaCha20Poly1305 { key: *key }
    }

    /// Derives the per-nonce Poly1305 key (RFC 8439 §2.6).
    fn poly_key(&self, nonce: &[u8; NONCE_LEN]) -> [u8; 32] {
        let block = chacha20::block(&self.key, 0, nonce);
        let mut pk = [0u8; 32];
        pk.copy_from_slice(&block[..32]);
        pk
    }

    fn compute_tag(poly_key: &[u8; 32], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
        let mut mac = Poly1305::new(poly_key);
        mac.update(aad);
        mac.update(zero_pad(aad.len()));
        mac.update(ciphertext);
        mac.update(zero_pad(ciphertext.len()));
        mac.update(&(aad.len() as u64).to_le_bytes());
        mac.update(&(ciphertext.len() as u64).to_le_bytes());
        mac.finalize()
    }

    /// Encrypts `buf` in place with associated data `aad` and returns the
    /// 16-byte tag. The one sealing body: [`Self::seal`] wraps it.
    #[must_use]
    pub fn seal_in_place(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        buf: &mut [u8],
    ) -> [u8; TAG_LEN] {
        chacha20::xor_stream(&self.key, 1, nonce, buf);
        Self::compute_tag(&self.poly_key(nonce), aad, buf)
    }

    /// Encrypts `plaintext` with associated data `aad`; returns
    /// `ciphertext ‖ 16-byte tag`.
    #[must_use]
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        let tag = self.seal_in_place(nonce, aad, &mut out);
        out.extend_from_slice(&tag);
        out
    }

    /// Authenticates `sealed` (`ciphertext ‖ tag`) and decrypts its
    /// ciphertext in place; returns the plaintext, the first
    /// `sealed.len() - 16` bytes. Verification runs before decryption, so
    /// a frame that fails it leaves `sealed` as it was. The one opening
    /// body: [`Self::open`] wraps it.
    pub fn open_in_place<'a>(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &'a mut [u8],
    ) -> Result<&'a mut [u8], CryptoError> {
        if sealed.len() < TAG_LEN {
            return Err(CryptoError::DecryptionFailed);
        }
        let (ciphertext, tag) = sealed.split_at_mut(sealed.len() - TAG_LEN);
        let expected = Self::compute_tag(&self.poly_key(nonce), aad, ciphertext);
        if !ct_eq(&expected, tag) {
            return Err(CryptoError::DecryptionFailed);
        }
        chacha20::xor_stream(&self.key, 1, nonce, ciphertext);
        Ok(ciphertext)
    }

    /// Decrypts `sealed` (`ciphertext ‖ tag`); returns the plaintext or an
    /// error if authentication fails. Verification runs before decryption.
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let mut plain = sealed.to_vec();
        let len = self.open_in_place(nonce, aad, &mut plain)?.len();
        plain.truncate(len);
        Ok(plain)
    }

    /// Number of bytes added to a plaintext by [`Self::seal`].
    pub const OVERHEAD: usize = TAG_LEN;
}

/// The zeros that pad `len` bytes to a whole Poly1305 block.
fn zero_pad(len: usize) -> &'static [u8] {
    const ZEROS: [u8; 16] = [0; 16];
    &ZEROS[..(16 - (len % 16)) % 16]
}

/// A monotonically increasing 96-bit nonce generator for one session
/// direction. Reusing a (key, nonce) pair is catastrophic for this AEAD, so
/// sessions hand out nonces only through this counter.
#[derive(Debug, Clone, Default)]
pub struct NonceSequence {
    counter: u64,
    /// Distinguishes the two directions of a duplex session (RFC 9000-style).
    direction: u32,
}

impl NonceSequence {
    /// Creates a sequence for one direction (0 = initiator, 1 = responder).
    #[must_use]
    pub fn new(direction: u32) -> Self {
        NonceSequence {
            counter: 0,
            direction,
        }
    }

    /// Returns the next unique nonce; panics on exhaustion (2^64 messages).
    // Not an `Iterator`: it is infallible (no `Option`) and never ends.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> [u8; NONCE_LEN] {
        let nonce = self.peek();
        self.advance();
        nonce
    }

    /// Returns the nonce that [`Self::next`] would yield, without
    /// consuming it. Receivers use this to verify a frame *before*
    /// committing the counter, so hostile garbage cannot desynchronize a
    /// session.
    #[must_use]
    pub fn peek(&self) -> [u8; NONCE_LEN] {
        let mut nonce = [0u8; NONCE_LEN];
        nonce[..4].copy_from_slice(&self.direction.to_le_bytes());
        nonce[4..].copy_from_slice(&self.counter.to_le_bytes());
        nonce
    }

    /// Consumes the current nonce position.
    pub fn advance(&mut self) {
        self.counter = self
            .counter
            .checked_add(1)
            .expect("nonce sequence exhausted");
    }

    /// Number of nonces handed out so far.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.counter
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

    // RFC 8439 §2.8.2 AEAD test vector.
    #[test]
    fn rfc8439_seal() {
        let key: [u8; 32] =
            unhex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f")
                .try_into()
                .unwrap();
        let nonce: [u8; 12] = unhex("070000004041424344454647").try_into().unwrap();
        let aad = unhex("50515253c0c1c2c3c4c5c6c7");
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you \
only one tip for the future, sunscreen would be it.";

        let cipher = ChaCha20Poly1305::new(&key);
        let sealed = cipher.seal(&nonce, &aad, plaintext);

        let expected_ct = unhex(
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6
             3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36
             92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc
             3ff4def08e4b7a9de576d26586cec64b6116",
        );
        let expected_tag = unhex("1ae10b594f09e26a7e902ecbd0600691");
        assert_eq!(&sealed[..plaintext.len()], &expected_ct[..]);
        assert_eq!(&sealed[plaintext.len()..], &expected_tag[..]);

        let opened = cipher.open(&nonce, &aad, &sealed).unwrap();
        assert_eq!(opened, plaintext);

        // The in-place forms: the same ciphertext and tag, and the
        // plaintext back where it was.
        let mut buf = plaintext.to_vec();
        let tag = cipher.seal_in_place(&nonce, &aad, &mut buf);
        assert_eq!(buf, expected_ct);
        assert_eq!(&tag[..], &expected_tag[..]);
        buf.extend_from_slice(&tag);
        let opened = cipher.open_in_place(&nonce, &aad, &mut buf).unwrap();
        assert_eq!(&opened[..], &plaintext[..]);
    }

    #[test]
    fn a_rejected_open_in_place_leaves_the_buffer_as_it_was() {
        let cipher = ChaCha20Poly1305::new(&[3u8; 32]);
        let nonce = [5u8; 12];
        let sealed = cipher.seal(&nonce, b"aad", b"a message of some length");
        // A flipped bit in the ciphertext, in the tag, or in the AAD.
        for (at, aad) in [(0, &b"aad"[..]), (sealed.len() - 1, b"aad"), (1, b"aaX")] {
            let mut bad = sealed.clone();
            if aad == b"aad" {
                bad[at] ^= 0x01;
            }
            let before = bad.clone();
            assert_eq!(
                cipher.open_in_place(&nonce, aad, &mut bad),
                Err(CryptoError::DecryptionFailed)
            );
            assert_eq!(bad, before, "a rejected frame was decrypted");
        }
        assert!(cipher
            .open_in_place(&nonce, b"aad", &mut [0u8; 15])
            .is_err());
    }

    #[test]
    fn tamper_detection() {
        let cipher = ChaCha20Poly1305::new(&[3u8; 32]);
        let nonce = [5u8; 12];
        let sealed = cipher.seal(&nonce, b"aad", b"message");

        // Flip each byte in turn: every mutation must be rejected.
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x01;
            assert_eq!(
                cipher.open(&nonce, b"aad", &bad),
                Err(CryptoError::DecryptionFailed),
                "tamper at byte {i} accepted"
            );
        }
        // Wrong AAD rejected.
        assert!(cipher.open(&nonce, b"aaX", &sealed).is_err());
        // Wrong nonce rejected.
        assert!(cipher.open(&[6u8; 12], b"aad", &sealed).is_err());
        // Too-short input rejected.
        assert!(cipher.open(&nonce, b"aad", &sealed[..10]).is_err());
    }

    #[test]
    fn empty_plaintext_and_aad() {
        let cipher = ChaCha20Poly1305::new(&[1u8; 32]);
        let nonce = [0u8; 12];
        let sealed = cipher.seal(&nonce, b"", b"");
        assert_eq!(sealed.len(), TAG_LEN);
        assert_eq!(cipher.open(&nonce, b"", &sealed).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn nonce_sequence_unique_across_directions() {
        let mut a = NonceSequence::new(0);
        let mut b = NonceSequence::new(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            assert!(seen.insert(a.next()));
            assert!(seen.insert(b.next()));
        }
        assert_eq!(a.issued(), 100);
    }
}
