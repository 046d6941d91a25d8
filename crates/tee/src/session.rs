//! Post-attestation AEAD channel between two enclaves (paper §III-A: the
//! ECDH shared secret yields "a symmetric key for encrypted communication").
//!
//! Each direction uses its own HKDF-derived key and a counter nonce
//! sequence, so frames cannot be replayed or reflected.

use rex_crypto::aead::NonceSequence;
use rex_crypto::{ChaCha20Poly1305, CryptoError};

use crate::measurement::Measurement;

/// One endpoint of an established secure session.
pub struct SecureSession {
    send_cipher: ChaCha20Poly1305,
    recv_cipher: ChaCha20Poly1305,
    send_seq: NonceSequence,
    recv_seq: NonceSequence,
    peer_measurement: Measurement,
    bytes_sealed: u64,
    bytes_opened: u64,
}

impl std::fmt::Debug for SecureSession {
    /// Redacting debug: never prints key material.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SecureSession")
            .field("peer_measurement", &self.peer_measurement)
            .field("bytes_sealed", &self.bytes_sealed)
            .field("bytes_opened", &self.bytes_opened)
            .finish_non_exhaustive()
    }
}

impl SecureSession {
    /// Builds a session endpoint. `is_initiator` picks which derived key is
    /// used for which direction; both sides must pass the same `send_key` /
    /// `recv_key` crosswise (handled by `attestation`).
    #[must_use]
    pub fn new(
        send_key: [u8; 32],
        recv_key: [u8; 32],
        is_initiator: bool,
        peer_measurement: Measurement,
    ) -> Self {
        let (send_dir, recv_dir) = if is_initiator { (0, 1) } else { (1, 0) };
        SecureSession {
            send_cipher: ChaCha20Poly1305::new(&send_key),
            recv_cipher: ChaCha20Poly1305::new(&recv_key),
            send_seq: NonceSequence::new(send_dir),
            recv_seq: NonceSequence::new(recv_dir),
            peer_measurement,
            bytes_sealed: 0,
            bytes_opened: 0,
        }
    }

    /// Measurement of the attested peer.
    #[must_use]
    pub fn peer_measurement(&self) -> Measurement {
        self.peer_measurement
    }

    /// Encrypts `buf` for the peer in place and returns the tag that
    /// follows it on the wire; `aad` binds protocol metadata.
    #[must_use]
    pub fn seal_in_place(&mut self, aad: &[u8], buf: &mut [u8]) -> [u8; Self::FRAME_OVERHEAD] {
        let nonce = self.send_seq.next();
        self.bytes_sealed += buf.len() as u64;
        self.send_cipher.seal_in_place(&nonce, aad, buf)
    }

    /// Encrypts `plaintext` for the peer: [`Self::seal_in_place`] on a
    /// copy, tag appended.
    pub fn seal(&mut self, aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + Self::FRAME_OVERHEAD);
        out.extend_from_slice(plaintext);
        let tag = self.seal_in_place(aad, &mut out);
        out.extend_from_slice(&tag);
        out
    }

    /// Authenticates a frame from the peer (`ciphertext ‖ tag`) and
    /// decrypts it in place; returns the plaintext, a prefix of `sealed`.
    /// Frames must arrive in order (the simulated transports are reliable
    /// and ordered). The receive counter only advances on successful
    /// authentication, and a frame that fails it is left as it was, so
    /// injected garbage or tampered frames cannot desynchronize the
    /// session.
    pub fn open_in_place<'a>(
        &mut self,
        aad: &[u8],
        sealed: &'a mut [u8],
    ) -> Result<&'a mut [u8], CryptoError> {
        let nonce = self.recv_seq.peek();
        let plain = self.recv_cipher.open_in_place(&nonce, aad, sealed)?;
        self.recv_seq.advance();
        self.bytes_opened += plain.len() as u64;
        Ok(plain)
    }

    /// Decrypts a frame from the peer: [`Self::open_in_place`] on a copy.
    pub fn open(&mut self, aad: &[u8], sealed: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let mut plain = sealed.to_vec();
        let len = self.open_in_place(aad, &mut plain)?.len();
        plain.truncate(len);
        Ok(plain)
    }

    /// Plaintext bytes sealed so far.
    #[must_use]
    pub fn bytes_sealed(&self) -> u64 {
        self.bytes_sealed
    }

    /// Plaintext bytes opened so far.
    #[must_use]
    pub fn bytes_opened(&self) -> u64 {
        self.bytes_opened
    }

    /// AEAD overhead added to each sealed frame.
    pub const FRAME_OVERHEAD: usize = ChaCha20Poly1305::OVERHEAD;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::{Measurement, REX_ENCLAVE_V1};

    fn pair() -> (SecureSession, SecureSession) {
        let m = Measurement::of_code(REX_ENCLAVE_V1);
        let k1 = [1u8; 32];
        let k2 = [2u8; 32];
        let a = SecureSession::new(k1, k2, true, m);
        let b = SecureSession::new(k2, k1, false, m);
        (a, b)
    }

    #[test]
    fn duplex_roundtrip() {
        let (mut a, mut b) = pair();
        let f1 = a.seal(b"hdr", b"from a");
        assert_eq!(b.open(b"hdr", &f1).unwrap(), b"from a");
        let f2 = b.seal(b"hdr", b"from b");
        assert_eq!(a.open(b"hdr", &f2).unwrap(), b"from b");
        assert_eq!(a.bytes_sealed(), 6);
        assert_eq!(a.bytes_opened(), 6);
    }

    #[test]
    fn replay_rejected_by_counter_nonces() {
        let (mut a, mut b) = pair();
        let frame = a.seal(b"", b"once");
        assert!(b.open(b"", &frame).is_ok());
        // Replaying the same frame advances b's counter -> nonce mismatch.
        assert!(b.open(b"", &frame).is_err());
    }

    #[test]
    fn reflection_rejected() {
        let (mut a, _b) = pair();
        let frame = a.seal(b"", b"hello");
        // Echoing a's own frame back to a fails (directional keys/nonces).
        assert!(a.open(b"", &frame).is_err());
    }

    #[test]
    fn tamper_rejected() {
        let (mut a, mut b) = pair();
        let mut frame = a.seal(b"", b"payload");
        frame[0] ^= 1;
        assert!(b.open(b"", &frame).is_err());
    }

    #[test]
    fn out_of_order_rejected_but_session_recovers() {
        let (mut a, mut b) = pair();
        let f1 = a.seal(b"", b"one");
        let f2 = a.seal(b"", b"two");
        // Delivering f2 before f1 fails at f2 (counter expects f1)...
        assert!(b.open(b"", &f2).is_err());
        // ...but the failed attempt does not burn the counter: f1 then f2
        // still open in order.
        assert_eq!(b.open(b"", &f1).unwrap(), b"one");
        assert_eq!(b.open(b"", &f2).unwrap(), b"two");
    }

    #[test]
    fn a_tampered_frame_leaves_the_buffer_and_the_receive_counter() {
        let (mut a, mut b) = pair();
        let frame = a.seal(b"hdr", b"in place");
        for (at, aad) in [(0, &b"hdr"[..]), (frame.len() - 1, b"hdr"), (0, b"hdX")] {
            let mut bad = frame.clone();
            if aad == b"hdr" {
                bad[at] ^= 0x80;
            }
            let before = bad.clone();
            assert!(b.open_in_place(aad, &mut bad).is_err());
            assert_eq!(bad, before);
            assert_eq!((b.recv_seq.issued(), b.bytes_opened()), (0, 0));
        }
        let mut good = frame;
        assert_eq!(
            &b.open_in_place(b"hdr", &mut good).unwrap()[..],
            b"in place"
        );
        assert_eq!((b.recv_seq.issued(), b.bytes_opened()), (1, 8));
    }

    #[test]
    fn in_place_and_owned_forms_make_the_same_frames() {
        let (mut a, _) = pair();
        let (mut a2, mut b2) = pair();
        let owned = a.seal(b"x", b"same bytes");
        let mut buf = b"same bytes".to_vec();
        let tag = a2.seal_in_place(b"x", &mut buf);
        buf.extend_from_slice(&tag);
        assert_eq!(owned, buf);
        assert_eq!(b2.open(b"x", &buf).unwrap(), b"same bytes");
    }

    #[test]
    fn garbage_does_not_desync_session() {
        let (mut a, mut b) = pair();
        assert!(b.open(b"", &[0u8; 40]).is_err());
        let frame = a.seal(b"", b"after garbage");
        assert_eq!(b.open(b"", &frame).unwrap(), b"after garbage");
    }
}
