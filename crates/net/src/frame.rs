//! Length-prefixed wire framing for the TCP transport.
//!
//! Every byte that crosses a [`crate::tcp`] socket travels inside one
//! frame: a 9-byte header — kind tag, sender node id, body length, all
//! little-endian — followed by the body. The kinds:
//!
//! * [`Frame::Hello`] — sent once by the dialing side of each connection
//!   so the accepting side learns which peer it is talking to;
//! * [`Frame::Data`] — carries one protocol message (an encoded
//!   [`crate::message::Payload`]); only these bodies are accounted in
//!   [`crate::stats::TrafficStats`], which keeps byte counts bit-identical
//!   with the in-memory backends;
//! * [`Frame::Barrier`] — a round-barrier token with a generation number;
//!   control plane, never accounted;
//! * [`Frame::Join`] / [`Frame::Welcome`] — the online-join admission
//!   handshake; control plane, never accounted;
//! * [`Frame::Commitment`] — a per-epoch signed model-digest commitment
//!   (fixed 72-byte body); control plane, never accounted.
//!
//! The codec is split into pure buffer functions ([`encode_frame`] /
//! [`decode_frame`]) that the tests exercise exhaustively, and streaming
//! wrappers ([`write_frame`] / [`read_frame`]) over [`std::io`] used by
//! the socket reader/writer paths. Hostile or corrupt length fields are
//! rejected before any allocation via [`MAX_BODY_LEN`].

// Every deployed process frames foreign bytes here: a hostile frame
// fails with a `FrameError`, never with a panic.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

use std::io::{self, Read, Write};

/// Frame kind tags on the wire.
const KIND_HELLO: u8 = 1;
const KIND_DATA: u8 = 2;
const KIND_BARRIER: u8 = 3;
const KIND_JOIN: u8 = 4;
const KIND_WELCOME: u8 = 5;
const KIND_COMMITMENT: u8 = 6;

/// Fixed body size of a [`Frame::Commitment`]: epoch (8) + digest (32) +
/// tag (32).
const COMMITMENT_BODY_LEN: usize = 72;

/// Fixed header size: kind (1) + from (4) + body length (4).
pub const HEADER_LEN: usize = 9;

/// Sanity cap on frame bodies (256 MiB): far above any REX payload (the
/// message codec caps vectors at 16 Mi entries) but small enough to stop a
/// corrupt length prefix from attempting a huge allocation.
pub const MAX_BODY_LEN: u32 = 256 * 1024 * 1024;

/// One wire frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Connection bootstrap: "this connection speaks for node `from`".
    Hello {
        /// Dialing node's id.
        from: usize,
    },
    /// One protocol message.
    Data {
        /// Sending node's id.
        from: usize,
        /// Encoded payload (what the in-memory backends would carry
        /// verbatim; its length is what traffic stats record).
        payload: Vec<u8>,
    },
    /// Round-barrier token.
    Barrier {
        /// Sending node's id.
        from: usize,
        /// Barrier generation the sender has entered.
        generation: u64,
    },
    /// Online-join bootstrap: "this connection speaks for node `from`,
    /// which the shared membership schedule admits at `epoch`". Sent by
    /// the dialing joiner; the accepting member validates it against its
    /// own view and replies [`Frame::Welcome`]. Control plane, never
    /// accounted in payload traffic.
    Join {
        /// Joining node's id.
        from: usize,
        /// The epoch the joiner enters the view.
        epoch: u64,
        /// Late-attestation evidence (an encoded quote payload; empty in
        /// native mode).
        evidence: Vec<u8>,
    },
    /// Join admission reply: carries the admitting member's current
    /// barrier generation so the joiner can align with the running
    /// cluster's wire barrier. Control plane, never accounted.
    Welcome {
        /// Admitting node's id.
        from: usize,
        /// The join epoch being acknowledged.
        epoch: u64,
        /// The admitting side's barrier generation at admission.
        generation: u64,
    },
    /// Per-epoch signed model-digest commitment (`rex-core`'s
    /// commitment chain): the sender's chained SHA-256 digest after
    /// `epoch`, bound to its identity by an HMAC tag. Ships alongside
    /// the epoch's data frames so peers (and a later challenger) hold
    /// the claims a replay is audited against. Control plane, never
    /// accounted in payload traffic — byte counts stay bit-identical
    /// with the in-memory backends.
    Commitment {
        /// Committing node's id.
        from: usize,
        /// The epoch the commitment covers.
        epoch: u64,
        /// Chained model digest after this epoch.
        digest: [u8; 32],
        /// HMAC tag binding the digest to the sender's identity.
        tag: [u8; 32],
    },
}

/// Framing failure.
#[derive(Debug)]
pub enum FrameError {
    /// Socket-level failure.
    Io(io::Error),
    /// Structurally invalid frame (unknown kind, oversized or mismatched
    /// length field, truncated buffer).
    Invalid(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame io: {e}"),
            FrameError::Invalid(m) => write!(f, "invalid frame: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

fn header(kind: u8, from: usize, len: usize) -> [u8; HEADER_LEN] {
    // Mirror of the decode-side cap: silently truncating `len as u32`
    // would desynchronize the stream and surface at the *peer* as a
    // bogus disconnect. Oversized payloads are a protocol bug here.
    assert!(
        len as u64 <= u64::from(MAX_BODY_LEN),
        "frame body of {len} bytes exceeds cap {MAX_BODY_LEN}"
    );
    let mut h = [0u8; HEADER_LEN];
    h[0] = kind;
    h[1..5].copy_from_slice(&(from as u32).to_le_bytes());
    h[5..9].copy_from_slice(&(len as u32).to_le_bytes());
    h
}

/// Appends a frame's wire encoding (header + body) to `buf` without
/// allocating: the destination is caller-owned and reusable, so hot send
/// paths (the TCP endpoint's per-peer output buffers) stage many frames
/// into one buffer and amortize its capacity across epochs.
pub fn encode_frame_into(frame: &Frame, buf: &mut Vec<u8>) {
    match frame {
        Frame::Hello { from } => buf.extend_from_slice(&header(KIND_HELLO, *from, 0)),
        Frame::Data { from, payload } => {
            buf.reserve(HEADER_LEN + payload.len());
            buf.extend_from_slice(&header(KIND_DATA, *from, payload.len()));
            buf.extend_from_slice(payload);
        }
        Frame::Barrier { from, generation } => {
            buf.reserve(HEADER_LEN + 8);
            buf.extend_from_slice(&header(KIND_BARRIER, *from, 8));
            buf.extend_from_slice(&generation.to_le_bytes());
        }
        Frame::Join {
            from,
            epoch,
            evidence,
        } => {
            buf.reserve(HEADER_LEN + 8 + evidence.len());
            buf.extend_from_slice(&header(KIND_JOIN, *from, 8 + evidence.len()));
            buf.extend_from_slice(&epoch.to_le_bytes());
            buf.extend_from_slice(evidence);
        }
        Frame::Welcome {
            from,
            epoch,
            generation,
        } => {
            buf.reserve(HEADER_LEN + 16);
            buf.extend_from_slice(&header(KIND_WELCOME, *from, 16));
            buf.extend_from_slice(&epoch.to_le_bytes());
            buf.extend_from_slice(&generation.to_le_bytes());
        }
        Frame::Commitment {
            from,
            epoch,
            digest,
            tag,
        } => {
            buf.reserve(HEADER_LEN + COMMITMENT_BODY_LEN);
            buf.extend_from_slice(&header(KIND_COMMITMENT, *from, COMMITMENT_BODY_LEN));
            buf.extend_from_slice(&epoch.to_le_bytes());
            buf.extend_from_slice(digest);
            buf.extend_from_slice(tag);
        }
    }
}

/// Encodes a frame into a fresh contiguous buffer (header + body). Thin
/// wrapper over [`encode_frame_into`] for callers that want an owned
/// buffer; hot paths should use [`encode_frame_into`] directly.
#[must_use]
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_frame_into(frame, &mut buf);
    buf
}

/// Parses a decoded header into `(kind, from, body_len)`, validating the
/// length field.
fn parse_header(h: &[u8; HEADER_LEN]) -> Result<(u8, usize, usize), FrameError> {
    let kind = h[0];
    let from = u32::from_le_bytes([h[1], h[2], h[3], h[4]]) as usize;
    let len = u32::from_le_bytes([h[5], h[6], h[7], h[8]]);
    if len > MAX_BODY_LEN {
        return Err(FrameError::Invalid(format!(
            "body length {len} exceeds cap {MAX_BODY_LEN}"
        )));
    }
    Ok((kind, from, len as usize))
}

/// The error of a body whose length its kind does not allow.
fn body_len_error(kind: u8, body: &[u8]) -> FrameError {
    let name = match kind {
        KIND_HELLO => "hello",
        KIND_BARRIER => "barrier",
        KIND_JOIN => "join",
        KIND_WELCOME => "welcome",
        _ => "commitment",
    };
    FrameError::Invalid(format!("{name} frame with {}-byte body", body.len()))
}

/// Takes the `N`-byte field at the front of `rest`, leaving the bytes
/// after it; a body too short for it is malformed.
fn field<const N: usize>(rest: &mut &[u8], kind: u8, body: &[u8]) -> Result<[u8; N], FrameError> {
    let (head, tail) = rest
        .split_first_chunk::<N>()
        .ok_or_else(|| body_len_error(kind, body))?;
    *rest = tail;
    Ok(*head)
}

fn build_frame(kind: u8, from: usize, body: &[u8]) -> Result<Frame, FrameError> {
    let mut rest = body;
    let u64_field = |rest: &mut &[u8]| field(rest, kind, body).map(u64::from_le_bytes);
    let frame = match kind {
        KIND_HELLO => Frame::Hello { from },
        KIND_DATA => Frame::Data {
            from,
            payload: std::mem::take(&mut rest).to_vec(),
        },
        KIND_BARRIER => Frame::Barrier {
            from,
            generation: u64_field(&mut rest)?,
        },
        KIND_JOIN => Frame::Join {
            from,
            epoch: u64_field(&mut rest)?,
            evidence: std::mem::take(&mut rest).to_vec(),
        },
        KIND_WELCOME => Frame::Welcome {
            from,
            epoch: u64_field(&mut rest)?,
            generation: u64_field(&mut rest)?,
        },
        KIND_COMMITMENT => Frame::Commitment {
            from,
            epoch: u64_field(&mut rest)?,
            digest: field(&mut rest, kind, body)?,
            tag: field(&mut rest, kind, body)?,
        },
        other => return Err(FrameError::Invalid(format!("unknown frame kind {other}"))),
    };
    // A fixed-size body must end where its last field does.
    if rest.is_empty() {
        Ok(frame)
    } else {
        Err(body_len_error(kind, body))
    }
}

/// Decodes one frame from the start of `buf`; returns the frame and the
/// number of bytes consumed. Fails on truncation, unknown kinds, and
/// hostile length fields — never panics.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
    let (h, rest) = buf.split_first_chunk::<HEADER_LEN>().ok_or_else(|| {
        FrameError::Invalid(format!(
            "truncated header: {} of {HEADER_LEN} bytes",
            buf.len()
        ))
    })?;
    let (kind, from, len) = parse_header(h)?;
    let body = rest.get(..len).ok_or_else(|| {
        FrameError::Invalid(format!("truncated body: {} of {len} bytes", rest.len()))
    })?;
    Ok((build_frame(kind, from, body)?, HEADER_LEN + len))
}

/// Writes one frame to `w` (single `write_all`, so concurrent writers
/// interleave only at frame granularity when externally serialized). The
/// encoding stages through a thread-local scratch buffer routed via
/// [`encode_frame_into`], so steady-state calls allocate nothing.
pub fn write_frame<W: Write>(w: &mut W, frame: &Frame) -> io::Result<()> {
    thread_local! {
        static SCRATCH: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
    }
    SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        buf.clear();
        encode_frame_into(frame, &mut buf);
        w.write_all(&buf)
    })
}

/// Reads one frame from `r`. Returns `Ok(None)` on clean EOF at a frame
/// boundary; mid-frame EOF and malformed frames are errors.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Frame>, FrameError> {
    let mut h = [0u8; HEADER_LEN];
    let mut filled = 0;
    while let Some(unfilled) = h.get_mut(filled..).filter(|rest| !rest.is_empty()) {
        match r.read(unfilled) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameError::Invalid(format!(
                    "eof inside header after {filled} bytes"
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let (kind, from, len) = parse_header(&h)?;
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(build_frame(kind, from, &body)?))
}

/// Incremental frame decoder over a **reusable** buffer: feed raw socket
/// bytes in with [`FrameAssembler::extend`] in whatever chunks the kernel
/// hands out, pull complete frames with [`FrameAssembler::next_frame`].
/// Unlike [`decode_frame`], an incomplete frame is not an error — it is
/// `Ok(None)` ("need more bytes") — while hostile headers (unknown kind,
/// oversized length) fail before any body is buffered. The internal
/// buffer is compacted in place and its capacity reused across frames,
/// so a steady message stream decodes without per-frame allocation
/// (frame *payloads* are still copied out, matching
/// [`crate::mem::Envelope`] ownership).
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Start of un-decoded bytes within `buf`; everything before it has
    /// been consumed and awaits compaction.
    pos: usize,
}

impl FrameAssembler {
    /// Fresh assembler with an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes read off the wire.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: once the consumed prefix dominates the
        // buffer, shifting the live tail down is cheaper than letting the
        // allocation creep.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos >= 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Decodes the next complete frame, if the buffer holds one.
    ///
    /// # Errors
    /// On a structurally invalid frame (unknown kind, hostile length
    /// field, malformed fixed-size body) — the stream is unrecoverable
    /// past that point and the connection should be torn down.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let avail = self.buf.get(self.pos..).unwrap_or_default();
        let Some((h, rest)) = avail.split_first_chunk::<HEADER_LEN>() else {
            return Ok(None);
        };
        let (kind, from, len) = parse_header(h)?;
        let Some(body) = rest.get(..len) else {
            return Ok(None);
        };
        let frame = build_frame(kind, from, body)?;
        self.pos += HEADER_LEN + len;
        Ok(Some(frame))
    }

    /// Whether bytes of a partially received frame are pending — at EOF
    /// this distinguishes a clean close (frame boundary) from a peer
    /// dying mid-frame.
    #[must_use]
    pub fn mid_frame(&self) -> bool {
        self.pos < self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_kinds() {
        for frame in [
            Frame::Hello { from: 3 },
            Frame::Data {
                from: 7,
                payload: vec![1, 2, 3, 4, 5],
            },
            Frame::Data {
                from: 0,
                payload: Vec::new(),
            },
            Frame::Barrier {
                from: 2,
                generation: 0xDEAD_BEEF_u64,
            },
            Frame::Join {
                from: 4,
                epoch: 3,
                evidence: vec![9, 8, 7],
            },
            Frame::Join {
                from: 4,
                epoch: 0,
                evidence: Vec::new(),
            },
            Frame::Welcome {
                from: 1,
                epoch: 3,
                generation: 6,
            },
            Frame::Commitment {
                from: 6,
                epoch: 9,
                digest: [0xAB; 32],
                tag: [0xCD; 32],
            },
        ] {
            let bytes = encode_frame(&frame);
            let (back, consumed) = decode_frame(&bytes).unwrap();
            assert_eq!(back, frame);
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn decode_consumes_exactly_one_frame() {
        let mut buf = encode_frame(&Frame::Hello { from: 1 });
        let second = encode_frame(&Frame::Barrier {
            from: 1,
            generation: 9,
        });
        buf.extend_from_slice(&second);
        let (frame, consumed) = decode_frame(&buf).unwrap();
        assert_eq!(frame, Frame::Hello { from: 1 });
        let (frame2, _) = decode_frame(&buf[consumed..]).unwrap();
        assert_eq!(
            frame2,
            Frame::Barrier {
                from: 1,
                generation: 9
            }
        );
    }

    #[test]
    fn truncated_frames_error_never_panic() {
        let full = encode_frame(&Frame::Data {
            from: 4,
            payload: vec![9; 32],
        });
        for cut in 0..full.len() {
            assert!(
                decode_frame(&full[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut buf = encode_frame(&Frame::Hello { from: 0 });
        buf[0] = 42;
        assert!(decode_frame(&buf).is_err());
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        let mut buf = header(KIND_DATA, 0, 0).to_vec();
        buf[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        match decode_frame(&buf) {
            Err(FrameError::Invalid(m)) => assert!(m.contains("cap")),
            other => panic!("expected Invalid, got {other:?}"),
        }
    }

    #[test]
    fn malformed_fixed_size_bodies_rejected() {
        // Hello with a body.
        let mut buf = header(KIND_HELLO, 0, 3).to_vec();
        buf.extend_from_slice(&[1, 2, 3]);
        assert!(decode_frame(&buf).is_err());
        // Barrier with a short body.
        let mut buf = header(KIND_BARRIER, 0, 4).to_vec();
        buf.extend_from_slice(&[0; 4]);
        assert!(decode_frame(&buf).is_err());
        // Join too short to carry its epoch.
        let mut buf = header(KIND_JOIN, 0, 4).to_vec();
        buf.extend_from_slice(&[0; 4]);
        assert!(decode_frame(&buf).is_err());
        // Welcome with a short body.
        let mut buf = header(KIND_WELCOME, 0, 8).to_vec();
        buf.extend_from_slice(&[0; 8]);
        assert!(decode_frame(&buf).is_err());
        // Commitment with a truncated tag.
        let mut buf = header(KIND_COMMITMENT, 0, 40).to_vec();
        buf.extend_from_slice(&[0; 40]);
        assert!(decode_frame(&buf).is_err());
    }

    #[test]
    fn streaming_roundtrip_and_clean_eof() {
        let frames = [
            Frame::Hello { from: 5 },
            Frame::Data {
                from: 5,
                payload: vec![0xA5; 100],
            },
            Frame::Barrier {
                from: 5,
                generation: 1,
            },
        ];
        let mut wire = Vec::new();
        for f in &frames {
            write_frame(&mut wire, f).unwrap();
        }
        let mut r = &wire[..];
        for f in &frames {
            assert_eq!(read_frame(&mut r).unwrap().unwrap(), *f);
        }
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn encode_into_matches_encode_and_appends() {
        let frames = [
            Frame::Hello { from: 3 },
            Frame::Data {
                from: 7,
                payload: vec![1, 2, 3],
            },
            Frame::Barrier {
                from: 2,
                generation: 10,
            },
            Frame::Join {
                from: 4,
                epoch: 3,
                evidence: vec![9],
            },
            Frame::Welcome {
                from: 1,
                epoch: 3,
                generation: 6,
            },
            Frame::Commitment {
                from: 2,
                epoch: 4,
                digest: [0x11; 32],
                tag: [0x22; 32],
            },
        ];
        // Staging all frames into one buffer is byte-for-byte the
        // concatenation of the individual encodings — the coalesced
        // write path cannot change the wire format.
        let mut staged = Vec::new();
        let mut concat = Vec::new();
        for f in &frames {
            encode_frame_into(f, &mut staged);
            concat.extend_from_slice(&encode_frame(f));
        }
        assert_eq!(staged, concat);
    }

    #[test]
    fn assembler_reassembles_byte_by_byte() {
        let frames = [
            Frame::Hello { from: 5 },
            Frame::Data {
                from: 5,
                payload: vec![0xA5; 100],
            },
            Frame::Barrier {
                from: 5,
                generation: 1,
            },
        ];
        let mut wire = Vec::new();
        for f in &frames {
            encode_frame_into(f, &mut wire);
        }
        // Worst-case fragmentation: one byte per extend.
        let mut asm = FrameAssembler::new();
        let mut out = Vec::new();
        for b in &wire {
            asm.extend(std::slice::from_ref(b));
            while let Some(f) = asm.next_frame().unwrap() {
                out.push(f);
            }
        }
        assert_eq!(out, frames);
        assert!(!asm.mid_frame(), "stream ended at a frame boundary");
    }

    #[test]
    fn assembler_handles_bulk_chunks_spanning_frames() {
        let mut wire = Vec::new();
        for i in 0..50usize {
            encode_frame_into(
                &Frame::Data {
                    from: i,
                    payload: vec![i as u8; i * 7],
                },
                &mut wire,
            );
        }
        let mut asm = FrameAssembler::new();
        let mut got = 0usize;
        for chunk in wire.chunks(97) {
            asm.extend(chunk);
            while let Some(f) = asm.next_frame().unwrap() {
                match f {
                    Frame::Data { from, payload } => {
                        assert_eq!(payload, vec![from as u8; from * 7]);
                        assert_eq!(from, got);
                        got += 1;
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert_eq!(got, 50);
        assert!(!asm.mid_frame());
    }

    #[test]
    fn assembler_rejects_hostile_header_mid_stream() {
        let mut asm = FrameAssembler::new();
        asm.extend(&encode_frame(&Frame::Hello { from: 1 }));
        assert!(matches!(asm.next_frame(), Ok(Some(Frame::Hello { .. }))));
        // A corrupt length prefix after a valid frame fails without
        // buffering the claimed body.
        asm.extend(&[0xFF; 9]);
        assert!(matches!(asm.next_frame(), Err(FrameError::Invalid(_))));
        // And a partial frame reports mid-frame state for EOF handling.
        let mut asm = FrameAssembler::new();
        let full = encode_frame(&Frame::Data {
            from: 1,
            payload: vec![7; 16],
        });
        asm.extend(&full[..full.len() - 1]);
        assert!(asm.next_frame().unwrap().is_none());
        assert!(asm.mid_frame());
    }

    #[test]
    fn streaming_midframe_eof_is_error() {
        let wire = encode_frame(&Frame::Data {
            from: 1,
            payload: vec![7; 16],
        });
        let mut r = &wire[..wire.len() - 1];
        assert!(read_frame(&mut r).is_err());
    }
}
