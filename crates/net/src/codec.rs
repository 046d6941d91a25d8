//! Binary encoding of [`Payload`] and [`Plain`].
//!
//! Hand-rolled little-endian tag-length-value format (the paper serializes
//! with a JSON library for attestation and raw buffers elsewhere; a binary
//! codec keeps our byte accounting honest and dependency-free).

// Every deployed process decodes foreign bytes here: a hostile frame
// fails with a `CodecError`, never with a panic.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

use crate::message::{Payload, Plain};
use rex_data::Rating;
use rex_ml::bytesio::{self, ByteSink, Reader, ShortBuffer};
use rex_tee::attestation::AttestationMsg;
use rex_tee::quote::Quote;
use rex_tee::report::USER_DATA_LEN;
use rex_tee::{Measurement, SecureSession};

/// Codec failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Buffer ended early.
    Short(String),
    /// Unknown tag or structurally invalid content.
    Invalid(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Short(m) => write!(f, "short buffer: {m}"),
            CodecError::Invalid(m) => write!(f, "invalid message: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<ShortBuffer> for CodecError {
    fn from(e: ShortBuffer) -> Self {
        CodecError::Short(e.to_string())
    }
}

const TAG_ATTEST_HELLO: u8 = 1;
const TAG_ATTEST_REPLY: u8 = 2;
const TAG_SEALED: u8 = 3;
const TAG_CLEAR: u8 = 4;

const TAG_RAW_DATA: u8 = 10;
const TAG_MODEL: u8 = 11;
const TAG_EMPTY: u8 = 12;
const TAG_RAW_PACKED: u8 = 13;
const TAG_MODEL_DELTA: u8 = 14;

/// Sanity cap on encoded vector lengths (16 Mi entries), protecting the
/// decoder against hostile length fields.
const MAX_LEN: u32 = 16 * 1024 * 1024;

fn put_quote(buf: &mut Vec<u8>, q: &Quote) {
    buf.extend_from_slice(&q.measurement.0);
    buf.extend_from_slice(&q.user_data);
    bytesio::put_u64(buf, q.platform_id);
    buf.extend_from_slice(&q.signature);
}

fn read_quote(r: &mut Reader<'_>) -> Result<Quote, CodecError> {
    let mut measurement = [0u8; 32];
    measurement.copy_from_slice(r.bytes(32)?);
    let mut user_data = [0u8; USER_DATA_LEN];
    user_data.copy_from_slice(r.bytes(USER_DATA_LEN)?);
    let platform_id = r.u64()?;
    let mut signature = [0u8; 32];
    signature.copy_from_slice(r.bytes(32)?);
    Ok(Quote {
        measurement: Measurement(measurement),
        user_data,
        platform_id,
        signature,
    })
}

/// A quote's encoded length: measurement, user data, platform id,
/// signature.
const QUOTE_LEN: usize = 32 + USER_DATA_LEN + 8 + 32;

/// Bytes of a sealed or clear payload's header: its tag and frame
/// length. The frame follows.
const PAYLOAD_HEADER_LEN: usize = 1 + 4;

/// Bytes of a model plain's header: its tag, the sender's degree and the
/// model's length. The model bytes follow.
const MODEL_HEADER_LEN: usize = 1 + 4 + 4;

/// Bytes a sealed frame adds behind its plain: the AEAD tag.
const TAG_LEN: usize = SecureSession::FRAME_OVERHEAD;

/// Encodes an outer payload, into a buffer allocated once at the exact
/// encoded length.
#[must_use]
pub fn encode_payload(p: &Payload) -> Vec<u8> {
    match p {
        Payload::Attestation(msg) => {
            let (tag, quote) = match msg {
                AttestationMsg::Hello { quote } => (TAG_ATTEST_HELLO, quote),
                AttestationMsg::Reply { quote } => (TAG_ATTEST_REPLY, quote),
            };
            let mut buf = Vec::with_capacity(1 + QUOTE_LEN);
            bytesio::put_u8(&mut buf, tag);
            put_quote(&mut buf, quote);
            buf
        }
        Payload::Sealed(frame) => framed(TAG_SEALED, frame.len(), 0, |buf| buf.put(frame)),
        Payload::Clear(frame) => framed(TAG_CLEAR, frame.len(), 0, |buf| buf.put(frame)),
    }
}

/// A payload in one buffer allocated once at its exact length: `tag`,
/// the frame length, the `len` bytes `write` appends, then `tail` zero
/// bytes (a sealed frame's tag slot) inside the frame.
fn framed(tag: u8, len: usize, tail: usize, write: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut buf = Vec::with_capacity(PAYLOAD_HEADER_LEN + len + tail);
    bytesio::put_u8(&mut buf, tag);
    bytesio::put_u32(&mut buf, (len + tail) as u32);
    write(&mut buf);
    debug_assert_eq!(
        buf.len(),
        PAYLOAD_HEADER_LEN + len,
        "frame body of the wrong length"
    );
    buf.resize(buf.len() + tail, 0);
    buf
}

/// A share's payload written where it will be sent from: the payload
/// header, then `plain` encoded in place, then — when `sealed` — a zeroed
/// tag slot that [`seal_slots`] hands the sealer with the plain. The
/// buffer is allocated once at its exact length; a clear share is ready
/// to send as it is.
#[must_use]
pub fn encode_share(sealed: bool, plain: &Plain) -> Vec<u8> {
    let plain = Measured::new(plain);
    share_with(sealed, plain.len, |buf| plain.write(buf))
}

/// [`encode_share`] of a [`Plain::Model`] whose `len` model bytes
/// `write_model` appends in place, so the model is serialised straight
/// into the payload: no model-sized buffer but the one sent.
#[must_use]
pub fn encode_model_share(
    sealed: bool,
    degree: u32,
    len: usize,
    write_model: impl FnOnce(&mut Vec<u8>),
) -> Vec<u8> {
    share_with(sealed, MODEL_HEADER_LEN + len, |buf| {
        put_length_prefixed(buf, TAG_MODEL, degree, len, write_model);
    })
}

fn share_with(sealed: bool, len: usize, write_plain: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    match sealed {
        true => framed(TAG_SEALED, len, TAG_LEN, write_plain),
        false => framed(TAG_CLEAR, len, 0, write_plain),
    }
}

/// The plain and the tag slot of a share [`encode_share`] (or
/// [`encode_model_share`]) wrote sealed: seal the first in place and
/// write the tag into the second. `None` when `payload` is shorter than
/// a sealed payload's header and tag.
pub fn seal_slots(payload: &mut [u8]) -> Option<(&mut [u8], &mut [u8])> {
    let frame = payload.get_mut(PAYLOAD_HEADER_LEN..)?;
    let at = frame.len().checked_sub(TAG_LEN)?;
    frame.split_at_mut_checked(at)
}

/// `tag`, `degree`, then the `len` bytes `write` appends behind their
/// `u32` length: the model and model-delta plains' layout.
fn put_length_prefixed(
    buf: &mut Vec<u8>,
    tag: u8,
    degree: u32,
    len: usize,
    write: impl FnOnce(&mut Vec<u8>),
) {
    bytesio::put_u8(buf, tag);
    bytesio::put_u32(buf, degree);
    bytesio::put_u32(buf, len as u32);
    write(buf);
}

/// A plain with its exact encoded length known before it is written
/// (a packed batch is compressed up front to know it).
struct Measured<'a> {
    plain: &'a Plain,
    packed: Vec<u8>,
    len: usize,
}

impl<'a> Measured<'a> {
    fn new(plain: &'a Plain) -> Self {
        let packed = match plain {
            Plain::RawPacked { ratings, .. } => crate::compress::compress_batch(ratings),
            _ => Vec::new(),
        };
        let len = match plain {
            Plain::RawData { ratings, .. } => 1 + 4 + 4 + ratings.len() * Rating::WIRE_SIZE,
            Plain::Model { bytes, .. } | Plain::ModelDelta { bytes, .. } => {
                MODEL_HEADER_LEN + bytes.len()
            }
            Plain::RawPacked { .. } => 1 + 4 + packed.len(),
            Plain::Empty { .. } => 1 + 4,
        };
        Measured { plain, packed, len }
    }

    /// Appends the plain's encoding: the one inner encoder.
    fn write(&self, buf: &mut Vec<u8>) {
        match self.plain {
            Plain::RawData { ratings, degree } => {
                bytesio::put_u8(buf, TAG_RAW_DATA);
                bytesio::put_u32(buf, *degree);
                bytesio::put_u32(buf, ratings.len() as u32);
                for r in ratings {
                    bytesio::put_u32(buf, r.user);
                    bytesio::put_u32(buf, r.item);
                    bytesio::put_f32(buf, r.value);
                }
            }
            Plain::Model { bytes, degree } => {
                put_length_prefixed(buf, TAG_MODEL, *degree, bytes.len(), |b| b.put(bytes));
            }
            Plain::RawPacked { degree, .. } => {
                // The packed batch delimits itself: no length word.
                bytesio::put_u8(buf, TAG_RAW_PACKED);
                bytesio::put_u32(buf, *degree);
                buf.put(&self.packed);
            }
            Plain::ModelDelta { bytes, degree } => {
                put_length_prefixed(buf, TAG_MODEL_DELTA, *degree, bytes.len(), |b| b.put(bytes));
            }
            Plain::Empty { degree } => {
                bytesio::put_u8(buf, TAG_EMPTY);
                bytesio::put_u32(buf, *degree);
            }
        }
    }
}

/// Encodes an inner payload (what gets sealed), into a buffer allocated
/// once at the exact encoded length.
#[must_use]
pub fn encode_plain(p: &Plain) -> Vec<u8> {
    let plain = Measured::new(p);
    let mut buf = Vec::with_capacity(plain.len);
    plain.write(&mut buf);
    buf
}

/// A decoded outer payload whose frame is a `B`: a slice of the bytes it
/// was decoded from ([`decode_payload_ref`], [`decode_payload_mut`]), or
/// where in them the frame lies.
#[derive(Debug)]
pub enum PayloadRef<B> {
    /// Cleartext attestation handshake message.
    Attestation(AttestationMsg),
    /// An AEAD frame (ciphertext ‖ tag).
    Sealed(B),
    /// A plaintext payload.
    Clear(B),
}

impl<B> PayloadRef<B> {
    /// The payload with its frame replaced by `f`'s, or a short-buffer
    /// error where `f` finds none.
    fn try_map<C>(self, f: impl FnOnce(B) -> Option<C>) -> Result<PayloadRef<C>, CodecError> {
        let frame = |b| f(b).ok_or_else(|| CodecError::Short("frame past the end".into()));
        Ok(match self {
            PayloadRef::Attestation(msg) => PayloadRef::Attestation(msg),
            PayloadRef::Sealed(b) => PayloadRef::Sealed(frame(b)?),
            PayloadRef::Clear(b) => PayloadRef::Clear(frame(b)?),
        })
    }
}

/// Checks a length word against [`MAX_LEN`]: a hostile one is refused
/// before anything of its size is touched.
fn checked_len(len: u32, what: &str) -> Result<usize, CodecError> {
    if len >= MAX_LEN {
        return Err(CodecError::Invalid(format!("{what} {len}")));
    }
    Ok(len as usize)
}

fn no_trailing(r: &Reader<'_>) -> Result<(), CodecError> {
    match r.remaining() {
        0 => Ok(()),
        n => Err(CodecError::Invalid(format!("{n} trailing bytes"))),
    }
}

/// Where an outer payload's frame lies in `bytes`: the one outer decoder.
fn parse_payload(bytes: &[u8]) -> Result<PayloadRef<std::ops::Range<usize>>, CodecError> {
    let mut r = Reader::new(bytes);
    let tag = r.u8()?;
    let out = match tag {
        TAG_ATTEST_HELLO => PayloadRef::Attestation(AttestationMsg::Hello {
            quote: read_quote(&mut r)?,
        }),
        TAG_ATTEST_REPLY => PayloadRef::Attestation(AttestationMsg::Reply {
            quote: read_quote(&mut r)?,
        }),
        TAG_SEALED | TAG_CLEAR => {
            let len = checked_len(r.u32()?, "frame length")?;
            r.bytes(len)?;
            let frame = PAYLOAD_HEADER_LEN..PAYLOAD_HEADER_LEN + len;
            if tag == TAG_SEALED {
                PayloadRef::Sealed(frame)
            } else {
                PayloadRef::Clear(frame)
            }
        }
        other => return Err(CodecError::Invalid(format!("unknown tag {other}"))),
    };
    no_trailing(&r)?;
    Ok(out)
}

/// Decodes an outer payload, borrowing its frame from `bytes`.
pub fn decode_payload_ref(bytes: &[u8]) -> Result<PayloadRef<&[u8]>, CodecError> {
    parse_payload(bytes)?.try_map(|frame| bytes.get(frame))
}

/// Decodes an outer payload, borrowing its frame mutably from `bytes`:
/// what a receiver opens a sealed frame in place in.
pub fn decode_payload_mut(bytes: &mut [u8]) -> Result<PayloadRef<&mut [u8]>, CodecError> {
    parse_payload(bytes)?.try_map(|frame| bytes.get_mut(frame))
}

/// Decodes an outer payload: [`decode_payload_ref`], frame copied out.
pub fn decode_payload(bytes: &[u8]) -> Result<Payload, CodecError> {
    Ok(match decode_payload_ref(bytes)? {
        PayloadRef::Attestation(msg) => Payload::Attestation(msg),
        PayloadRef::Sealed(frame) => Payload::Sealed(frame.to_vec()),
        PayloadRef::Clear(frame) => Payload::Clear(frame.to_vec()),
    })
}

/// The triplets of a raw share, borrowed from the buffer they arrived
/// in: [`Rating::WIRE_SIZE`] bytes each (user, item, value, each
/// little-endian), their count checked against the bytes once, when the
/// share was decoded ([`decode_plain_ref`]). A receiver reads each
/// [`Rating`] out of the frame as it stores it: no decoded copy of the
/// share is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Triplets<'a>(&'a [[u8; Rating::WIRE_SIZE]]);

impl<'a> Triplets<'a> {
    /// The ratings, in wire order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Rating> + 'a {
        self.0.iter().map(|t| triplet(*t))
    }
}

/// One triplet's wire bytes as the [`Rating`] [`Measured::write`] wrote.
#[inline]
fn triplet(bytes: [u8; Rating::WIRE_SIZE]) -> Rating {
    let [u0, u1, u2, u3, i0, i1, i2, i3, v0, v1, v2, v3] = bytes;
    Rating {
        user: u32::from_le_bytes([u0, u1, u2, u3]),
        item: u32::from_le_bytes([i0, i1, i2, i3]),
        value: f32::from_le_bytes([v0, v1, v2, v3]),
    }
}

/// A decoded inner payload whose bytes stay in the buffer it was decoded
/// from ([`decode_plain_ref`]): a raw share's triplets and a model's
/// bytes are borrowed; only a packed batch is decompressed.
#[derive(Debug, Clone, PartialEq)]
pub enum PlainRef<'a> {
    /// [`Plain::RawData`], its triplets borrowed.
    RawData {
        /// The carried ratings.
        triplets: Triplets<'a>,
        /// Sender's degree in the topology.
        degree: u32,
    },
    /// [`Plain::Model`], its bytes borrowed.
    Model {
        /// `Model::write_bytes` output.
        bytes: &'a [u8],
        /// Sender's degree in the topology.
        degree: u32,
    },
    /// [`Plain::RawPacked`].
    RawPacked {
        /// The carried ratings.
        ratings: Vec<Rating>,
        /// Sender's degree in the topology.
        degree: u32,
    },
    /// [`Plain::ModelDelta`], its bytes borrowed.
    ModelDelta {
        /// `Model::delta_bytes` output.
        bytes: &'a [u8],
        /// Sender's degree in the topology.
        degree: u32,
    },
    /// [`Plain::Empty`].
    Empty {
        /// Sender's degree in the topology.
        degree: u32,
    },
}

impl PlainRef<'_> {
    /// The owned [`Plain`], borrowed bytes copied out.
    #[must_use]
    pub fn into_owned(self) -> Plain {
        match self {
            PlainRef::RawData { triplets, degree } => Plain::RawData {
                ratings: triplets.iter().collect(),
                degree,
            },
            PlainRef::Model { bytes, degree } => Plain::Model {
                bytes: bytes.to_vec(),
                degree,
            },
            PlainRef::RawPacked { ratings, degree } => Plain::RawPacked { ratings, degree },
            PlainRef::ModelDelta { bytes, degree } => Plain::ModelDelta {
                bytes: bytes.to_vec(),
                degree,
            },
            PlainRef::Empty { degree } => Plain::Empty { degree },
        }
    }
}

/// Decodes an inner payload, borrowing model bytes from `bytes`: the one
/// inner decoder.
pub fn decode_plain_ref(bytes: &[u8]) -> Result<PlainRef<'_>, CodecError> {
    let mut r = Reader::new(bytes);
    let tag = r.u8()?;
    let degree = r.u32()?;
    let out = match tag {
        TAG_RAW_DATA => {
            let n = checked_len(r.u32()?, "rating count")?;
            // The reader hands out exactly `n` whole triplets or none,
            // so the remainder of the split is empty.
            let (triplets, _) = r.bytes(n * Rating::WIRE_SIZE)?.as_chunks();
            PlainRef::RawData {
                triplets: Triplets(triplets),
                degree,
            }
        }
        TAG_MODEL => {
            let len = checked_len(r.u32()?, "model length")?;
            PlainRef::Model {
                bytes: r.bytes(len)?,
                degree,
            }
        }
        TAG_RAW_PACKED => {
            // The packed batch is self-delimiting and last: hand the
            // decompressor the remainder, which consumes it exactly.
            let n = r.remaining();
            let ratings = crate::compress::decompress_batch(r.bytes(n)?)
                .map_err(|e| CodecError::Invalid(format!("packed batch: {e}")))?;
            PlainRef::RawPacked { ratings, degree }
        }
        TAG_MODEL_DELTA => {
            let len = checked_len(r.u32()?, "delta length")?;
            PlainRef::ModelDelta {
                bytes: r.bytes(len)?,
                degree,
            }
        }
        TAG_EMPTY => PlainRef::Empty { degree },
        other => return Err(CodecError::Invalid(format!("unknown inner tag {other}"))),
    };
    no_trailing(&r)?;
    Ok(out)
}

/// Decodes an inner payload: [`decode_plain_ref`], bytes copied out.
pub fn decode_plain(bytes: &[u8]) -> Result<Plain, CodecError> {
    decode_plain_ref(bytes).map(PlainRef::into_owned)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_quote() -> Quote {
        Quote {
            measurement: Measurement([0xAB; 32]),
            user_data: [0xCD; USER_DATA_LEN],
            platform_id: 77,
            signature: [0xEF; 32],
        }
    }

    #[test]
    fn attestation_roundtrip() {
        for msg in [
            AttestationMsg::Hello {
                quote: sample_quote(),
            },
            AttestationMsg::Reply {
                quote: sample_quote(),
            },
        ] {
            let p = Payload::Attestation(msg);
            let bytes = encode_payload(&p);
            let back = decode_payload(&bytes).unwrap();
            match (&p, &back) {
                (
                    Payload::Attestation(AttestationMsg::Hello { quote: a }),
                    Payload::Attestation(AttestationMsg::Hello { quote: b }),
                )
                | (
                    Payload::Attestation(AttestationMsg::Reply { quote: a }),
                    Payload::Attestation(AttestationMsg::Reply { quote: b }),
                ) => assert_eq!(a, b),
                _ => panic!("variant changed in roundtrip"),
            }
        }
    }

    #[test]
    fn sealed_and_clear_roundtrip() {
        for p in [
            Payload::Sealed(vec![1, 2, 3, 4, 5]),
            Payload::Clear(vec![]),
            Payload::Clear(vec![9; 1000]),
        ] {
            let bytes = encode_payload(&p);
            let back = decode_payload(&bytes).unwrap();
            match (&p, &back) {
                (Payload::Sealed(a), Payload::Sealed(b)) => assert_eq!(a, b),
                (Payload::Clear(a), Payload::Clear(b)) => assert_eq!(a, b),
                _ => panic!("variant changed"),
            }
        }
    }

    #[test]
    fn plain_roundtrip() {
        let cases = [
            Plain::RawData {
                ratings: vec![
                    Rating {
                        user: 1,
                        item: 2,
                        value: 3.5,
                    },
                    Rating {
                        user: 4,
                        item: 5,
                        value: 0.5,
                    },
                ],
                degree: 6,
            },
            Plain::Model {
                bytes: vec![7; 321],
                degree: 30,
            },
            Plain::Empty { degree: 2 },
        ];
        for p in cases {
            let bytes = encode_plain(&p);
            assert_eq!(decode_plain(&bytes).unwrap(), p);
        }
    }

    #[test]
    fn raw_packed_roundtrips_as_a_set_and_beats_dense() {
        // Half-star grid values survive the nibble packing exactly; order
        // is canonicalized by the compressor (batches are sets).
        let ratings: Vec<Rating> = (0..200)
            .map(|i| Rating {
                user: i % 7,
                item: (i * 37) % 500,
                value: ((i % 10) + 1) as f32 * 0.5,
            })
            .collect();
        let packed = encode_plain(&Plain::RawPacked {
            ratings: ratings.clone(),
            degree: 6,
        });
        let dense = encode_plain(&Plain::RawData {
            ratings: ratings.clone(),
            degree: 6,
        });
        assert!(
            packed.len() * 2 < dense.len(),
            "packed {} vs dense {}",
            packed.len(),
            dense.len()
        );
        let back = decode_plain(&packed).unwrap();
        let Plain::RawPacked {
            ratings: got,
            degree,
        } = back
        else {
            panic!("variant changed in roundtrip");
        };
        assert_eq!(degree, 6);
        let key = |r: &Rating| (r.user, r.item, (r.value * 2.0) as u32);
        let mut a: Vec<_> = ratings.iter().map(key).collect();
        let mut b: Vec<_> = got.iter().map(key).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn model_delta_roundtrips_and_rejects_hostility() {
        let p = Plain::ModelDelta {
            bytes: vec![0x5A; 97],
            degree: 12,
        };
        let enc = encode_plain(&p);
        assert_eq!(decode_plain(&enc).unwrap(), p);
        for cut in 0..enc.len() {
            assert!(decode_plain(&enc[..cut]).is_err(), "prefix {cut} accepted");
        }
        // Hostile length prefix refused before allocation.
        let mut buf = vec![TAG_MODEL_DELTA];
        buf.extend_from_slice(&0u32.to_le_bytes()); // degree
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_plain(&buf), Err(CodecError::Invalid(_))));
    }

    #[test]
    fn raw_data_wire_size_matches_triplet_accounting() {
        // 12 bytes per triplet + 9-byte header: the basis of the paper's
        // two-orders-of-magnitude claim.
        let ratings: Vec<Rating> = (0..300)
            .map(|i| Rating {
                user: i,
                item: i,
                value: 2.5,
            })
            .collect();
        let bytes = encode_plain(&Plain::RawData { ratings, degree: 6 });
        assert_eq!(bytes.len(), 1 + 4 + 4 + 300 * Rating::WIRE_SIZE);
    }

    #[test]
    fn encoders_allocate_the_exact_encoded_length() {
        let ratings = vec![
            Rating {
                user: 3,
                item: 4,
                value: 2.5,
            };
            300
        ];
        for plain in [
            Plain::RawData {
                ratings: ratings.clone(),
                degree: 6,
            },
            Plain::RawPacked { ratings, degree: 6 },
            Plain::Model {
                bytes: vec![7; 4_321],
                degree: 30,
            },
            Plain::ModelDelta {
                bytes: vec![5; 97],
                degree: 2,
            },
            Plain::Empty { degree: 1 },
        ] {
            let inner = encode_plain(&plain);
            assert_eq!(inner.capacity(), inner.len(), "{plain:?}");
            for payload in [Payload::Clear(inner.clone()), Payload::Sealed(inner)] {
                let outer = encode_payload(&payload);
                assert_eq!(outer.capacity(), outer.len());
            }
        }
        let hello = encode_payload(&Payload::Attestation(AttestationMsg::Hello {
            quote: sample_quote(),
        }));
        assert_eq!(hello.capacity(), hello.len());
    }

    #[test]
    fn decoder_rejects_garbage() {
        assert!(decode_payload(&[]).is_err());
        assert!(decode_payload(&[99]).is_err());
        assert!(decode_plain(&[TAG_MODEL, 0, 0, 0, 0, 255, 255, 255, 255]).is_err());
        // Truncated sealed frame.
        let mut buf = encode_payload(&Payload::Sealed(vec![1, 2, 3]));
        buf.truncate(buf.len() - 1);
        assert!(decode_payload(&buf).is_err());
        // Trailing garbage.
        let mut buf = encode_plain(&Plain::Empty { degree: 0 });
        buf.push(0);
        assert!(decode_plain(&buf).is_err());
    }

    #[test]
    fn hostile_length_fields_rejected() {
        let mut buf = vec![TAG_SEALED];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_payload(&buf).is_err());
    }

    #[test]
    fn every_truncation_of_every_payload_errors_never_panics() {
        // Exhaustive prefix sweep over one encoding of each outer variant:
        // any cut must yield a CodecError, not a panic or a bogus decode.
        let payloads = [
            Payload::Attestation(AttestationMsg::Hello {
                quote: sample_quote(),
            }),
            Payload::Attestation(AttestationMsg::Reply {
                quote: sample_quote(),
            }),
            Payload::Sealed(vec![7; 40]),
            Payload::Clear(vec![8; 17]),
        ];
        for p in &payloads {
            let bytes = encode_payload(p);
            for cut in 0..bytes.len() {
                assert!(
                    decode_payload(&bytes[..cut]).is_err(),
                    "prefix of {cut} bytes decoded as a payload"
                );
            }
        }
    }

    #[test]
    fn every_truncation_of_every_plain_errors_never_panics() {
        let plains = [
            Plain::RawData {
                ratings: vec![
                    Rating {
                        user: 1,
                        item: 2,
                        value: 3.0,
                    };
                    5
                ],
                degree: 4,
            },
            Plain::Model {
                bytes: vec![9; 33],
                degree: 2,
            },
            Plain::Empty { degree: 1 },
        ];
        for p in &plains {
            let bytes = encode_plain(p);
            for cut in 0..bytes.len() {
                assert!(
                    decode_plain(&bytes[..cut]).is_err(),
                    "prefix of {cut} bytes decoded as a plain"
                );
            }
        }
    }

    #[test]
    fn all_bad_tags_rejected() {
        // Any unknown outer tag fails cleanly, including tags valid only
        // for the *inner* codec (and vice versa).
        for tag in [0u8, TAG_RAW_DATA, TAG_MODEL, TAG_EMPTY, 200, 255] {
            let mut buf = vec![tag];
            buf.extend_from_slice(&[0; 8]);
            assert!(
                matches!(decode_payload(&buf), Err(CodecError::Invalid(_))),
                "outer tag {tag} accepted"
            );
        }
        for tag in [0u8, TAG_ATTEST_HELLO, TAG_SEALED, TAG_CLEAR, 99] {
            let mut buf = vec![tag];
            buf.extend_from_slice(&[0; 12]);
            assert!(decode_plain(&buf).is_err(), "inner tag {tag} accepted");
        }
    }

    #[test]
    fn oversized_length_prefixes_rejected_before_allocation() {
        // Length fields just past MAX_LEN and at u32::MAX, for every
        // length-carrying variant: the decoder must refuse without trying
        // to materialize the claimed buffer.
        for hostile in [MAX_LEN + 1, u32::MAX] {
            for tag in [TAG_SEALED, TAG_CLEAR] {
                let mut buf = vec![tag];
                buf.extend_from_slice(&hostile.to_le_bytes());
                match decode_payload(&buf) {
                    Err(CodecError::Invalid(m)) => assert!(m.contains("length")),
                    other => panic!("tag {tag} with len {hostile}: {other:?}"),
                }
            }
            for tag in [TAG_RAW_DATA, TAG_MODEL] {
                let mut buf = vec![tag];
                buf.extend_from_slice(&0u32.to_le_bytes()); // degree
                buf.extend_from_slice(&hostile.to_le_bytes());
                assert!(
                    matches!(decode_plain(&buf), Err(CodecError::Invalid(_))),
                    "inner tag {tag} with len {hostile} accepted"
                );
            }
        }
    }

    /// Both decoder forms of a payload, which must agree.
    fn decode_payload_both(bytes: &[u8]) -> Result<Payload, CodecError> {
        let owned = decode_payload(bytes);
        let borrowed = decode_payload_ref(bytes).and_then(|p| p.try_map(|f| Some(f.to_vec())));
        let mut copy = bytes.to_vec();
        let in_place = decode_payload_mut(&mut copy).and_then(|p| p.try_map(|f| Some(f.to_vec())));
        assert_eq!(format!("{owned:?}"), format!("{borrowed:?}"));
        assert_eq!(format!("{owned:?}"), format!("{in_place:?}"));
        owned
    }

    fn decode_plain_both(bytes: &[u8]) -> Result<Plain, CodecError> {
        let owned = decode_plain(bytes);
        assert_eq!(owned, decode_plain_ref(bytes).map(PlainRef::into_owned));
        owned
    }

    #[test]
    fn hostile_inputs_get_the_same_typed_error_from_every_decoder_form() {
        fn short<T>(r: Result<T, CodecError>) -> bool {
            matches!(r, Err(CodecError::Short(_)))
        }
        fn invalid<T>(r: Result<T, CodecError>) -> bool {
            matches!(r, Err(CodecError::Invalid(_)))
        }
        let header = |tag: u8, len: u32| {
            let mut buf = vec![tag];
            buf.extend_from_slice(&len.to_le_bytes());
            buf
        };
        for tag in [TAG_SEALED, TAG_CLEAR] {
            // A length past the end, trailing bytes, a length at or past
            // the cap.
            let mut past = header(tag, 8);
            past.extend_from_slice(&[1; 7]);
            assert!(short(decode_payload_both(&past)), "tag {tag}");
            let mut trailing = header(tag, 2);
            trailing.extend_from_slice(&[1; 3]);
            assert!(invalid(decode_payload_both(&trailing)), "tag {tag}");
            for len in [MAX_LEN, MAX_LEN + 1, u32::MAX] {
                assert!(invalid(decode_payload_both(&header(tag, len))), "tag {tag}");
            }
            let mut exact = header(tag, 3);
            exact.extend_from_slice(&[1; 3]);
            assert!(decode_payload_both(&exact).is_ok());
        }
        let inner = |tag: u8, len: u32, body: usize| {
            let mut buf = vec![tag];
            buf.extend_from_slice(&7u32.to_le_bytes());
            buf.extend_from_slice(&len.to_le_bytes());
            buf.resize(buf.len() + body, 2);
            buf
        };
        for (tag, unit) in [(TAG_MODEL, 1), (TAG_MODEL_DELTA, 1), (TAG_RAW_DATA, 12)] {
            assert!(
                short(decode_plain_both(&inner(tag, 4, 4 * unit - 1))),
                "tag {tag}"
            );
            assert!(
                invalid(decode_plain_both(&inner(tag, 4, 4 * unit + 1))),
                "tag {tag}"
            );
            for len in [MAX_LEN, MAX_LEN + 1, u32::MAX] {
                assert!(invalid(decode_plain_both(&inner(tag, len, 0))), "tag {tag}");
            }
            // A count just under the cap, with nothing behind it, is short
            // and allocates nothing of its size.
            assert!(
                short(decode_plain_both(&inner(tag, MAX_LEN - 1, 0))),
                "tag {tag}"
            );
            assert!(decode_plain_both(&inner(tag, 4, 4 * unit)).is_ok());
        }
        let mut trailing = encode_plain(&Plain::Empty { degree: 3 });
        trailing.push(0);
        assert!(invalid(decode_plain_both(&trailing)));
    }

    #[test]
    fn a_share_written_in_place_is_the_payload_of_its_plain() {
        let m = Measurement::of_code(b"share");
        let session = || SecureSession::new([1; 32], [2; 32], true, m);
        let plains = [
            Plain::Model {
                bytes: (0..=255).collect(),
                degree: 4,
            },
            Plain::RawData {
                ratings: vec![
                    Rating {
                        user: 1,
                        item: 2,
                        value: 3.5,
                    };
                    3
                ],
                degree: 2,
            },
            Plain::RawPacked {
                ratings: vec![
                    Rating {
                        user: 5,
                        item: 9,
                        value: 1.0,
                    };
                    4
                ],
                degree: 2,
            },
            Plain::Empty { degree: 1 },
        ];
        for plain in &plains {
            let clear = encode_share(false, plain);
            assert_eq!(clear, encode_payload(&Payload::Clear(encode_plain(plain))));
            assert_eq!(clear.capacity(), clear.len());

            let mut sealed = encode_share(true, plain);
            assert_eq!(sealed.capacity(), sealed.len());
            let (body, tag) = seal_slots(&mut sealed).unwrap();
            tag.copy_from_slice(&session().seal_in_place(b"aad", body));
            let want = session().seal(b"aad", &encode_plain(plain));
            assert_eq!(sealed, encode_payload(&Payload::Sealed(want)));

            let mut rx = SecureSession::new([2; 32], [1; 32], false, m);
            let Ok(PayloadRef::Sealed(frame)) = decode_payload_mut(&mut sealed) else {
                panic!("not a sealed payload");
            };
            let opened = rx.open_in_place(b"aad", frame).unwrap();
            assert_eq!(&decode_plain_ref(opened).unwrap().into_owned(), plain);
        }
        let Plain::Model { bytes, degree } = &plains[0] else {
            unreachable!()
        };
        let written = encode_model_share(true, *degree, bytes.len(), |buf| buf.put(bytes));
        assert_eq!(written, encode_share(true, &plains[0]));
    }

    /// The per-field decode the raw share had before its triplets were
    /// borrowed: the reference the view must equal, value bits included.
    fn reader_loop(bytes: &[u8]) -> Result<(Vec<Rating>, u32), CodecError> {
        let mut r = Reader::new(bytes);
        assert_eq!(r.u8()?, TAG_RAW_DATA);
        let degree = r.u32()?;
        let n = checked_len(r.u32()?, "rating count")?;
        let mut triplets = Reader::new(r.bytes(n * Rating::WIRE_SIZE)?);
        let mut ratings = Vec::with_capacity(n);
        for _ in 0..n {
            ratings.push(Rating {
                user: triplets.u32()?,
                item: triplets.u32()?,
                value: triplets.f32()?,
            });
        }
        no_trailing(&r)?;
        Ok((ratings, degree))
    }

    fn bits(ratings: impl IntoIterator<Item = Rating>) -> Vec<(u32, u32, u32)> {
        ratings
            .into_iter()
            .map(|r| (r.user, r.item, r.value.to_bits()))
            .collect()
    }

    #[test]
    fn the_borrowed_triplets_are_what_the_reader_loop_decodes() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const ODD: [f32; 6] = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            f32::MIN_POSITIVE,
            f32::MAX,
        ];
        for case in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let n = match case {
                0 => 0,
                1 => 600,
                _ => rng.gen_range(0..=600),
            };
            let ratings: Vec<Rating> = (0..n)
                .map(|_| Rating {
                    user: rng.gen(),
                    item: if rng.gen_bool(0.5) {
                        rng.gen_range(0..9_000)
                    } else {
                        rng.gen()
                    },
                    value: match rng.gen_range(0..4) {
                        0 => ODD[rng.gen_range(0..ODD.len())],
                        1 => f32::from_bits(rng.gen()),
                        _ => rng.gen_range(1..11) as f32 * 0.5,
                    },
                })
                .collect();
            let degree = rng.gen();
            let bytes = encode_plain(&Plain::RawData {
                ratings: ratings.clone(),
                degree,
            });
            let (want, want_degree) = reader_loop(&bytes).unwrap();
            assert_eq!(bits(want.iter().copied()), bits(ratings), "case {case}");
            let Ok(PlainRef::RawData { triplets, degree }) = decode_plain_ref(&bytes) else {
                panic!("case {case}: not a raw share");
            };
            assert_eq!((triplets.iter().len(), degree), (want.len(), want_degree));
            assert_eq!(
                bits(triplets.iter()),
                bits(want.iter().copied()),
                "case {case}"
            );
            let Ok(Plain::RawData { ratings: owned, .. }) = decode_plain(&bytes) else {
                panic!("case {case}: not a raw share");
            };
            assert_eq!(bits(owned), bits(want), "case {case}");
        }
    }

    #[test]
    fn hostile_raw_frames_get_typed_errors_from_the_view() {
        let frame = |count: u32, body: usize| {
            let mut buf = vec![TAG_RAW_DATA];
            buf.extend_from_slice(&3u32.to_le_bytes());
            buf.extend_from_slice(&count.to_le_bytes());
            buf.resize(buf.len() + body, 0x7f);
            buf
        };
        let cases = [
            // A count larger than the bytes behind it.
            (frame(5, 4 * 12), "count past the bytes"),
            (frame(MAX_LEN - 1, 12), "count near the cap"),
            // The last triplet one byte short.
            (frame(4, 4 * 12 - 1), "11-byte last triplet"),
            (frame(1, 11), "11-byte only triplet"),
        ];
        for (bytes, what) in &cases {
            assert!(
                matches!(decode_plain_both(bytes), Err(CodecError::Short(_))),
                "{what}"
            );
            assert_eq!(
                format!("{:?}", reader_loop(bytes)),
                format!("{:?}", decode_plain_ref(bytes)),
                "{what}"
            );
        }
        for (bytes, what) in [
            (frame(MAX_LEN, 0), "count at the cap"),
            (frame(MAX_LEN, 12), "count at the cap, bytes behind"),
            (frame(u32::MAX, 0), "count at u32::MAX"),
            (frame(2, 2 * 12 + 1), "a trailing byte"),
        ] {
            assert!(
                matches!(decode_plain_both(&bytes), Err(CodecError::Invalid(_))),
                "{what}"
            );
        }
        assert!(decode_plain_both(&frame(4, 4 * 12)).is_ok());
    }

    #[test]
    fn seal_slots_refuses_a_payload_too_short_for_a_tag() {
        let mut sealed = encode_share(true, &Plain::Empty { degree: 1 });
        assert!(seal_slots(&mut sealed).is_some());
        for len in 0..PAYLOAD_HEADER_LEN + TAG_LEN {
            assert!(seal_slots(&mut vec![0; len]).is_none(), "{len} bytes");
        }
        let mut bare = vec![0; PAYLOAD_HEADER_LEN + TAG_LEN];
        let (plain, tag) = seal_slots(&mut bare).unwrap();
        assert_eq!((plain.len(), tag.len()), (0, TAG_LEN));
    }

    #[test]
    fn short_errors_are_short_invalid_errors_are_invalid() {
        // The two error classes stay distinguishable: truncation reports
        // Short, structural garbage reports Invalid.
        let mut truncated = encode_payload(&Payload::Sealed(vec![1, 2, 3]));
        truncated.pop();
        assert!(matches!(
            decode_payload(&truncated),
            Err(CodecError::Short(_))
        ));
        assert!(matches!(decode_payload(&[77]), Err(CodecError::Invalid(_))));
    }
}
