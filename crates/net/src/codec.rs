//! Binary encoding of [`Payload`] and [`Plain`].
//!
//! Hand-rolled little-endian tag-length-value format (the paper serializes
//! with a JSON library for attestation and raw buffers elsewhere; a binary
//! codec keeps our byte accounting honest and dependency-free).

use crate::message::{Payload, Plain};
use rex_data::Rating;
use rex_ml::bytesio::{self, Reader, ShortBuffer};
use rex_tee::attestation::AttestationMsg;
use rex_tee::quote::Quote;
use rex_tee::report::USER_DATA_LEN;
use rex_tee::Measurement;

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
        Payload::Sealed(frame) => tagged_frame(TAG_SEALED, None, frame),
        Payload::Clear(frame) => tagged_frame(TAG_CLEAR, None, frame),
    }
}

/// `tag`, the inner codec's `degree` word if any, then `bytes` behind
/// their `u32` length.
fn tagged_frame(tag: u8, degree: Option<u32>, bytes: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1 + degree.map_or(0, |_| 4) + 4 + bytes.len());
    bytesio::put_u8(&mut buf, tag);
    if let Some(degree) = degree {
        bytesio::put_u32(&mut buf, degree);
    }
    bytesio::put_u32(&mut buf, bytes.len() as u32);
    buf.extend_from_slice(bytes);
    buf
}

/// Decodes an outer payload.
pub fn decode_payload(bytes: &[u8]) -> Result<Payload, CodecError> {
    let mut r = Reader::new(bytes);
    let tag = r.u8()?;
    let out = match tag {
        TAG_ATTEST_HELLO => Payload::Attestation(AttestationMsg::Hello {
            quote: read_quote(&mut r)?,
        }),
        TAG_ATTEST_REPLY => Payload::Attestation(AttestationMsg::Reply {
            quote: read_quote(&mut r)?,
        }),
        TAG_SEALED | TAG_CLEAR => {
            let len = r.u32()?;
            if len > MAX_LEN {
                return Err(CodecError::Invalid(format!("frame length {len}")));
            }
            let frame = r.bytes(len as usize)?.to_vec();
            if tag == TAG_SEALED {
                Payload::Sealed(frame)
            } else {
                Payload::Clear(frame)
            }
        }
        other => return Err(CodecError::Invalid(format!("unknown tag {other}"))),
    };
    if r.remaining() != 0 {
        return Err(CodecError::Invalid(format!(
            "{} trailing bytes",
            r.remaining()
        )));
    }
    Ok(out)
}

/// Encodes an inner payload (what gets sealed), into a buffer allocated
/// once at the exact encoded length.
#[must_use]
pub fn encode_plain(p: &Plain) -> Vec<u8> {
    match p {
        Plain::RawData { ratings, degree } => {
            let mut buf = Vec::with_capacity(1 + 4 + 4 + ratings.len() * Rating::WIRE_SIZE);
            bytesio::put_u8(&mut buf, TAG_RAW_DATA);
            bytesio::put_u32(&mut buf, *degree);
            bytesio::put_u32(&mut buf, ratings.len() as u32);
            for r in ratings {
                bytesio::put_u32(&mut buf, r.user);
                bytesio::put_u32(&mut buf, r.item);
                bytesio::put_f32(&mut buf, r.value);
            }
            buf
        }
        Plain::Model { bytes, degree } => tagged_frame(TAG_MODEL, Some(*degree), bytes),
        Plain::RawPacked { ratings, degree } => {
            // The packed batch delimits itself: no length word.
            let packed = crate::compress::compress_batch(ratings);
            let mut buf = Vec::with_capacity(1 + 4 + packed.len());
            bytesio::put_u8(&mut buf, TAG_RAW_PACKED);
            bytesio::put_u32(&mut buf, *degree);
            buf.extend_from_slice(&packed);
            buf
        }
        Plain::ModelDelta { bytes, degree } => tagged_frame(TAG_MODEL_DELTA, Some(*degree), bytes),
        Plain::Empty { degree } => {
            let mut buf = Vec::with_capacity(1 + 4);
            bytesio::put_u8(&mut buf, TAG_EMPTY);
            bytesio::put_u32(&mut buf, *degree);
            buf
        }
    }
}

/// Decodes an inner payload.
pub fn decode_plain(bytes: &[u8]) -> Result<Plain, CodecError> {
    let mut r = Reader::new(bytes);
    let tag = r.u8()?;
    let degree = r.u32()?;
    let out = match tag {
        TAG_RAW_DATA => {
            let n = r.u32()?;
            if n > MAX_LEN {
                return Err(CodecError::Invalid(format!("rating count {n}")));
            }
            let mut ratings = Vec::with_capacity(n as usize);
            for _ in 0..n {
                ratings.push(Rating {
                    user: r.u32()?,
                    item: r.u32()?,
                    value: r.f32()?,
                });
            }
            Plain::RawData { ratings, degree }
        }
        TAG_MODEL => {
            let len = r.u32()?;
            if len > MAX_LEN {
                return Err(CodecError::Invalid(format!("model length {len}")));
            }
            Plain::Model {
                bytes: r.bytes(len as usize)?.to_vec(),
                degree,
            }
        }
        TAG_RAW_PACKED => {
            // The packed batch is self-delimiting and last: hand the
            // decompressor the remainder, which consumes it exactly.
            let n = r.remaining();
            let ratings = crate::compress::decompress_batch(r.bytes(n)?)
                .map_err(|e| CodecError::Invalid(format!("packed batch: {e}")))?;
            Plain::RawPacked { ratings, degree }
        }
        TAG_MODEL_DELTA => {
            let len = r.u32()?;
            if len > MAX_LEN {
                return Err(CodecError::Invalid(format!("delta length {len}")));
            }
            Plain::ModelDelta {
                bytes: r.bytes(len as usize)?.to_vec(),
                degree,
            }
        }
        TAG_EMPTY => Plain::Empty { degree },
        other => return Err(CodecError::Invalid(format!("unknown inner tag {other}"))),
    };
    if r.remaining() != 0 {
        return Err(CodecError::Invalid(format!(
            "{} trailing bytes",
            r.remaining()
        )));
    }
    Ok(out)
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
