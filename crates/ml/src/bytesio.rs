//! Minimal little-endian byte serialization helpers shared by the model
//! codecs (and re-used by `rex-net` for message framing).

/// Cursor-style reader over a byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Raised when a buffer is shorter than the encoding requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShortBuffer {
    /// Bytes requested beyond the end.
    pub needed: usize,
}

impl std::fmt::Display for ShortBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "short buffer: {} more bytes needed", self.needed)
    }
}

impl std::error::Error for ShortBuffer {}

impl<'a> Reader<'a> {
    /// Wraps a slice.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ShortBuffer> {
        if self.remaining() < n {
            return Err(ShortBuffer {
                needed: n - self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a little-endian u8.
    pub fn u8(&mut self) -> Result<u8, ShortBuffer> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, ShortBuffer> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, ShortBuffer> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian f32.
    pub fn f32(&mut self) -> Result<f32, ShortBuffer> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian f64.
    pub fn f64(&mut self) -> Result<f64, ShortBuffer> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads `n` f32 values.
    pub fn f32_vec(&mut self, n: usize) -> Result<Vec<f32>, ShortBuffer> {
        let bytes = self.take(n * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Reads `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], ShortBuffer> {
        self.take(n)
    }

    /// Reads a bit-packed bool vector of length `n`.
    pub fn bool_vec(&mut self, n: usize) -> Result<Vec<bool>, ShortBuffer> {
        let bytes = self.take(n.div_ceil(8))?;
        Ok((0..n).map(|i| bytes[i / 8] & (1 << (i % 8)) != 0).collect())
    }

    /// Reads `n` u32 values.
    pub fn u32_vec(&mut self, n: usize) -> Result<Vec<u32>, ShortBuffer> {
        let bytes = self.take(n * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }
}

/// Where serialised bytes go: a `Vec<u8>` for the wire, a hash state
/// for a digest — one serialiser feeds both, so reducing a model to a
/// digest never materialises it.
pub trait ByteSink {
    /// Accepts the next `bytes` of the stream.
    fn put(&mut self, bytes: &[u8]);
}

impl ByteSink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A sink that only counts: the serialised size without the bytes.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ByteCount(pub usize);

impl ByteSink for ByteCount {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// Gathers small `put`s on the stack and hands the sink kilobyte runs:
/// what a scattered encoding (a few dozen bytes per table row) goes
/// through, so a hash sink compresses many blocks per call and a `Vec`
/// grows once per run instead of once per field. Flushes on drop.
pub struct Chunked<'a, S: ByteSink> {
    sink: &'a mut S,
    buf: [u8; 2048],
    len: usize,
}

impl<'a, S: ByteSink> Chunked<'a, S> {
    /// An empty chunk in front of `sink`.
    pub fn new(sink: &'a mut S) -> Self {
        Chunked {
            sink,
            buf: [0; 2048],
            len: 0,
        }
    }

    fn flush(&mut self) {
        self.sink.put(&self.buf[..self.len]);
        self.len = 0;
    }
}

impl<S: ByteSink> ByteSink for Chunked<'_, S> {
    fn put(&mut self, bytes: &[u8]) {
        if self.len + bytes.len() > self.buf.len() {
            self.flush();
            if bytes.len() >= self.buf.len() {
                return self.sink.put(bytes);
            }
        }
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }
}

impl<S: ByteSink> Drop for Chunked<'_, S> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Appends a u8.
pub fn put_u8(buf: &mut impl ByteSink, v: u8) {
    buf.put(&[v]);
}

/// Appends a little-endian u32.
pub fn put_u32(buf: &mut impl ByteSink, v: u32) {
    buf.put(&v.to_le_bytes());
}

/// Appends a little-endian u64.
pub fn put_u64(buf: &mut impl ByteSink, v: u64) {
    buf.put(&v.to_le_bytes());
}

/// Appends a little-endian f32.
pub fn put_f32(buf: &mut impl ByteSink, v: f32) {
    buf.put(&v.to_le_bytes());
}

/// Appends a little-endian f64.
pub fn put_f64(buf: &mut impl ByteSink, v: f64) {
    buf.put(&v.to_le_bytes());
}

/// Appends a slice of f32 values, little-endian — on a little-endian
/// target as one `put` of the slab's own bytes.
pub fn put_f32_slice(buf: &mut impl ByteSink, vs: &[f32]) {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: the view covers exactly the `size_of_val(vs)` bytes of
        // `vs`, which stays borrowed for the view's lifetime; `u8` has
        // alignment 1 and every bit pattern of an `f32` is four
        // initialised bytes, which on this target are already its
        // little-endian encoding.
        let bytes = unsafe {
            std::slice::from_raw_parts(vs.as_ptr().cast::<u8>(), std::mem::size_of_val(vs))
        };
        buf.put(bytes);
    }
    #[cfg(not(target_endian = "little"))]
    for v in vs {
        buf.put(&v.to_le_bytes());
    }
}

/// Appends runs of f32 values that are not contiguous in memory — a
/// table's rows, or one float of each — as one little-endian stream:
/// the runs gather in a 2 KB stack slab that goes out as one
/// [`put_f32_slice`], and a run as long as the slab goes out whole.
pub fn put_f32_runs<'a>(buf: &mut impl ByteSink, runs: impl Iterator<Item = &'a [f32]>) {
    let mut slab = [0.0f32; 512];
    let mut len = 0;
    for run in runs {
        if len + run.len() > slab.len() {
            put_f32_slice(buf, &slab[..len]);
            len = 0;
            if run.len() >= slab.len() {
                put_f32_slice(buf, run);
                continue;
            }
        }
        slab[len..len + run.len()].copy_from_slice(run);
        len += run.len();
    }
    put_f32_slice(buf, &slab[..len]);
}

/// FNV-1a 64-bit running hash — the cheap content fingerprint behind
/// the sparse-delta reference guard and the serve-path digests. A
/// [`ByteSink`], so a model streams into it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a64(u64);

impl Fnv1a64 {
    /// The FNV-1a offset basis: the hash of the empty stream.
    pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// Starts a hash at the offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv1a64(Self::OFFSET)
    }

    /// Continues a hash from an earlier [`Fnv1a64::finish`] value.
    #[must_use]
    pub fn resume(state: u64) -> Self {
        Fnv1a64(state)
    }

    /// The hash of everything put so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a64 {
    fn default() -> Self {
        Self::new()
    }
}

impl ByteSink for Fnv1a64 {
    fn put(&mut self, bytes: &[u8]) {
        let mut hash = self.0;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = hash;
    }
}

/// One-shot [`Fnv1a64`] of `bytes`.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a64::new();
    h.put(bytes);
    h.finish()
}

/// Appends a bit-packed bool vector.
pub fn put_bool_slice(buf: &mut impl ByteSink, vs: &[bool]) {
    // Packed on the stack a kilobit at a time: a whole number of bytes
    // per group, so the groups concatenate into the one-shot packing.
    let mut packed = [0u8; 128];
    for group in vs.chunks(packed.len() * 8) {
        for (byte, bits) in packed.iter_mut().zip(group.chunks(8)) {
            *byte = bits
                .iter()
                .enumerate()
                .fold(0, |acc, (i, &on)| acc | (u8::from(on) << i));
        }
        buf.put(&packed[..group.len().div_ceil(8)]);
    }
}

/// [`put_bool_slice`]'s packing for flags that are not contiguous in
/// memory, a byte per `put` (callers batch through [`Chunked`]).
pub fn put_bools(buf: &mut impl ByteSink, bits: impl Iterator<Item = bool>) {
    let (mut byte, mut filled) = (0u8, 0);
    for on in bits {
        byte |= u8::from(on) << filled;
        filled += 1;
        if filled == 8 {
            put_u8(buf, byte);
            (byte, filled) = (0, 0);
        }
    }
    if filled > 0 {
        put_u8(buf, byte);
    }
}

/// The per-element encoders `put_f32_slice` / `put_bool_slice` replaced,
/// kept as the oracle the streamed serialisers are compared against.
#[cfg(test)]
pub(crate) mod reference {
    pub fn put_f32_slice(buf: &mut Vec<u8>, vs: &[f32]) {
        for v in vs {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    pub fn put_bool_slice(buf: &mut Vec<u8>, vs: &[bool]) {
        let mut bytes = vec![0u8; vs.len().div_ceil(8)];
        for (i, &b) in vs.iter().enumerate() {
            if b {
                bytes[i / 8] |= 1 << (i % 8);
            }
        }
        buf.extend_from_slice(&bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX - 3);
        put_f32(&mut buf, -1.5);
        put_f64(&mut buf, std::f64::consts::PI);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.f32().unwrap(), -1.5);
        assert_eq!(r.f64().unwrap(), std::f64::consts::PI);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn f32_slice_roundtrip() {
        let vs: Vec<f32> = (0..100).map(|i| i as f32 * 0.25 - 10.0).collect();
        let mut buf = Vec::new();
        put_f32_slice(&mut buf, &vs);
        assert_eq!(buf.len(), 400);
        let back = Reader::new(&buf).f32_vec(100).unwrap();
        assert_eq!(back, vs);
    }

    #[test]
    fn bool_slice_roundtrip() {
        for n in [0usize, 1, 7, 8, 9, 64, 100] {
            let vs: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
            let mut buf = Vec::new();
            put_bool_slice(&mut buf, &vs);
            assert_eq!(buf.len(), n.div_ceil(8));
            let back = Reader::new(&buf).bool_vec(n).unwrap();
            assert_eq!(back, vs, "n = {n}");
        }
    }

    #[test]
    fn slice_encoders_match_the_per_element_reference_on_every_sink() {
        let floats: Vec<f32> = (0..1031)
            .map(|i| f32::from_bits(0x9e37_79b9u32.wrapping_mul(i + 1)))
            .collect();
        for n in [0usize, 1, 7, 8, 9, 1023, 1024, 1025, 2049] {
            let bools: Vec<bool> = (0..n).map(|i| i % 3 == 0 || i % 7 == 2).collect();
            let fs = &floats[..n.min(floats.len())];
            let (mut want, mut got) = (Vec::new(), Vec::new());
            reference::put_f32_slice(&mut want, fs);
            reference::put_bool_slice(&mut want, &bools);
            put_f32_slice(&mut got, fs);
            put_bool_slice(&mut got, &bools);
            assert_eq!(got, want, "n = {n}");

            let (mut count, mut hash) = (ByteCount::default(), Fnv1a64::new());
            put_f32_slice(&mut count, fs);
            put_bool_slice(&mut count, &bools);
            put_f32_slice(&mut hash, fs);
            put_bool_slice(&mut hash, &bools);
            assert_eq!(count.0, want.len(), "n = {n}");
            assert_eq!(hash.finish(), fnv1a64(&want), "n = {n}");
        }
    }

    #[test]
    fn chunked_and_iterator_encoders_change_no_bytes() {
        // Puts of every size around the chunk, ending on and off its edge.
        let data: Vec<u8> = (0..9_000u32).map(|i| (i * 31 % 251) as u8).collect();
        for piece in [1usize, 3, 44, 2047, 2048, 2049, 5000] {
            let mut got = Vec::new();
            {
                let mut chunk = Chunked::new(&mut got);
                for part in data.chunks(piece) {
                    chunk.put(part);
                }
            }
            assert_eq!(got, data, "pieces of {piece}");
        }
        let floats: Vec<f32> = (0..3_000u32).map(|i| i as f32 * 0.37 - 11.0).collect();
        let mut want = Vec::new();
        put_f32_slice(&mut want, &floats);
        for piece in [1usize, 11, 511, 512, 513, 2_000] {
            let mut got = Vec::new();
            put_f32_runs(&mut got, floats.chunks(piece));
            assert_eq!(got, want, "runs of {piece}");
        }
        for n in [0usize, 1, 7, 8, 9, 64, 100] {
            let bools: Vec<bool> = (0..n).map(|i| i % 3 == 0 || i % 7 == 2).collect();
            let (mut want, mut got) = (Vec::new(), Vec::new());
            put_bool_slice(&mut want, &bools);
            put_bools(&mut got, bools.iter().copied());
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    fn u32_slice_roundtrip() {
        let vs: Vec<u32> = (0..57).map(|i| i * 0x0101_0101).collect();
        let mut buf = Vec::new();
        for &v in &vs {
            put_u32(&mut buf, v);
        }
        assert_eq!(buf.len(), 57 * 4);
        assert_eq!(Reader::new(&buf).u32_vec(57).unwrap(), vs);
    }

    #[test]
    fn fnv_discriminates_and_is_stable() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        let mut resumed = Fnv1a64::resume(fnv1a64(b"re"));
        resumed.put(b"x");
        assert_eq!(resumed.finish(), fnv1a64(b"rex"));
        assert_eq!(fnv1a64(b"rex"), fnv1a64(b"rex"));
        assert_ne!(fnv1a64(b"rex"), fnv1a64(b"rfx"));
    }

    #[test]
    fn short_buffer_detected() {
        let buf = [1u8, 2, 3];
        let mut r = Reader::new(&buf);
        assert!(r.u32().is_err());
        assert_eq!(r.remaining(), 3); // failed read consumes nothing
        assert_eq!(r.u8().unwrap(), 1);
        assert!(r.f32().is_err());
    }
}
