//! Bit-exact kernels for the f32/f64 vector hot paths.
//!
//! Every dense inner loop of the MF pipeline — the SGD predict/update
//! sweep, the weighted model merge, and the serve path's dot products
//! and norms — funnels through the primitives in this module. There are
//! **two levels**: a portable scalar reference and one x86_64 vector
//! level (AVX2 via `std::arch`), selected once per process by [`level`].
//! Only the primitives where a hand-written body measurably beats the
//! compiler carry one: [`dot`], [`norm_sq`] and [`sgd_update`].
//!
//! # The bit-exactness contract
//!
//! The scalar reference computes in the *same fixed lane-chunked
//! accumulation tree* as the AVX2 path, so both levels return
//! **bit-identical** results on identical inputs — including
//! subnormals, signed zeros, and infinities. The single carve-out is
//! NaN *payloads*: whether a result is NaN is identical on every level
//! (the trees match, and IEEE-754 NaN creation/propagation is exact),
//! but the payload bits of a NaN result are implementation-defined —
//! IEEE-754 §6.2 leaves payload propagation to the implementation, and
//! LLVM freely commutes `fmul`/`fadd` operands while x86 `mulss`/`mulps`
//! select the *first* operand's NaN, so register allocation decides the
//! payload. No Rust-level construct pins it. The parity suite therefore
//! compares NaN results by NaN-ness and everything else bit-for-bit.
//!
//! * [`dot`] accumulates into [`F32_LANES`] = 8 independent partial
//!   sums (lane `j` takes elements `i` with `i % 8 == j`, in index
//!   order; a ragged tail is zero-padded to a full chunk) and combines
//!   them in the canonical order `((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7))`
//!   — exactly the `vextractf128`/`movhlps`/`shufps` reduction the AVX2
//!   path performs.
//! * [`norm_sq`] accumulates `f64` squares into [`F64_LANES`] = 4
//!   partial sums combined as `(s0+s2) + (s1+s3)`.
//! * [`sgd_update`] is purely vertical (no cross-element reduction), so
//!   the vector width reproduces the scalar op-for-op: IEEE-754
//!   `mul`/`add` are exactly rounded, and no path ever contracts them
//!   into an FMA.
//! * [`axpy`] and [`scale_add`] are purely vertical too, and for them
//!   that is the whole story: they are plain `#[inline]` loops with no
//!   level at all. The compiler vectorises them at whatever width the
//!   caller's frame allows, every width gives the same bits, and a
//!   hand-written body measured flat against the loop at every k — so
//!   there is nothing to dispatch and nothing to compare.
//!
//! * The model merge is **row ranges**: `mf` walks each table as
//!   maximal ranges of rows with the same seen pattern and contiguous
//!   storage, and `merge_range` merges a range's factors (then its
//!   biases) as one flat run of elements, `acc = 0.0; acc += w·x; …;
//!   acc as f32` per element in the per-row merge's order — vertical,
//!   so bit-identical at every width. It has no per-level body; the
//!   merge runs it inside [`sweep`]'s frame, which the compiler widens
//!   to the level's vectors (about a fifth faster under AVX2 than the
//!   baseline SSE2 frame on a 610 × 9 000, k = 10 pair).
//!
//! The contract is enforced by the `kernel_parity` proptest suite
//! (`tests/kernel_parity.rs`): random lengths including ragged tails,
//! random bit patterns (subnormals, ±0, ±inf, NaN payloads),
//! `scalar(x) == simd(x)` bit-for-bit — modulo the NaN-payload
//! carve-out above — for every levelled primitive at every available
//! level.
//!
//! # Dispatch
//!
//! [`level`] resolves at first use: AVX2 when
//! `is_x86_feature_detected!("avx2")` says so, the scalar reference
//! otherwise (pre-AVX2 x86_64 and every other architecture). The
//! `REX_KERNEL` environment variable (`scalar` | `avx2`) pins the level
//! for testing; requesting an unavailable level aborts rather than
//! silently degrading, so a CI matrix job can trust what it measured.
//! Benches flip levels in-process via [`force_level`]. [`sweep_with`]
//! is the one place the level is matched on.
//!
//! # Element entry, sweep entry
//!
//! [`dot`], [`norm_sq`] and [`sgd_update`] dispatch **per call**: read
//! the level, check the host can execute it, cross into the level's
//! `#[target_feature]` frame (which the compiler cannot inline into a
//! caller built without that feature), run one primitive. At k = 10
//! that toll is several times the arithmetic. A loop that calls a
//! primitive per element pays it per element; [`sweep`] pays it once:
//! it resolves the level, enters one frame, and runs a whole
//! caller-supplied loop ([`Sweep::run`]) inside it, handing the loop a
//! zero-sized [`Lanes`] token whose `dot` / `norm_sq` / `sgd_update`
//! inline into the frame. The loop is written once, generic over the
//! token, and monomorphised per level — the SGD sweep, RMSE evaluation
//! and loss and the model merge in `mf`, the norm-cache rebuild and block scan in
//! `rex_core::serve`. The element entries are sweeps of one primitive,
//! so there is a single set of primitive bodies and a single dispatch,
//! and every level returns the same bits through either entry.

use std::sync::atomic::{AtomicU8, Ordering};

/// f32 accumulator lanes in the canonical [`dot`] tree (AVX2 width).
pub const F32_LANES: usize = 8;
/// f64 accumulator lanes in the canonical [`norm_sq`] tree (AVX2 width).
pub const F64_LANES: usize = 4;

/// A kernel dispatch level: the instruction set the primitives run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelLevel {
    /// Portable scalar reference (the canonical accumulation tree).
    Scalar,
    /// 256-bit `std::arch` x86_64 path (runtime-detected).
    Avx2,
}

impl KernelLevel {
    /// Parses a `REX_KERNEL` value.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "scalar" => Some(KernelLevel::Scalar),
            "avx2" => Some(KernelLevel::Avx2),
            _ => None,
        }
    }

    /// The level's `REX_KERNEL` spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelLevel::Scalar => "scalar",
            KernelLevel::Avx2 => "avx2",
        }
    }

    /// Whether this host can execute the level.
    #[must_use]
    pub fn is_available(self) -> bool {
        match self {
            KernelLevel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelLevel::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            KernelLevel::Avx2 => false,
        }
    }

    fn encode(self) -> u8 {
        match self {
            KernelLevel::Scalar => 1,
            KernelLevel::Avx2 => 2,
        }
    }

    fn decode(v: u8) -> Option<Self> {
        match v {
            1 => Some(KernelLevel::Scalar),
            2 => Some(KernelLevel::Avx2),
            _ => None,
        }
    }
}

/// Every level this host can execute, narrowest first.
#[must_use]
pub fn available_levels() -> Vec<KernelLevel> {
    [KernelLevel::Scalar, KernelLevel::Avx2]
        .into_iter()
        .filter(|l| l.is_available())
        .collect()
}

static LEVEL: AtomicU8 = AtomicU8::new(0);

fn detect() -> KernelLevel {
    if KernelLevel::Avx2.is_available() {
        KernelLevel::Avx2
    } else {
        KernelLevel::Scalar
    }
}

/// The level a `REX_KERNEL=v` pin names; aborts on a value that is not
/// a level or that this host cannot execute.
fn pinned_level(v: &str) -> KernelLevel {
    let l = KernelLevel::parse(v).unwrap_or_else(|| panic!("REX_KERNEL={v}: expected scalar|avx2"));
    assert!(
        l.is_available(),
        "REX_KERNEL={v} requested but this host cannot execute it"
    );
    l
}

fn init_level() -> KernelLevel {
    let level = match std::env::var("REX_KERNEL") {
        Ok(v) => pinned_level(&v),
        Err(_) => detect(),
    };
    LEVEL.store(level.encode(), Ordering::Relaxed);
    level
}

/// The process-wide dispatch level: `REX_KERNEL` if set, else the
/// widest detected instruction set. Resolved once, then cached.
#[inline]
#[must_use]
pub fn level() -> KernelLevel {
    match KernelLevel::decode(LEVEL.load(Ordering::Relaxed)) {
        Some(l) => l,
        None => init_level(),
    }
}

/// Pins the dispatch level in-process (bench/test hook; production code
/// uses the `REX_KERNEL` environment variable instead).
///
/// # Panics
/// When this host cannot execute `l`.
pub fn force_level(l: KernelLevel) {
    assert!(l.is_available(), "kernel level {} unavailable", l.name());
    LEVEL.store(l.encode(), Ordering::Relaxed);
}

#[inline]
fn check_available(l: KernelLevel) {
    assert!(
        l.is_available(),
        "kernel level {} unavailable on this host",
        l.name()
    );
}

// ---------------------------------------------------------------------
// sweep entry
// ---------------------------------------------------------------------

/// The reducing and SGD primitives of one dispatch level, as methods on
/// a zero-sized token. Holding a token is proof that this host executes
/// the level — only [`sweep_with`] makes one, after checking — so the
/// methods are safe. Every implementation is `#[inline(always)]`:
/// called from [`Sweep::run`], the primitive compiles into the level's
/// frame instead of being called across it.
pub trait Lanes: Copy {
    /// `a · b` in the canonical 8-lane tree. Panics on mismatched lengths.
    fn dot(self, a: &[f32], b: &[f32]) -> f32;
    /// `Σ a_i²` in f64, in the canonical 4-lane tree.
    fn norm_sq(self, a: &[f32]) -> f64;
    /// The coupled biased-MF factor update of [`sgd_update_scalar`].
    /// Panics on mismatched lengths.
    fn sgd_update(self, x: &mut [f32], y: &mut [f32], lr: f32, err: f32, reg: f32);
}

/// A loop to run inside one level's frame: see [`sweep`].
pub trait Sweep {
    /// What the loop returns.
    type Output;
    /// The loop body, written once against any level's primitives. Mark
    /// the implementation `#[inline(always)]`: that is what puts the loop
    /// and the primitives it calls in one `#[target_feature]` frame.
    fn run<L: Lanes>(self, lanes: L) -> Self::Output;
}

/// Runs `s` under the given dispatch level: one availability check, one
/// frame, the whole loop inside it. Bit-identical across levels.
///
/// # Panics
/// When `l` is unavailable on this host.
#[inline]
pub fn sweep_with<S: Sweep>(l: KernelLevel, s: S) -> S::Output {
    check_available(l);
    match l {
        KernelLevel::Scalar => s.run(ScalarLanes),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `check_available` just asserted
        // `is_x86_feature_detected!("avx2")`, the one feature
        // `sweep_avx2` is compiled with.
        KernelLevel::Avx2 => unsafe { x86::sweep_avx2(s) },
        #[cfg(not(target_arch = "x86_64"))]
        KernelLevel::Avx2 => unreachable!("check_available refuses AVX2 off x86_64"),
    }
}

/// Runs `s` under the process dispatch level ([`level`]).
#[inline]
pub fn sweep<S: Sweep>(s: S) -> S::Output {
    sweep_with(level(), s)
}

/// The scalar reference as a level token.
#[derive(Clone, Copy)]
struct ScalarLanes;

impl Lanes for ScalarLanes {
    #[inline(always)]
    fn dot(self, a: &[f32], b: &[f32]) -> f32 {
        dot_scalar(a, b)
    }
    #[inline(always)]
    fn norm_sq(self, a: &[f32]) -> f64 {
        norm_sq_scalar(a)
    }
    #[inline(always)]
    fn sgd_update(self, x: &mut [f32], y: &mut [f32], lr: f32, err: f32, reg: f32) {
        sgd_update_scalar(x, y, lr, err, reg);
    }
}

// ---------------------------------------------------------------------
// dot
// ---------------------------------------------------------------------

/// Canonical 8-partial-sum reduction: `((s0+s4)+(s2+s6)) + ((s1+s5)+(s3+s7))`,
/// phrased as the SIMD paths execute it (`lo+hi`, `movhl`, `shuf`).
#[inline]
fn reduce8(acc: &[f32; F32_LANES]) -> f32 {
    let s0 = acc[0] + acc[4];
    let s1 = acc[1] + acc[5];
    let s2 = acc[2] + acc[6];
    let s3 = acc[3] + acc[7];
    (s0 + s2) + (s1 + s3)
}

/// Scalar reference for [`dot`]: the canonical lane-chunked tree.
///
/// The loops run *lane-major* — each of the 8 accumulator lanes walks
/// its stride-8 element subsequence to completion before the next lane
/// starts. Per lane that is the exact add sequence the chunk-major SIMD
/// paths execute (chunk order is ascending either way), so the result
/// is bit-identical — but the inner loop is one serial float dependency
/// chain over strided loads, which LLVM's auto-vectorizer will not
/// touch. That keeps this path an honest scalar baseline: the
/// chunk-major spelling gets silently vectorized to SSE at `opt-level
/// ≥ 2`, which would both fake the scalar bench arm and let a codegen
/// change alter which tree "scalar" means.
#[inline]
#[must_use]
pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot over mismatched lengths");
    let mut acc = [0.0f32; F32_LANES];
    let chunks = a.len() / F32_LANES;
    let tail = a.len() - chunks * F32_LANES;
    // Ragged tails run as one zero-padded chunk — every lane takes an
    // add (pad lanes add +0.0), exactly like a masked SIMD load.
    let mut pa = [0.0f32; F32_LANES];
    let mut pb = [0.0f32; F32_LANES];
    if tail > 0 {
        pa[..tail].copy_from_slice(&a[chunks * F32_LANES..]);
        pb[..tail].copy_from_slice(&b[chunks * F32_LANES..]);
    }
    for (j, lane) in acc.iter_mut().enumerate() {
        let mut s = 0.0f32;
        for c in 0..chunks {
            s += a[c * F32_LANES + j] * b[c * F32_LANES + j];
        }
        if tail > 0 {
            s += pa[j] * pb[j];
        }
        *lane = s;
    }
    reduce8(&acc)
}

struct DotOnce<'a>(&'a [f32], &'a [f32]);

impl Sweep for DotOnce<'_> {
    type Output = f32;
    #[inline(always)]
    fn run<L: Lanes>(self, lanes: L) -> f32 {
        lanes.dot(self.0, self.1)
    }
}

/// `a · b` under the given dispatch level. Bit-identical across levels.
///
/// # Panics
/// When the lengths differ or `l` is unavailable on this host.
#[inline]
#[must_use]
pub fn dot_with(l: KernelLevel, a: &[f32], b: &[f32]) -> f32 {
    sweep_with(l, DotOnce(a, b))
}

/// `a · b` under the process dispatch level ([`level`]).
#[inline]
#[must_use]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    dot_with(level(), a, b)
}

// ---------------------------------------------------------------------
// norm_sq
// ---------------------------------------------------------------------

/// Canonical 4-partial-sum f64 reduction: `(s0+s2) + (s1+s3)`.
#[inline]
fn reduce4(acc: &[f64; F64_LANES]) -> f64 {
    (acc[0] + acc[2]) + (acc[1] + acc[3])
}

/// Scalar reference for [`norm_sq`]: the canonical lane-chunked tree.
#[inline]
#[must_use]
pub fn norm_sq_scalar(a: &[f32]) -> f64 {
    let mut acc = [0.0f64; F64_LANES];
    let chunks = a.len() / F64_LANES;
    for c in 0..chunks {
        let p = &a[c * F64_LANES..(c + 1) * F64_LANES];
        for j in 0..F64_LANES {
            let v = f64::from(p[j]);
            acc[j] += v * v;
        }
    }
    let tail = a.len() - chunks * F64_LANES;
    if tail > 0 {
        let mut p = [0.0f32; F64_LANES];
        p[..tail].copy_from_slice(&a[chunks * F64_LANES..]);
        for j in 0..F64_LANES {
            let v = f64::from(p[j]);
            acc[j] += v * v;
        }
    }
    reduce4(&acc)
}

struct NormSqOnce<'a>(&'a [f32]);

impl Sweep for NormSqOnce<'_> {
    type Output = f64;
    #[inline(always)]
    fn run<L: Lanes>(self, lanes: L) -> f64 {
        lanes.norm_sq(self.0)
    }
}

/// `Σ a_i²` in f64 under the given dispatch level.
///
/// # Panics
/// When `l` is unavailable on this host.
#[inline]
#[must_use]
pub fn norm_sq_with(l: KernelLevel, a: &[f32]) -> f64 {
    sweep_with(l, NormSqOnce(a))
}

/// `Σ a_i²` in f64 under the process dispatch level.
#[inline]
#[must_use]
pub fn norm_sq(a: &[f32]) -> f64 {
    norm_sq_with(level(), a)
}

// ---------------------------------------------------------------------
// axpy, scale_add (purely vertical: plain loops, no level)
// ---------------------------------------------------------------------

/// `y[i] += alpha * x[i]`. Purely vertical, so the compiler may
/// vectorise it at any width and the bits do not change; there is no
/// per-level body.
///
/// # Panics
/// When the lengths differ.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy over mismatched lengths");
    for (yj, xj) in y.iter_mut().zip(x) {
        *yj += alpha * *xj;
    }
}

/// `acc[i] += w * f64(src[i])` — the weighted row accumulate of the
/// model merge. Purely vertical, like [`axpy`].
///
/// # Panics
/// When the lengths differ.
#[inline]
pub fn scale_add(acc: &mut [f64], w: f64, src: &[f32]) {
    assert_eq!(acc.len(), src.len(), "scale_add over mismatched lengths");
    for (a, s) in acc.iter_mut().zip(src) {
        *a += w * f64::from(*s);
    }
}

/// One contributor's floats as a merge reads them: in memory, or as the
/// little-endian bytes of the buffer they arrived in.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Floats<'a> {
    /// Floats in memory.
    F32(&'a [f32]),
    /// Floats as little-endian bytes, four per float, at any alignment.
    Le(&'a [u8]),
}

/// Elements one [`merge_range`] block accumulates on the stack (2 KiB
/// of `f64`, so every pass over a block stays in L1).
const MERGE_BLOCK: usize = 256;

/// The weighted merge of one range of elements, in place: element `i`
/// becomes `(acc as f32)` where `acc = 0.0`, then `acc += own·dst[i]`
/// when `own` is given, then `acc += w·f64(src[i])` per `(w, src)` in
/// order — every add exactly rounded in `f64`, never an FMA. That is the
/// per-row merge's op order element for element, so a row range merged
/// at once is bit-identical to its rows merged one by one. Run a block
/// at a time: each pass is one flat vertical loop the compiler
/// vectorises at the frame's width, and no width changes the bits.
///
/// # Panics
/// When a source is shorter than `dst`.
#[inline(always)]
pub(crate) fn merge_range(dst: &mut [f32], own: Option<f64>, srcs: &[(f64, Floats<'_>)]) {
    if let (Some(w0), [(w1, src)]) = (own, srcs) {
        // One contributor over a seen row range: one pass, no scratch.
        let (w1, n) = (*w1, dst.len());
        match *src {
            Floats::F32(s) => {
                for (d, s) in dst.iter_mut().zip(&s[..n]) {
                    let mut a = 0.0f64;
                    a += w0 * f64::from(*d);
                    a += w1 * f64::from(*s);
                    *d = a as f32;
                }
            }
            Floats::Le(b) => {
                for (d, s) in dst.iter_mut().zip(b[..4 * n].chunks_exact(4)) {
                    let mut a = 0.0f64;
                    a += w0 * f64::from(*d);
                    a += w1 * f64::from(f32::from_le_bytes(s.try_into().expect("four bytes")));
                    *d = a as f32;
                }
            }
        }
        return;
    }
    let mut acc = [0.0f64; MERGE_BLOCK];
    for (block, out) in dst.chunks_mut(MERGE_BLOCK).enumerate() {
        let (at, n) = (block * MERGE_BLOCK, out.len());
        let acc = &mut acc[..n];
        acc.fill(0.0);
        if let Some(w) = own {
            scale_add(acc, w, out);
        }
        for &(w, src) in srcs {
            match src {
                Floats::F32(s) => scale_add(acc, w, &s[at..at + n]),
                Floats::Le(b) => {
                    for (a, s) in acc.iter_mut().zip(b[4 * at..4 * (at + n)].chunks_exact(4)) {
                        *a += w * f64::from(f32::from_le_bytes(s.try_into().expect("four bytes")));
                    }
                }
            }
        }
        for (d, a) in out.iter_mut().zip(acc.iter()) {
            *d = *a as f32;
        }
    }
}

// ---------------------------------------------------------------------
// sgd_update (fused biased-MF factor update)
// ---------------------------------------------------------------------

/// Scalar reference for [`sgd_update`]: the biased-MF coupled factor
/// update, element `d`:
///
/// ```text
/// x[d] ← x[d] + lr·(err·y[d] − reg·x[d])
/// y[d] ← y[d] + lr·(err·x_old[d] − reg·y[d])
/// ```
///
/// (`y`'s update reads the *pre-update* `x`.) Purely vertical.
#[inline]
pub fn sgd_update_scalar(x: &mut [f32], y: &mut [f32], lr: f32, err: f32, reg: f32) {
    assert_eq!(x.len(), y.len(), "sgd_update over mismatched lengths");
    for (xd, yd) in x.iter_mut().zip(y.iter_mut()) {
        let x0 = *xd;
        let y0 = *yd;
        *xd = x0 + lr * (err * y0 - reg * x0);
        *yd = y0 + lr * (err * x0 - reg * y0);
    }
}

struct SgdUpdateOnce<'a> {
    x: &'a mut [f32],
    y: &'a mut [f32],
    lr: f32,
    err: f32,
    reg: f32,
}

impl Sweep for SgdUpdateOnce<'_> {
    type Output = ();
    #[inline(always)]
    fn run<L: Lanes>(self, lanes: L) {
        lanes.sgd_update(self.x, self.y, self.lr, self.err, self.reg);
    }
}

/// Coupled SGD factor update under the given dispatch level.
///
/// # Panics
/// When the lengths differ or `l` is unavailable on this host.
#[inline]
pub fn sgd_update_with(l: KernelLevel, x: &mut [f32], y: &mut [f32], lr: f32, err: f32, reg: f32) {
    sweep_with(l, SgdUpdateOnce { x, y, lr, err, reg });
}

/// Coupled SGD factor update under the process dispatch level.
#[inline]
pub fn sgd_update(x: &mut [f32], y: &mut [f32], lr: f32, err: f32, reg: f32) {
    sgd_update_with(level(), x, y, lr, err, reg)
}

// ---------------------------------------------------------------------
// x86_64 implementations
// ---------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! `std::arch` implementations. All float math is `mul` + `add`
    //! (never FMA), so each lane is exactly the scalar reference's op
    //! sequence; reductions replay the canonical trees of the parent
    //! module.
    //!
    //! The [`Lanes`] primitives are safe `#[inline(always)]` methods on
    //! the level token: an [`Avx2Lanes`] is only ever made by
    //! [`sweep_avx2`], whose caller has checked for AVX2. Its private
    //! field is what keeps that true — nothing outside this module can
    //! spell one.
    //!
    //! `sgd_update` stays hand-written although it is as vertical as
    //! `axpy`: a plain loop inlined into the AVX2 frame read the
    //! `serve-live` benchmark's `epoch_p05_ms` 1.06 → 1.13 ms and won 1
    //! of 6 alternated pairs (0.98 → 1.13, 0 of 5, in the sizing run
    //! before it), where the same pairing without that edit read level.

    use super::{Lanes, Sweep, F32_LANES, F64_LANES};
    use std::arch::x86_64::*;

    /// AVX2 as a level token: exists only inside [`sweep_avx2`].
    #[derive(Clone, Copy)]
    pub struct Avx2Lanes(());

    /// The AVX2 frame: `s`'s loop and the [`Avx2Lanes`] primitives it
    /// calls inline into this one `#[target_feature]` function.
    ///
    /// # Safety
    /// The host must support AVX2 (`is_x86_feature_detected!("avx2")`):
    /// the function is compiled with that feature, and the token it
    /// hands `s` is what lets the [`Avx2Lanes`] methods issue AVX/AVX2
    /// instructions without checking again.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sweep_avx2<S: Sweep>(s: S) -> S::Output {
        s.run(Avx2Lanes(()))
    }

    /// Lane masks for ragged tails: the 8 (or 4) lanes starting at
    /// index `8 - t` are `t` all-ones lanes followed by zero lanes.
    static TAIL_MASK: [i32; 2 * F32_LANES] =
        [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

    /// `(s0+s2) + (s1+s3)` on a 128-bit register.
    #[inline(always)]
    fn reduce4_ps(s: __m128) -> f32 {
        // SAFETY: register-to-register SSE arithmetic, no memory access;
        // SSE/SSE2 are part of the x86_64 baseline this module is
        // compiled for, so there is nothing to detect.
        unsafe {
            let t = _mm_add_ps(s, _mm_movehl_ps(s, s)); // [s0+s2, s1+s3, ..]
            let r = _mm_add_ss(t, _mm_shuffle_ps(t, t, 0b01));
            _mm_cvtss_f32(r)
        }
    }

    /// `s0 + s1` on a 128-bit f64 register.
    #[inline(always)]
    fn reduce2_pd(s: __m128d) -> f64 {
        // SAFETY: as `reduce4_ps` — SSE2 register arithmetic, no memory
        // access, x86_64 baseline.
        unsafe { _mm_cvtsd_f64(_mm_add_sd(s, _mm_unpackhi_pd(s, s))) }
    }

    impl Lanes for Avx2Lanes {
        #[inline(always)]
        fn dot(self, a: &[f32], b: &[f32]) -> f32 {
            assert_eq!(a.len(), b.len(), "dot over mismatched lengths");
            let chunks = a.len() / F32_LANES;
            let tail = a.len() - chunks * F32_LANES;
            // SAFETY: the token proves AVX2. Chunk `c` loads elements
            // `8c..8c+8` with `8c+8 <= 8·chunks <= len` of both slices.
            // With `1 <= tail <= 7` the mask load reads 8 lanes of the
            // 16-lane table from index `8 - tail` in `1..=7`, and the
            // masked loads touch only the first `tail` lanes past
            // `8·chunks` — exactly the slices' remaining elements; masked
            // -off lanes are not accessed and read as +0.0, the zero
            // -padded chunk the scalar tree specifies.
            unsafe {
                let mut acc = _mm256_setzero_ps();
                for c in 0..chunks {
                    let va = _mm256_loadu_ps(a.as_ptr().add(c * F32_LANES));
                    let vb = _mm256_loadu_ps(b.as_ptr().add(c * F32_LANES));
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
                }
                if tail > 0 {
                    let mask = _mm256_loadu_si256(TAIL_MASK.as_ptr().add(F32_LANES - tail).cast());
                    let va = _mm256_maskload_ps(a.as_ptr().add(chunks * F32_LANES), mask);
                    let vb = _mm256_maskload_ps(b.as_ptr().add(chunks * F32_LANES), mask);
                    acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
                }
                // The canonical 8-lane reduction: `lo+hi` → `movhl` add
                // → scalar shuffle add.
                let lo = _mm256_castps256_ps128(acc);
                let hi = _mm256_extractf128_ps(acc, 1);
                reduce4_ps(_mm_add_ps(lo, hi))
            }
        }

        #[inline(always)]
        fn norm_sq(self, a: &[f32]) -> f64 {
            let chunks = a.len() / F64_LANES;
            let tail = a.len() - chunks * F64_LANES;
            // SAFETY: the token proves AVX2 (and so AVX's 128-bit
            // `maskload`). Chunk `c` loads elements `4c..4c+4` with
            // `4c+4 <= 4·chunks <= len`. With `1 <= tail <= 3` the mask
            // load reads 4 lanes of the table from index `8 - tail` in
            // `5..=7`, and the masked load touches only the `tail`
            // elements left past `4·chunks`; masked-off lanes read +0.0.
            unsafe {
                let mut acc = _mm256_setzero_pd();
                for c in 0..chunks {
                    let v = _mm256_cvtps_pd(_mm_loadu_ps(a.as_ptr().add(c * F64_LANES)));
                    acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
                }
                if tail > 0 {
                    let mask = _mm_loadu_si128(TAIL_MASK.as_ptr().add(F32_LANES - tail).cast());
                    let p = _mm_maskload_ps(a.as_ptr().add(chunks * F64_LANES), mask);
                    let v = _mm256_cvtps_pd(p);
                    acc = _mm256_add_pd(acc, _mm256_mul_pd(v, v));
                }
                // (s0+s2) + (s1+s3): lo128 + hi128, then lane0 + lane1.
                let lo = _mm256_castpd256_pd128(acc);
                let hi = _mm256_extractf128_pd(acc, 1);
                reduce2_pd(_mm_add_pd(lo, hi))
            }
        }

        #[inline(always)]
        fn sgd_update(self, x: &mut [f32], y: &mut [f32], lr: f32, err: f32, reg: f32) {
            assert_eq!(x.len(), y.len(), "sgd_update over mismatched lengths");
            let chunks = x.len() / 8;
            // SAFETY: the token proves AVX2; chunk `c` loads and stores
            // elements `8c..8c+8` with `8c+8 <= 8·chunks <= len` of both
            // slices, which are distinct `&mut` borrows.
            unsafe {
                let vlr = _mm256_set1_ps(lr);
                let verr = _mm256_set1_ps(err);
                let vreg = _mm256_set1_ps(reg);
                for c in 0..chunks {
                    let vx = _mm256_loadu_ps(x.as_ptr().add(c * 8));
                    let vy = _mm256_loadu_ps(y.as_ptr().add(c * 8));
                    let gx = _mm256_sub_ps(_mm256_mul_ps(verr, vy), _mm256_mul_ps(vreg, vx));
                    let gy = _mm256_sub_ps(_mm256_mul_ps(verr, vx), _mm256_mul_ps(vreg, vy));
                    _mm256_storeu_ps(
                        x.as_mut_ptr().add(c * 8),
                        _mm256_add_ps(vx, _mm256_mul_ps(vlr, gx)),
                    );
                    _mm256_storeu_ps(
                        y.as_mut_ptr().add(c * 8),
                        _mm256_add_ps(vy, _mm256_mul_ps(vlr, gy)),
                    );
                }
            }
            super::sgd_update_scalar(&mut x[chunks * 8..], &mut y[chunks * 8..], lr, err, reg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe_vec(seed: u64, len: usize) -> Vec<f32> {
        // splitmix64-driven bit patterns: finite floats plus the odd
        // subnormal and signed zero.
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = s;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                let bits = (z ^ (z >> 31)) as u32;
                match bits % 17 {
                    0 => 0.0,
                    1 => -0.0,
                    2 => f32::from_bits(bits & 0x007f_ffff), // subnormal
                    _ => ((bits % 2048) as f32 - 1024.0) * 0.013,
                }
            })
            .collect()
    }

    #[test]
    fn all_levels_agree_bitwise_on_every_primitive() {
        for len in [0usize, 1, 3, 4, 7, 8, 9, 15, 16, 31, 32, 63, 100] {
            let a = probe_vec(1 + len as u64, len);
            let b = probe_vec(99 + len as u64, len);
            for l in available_levels() {
                assert_eq!(
                    dot_with(l, &a, &b).to_bits(),
                    dot_scalar(&a, &b).to_bits(),
                    "dot {} len {len}",
                    l.name()
                );
                assert_eq!(
                    norm_sq_with(l, &a).to_bits(),
                    norm_sq_scalar(&a).to_bits(),
                    "norm_sq {} len {len}",
                    l.name()
                );
                let (mut xr, mut yr) = (a.clone(), b.clone());
                let (mut xg, mut yg) = (a.clone(), b.clone());
                sgd_update_scalar(&mut xr, &mut yr, 0.005, 1.25, 0.1);
                sgd_update_with(l, &mut xg, &mut yg, 0.005, 1.25, 0.1);
                assert_eq!(
                    xr.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    xg.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "sgd_update x {} len {len}",
                    l.name()
                );
                assert_eq!(
                    yr.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    yg.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "sgd_update y {} len {len}",
                    l.name()
                );
            }
        }
    }

    #[test]
    fn dot_matches_plain_math_closely() {
        // The canonical tree reassociates, so compare against f64.
        let a = probe_vec(5, 33);
        let b = probe_vec(6, 33);
        let want: f64 = a
            .iter()
            .zip(&b)
            .map(|(x, y)| f64::from(*x) * f64::from(*y))
            .sum();
        let got = f64::from(dot_scalar(&a, &b));
        assert!((want - got).abs() < 1e-3, "{want} vs {got}");
    }

    #[test]
    fn sgd_update_matches_the_legacy_loop() {
        // The kernel must replay the historical per-element op order so
        // its adoption is a bit-level no-op on the training trajectory.
        let x0 = probe_vec(7, 10);
        let y0 = probe_vec(8, 10);
        let (lr, err, reg) = (0.005f32, -0.75f32, 0.1f32);
        let mut x_legacy = x0.clone();
        let mut y_legacy = y0.clone();
        for d in 0..10 {
            let xu_d = x_legacy[d];
            let yi_d = y_legacy[d];
            x_legacy[d] += lr * (err * yi_d - reg * xu_d);
            y_legacy[d] += lr * (err * xu_d - reg * yi_d);
        }
        let mut x = x0;
        let mut y = y0;
        sgd_update_scalar(&mut x, &mut y, lr, err, reg);
        assert_eq!(
            x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            x_legacy.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(
            y.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            y_legacy.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn level_parsing_and_availability() {
        assert_eq!(KernelLevel::parse("scalar"), Some(KernelLevel::Scalar));
        assert_eq!(KernelLevel::parse("avx2"), Some(KernelLevel::Avx2));
        // The level this crate used to have between the two.
        assert_eq!(KernelLevel::parse("sse2"), None);
        assert_eq!(KernelLevel::parse("neon"), None);
        assert!(KernelLevel::Scalar.is_available());
        let levels = available_levels();
        assert!(levels.contains(&KernelLevel::Scalar));
        for l in levels {
            assert!(l.is_available());
            assert_eq!(KernelLevel::parse(l.name()), Some(l));
        }
        // The process level is always executable.
        assert!(level().is_available());
    }

    #[test]
    #[should_panic(expected = "REX_KERNEL=sse2: expected scalar|avx2")]
    fn the_deleted_level_is_refused_as_a_pin() {
        pinned_level("sse2");
    }
}
