//! Runtime dispatch for the crypto kernels.
//!
//! Mirrors `rex_ml::kernel`'s dispatch contract (the crypto crate stays
//! dependency-free, so the ~50 lines are deliberately duplicated): the
//! level is resolved once per process via `is_x86_feature_detected!`,
//! and requesting an unavailable level aborts rather than silently
//! degrading. Three levels, each a superset of the one before:
//!
//! * [`SimdLevel::Scalar`] — the portable reference;
//! * [`SimdLevel::Avx2`] — ChaCha20's 8-block keystream kernel and
//!   Poly1305's 4-lane MAC kernel (the scalar Poly1305 is a radix-2^44
//!   reference);
//! * [`SimdLevel::Avx512`] — ChaCha20 16 blocks wide on `zmm`
//!   registers, with everything else of [`SimdLevel::Avx2`]: the 8-wide
//!   body finishes a 16-wide run's tail, and Poly1305 keeps its 4-lane
//!   kernel. It is available only where AVX2 is too, so `Avx512 ⊃
//!   AVX2` holds on every host that detects it.
//!
//! The variants are ordered narrowest first, so `level >= Avx2` asks
//! "does this level run the AVX2 bodies". Unlike the float kernels,
//! every primitive is integer arithmetic, so bit-exactness across
//! levels is structural — the parity suite pins it anyway.
//!
//! The `REX_KERNEL` environment variable (`scalar` | `avx2`) pins the
//! level for testing; `avx2` pins the 8-wide keystream. It cannot name
//! `Avx512`: `rex-ml` reads the same variable for its float kernels,
//! which have no such level and abort on a value they do not know. The
//! widest level is reached by detection, or by [`force_level`] and the
//! `*_with` entries in tests and benches.
//!
//! SHA-256 rides the same resolution and adds no level of its own, but
//! it does not *need* a vector level either: the SHA-extension block
//! function ([`sha_ni`]) runs whenever the CPU reports `sha` + `ssse3` +
//! `sse4.1`, unless the process was **pinned** to [`SimdLevel::Scalar`]
//! (`REX_KERNEL=scalar` or [`force_level`]). A CPU with the extensions
//! and no AVX2 detects `Scalar` and still hashes on them; only the pin
//! asks for the reference, so `REX_KERNEL=scalar` proves the scalar
//! reference for both cipher and hash.

use std::sync::atomic::{AtomicU8, Ordering};

/// A crypto-kernel dispatch level, ordered narrowest first: each level
/// runs every body of the levels below it that it has no wider one for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Portable scalar reference.
    Scalar,
    /// 8-blocks-wide 256-bit x86_64 path (runtime-detected).
    Avx2,
    /// 16-blocks-wide 512-bit x86_64 keystream over the AVX2 bodies
    /// (runtime-detected; no `REX_KERNEL` value names it).
    Avx512,
}

impl SimdLevel {
    /// Parses a `REX_KERNEL` value.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "scalar" => Some(SimdLevel::Scalar),
            "avx2" => Some(SimdLevel::Avx2),
            _ => None,
        }
    }

    /// The level's name: its `REX_KERNEL` spelling, except `avx512`,
    /// which [`SimdLevel::parse`] refuses (see the module doc).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }

    /// Whether this host can execute the level.
    #[must_use]
    pub fn is_available(self) -> bool {
        match self {
            SimdLevel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => is_x86_feature_detected!("avx2"),
            // The features the 16-wide body is compiled with, and the
            // AVX2 its tail and the MAC run on.
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => {
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx2")
            }
            #[cfg(not(target_arch = "x86_64"))]
            SimdLevel::Avx2 | SimdLevel::Avx512 => false,
        }
    }

    fn encode(self) -> u8 {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Avx2 => 2,
            SimdLevel::Avx512 => 3,
        }
    }

    fn decode(v: u8) -> Option<Self> {
        match v {
            1 => Some(SimdLevel::Scalar),
            2 => Some(SimdLevel::Avx2),
            3 => Some(SimdLevel::Avx512),
            _ => None,
        }
    }
}

/// Every level this host can execute, narrowest first.
#[must_use]
pub fn available_levels() -> Vec<SimdLevel> {
    [SimdLevel::Scalar, SimdLevel::Avx2, SimdLevel::Avx512]
        .into_iter()
        .filter(|l| l.is_available())
        .collect()
}

/// The resolved dispatch: 0 until first use, then the level's code in
/// the low bits plus [`SHA_NI_BIT`] — one load answers both [`level`]
/// and [`sha_ni`].
static LEVEL: AtomicU8 = AtomicU8::new(0);
/// Set in [`LEVEL`] when SHA-256 runs on the SHA extensions.
const SHA_NI_BIT: u8 = 0x80;

/// Whether this CPU reports every feature the SHA-extension block
/// function is compiled with.
fn cpu_has_sha_ni() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// The one rule for which SHA-256 block function a process runs: the
/// SHA extensions when the CPU has them, unless the process was
/// *pinned* to the scalar level. A `Scalar` that was merely detected
/// (no AVX2) leaves them on — they are 128-bit instructions that ride
/// on no vector level.
fn sha_ni_rule(level: SimdLevel, pinned: bool, cpu_has_it: bool) -> bool {
    cpu_has_it && !(pinned && level == SimdLevel::Scalar)
}

/// Whether a process *pinned* at `level` hashes SHA-256 with the SHA
/// extensions: the CPU must report `sha`, `ssse3` and `sse4.1`, and the
/// pin must not be the scalar one. (An unpinned process asks only the
/// CPU: see [`sha_ni`].)
#[must_use]
pub fn sha_ni_with(level: SimdLevel) -> bool {
    sha_ni_rule(level, true, cpu_has_sha_ni())
}

fn store_level(level: SimdLevel, pinned: bool) -> u8 {
    let sha_ni = sha_ni_rule(level, pinned, cpu_has_sha_ni());
    let resolved = level.encode() | if sha_ni { SHA_NI_BIT } else { 0 };
    LEVEL.store(resolved, Ordering::Relaxed);
    resolved
}

/// The resolved [`LEVEL`] byte, resolving it on first use.
#[inline]
fn resolved() -> u8 {
    match LEVEL.load(Ordering::Relaxed) {
        0 => init_level(),
        v => v,
    }
}

fn detect() -> SimdLevel {
    *available_levels()
        .last()
        .expect("scalar is always available")
}

/// The level a `REX_KERNEL=v` pin names; aborts on a value that is not
/// a level or that this host cannot execute.
fn pinned_level(v: &str) -> SimdLevel {
    let l = SimdLevel::parse(v).unwrap_or_else(|| panic!("REX_KERNEL={v}: expected scalar|avx2"));
    assert!(
        l.is_available(),
        "REX_KERNEL={v} requested but this host cannot execute it"
    );
    l
}

fn init_level() -> u8 {
    match std::env::var("REX_KERNEL") {
        Ok(v) => store_level(pinned_level(&v), true),
        Err(_) => store_level(detect(), false),
    }
}

/// The process-wide dispatch level: `REX_KERNEL` if set, else the
/// widest level this host can execute. Resolved once, then cached.
#[inline]
#[must_use]
pub fn level() -> SimdLevel {
    SimdLevel::decode(resolved() & !SHA_NI_BIT).expect("resolved level code")
}

/// Whether this process hashes SHA-256 with the SHA extensions: the CPU
/// has them and the process was not pinned to [`SimdLevel::Scalar`].
/// Resolved with the level, then cached.
#[inline]
#[must_use]
pub fn sha_ni() -> bool {
    resolved() & SHA_NI_BIT != 0
}

/// Pins the dispatch level in-process (bench/test hook), and the SHA-256
/// block function with it ([`sha_ni_with`]).
///
/// # Panics
/// When this host cannot execute `l`.
pub fn force_level(l: SimdLevel) {
    assert!(l.is_available(), "simd level {} unavailable", l.name());
    store_level(l, true);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_availability() {
        assert_eq!(SimdLevel::parse("scalar"), Some(SimdLevel::Scalar));
        assert_eq!(SimdLevel::parse("avx2"), Some(SimdLevel::Avx2));
        // The level this crate used to have between the two.
        assert_eq!(SimdLevel::parse("sse2"), None);
        // The widest level has a name but no pin (see the module doc).
        assert_eq!(SimdLevel::parse("avx512"), None);
        assert_eq!(SimdLevel::Avx512.name(), "avx512");
        let levels = available_levels();
        assert!(levels.contains(&SimdLevel::Scalar));
        assert!(levels.windows(2).all(|w| w[0] < w[1]), "narrowest first");
        for l in levels {
            assert!(l.is_available());
            let pin = (l != SimdLevel::Avx512).then_some(l);
            assert_eq!(SimdLevel::parse(l.name()), pin);
        }
        // Every host that detects the widest level runs the AVX2 bodies.
        if SimdLevel::Avx512.is_available() {
            assert!(SimdLevel::Avx2.is_available());
        }
        assert!(level().is_available());
    }

    #[test]
    #[should_panic(expected = "REX_KERNEL=sse2: expected scalar|avx2")]
    fn the_deleted_level_is_refused_as_a_pin() {
        pinned_level("sse2");
    }

    /// The extensions belong to the CPU, not to a vector level: only a
    /// scalar *pin* turns them off, and a `Scalar` that was detected
    /// (a CPU with SHA-NI and no AVX2) keeps them.
    #[test]
    fn sha_ni_follows_the_level_and_the_scalar_pin_disables_it() {
        for cpu in [false, true] {
            assert!(!sha_ni_rule(SimdLevel::Scalar, true, cpu));
            assert_eq!(sha_ni_rule(SimdLevel::Scalar, false, cpu), cpu);
            for vector in [SimdLevel::Avx2, SimdLevel::Avx512] {
                assert_eq!(sha_ni_rule(vector, true, cpu), cpu);
                assert_eq!(sha_ni_rule(vector, false, cpu), cpu);
            }
        }
        assert!(!sha_ni_with(SimdLevel::Scalar));
        assert_eq!(sha_ni_with(SimdLevel::Avx2), cpu_has_sha_ni());
        assert_eq!(sha_ni_with(SimdLevel::Avx512), cpu_has_sha_ni());
        // This process: pinned by `REX_KERNEL` or not at all (no unit
        // test of this crate calls `force_level`).
        let pinned = std::env::var_os("REX_KERNEL").is_some();
        assert_eq!(sha_ni(), sha_ni_rule(level(), pinned, cpu_has_sha_ni()));
    }
}
