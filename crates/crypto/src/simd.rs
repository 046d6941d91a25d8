//! Runtime SIMD dispatch for the crypto kernels.
//!
//! Mirrors `rex_ml::kernel`'s dispatch contract (the crypto crate stays
//! dependency-free, so the ~50 lines are deliberately duplicated): the
//! widest available x86_64 instruction set is detected once per process
//! via `is_x86_feature_detected!`, and the `REX_KERNEL` environment
//! variable (`scalar` | `sse2` | `avx2`) pins the level for testing.
//! Requesting an unavailable level aborts rather than silently
//! degrading. Unlike the float kernels, every ChaCha20 path is integer
//! arithmetic, so bit-exactness across levels is structural — the
//! parity suite pins it anyway.
//!
//! SHA-256 rides the same resolution and adds no level of its own: the
//! SHA-extension block function ([`sha_ni`]) runs whenever the CPU
//! reports `sha` + `ssse3` + `sse4.1` and the level is not
//! [`SimdLevel::Scalar`], so `REX_KERNEL=scalar` pins the scalar
//! reference for both ciphers and hashes.

use std::sync::atomic::{AtomicU8, Ordering};

/// A crypto-kernel dispatch level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar reference.
    Scalar,
    /// 4-blocks-wide 128-bit x86_64 path (baseline on x86_64).
    Sse2,
    /// 8-blocks-wide 256-bit x86_64 path (runtime-detected).
    Avx2,
}

impl SimdLevel {
    /// Parses a `REX_KERNEL` value.
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "scalar" => Some(SimdLevel::Scalar),
            "sse2" => Some(SimdLevel::Sse2),
            "avx2" => Some(SimdLevel::Avx2),
            _ => None,
        }
    }

    /// The level's `REX_KERNEL` spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse2 => "sse2",
            SimdLevel::Avx2 => "avx2",
        }
    }

    /// Whether this host can execute the level.
    #[must_use]
    pub fn is_available(self) -> bool {
        match self {
            SimdLevel::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Sse2 => true,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    fn encode(self) -> u8 {
        match self {
            SimdLevel::Scalar => 1,
            SimdLevel::Sse2 => 2,
            SimdLevel::Avx2 => 3,
        }
    }

    fn decode(v: u8) -> Option<Self> {
        match v {
            1 => Some(SimdLevel::Scalar),
            2 => Some(SimdLevel::Sse2),
            3 => Some(SimdLevel::Avx2),
            _ => None,
        }
    }
}

/// Every level this host can execute, narrowest first.
#[must_use]
pub fn available_levels() -> Vec<SimdLevel> {
    [SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2]
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

/// Whether a process pinned at `level` hashes SHA-256 with the SHA
/// extensions: the CPU must report `sha`, `ssse3` and `sse4.1`, and the
/// level must not be the scalar pin.
#[must_use]
pub fn sha_ni_with(level: SimdLevel) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        level != SimdLevel::Scalar
            && is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = level;
        false
    }
}

fn store_level(level: SimdLevel) -> u8 {
    let sha = if sha_ni_with(level) { SHA_NI_BIT } else { 0 };
    let resolved = level.encode() | sha;
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
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else {
            SimdLevel::Sse2
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    SimdLevel::Scalar
}

fn init_level() -> u8 {
    let level = match std::env::var("REX_KERNEL") {
        Ok(v) => {
            let l = SimdLevel::parse(&v)
                .unwrap_or_else(|| panic!("REX_KERNEL={v}: expected scalar|sse2|avx2"));
            assert!(
                l.is_available(),
                "REX_KERNEL={v} requested but this host cannot execute it"
            );
            l
        }
        Err(_) => detect(),
    };
    store_level(level)
}

/// The process-wide dispatch level: `REX_KERNEL` if set, else the
/// widest detected instruction set. Resolved once, then cached.
#[inline]
#[must_use]
pub fn level() -> SimdLevel {
    SimdLevel::decode(resolved() & !SHA_NI_BIT).expect("resolved level code")
}

/// Whether this process hashes SHA-256 with the SHA extensions
/// ([`sha_ni_with`] of the process-wide [`level`]). Resolved with the
/// level, then cached.
#[inline]
#[must_use]
pub fn sha_ni() -> bool {
    resolved() & SHA_NI_BIT != 0
}

/// Pins the dispatch level in-process (bench/test hook).
///
/// # Panics
/// When this host cannot execute `l`.
pub fn force_level(l: SimdLevel) {
    assert!(l.is_available(), "simd level {} unavailable", l.name());
    store_level(l);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_availability() {
        assert_eq!(SimdLevel::parse("scalar"), Some(SimdLevel::Scalar));
        assert_eq!(SimdLevel::parse("sse2"), Some(SimdLevel::Sse2));
        assert_eq!(SimdLevel::parse("avx2"), Some(SimdLevel::Avx2));
        assert_eq!(SimdLevel::parse("avx512"), None);
        let levels = available_levels();
        assert!(levels.contains(&SimdLevel::Scalar));
        for l in levels {
            assert!(l.is_available());
            assert_eq!(SimdLevel::parse(l.name()), Some(l));
        }
        assert!(level().is_available());
    }

    #[test]
    fn sha_ni_follows_the_level_and_the_scalar_pin_disables_it() {
        assert!(!sha_ni_with(SimdLevel::Scalar));
        assert_eq!(sha_ni(), sha_ni_with(level()));
        for l in available_levels() {
            if l != SimdLevel::Scalar {
                assert_eq!(sha_ni_with(l), sha_ni_with(SimdLevel::Sse2));
            }
        }
    }
}
