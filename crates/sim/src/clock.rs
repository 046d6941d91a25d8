//! Virtual time.

/// A monotonically advancing virtual clock, in nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct VirtualClock {
    now_ns: u64,
}

impl VirtualClock {
    /// Clock at t = 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time, ns.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Current virtual time, seconds.
    #[must_use]
    pub fn now_secs(&self) -> f64 {
        self.now_ns as f64 / 1e9
    }

    /// Advances by `delta_ns`.
    pub fn advance(&mut self, delta_ns: u64) {
        self.now_ns = self
            .now_ns
            .checked_add(delta_ns)
            .expect("virtual clock overflow");
    }

    /// Jumps forward to `t_ns` (no-op if already past it).
    pub fn advance_to(&mut self, t_ns: u64) {
        self.now_ns = self.now_ns.max(t_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_monotonically() {
        let mut c = VirtualClock::new();
        c.advance(10);
        c.advance(5);
        assert_eq!(c.now_ns(), 15);
        c.advance_to(12); // already past: no-op
        assert_eq!(c.now_ns(), 15);
        c.advance_to(20);
        assert_eq!(c.now_ns(), 20);
        assert!((c.now_secs() - 2e-8).abs() < 1e-20);
    }
}
