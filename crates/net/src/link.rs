//! Link model: converts message sizes to simulated transfer time.
//!
//! The simulator's time axis (Figs 1–4) combines measured compute with
//! modelled network time; this is the network part. Defaults model the
//! paper's LAN testbed (gigabit-class links between servers).

/// Latency/bandwidth model of one link class (all links identical, matching
/// the paper's homogeneous cluster).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// One-way propagation + protocol latency per message, ns.
    pub latency_ns: u64,
    /// Sustained throughput in bytes/second.
    pub bandwidth_bytes_per_sec: f64,
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel {
            latency_ns: 100_000,                              // 100 µs
            bandwidth_bytes_per_sec: 117.0 * 1024.0 * 1024.0, // ~1 Gbps effective
        }
    }
}

impl LinkModel {
    /// An effectively infinite link (for ablations isolating compute).
    #[must_use]
    pub fn infinite() -> Self {
        LinkModel {
            latency_ns: 0,
            bandwidth_bytes_per_sec: f64::INFINITY,
        }
    }

    /// Simulated time to transfer one `bytes`-sized message, ns.
    #[must_use]
    pub fn transfer_ns(&self, bytes: u64) -> u64 {
        let serialization = if self.bandwidth_bytes_per_sec.is_finite() {
            (bytes as f64 / self.bandwidth_bytes_per_sec * 1e9) as u64
        } else {
            0
        };
        self.latency_ns + serialization
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_with_size() {
        let link = LinkModel::default();
        let small = link.transfer_ns(1_000);
        let large = link.transfer_ns(1_000_000);
        assert!(large > small);
        // A 420 KiB MF model takes ~3.6 ms at ~1 Gbps.
        let model_ns = link.transfer_ns(430_000);
        assert!(model_ns > 3_000_000 && model_ns < 5_000_000, "{model_ns}");
        // A 3.6 KiB rating batch is latency-dominated.
        let batch_ns = link.transfer_ns(3_600);
        assert!(batch_ns < 200_000, "{batch_ns}");
    }

    #[test]
    fn infinite_link_is_free() {
        let link = LinkModel::infinite();
        assert_eq!(link.transfer_ns(u64::MAX / 2), 0);
    }
}
