//! Communication-graph substrate for the REX reproduction.
//!
//! The paper evaluates two topologies (§IV-A2): a **small world** (boost BGL
//! generator: 6 close connections per node, 3 % far-fetched probability) and
//! an **Erdős–Rényi** random graph (p = 5 %, made connected by adding the
//! missing edges). D-PSGD model merging additionally needs
//! **Metropolis–Hastings weights** over the graph (§III-C2). Churn
//! scenarios use [`repair`] to restore overlay connectivity after
//! crash-stop failures.

pub mod erdos_renyi;
pub mod graph;
pub mod metrics;
pub mod mh_weights;
pub mod repair;
pub mod small_world;

pub use erdos_renyi::erdos_renyi;
pub use graph::Graph;
pub use mh_weights::metropolis_hastings_weight;
pub use repair::{alive_connected, repair_after_crashes, without_nodes};
pub use small_world::small_world;

/// Close connections per node in the paper's small world (§IV-A2a):
/// [`TopologySpec::SmallWorld`] needs more nodes than this.
pub const SMALL_WORLD_K: usize = 6;

/// Named topology presets matching the paper's experimental setup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// Small world with the paper's parameters: k = 6, p_far = 3 %.
    SmallWorld,
    /// Erdős–Rényi with p = 5 %, connectivity-repaired.
    ErdosRenyi,
    /// Complete graph (paper §IV-C uses 8 fully connected nodes).
    FullyConnected,
    /// Ring — minimal connected topology, used by ablations.
    Ring,
}

impl TopologySpec {
    /// Builds the graph over `n` nodes with the given seed.
    ///
    /// # Panics
    /// For a small world over `n <= SMALL_WORLD_K` nodes.
    #[must_use]
    pub fn build(self, n: usize, seed: u64) -> Graph {
        match self {
            TopologySpec::SmallWorld => small_world(n, SMALL_WORLD_K, 0.03, seed),
            TopologySpec::ErdosRenyi => erdos_renyi(n, 0.05, seed),
            TopologySpec::FullyConnected => Graph::complete(n),
            TopologySpec::Ring => Graph::ring(n),
        }
    }

    /// Short label used in experiment output ("SW", "ER", ...).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TopologySpec::SmallWorld => "SW",
            TopologySpec::ErdosRenyi => "ER",
            TopologySpec::FullyConnected => "FC",
            TopologySpec::Ring => "RING",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_build_connected_graphs() {
        for spec in [
            TopologySpec::SmallWorld,
            TopologySpec::ErdosRenyi,
            TopologySpec::FullyConnected,
            TopologySpec::Ring,
        ] {
            let g = spec.build(50, 7);
            assert_eq!(g.len(), 50, "{}", spec.label());
            assert!(metrics::is_connected(&g), "{} disconnected", spec.label());
        }
    }

    #[test]
    fn labels_unique() {
        let labels = [
            TopologySpec::SmallWorld.label(),
            TopologySpec::ErdosRenyi.label(),
            TopologySpec::FullyConnected.label(),
            TopologySpec::Ring.label(),
        ];
        let set: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
    }
}
