//! Mapping collectives onto torus rings.
//!
//! A 3D torus decomposes into edge-disjoint rings along each dimension —
//! the structure that makes all-reduce "map well to 2D and 3D tori"
//! (§1). This module enumerates those rings and compiles multi-ring
//! all-reduces into flows for the event simulator, validating the
//! analytic torus schedule of [`crate::schedule::torus_all_reduce`].

use crate::flows::{ring_all_reduce_flows, Flow};
use serde::{Deserialize, Serialize};
use tpu_topology::{Dim, LinkGraph, NodeId, SliceShape};

/// The rings of one torus dimension: one ring per line of nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DimensionRings {
    dim: Dim,
    rings: Vec<Vec<NodeId>>,
}

impl DimensionRings {
    /// Enumerates the rings along `dim` for a torus of `shape`.
    pub fn of(shape: SliceShape, dim: Dim) -> DimensionRings {
        let extent = shape.extent(dim);
        let mut rings = Vec::new();
        let (a, b) = match dim {
            Dim::X => (Dim::Y, Dim::Z),
            Dim::Y => (Dim::X, Dim::Z),
            Dim::Z => (Dim::X, Dim::Y),
        };
        for va in 0..shape.extent(a) {
            for vb in 0..shape.extent(b) {
                let mut ring = Vec::with_capacity(extent as usize);
                for pos in 0..extent {
                    let coord = tpu_topology::Coord3::default()
                        .with(a, va)
                        .with(b, vb)
                        .with(dim, pos);
                    ring.push(NodeId::new(shape.index_of(coord)));
                }
                rings.push(ring);
            }
        }
        DimensionRings { dim, rings }
    }

    /// The dimension these rings run along.
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// The rings (each a cycle of node ids in ring order).
    pub fn rings(&self) -> &[Vec<NodeId>] {
        &self.rings
    }

    /// Compiles a reduce-scatter+all-gather pass of `bytes` per ring
    /// member into flows (all rings run concurrently).
    pub fn all_reduce_flows(&self, graph: &LinkGraph, bytes: f64) -> Vec<Flow> {
        self.rings
            .iter()
            .filter(|r| r.len() >= 2)
            .flat_map(|ring| ring_all_reduce_flows(graph, ring, bytes))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FlowSim;
    use crate::units::LinkRate;
    use tpu_topology::Torus;

    #[test]
    fn ring_counts_match_cross_sections() {
        let shape = SliceShape::new(4, 4, 8).unwrap();
        assert_eq!(DimensionRings::of(shape, Dim::X).rings().len(), 32); // 4*8
        assert_eq!(DimensionRings::of(shape, Dim::Y).rings().len(), 32);
        assert_eq!(DimensionRings::of(shape, Dim::Z).rings().len(), 16); // 4*4
    }

    #[test]
    fn rings_partition_the_nodes() {
        let shape = SliceShape::new(4, 4, 4).unwrap();
        let rings = DimensionRings::of(shape, Dim::Z);
        let mut seen = std::collections::HashSet::new();
        for ring in rings.rings() {
            assert_eq!(ring.len(), 4);
            for &n in ring {
                assert!(seen.insert(n), "node {n} in two rings");
            }
        }
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn ring_members_are_adjacent_in_the_graph() {
        let shape = SliceShape::new(4, 4, 8).unwrap();
        let graph = Torus::new(shape).into_graph();
        let rings = DimensionRings::of(shape, Dim::Z);
        for ring in rings.rings() {
            for (i, &n) in ring.iter().enumerate() {
                let next = ring[(i + 1) % ring.len()];
                assert!(
                    graph.neighbors(n).any(|(v, _)| v == next),
                    "{n} not adjacent to {next}"
                );
            }
        }
    }

    #[test]
    fn simulated_ring_all_reduce_matches_analytic() {
        // Concurrent rings along one dimension: the event simulator must
        // land on the analytic single-direction ring time (the analytic
        // both-directions model is 2x faster; see flows::tests).
        let shape = SliceShape::new(4, 4, 4).unwrap();
        let graph = Torus::new(shape).into_graph();
        let rings = DimensionRings::of(shape, Dim::X);
        let bytes = 1e8;
        let flows = rings.all_reduce_flows(&graph, bytes);
        let report = FlowSim::new(&graph, LinkRate::TPU_V4_ICI).run(&flows);
        let expect = 2.0 * 3.0 / 4.0 * bytes / 50e9; // per-hop stream time
        assert!(
            (report.completion_time() - expect).abs() / expect < 1e-6,
            "{} vs {expect}",
            report.completion_time()
        );
    }

    #[test]
    fn degenerate_dimension_yields_no_flows() {
        let shape = SliceShape::new(1, 4, 4).unwrap();
        let graph = Torus::new(shape).into_graph();
        let rings = DimensionRings::of(shape, Dim::X);
        assert!(rings.all_reduce_flows(&graph, 1e6).is_empty());
    }
}
