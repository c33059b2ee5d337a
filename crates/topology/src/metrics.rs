//! Whole-graph distance metrics: diameter, mean distance, distance profile.

use crate::graph::LinkGraph;
use crate::routing::bfs_distances;
use serde::{Deserialize, Serialize};

/// Histogram of pairwise hop distances.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistanceProfile {
    /// `counts[d]` = number of ordered pairs at distance `d`.
    counts: Vec<u64>,
}

impl DistanceProfile {
    /// Number of ordered pairs at each distance, starting from 0.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Largest finite distance with a nonzero count.
    pub fn max_distance(&self) -> u32 {
        self.counts.iter().rposition(|&c| c > 0).unwrap_or(0) as u32
    }

    /// Mean distance over ordered pairs of *distinct* nodes.
    pub fn mean_distance(&self) -> f64 {
        let mut pairs = 0u64;
        let mut total = 0u64;
        for (d, &c) in self.counts.iter().enumerate() {
            if d > 0 {
                pairs += c;
                total += c * d as u64;
            }
        }
        if pairs == 0 {
            0.0
        } else {
            total as f64 / pairs as f64
        }
    }
}

/// Summary metrics of a link graph.
///
/// # Example
///
/// ```
/// use tpu_topology::{GraphMetrics, SliceShape, Torus};
///
/// let g = Torus::new(SliceShape::cube(4)?).into_graph();
/// let m = GraphMetrics::compute(&g);
/// assert_eq!(m.diameter(), 6); // 2 + 2 + 2 hops in a 4^3 torus
/// # Ok::<(), tpu_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphMetrics {
    diameter: u32,
    mean_distance: f64,
    connected: bool,
    profile: DistanceProfile,
}

impl GraphMetrics {
    /// Computes metrics with one BFS per node (O(N·E)).
    pub fn compute(graph: &LinkGraph) -> GraphMetrics {
        let mut counts: Vec<u64> = Vec::new();
        let mut connected = true;
        for s in graph.nodes() {
            for &d in &bfs_distances(graph, s) {
                if d == u32::MAX {
                    connected = false;
                    continue;
                }
                let d = d as usize;
                if counts.len() <= d {
                    counts.resize(d + 1, 0);
                }
                counts[d] += 1;
            }
        }
        let profile = DistanceProfile { counts };
        GraphMetrics {
            diameter: profile.max_distance(),
            mean_distance: profile.mean_distance(),
            connected,
            profile,
        }
    }

    /// Largest finite pairwise distance.
    pub fn diameter(&self) -> u32 {
        self.diameter
    }

    /// Mean pairwise distance over distinct reachable pairs.
    pub fn mean_distance(&self) -> f64 {
        self.mean_distance
    }

    /// The full distance histogram.
    pub fn profile(&self) -> &DistanceProfile {
        &self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mesh, SliceShape, Torus, TwistedTorus};

    #[test]
    fn ring_metrics() {
        let g = Torus::new(SliceShape::new(8, 1, 1).unwrap()).into_graph();
        let m = GraphMetrics::compute(&g);
        assert_eq!(m.diameter(), 4);
        assert!(m.connected);
        // Ring of 8: distances 1,2,3,4,3,2,1 per node -> mean 16/7.
        assert!((m.mean_distance() - 16.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn torus_diameter_is_sum_of_half_extents() {
        let g = Torus::new(SliceShape::new(4, 4, 8).unwrap()).into_graph();
        let m = GraphMetrics::compute(&g);
        assert_eq!(m.diameter(), 2 + 2 + 4);
    }

    #[test]
    fn twisted_torus_shrinks_diameter_of_4x4x8() {
        let shape = SliceShape::new(4, 4, 8).unwrap();
        let reg = GraphMetrics::compute(&Torus::new(shape).into_graph());
        let tw = GraphMetrics::compute(&TwistedTorus::paper_default(shape).unwrap().into_graph());
        assert!(tw.diameter() < reg.diameter());
        assert!(tw.mean_distance() < reg.mean_distance());
    }

    #[test]
    fn mesh_diameter_is_sum_of_extents_minus_one() {
        let g = Mesh::new(SliceShape::new(2, 2, 4).unwrap()).into_graph();
        let m = GraphMetrics::compute(&g);
        assert_eq!(m.diameter(), 1 + 1 + 3);
    }

    #[test]
    fn profile_counts_all_ordered_pairs() {
        let g = Torus::new(SliceShape::new(4, 4, 4).unwrap()).into_graph();
        let m = GraphMetrics::compute(&g);
        let total: u64 = m.profile().counts().iter().sum();
        assert_eq!(total, 64 * 64); // includes distance-0 self pairs
    }

    #[test]
    fn single_node_graph() {
        let g = Mesh::new(SliceShape::new(1, 1, 1).unwrap()).into_graph();
        let m = GraphMetrics::compute(&g);
        assert_eq!(m.diameter(), 0);
        assert_eq!(m.mean_distance(), 0.0);
        assert!(m.connected);
    }
}
