//! Steady-state per-link load assignment.
//!
//! For bandwidth-bound traffic in steady state (Figure 6's regime: "large
//! aggregate transfer size" with 4 KiB DMAs), completion time equals the
//! most-loaded link's drain time under an ideal minimal adaptive router.
//! Loads come from [`tpu_topology::edge_betweenness`], which splits each
//! pair's traffic evenly across all shortest paths.

use crate::units::LinkRate;
use serde::{Deserialize, Serialize};
use tpu_topology::{edge_betweenness, Bisection, LinkGraph};

/// Per-directed-edge byte loads over a link graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkLoads {
    loads: Vec<f64>,
}

impl LinkLoads {
    /// Loads for uniform all-to-all traffic where every ordered pair
    /// exchanges `bytes_per_pair` bytes.
    pub fn uniform_all_to_all(graph: &LinkGraph, bytes_per_pair: f64) -> LinkLoads {
        let mut loads = edge_betweenness(graph);
        for l in loads.iter_mut() {
            *l *= bytes_per_pair;
        }
        LinkLoads { loads }
    }

    /// Per-edge loads in bytes.
    pub fn as_slice(&self) -> &[f64] {
        &self.loads
    }

    /// The heaviest per-edge load in bytes.
    pub fn max_bytes(&self) -> f64 {
        self.loads.iter().copied().fold(0.0, f64::max)
    }

    /// Steady-state completion time: heaviest link load divided by rate.
    pub fn completion_time(&self, rate: LinkRate) -> f64 {
        self.max_bytes() / rate.bytes_per_s()
    }
}

/// All-to-all throughput analysis of a topology (the Figure 6 experiment).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AllToAll {
    nodes: usize,
    bytes_per_pair: f64,
    completion_time: f64,
    ideal_time: f64,
    bisection_links: u64,
}

impl AllToAll {
    /// Analyzes uniform all-to-all of `bytes_per_pair` bytes between every
    /// ordered pair of nodes at the given link rate.
    ///
    /// `completion_time` uses the betweenness load model; `ideal_time` is
    /// the bisection lower bound (N²/4 pairs must cross each way), the
    /// "theoretical delta from the ideal peak" stacked bar in Figure 6.
    pub fn analyze(graph: &LinkGraph, bytes_per_pair: u64, rate: LinkRate) -> AllToAll {
        AllToAll::analyze_fractional(graph, bytes_per_pair as f64, rate)
    }

    /// [`AllToAll::analyze`] for a fractional per-pair payload.
    ///
    /// The load model is linear in `bytes_per_pair`, so sub-byte payloads
    /// (e.g. a fixed total budget divided across `n²` pairs in a scaling
    /// sweep) are meaningful and must not round to a free collective.
    pub fn analyze_fractional(graph: &LinkGraph, bytes_per_pair: f64, rate: LinkRate) -> AllToAll {
        let n = graph.node_count();
        let bytes = bytes_per_pair;
        let loads = LinkLoads::uniform_all_to_all(graph, bytes);
        let completion_time = loads.completion_time(rate);

        let bisection_links = if n >= 2 {
            Bisection::plane_cut(graph).min_links()
        } else {
            0
        };
        // (n/2)·(n/2) ordered pairs cross the cut in each direction; the
        // cut provides `bisection_links` directed edges each way.
        let ideal_time = if bisection_links == 0 {
            0.0
        } else {
            let crossing_each_way = (n as f64 / 2.0) * (n as f64 / 2.0) * bytes;
            crossing_each_way / (bisection_links as f64 * rate.bytes_per_s())
        };
        AllToAll {
            nodes: n,
            bytes_per_pair: bytes,
            completion_time,
            ideal_time,
            bisection_links,
        }
    }

    /// Modelled completion time in seconds.
    pub fn completion_time(&self) -> f64 {
        self.completion_time
    }

    /// Bisection-bound lower-bound completion time in seconds.
    pub fn ideal_time(&self) -> f64 {
        self.ideal_time
    }

    /// Per-node goodput in bytes/s: each node receives from N−1 peers.
    pub fn throughput_per_node(&self) -> f64 {
        if self.completion_time == 0.0 {
            return 0.0;
        }
        (self.nodes as f64 - 1.0) * self.bytes_per_pair / self.completion_time
    }

    /// Achieved fraction of the bisection-bound ideal (≤ 1).
    pub fn fraction_of_ideal(&self) -> f64 {
        if self.completion_time == 0.0 {
            return 1.0;
        }
        self.ideal_time / self.completion_time
    }

    /// Bidirectional links across the minimum bisection.
    pub fn bisection_links(&self) -> u64 {
        self.bisection_links
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_topology::{SliceShape, Torus, TwistedTorus};

    #[test]
    fn loads_scale_linearly_with_message_size() {
        let g = Torus::new(SliceShape::new(4, 4, 1).unwrap()).into_graph();
        let a = LinkLoads::uniform_all_to_all(&g, 1.0);
        let b = LinkLoads::uniform_all_to_all(&g, 2.0);
        assert!((b.max_bytes() - 2.0 * a.max_bytes()).abs() < 1e-9);
        let byte_hops = |l: &LinkLoads| l.as_slice().iter().sum::<f64>();
        assert!((byte_hops(&b) - 2.0 * byte_hops(&a)).abs() < 1e-6);
    }

    /// Mean link load relative to the bottleneck link (1.0 = every link
    /// equally loaded).
    fn balance(loads: &LinkLoads) -> f64 {
        let per_edge = loads.as_slice();
        per_edge.iter().sum::<f64>() / per_edge.len() as f64 / loads.max_bytes()
    }

    #[test]
    fn symmetric_torus_is_perfectly_balanced() {
        let g = Torus::new(SliceShape::new(4, 4, 4).unwrap()).into_graph();
        let loads = LinkLoads::uniform_all_to_all(&g, 1.0);
        assert!(balance(&loads) > 0.999, "balance = {}", balance(&loads));
    }

    #[test]
    fn rectangular_torus_is_imbalanced() {
        let g = Torus::new(SliceShape::new(4, 4, 16).unwrap()).into_graph();
        let loads = LinkLoads::uniform_all_to_all(&g, 1.0);
        assert!(
            balance(&loads) < 0.9,
            "long z must dominate: {}",
            balance(&loads)
        );
    }

    #[test]
    fn twisted_beats_regular_on_4x4x8() {
        let shape = SliceShape::new(4, 4, 8).unwrap();
        let rate = LinkRate::TPU_V4_ICI;
        let reg = AllToAll::analyze(&Torus::new(shape).into_graph(), 4096, rate);
        let tw = AllToAll::analyze(
            &TwistedTorus::paper_default(shape).unwrap().into_graph(),
            4096,
            rate,
        );
        let gain = tw.throughput_per_node() / reg.throughput_per_node();
        // Paper Figure 6: 1.63x. Accept the model within a generous band.
        assert!(gain > 1.3 && gain < 2.0, "gain = {gain}");
    }

    #[test]
    fn twisted_beats_regular_on_4x8x8() {
        let shape = SliceShape::new(4, 8, 8).unwrap();
        let rate = LinkRate::TPU_V4_ICI;
        let reg = AllToAll::analyze(&Torus::new(shape).into_graph(), 4096, rate);
        let tw = AllToAll::analyze(
            &TwistedTorus::paper_default(shape).unwrap().into_graph(),
            4096,
            rate,
        );
        let gain = tw.throughput_per_node() / reg.throughput_per_node();
        // Paper Figure 6: 1.31x.
        assert!(gain > 1.1 && gain < 1.7, "gain = {gain}");
    }

    #[test]
    fn completion_never_beats_ideal() {
        for shape in [
            SliceShape::new(4, 4, 8).unwrap(),
            SliceShape::new(4, 8, 8).unwrap(),
            SliceShape::new(4, 4, 4).unwrap(),
        ] {
            let a = AllToAll::analyze(&Torus::new(shape).into_graph(), 1024, LinkRate::TPU_V4_ICI);
            assert!(
                a.completion_time() >= a.ideal_time() * (1.0 - 1e-9),
                "{shape}: {} < {}",
                a.completion_time(),
                a.ideal_time()
            );
            assert!(a.fraction_of_ideal() <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn throughput_consistent_with_time() {
        let g = Torus::new(SliceShape::new(4, 4, 4).unwrap()).into_graph();
        let a = AllToAll::analyze(&g, 4096, LinkRate::TPU_V4_ICI);
        let expect = 63.0 * 4096.0 / a.completion_time();
        assert!((a.throughput_per_node() - expect).abs() < 1e-6);
    }
}
