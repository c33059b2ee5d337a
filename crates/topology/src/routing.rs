//! Routing and path analysis over link graphs.
//!
//! Provides breadth-first hop distances and Brandes-style edge
//! betweenness (the per-link load of uniform all-to-all traffic split
//! evenly over all shortest paths, the "ideal minimal adaptive"
//! reference used for steady-state load modelling).

use crate::graph::{EdgeId, LinkGraph, NodeId};
use std::collections::VecDeque;

/// Distances (in hops) from a source to every node; `u32::MAX` marks
/// unreachable nodes.
///
/// # Panics
///
/// Panics if `src` is out of range for the graph.
pub fn bfs_distances(graph: &LinkGraph, src: NodeId) -> Vec<u32> {
    let n = graph.node_count();
    assert!(src.index() < n, "source {src} out of range");
    let mut dist = vec![u32::MAX; n];
    dist[src.index()] = 0;
    let mut queue = VecDeque::with_capacity(n);
    queue.push_back(src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.index()];
        for (v, _) in graph.neighbors(u) {
            if dist[v.index()] == u32::MAX {
                dist[v.index()] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// All-pairs hop distances. `result[s][t]` is the distance from node `s`
/// to node `t`. Cost is O(N·E); intended for slices up to a few thousand
/// chips.
pub fn all_pairs_distances(graph: &LinkGraph) -> Vec<Vec<u32>> {
    graph.nodes().map(|s| bfs_distances(graph, s)).collect()
}

/// Per-edge betweenness under uniform all-to-all traffic.
///
/// Every ordered pair `(s, t)` with `s ≠ t` contributes one unit of
/// traffic, split evenly across all shortest `s → t` paths (Brandes'
/// accumulation). The result indexes by [`EdgeId`]; summing it equals
/// `Σ_{s≠t} dist(s, t)`.
///
/// This is the steady-state per-link load of an ideal minimal adaptive
/// router, the reference model for Figure 6's all-to-all measurements.
pub fn edge_betweenness(graph: &LinkGraph) -> Vec<f64> {
    let n = graph.node_count();
    let mut load = vec![0.0f64; graph.edge_count()];
    // Scratch buffers reused across sources.
    let mut sigma = vec![0.0f64; n];
    let mut dist = vec![u32::MAX; n];
    let mut delta = vec![0.0f64; n];
    let mut order: Vec<NodeId> = Vec::with_capacity(n);
    let mut preds: Vec<Vec<EdgeId>> = vec![Vec::new(); n];

    for s in graph.nodes() {
        sigma.fill(0.0);
        dist.fill(u32::MAX);
        delta.fill(0.0);
        order.clear();
        for p in preds.iter_mut() {
            p.clear();
        }

        sigma[s.index()] = 1.0;
        dist[s.index()] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            let du = dist[u.index()];
            for (v, eid) in graph.neighbors(u) {
                if dist[v.index()] == u32::MAX {
                    dist[v.index()] = du + 1;
                    queue.push_back(v);
                }
                if dist[v.index()] == du + 1 {
                    sigma[v.index()] += sigma[u.index()];
                    preds[v.index()].push(eid);
                }
            }
        }

        for &w in order.iter().rev() {
            if w == s {
                continue;
            }
            let coeff = (1.0 + delta[w.index()]) / sigma[w.index()];
            for &eid in &preds[w.index()] {
                let v = graph.edge(eid).src;
                let c = sigma[v.index()] * coeff;
                load[eid.index()] += c;
                delta[v.index()] += c;
            }
        }
    }
    load
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SliceShape, Torus, TwistedTorus};

    fn ring(n: u32) -> LinkGraph {
        Torus::new(SliceShape::new(n, 1, 1).unwrap()).into_graph()
    }

    #[test]
    fn bfs_on_ring() {
        let g = ring(6);
        let d = bfs_distances(&g, NodeId::new(0));
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1]);
    }

    #[test]
    fn betweenness_sums_to_total_distance() {
        for g in [
            ring(5),
            Torus::new(SliceShape::new(4, 4, 1).unwrap()).into_graph(),
            TwistedTorus::paper_default(SliceShape::new(2, 2, 4).unwrap())
                .unwrap()
                .into_graph(),
        ] {
            let bw = edge_betweenness(&g);
            let total: f64 = bw.iter().sum();
            let dists = all_pairs_distances(&g);
            let expect: u64 = dists
                .iter()
                .flat_map(|row| row.iter().map(|&d| u64::from(d)))
                .sum();
            assert!(
                (total - expect as f64).abs() < 1e-6,
                "{}: {total} vs {expect}",
                g.name()
            );
        }
    }

    #[test]
    fn betweenness_uniform_on_vertex_transitive_ring() {
        let g = ring(8);
        let bw = edge_betweenness(&g);
        let first = bw[0];
        for &b in &bw {
            assert!((b - first).abs() < 1e-9, "ring betweenness must be uniform");
        }
    }
}
