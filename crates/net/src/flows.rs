//! Compiling collective operations into explicit flows for the
//! discrete-event simulator.

use tpu_topology::{EdgeId, LinkGraph, NodeId};

/// A point-to-point transfer pinned to an explicit path.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Bytes to move.
    pub bytes: f64,
    /// Directed edges traversed, in order.
    pub path: Vec<EdgeId>,
}

/// A small deterministic mixer used to break shortest-path ties without
/// pulling in a RNG dependency (splitmix64 finalizer).
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Extracts one shortest path per pair by walking greedily towards the
/// destination, hashing (src, dst, position) to pick among the admissible
/// next hops. This spreads equal-cost paths far more evenly than a fixed
/// BFS forest would, approximating the per-connection hashing real routers
/// perform.
fn hashed_shortest_path(
    graph: &LinkGraph,
    dist_to: &[Vec<u32>],
    src: NodeId,
    dst: NodeId,
) -> Vec<EdgeId> {
    let mut path = Vec::new();
    let mut cur = src;
    let mut step = 0u64;
    while cur != dst {
        let remaining = dist_to[dst.index()][cur.index()];
        let candidates: Vec<EdgeId> = graph
            .outgoing(cur)
            .expect("node in range") // tpu-lint: allow(panic-policy) -- unreachable: node in range
            .iter()
            .copied()
            .filter(|&eid| {
                let v = graph.edge(eid).dst;
                dist_to[dst.index()][v.index()] + 1 == remaining
            })
            .collect();
        assert!(!candidates.is_empty(), "graph not strongly connected");
        let pick = mix((src.index() as u64) << 40
            ^ (dst.index() as u64) << 20
            ^ (cur.index() as u64)
            ^ step) as usize
            % candidates.len();
        let eid = candidates[pick];
        path.push(eid);
        cur = graph.edge(eid).dst;
        step += 1;
    }
    path
}

/// Flows for a uniform all-to-all where every ordered pair exchanges
/// `bytes_per_pair` bytes, each routed on one hash-selected shortest path.
pub fn all_to_all_flows(graph: &LinkGraph, bytes_per_pair: f64) -> Vec<Flow> {
    let dist = tpu_topology::all_pairs_distances(graph);
    let mut flows = Vec::with_capacity(graph.node_count() * (graph.node_count() - 1));
    for src in graph.nodes() {
        for dst in graph.nodes() {
            if src == dst {
                continue;
            }
            flows.push(Flow {
                src,
                dst,
                bytes: bytes_per_pair,
                path: hashed_shortest_path(graph, &dist, src, dst),
            });
        }
    }
    flows
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_topology::{SliceShape, Torus};

    fn torus_4x4() -> LinkGraph {
        Torus::new(SliceShape::new(4, 4, 1).unwrap()).into_graph()
    }

    #[test]
    fn all_to_all_flow_count() {
        let g = torus_4x4();
        let flows = all_to_all_flows(&g, 128.0);
        assert_eq!(flows.len(), 16 * 15);
        assert!(flows.iter().all(|f| f.bytes == 128.0));
    }

    #[test]
    fn all_to_all_paths_are_shortest_and_contiguous() {
        let g = torus_4x4();
        let dists = tpu_topology::all_pairs_distances(&g);
        for f in all_to_all_flows(&g, 1.0) {
            assert_eq!(
                f.path.len() as u32,
                dists[f.src.index()][f.dst.index()],
                "{} -> {}",
                f.src,
                f.dst
            );
            let mut cur = f.src;
            for &eid in &f.path {
                let e = g.edge(eid);
                assert_eq!(e.src, cur);
                cur = e.dst;
            }
            assert_eq!(cur, f.dst);
        }
    }

    #[test]
    fn tie_breaking_rotates_with_source() {
        // On a symmetric torus, different sources should not all pick the
        // same first-dimension edge ordering.
        let g = torus_4x4();
        let flows = all_to_all_flows(&g, 1.0);
        let mut counts = vec![0u32; g.edge_count()];
        for f in &flows {
            for &eid in &f.path {
                counts[eid.index()] += 1;
            }
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(
            max / min.max(1.0) < 4.0,
            "deterministic paths too lopsided: min {min}, max {max}"
        );
    }
}
