//! The design choices of DESIGN.md §5, checked by sweeping them: the
//! twisted torus's wraparound offset, and the all-shortest-paths routing
//! assumption behind the Figure 6 gains.

use tpuv4::net::{all_to_all_flows, AllToAll, LinkLoads, LinkRate};
use tpuv4::topology::{Coord3, SliceShape, TwistSpec, TwistedTorus};

/// All-to-all throughput per node of `shape` when wrapping x or y
/// shifts z by `offset`.
fn twisted_throughput(shape: SliceShape, offset: u32) -> f64 {
    let shift = Coord3::new(0, 0, offset);
    let spec = TwistSpec::new(shape, [shift, shift, Coord3::default()]).unwrap();
    let graph = TwistedTorus::new(shape, spec).into_graph();
    AllToAll::analyze(&graph, 4096, LinkRate::TPU_V4_ICI).throughput_per_node()
}

#[test]
fn twist_offset_k_uniquely_maximizes_all_to_all_throughput() {
    // §2.8: a k×k×2k slice twists its x and y wraps by k in z (k = 4).
    let shape = SliceShape::new(4, 4, 8).unwrap();
    let rates: Vec<f64> = (0..8)
        .map(|offset| twisted_throughput(shape, offset))
        .collect();
    for (offset, &rate) in rates.iter().enumerate() {
        if offset != 4 {
            assert!(rate < rates[4], "offset {offset}: {rate} vs {rates:?}");
        }
        if offset != 0 {
            assert!(rate > rates[0], "offset {offset}: {rate} vs {rates:?}");
        }
    }
}

#[test]
fn hashed_single_path_routing_overloads_the_busiest_link() {
    // The load model splits each pair's traffic evenly over all of its
    // shortest paths (minimal adaptive routing). Pinning each pair to
    // one hashed shortest path loads the busiest link of a twisted
    // 4×4×8 at least 1.25× as heavily.
    let shape = SliceShape::new(4, 4, 8).unwrap();
    let graph = TwistedTorus::paper_default(shape).unwrap().into_graph();
    let split = LinkLoads::uniform_all_to_all(&graph, 1.0).max_bytes();
    let mut per_edge = vec![0.0; graph.edge_count()];
    for flow in all_to_all_flows(&graph, 1.0) {
        for edge in flow.path {
            per_edge[edge.index()] += flow.bytes;
        }
    }
    let hashed = per_edge.into_iter().fold(0.0, f64::max);
    assert!(
        hashed >= 1.25 * split,
        "hashed single-path {hashed} vs all-shortest-paths {split}"
    );
}
