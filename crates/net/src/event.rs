//! Discrete-event flow simulator with max-min fair bandwidth sharing.
//!
//! Validates the steady-state load model: flows progress at the max-min
//! fair rates implied by their paths, rates are recomputed at every flow
//! completion, and the simulation reports per-flow finish times. This is
//! the "event-driven simulator" role of §7.3, operating at transfer
//! granularity rather than TensorFlow-op granularity.

use crate::flows::Flow;
use crate::units::LinkRate;
use tpu_topology::LinkGraph;

/// Result of simulating a set of flows.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    completion_time: f64,
    flow_finish_times: Vec<f64>,
    events: usize,
}

impl SimReport {
    /// Time at which the last flow finished, in seconds.
    pub fn completion_time(&self) -> f64 {
        self.completion_time
    }

    /// Per-flow finish times, indexed like the input flow slice.
    pub fn flow_finish_times(&self) -> &[f64] {
        &self.flow_finish_times
    }

    /// Number of rate-recomputation events processed.
    pub fn events(&self) -> usize {
        self.events
    }
}

/// Max-min fair flow-level simulator over a link graph.
#[derive(Debug, Clone)]
pub struct FlowSim<'g> {
    graph: &'g LinkGraph,
    rate: LinkRate,
}

impl<'g> FlowSim<'g> {
    /// Creates a simulator where every directed edge carries `rate`.
    pub fn new(graph: &'g LinkGraph, rate: LinkRate) -> FlowSim<'g> {
        FlowSim { graph, rate }
    }

    /// Computes max-min fair rates for the active flows.
    ///
    /// `active[i]` indexes into `flows`. Returns rates aligned to `active`.
    fn fair_rates(&self, flows: &[Flow], active: &[usize]) -> Vec<f64> {
        let edge_count = self.graph.edge_count();
        let mut residual = vec![self.rate.bytes_per_s(); edge_count];
        let mut unfixed_on_edge = vec![0u32; edge_count];
        for &fi in active {
            for &eid in &flows[fi].path {
                unfixed_on_edge[eid.index()] += 1;
            }
        }
        let mut rates = vec![0.0f64; active.len()];
        let mut fixed = vec![false; active.len()];
        let mut remaining = active
            .iter()
            .enumerate()
            .filter(|(_, &fi)| !flows[fi].path.is_empty())
            .map(|(ai, _)| ai)
            .collect::<Vec<_>>();
        // Flows with empty paths (src == dst) complete instantly; give them
        // an effectively infinite rate.
        for (ai, &fi) in active.iter().enumerate() {
            if flows[fi].path.is_empty() {
                rates[ai] = f64::INFINITY;
                fixed[ai] = true;
            }
        }

        while !remaining.is_empty() {
            // Bottleneck fair share: min over edges with unfixed flows.
            let mut share = f64::INFINITY;
            for e in 0..edge_count {
                if unfixed_on_edge[e] > 0 {
                    share = share.min(residual[e] / f64::from(unfixed_on_edge[e]));
                }
            }
            if !share.is_finite() {
                break;
            }
            // Fix every unfixed flow that crosses a bottleneck edge.
            let mut still = Vec::with_capacity(remaining.len());
            let mut newly_fixed = Vec::new();
            for &ai in &remaining {
                let fi = active[ai];
                let bottlenecked = flows[fi].path.iter().any(|&eid| {
                    let e = eid.index();
                    unfixed_on_edge[e] > 0
                        && (residual[e] / f64::from(unfixed_on_edge[e]) - share).abs()
                            // tpu-lint: allow(unit-hygiene) -- relative/absolute comparison epsilon, not a unit conversion
                            < share * 1e-9 + 1e-12
                });
                if bottlenecked {
                    newly_fixed.push(ai);
                } else {
                    still.push(ai);
                }
            }
            if newly_fixed.is_empty() {
                // Numerical corner: fix everything at the current share.
                newly_fixed = remaining.clone();
                still.clear();
            }
            for &ai in &newly_fixed {
                rates[ai] = share;
                fixed[ai] = true;
                for &eid in &flows[active[ai]].path {
                    let e = eid.index();
                    residual[e] -= share;
                    if residual[e] < 0.0 {
                        residual[e] = 0.0;
                    }
                    unfixed_on_edge[e] -= 1;
                }
            }
            remaining = still;
        }
        rates
    }

    /// Runs all flows to completion.
    ///
    /// # Panics
    ///
    /// Panics if a flow path references an edge outside the graph.
    pub fn run(&self, flows: &[Flow]) -> SimReport {
        for f in flows {
            for &eid in &f.path {
                assert!(eid.index() < self.graph.edge_count(), "edge out of range");
            }
        }
        let n = flows.len();
        let mut remaining_bytes: Vec<f64> = flows.iter().map(|f| f.bytes).collect();
        let mut finish = vec![0.0f64; n];
        let mut active: Vec<usize> = (0..n).filter(|&i| remaining_bytes[i] > 0.0).collect();
        for (i, f) in flows.iter().enumerate() {
            if f.bytes <= 0.0 || f.path.is_empty() {
                finish[i] = 0.0;
            }
        }
        active.retain(|&i| !flows[i].path.is_empty());

        let mut now = 0.0f64;
        let mut events = 0usize;
        while !active.is_empty() {
            events += 1;
            let rates = self.fair_rates(flows, &active);
            // Time until the first completion at these rates.
            let mut dt = f64::INFINITY;
            for (ai, &fi) in active.iter().enumerate() {
                if rates[ai] > 0.0 {
                    dt = dt.min(remaining_bytes[fi] / rates[ai]);
                }
            }
            assert!(
                dt.is_finite(),
                "no flow can make progress; graph saturated at zero rate"
            );
            now += dt;
            let mut next_active = Vec::with_capacity(active.len());
            for (ai, &fi) in active.iter().enumerate() {
                remaining_bytes[fi] -= rates[ai] * dt;
                // tpu-lint: allow(unit-hygiene) -- sub-byte residual threshold, not a unit conversion
                if remaining_bytes[fi] <= 1e-6 {
                    finish[fi] = now;
                } else {
                    next_active.push(fi);
                }
            }
            active = next_active;
        }
        SimReport {
            completion_time: now,
            flow_finish_times: finish,
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flows::all_to_all_flows;
    use crate::load::LinkLoads;
    use tpu_topology::{Coord3, EdgeId, NodeId, SliceShape, Torus};

    const RATE: LinkRate = LinkRate::TPU_V4_ICI;

    /// The one-link path from `a` to its neighbour `b`.
    fn link(graph: &LinkGraph, a: NodeId, b: NodeId) -> Vec<EdgeId> {
        let (_, edge) = graph.neighbors(a).find(|&(v, _)| v == b).unwrap();
        vec![edge]
    }

    /// Flows for one bandwidth-optimal ring all-reduce over `ring` (nodes
    /// in ring order): each member streams `2·(p−1)/p · bytes` to its
    /// successor.
    fn ring_all_reduce_flows(graph: &LinkGraph, ring: &[NodeId], bytes: f64) -> Vec<Flow> {
        let p = ring.len() as f64;
        let per_hop = 2.0 * (p - 1.0) / p * bytes;
        (0..ring.len())
            .map(|i| {
                let (src, dst) = (ring[i], ring[(i + 1) % ring.len()]);
                Flow {
                    src,
                    dst,
                    bytes: per_hop,
                    path: link(graph, src, dst),
                }
            })
            .collect()
    }

    #[test]
    fn single_flow_runs_at_line_rate() {
        let g = Torus::new(SliceShape::new(4, 1, 1).unwrap()).into_graph();
        let path = link(&g, NodeId::new(0), NodeId::new(1));
        let flows = vec![Flow {
            src: NodeId::new(0),
            dst: NodeId::new(1),
            bytes: 50e9,
            path,
        }];
        let report = FlowSim::new(&g, RATE).run(&flows);
        assert!((report.completion_time() - 1.0).abs() < 1e-6);
        assert_eq!(report.events(), 1);
    }

    #[test]
    fn two_flows_share_a_link_fairly() {
        let g = Torus::new(SliceShape::new(4, 1, 1).unwrap()).into_graph();
        // Two flows over the same 0 -> 1 edge.
        let path = link(&g, NodeId::new(0), NodeId::new(1));
        let mk = |bytes| Flow {
            src: NodeId::new(0),
            dst: NodeId::new(1),
            bytes,
            path: path.clone(),
        };
        let flows = vec![mk(50e9), mk(25e9)];
        let report = FlowSim::new(&g, RATE).run(&flows);
        // Fair share 25 GB/s each: the small one finishes at t=1 s; the
        // big one then gets the full link: remaining 25 GB at 50 GB/s.
        assert!((report.flow_finish_times()[1] - 1.0).abs() < 1e-6);
        assert!((report.flow_finish_times()[0] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn disjoint_flows_do_not_interfere() {
        let g = Torus::new(SliceShape::new(8, 1, 1).unwrap()).into_graph();
        let p01 = link(&g, NodeId::new(0), NodeId::new(1));
        let p45 = link(&g, NodeId::new(4), NodeId::new(5));
        let flows = vec![
            Flow {
                src: NodeId::new(0),
                dst: NodeId::new(1),
                bytes: 50e9,
                path: p01,
            },
            Flow {
                src: NodeId::new(4),
                dst: NodeId::new(5),
                bytes: 50e9,
                path: p45,
            },
        ];
        let report = FlowSim::new(&g, RATE).run(&flows);
        assert!((report.completion_time() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn empty_flow_set() {
        let g = Torus::new(SliceShape::new(2, 1, 1).unwrap()).into_graph();
        let report = FlowSim::new(&g, RATE).run(&[]);
        assert_eq!(report.completion_time(), 0.0);
    }

    #[test]
    fn zero_byte_and_self_flows_finish_immediately() {
        let g = Torus::new(SliceShape::new(4, 1, 1).unwrap()).into_graph();
        let flows = vec![Flow {
            src: NodeId::new(2),
            dst: NodeId::new(2),
            bytes: 1e9,
            path: vec![],
        }];
        let report = FlowSim::new(&g, RATE).run(&flows);
        assert_eq!(report.completion_time(), 0.0);
    }

    #[test]
    fn event_sim_close_to_load_model_for_all_to_all() {
        // The load model splits over all shortest paths; the event sim
        // pins one path per pair. On a small symmetric torus they must
        // agree within a modest factor.
        let g = Torus::new(SliceShape::new(4, 4, 1).unwrap()).into_graph();
        let bytes = 1e6;
        let flows = all_to_all_flows(&g, bytes);
        let sim = FlowSim::new(&g, RATE).run(&flows);
        let load_time = LinkLoads::uniform_all_to_all(&g, bytes).completion_time(RATE);
        let ratio = sim.completion_time() / load_time;
        assert!(
            (0.8..2.0).contains(&ratio),
            "event sim {} vs load model {load_time}: ratio {ratio}",
            sim.completion_time()
        );
    }

    #[test]
    fn ring_all_reduce_flows_match_analytic_time() {
        let g = Torus::new(SliceShape::new(8, 1, 1).unwrap()).into_graph();
        let ring: Vec<NodeId> = g.nodes().collect();
        let bytes = 1e9;
        let flows = ring_all_reduce_flows(&g, &ring, bytes);
        let report = FlowSim::new(&g, RATE).run(&flows);
        // Each hop moves 2*(7/8)*1e9 bytes on a dedicated link at 50 GB/s.
        // (The flow model streams one direction; analytic model uses both,
        // so the flow time is 2x the analytic both-directions number.)
        let expect = 2.0 * 7.0 / 8.0 * bytes / 50e9;
        assert!(
            (report.completion_time() - expect).abs() < 1e-6,
            "{} vs {expect}",
            report.completion_time()
        );
    }

    #[test]
    fn concurrent_ring_all_reduces_match_analytic() {
        // Concurrent rings along x of a 4x4x4 torus: the event simulator
        // must land on the analytic single-direction ring time (the
        // analytic both-directions model is 2x faster).
        let shape = SliceShape::new(4, 4, 4).unwrap();
        let g = Torus::new(shape).into_graph();
        let bytes = 1e8;
        let mut flows = Vec::new();
        for y in 0..4 {
            for z in 0..4 {
                let ring: Vec<NodeId> = (0..4)
                    .map(|x| NodeId::new(shape.index_of(Coord3::new(x, y, z))))
                    .collect();
                flows.extend(ring_all_reduce_flows(&g, &ring, bytes));
            }
        }
        let report = FlowSim::new(&g, RATE).run(&flows);
        let expect = 2.0 * 3.0 / 4.0 * bytes / 50e9; // per-hop stream time
        assert!(
            (report.completion_time() - expect).abs() / expect < 1e-6,
            "{} vs {expect}",
            report.completion_time()
        );
    }

    #[test]
    fn finish_times_monotone_with_bytes() {
        let g = Torus::new(SliceShape::new(4, 1, 1).unwrap()).into_graph();
        let path = link(&g, NodeId::new(0), NodeId::new(1));
        let flows = vec![
            Flow {
                src: NodeId::new(0),
                dst: NodeId::new(1),
                bytes: 10e9,
                path: path.clone(),
            },
            Flow {
                src: NodeId::new(0),
                dst: NodeId::new(1),
                bytes: 30e9,
                path,
            },
        ];
        let report = FlowSim::new(&g, RATE).run(&flows);
        assert!(report.flow_finish_times()[0] < report.flow_finish_times()[1]);
    }
}
