//! The concrete link graph shared by every topology generator.

use crate::{Coord3, Dim, Direction, SliceShape, TopologyError};
use std::fmt;

/// Identifier of a chip (node) inside a link graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    pub fn new(index: u32) -> NodeId {
        NodeId(index)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a *directed* link inside a link graph.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Creates an edge id from a raw index.
    pub fn new(index: u32) -> EdgeId {
        EdgeId(index)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Structural label carried by every directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkLabel {
    /// Torus dimension this link travels along.
    pub dim: Dim,
    /// Direction of travel.
    pub dir: Direction,
    /// Whether the link is a wraparound (candidate for optical routing
    /// through an OCS, per Figure 1 of the paper).
    pub wraparound: bool,
}

/// A directed link between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Structural label.
    pub label: LinkLabel,
}

/// An explicit directed link graph over the chips of a slice.
///
/// Produced by the topology generators ([`Torus`], [`TwistedTorus`],
/// [`Mesh`]); consumed by routing, metrics, the network simulator and the
/// OCS wiring model. Every physical bidirectional cable appears as two
/// directed edges, matching how the ICI links are driven independently in
/// each direction.
///
/// [`Torus`]: crate::Torus
/// [`TwistedTorus`]: crate::TwistedTorus
/// [`Mesh`]: crate::Mesh
#[derive(Debug, Clone, PartialEq)]
pub struct LinkGraph {
    shape: SliceShape,
    name: String,
    edges: Vec<Edge>,
    /// For node i, `adjacency[i]` lists outgoing edge ids.
    adjacency: Vec<Vec<EdgeId>>,
}

impl LinkGraph {
    /// Builds a graph from a shape, a descriptive name, and an edge list.
    ///
    /// # Panics
    ///
    /// Panics if any edge references a node outside the shape's volume.
    pub fn from_edges(shape: SliceShape, name: impl Into<String>, edges: Vec<Edge>) -> LinkGraph {
        let n = shape.volume() as usize;
        let mut adjacency = vec![Vec::new(); n];
        for (i, e) in edges.iter().enumerate() {
            assert!(
                e.src.index() < n && e.dst.index() < n,
                "edge {i} out of range"
            );
            adjacency[e.src.index()].push(EdgeId::new(i as u32));
        }
        LinkGraph {
            shape,
            name: name.into(),
            edges,
            adjacency,
        }
    }

    /// The slice shape this graph was generated for.
    pub fn shape(&self) -> SliceShape {
        self.shape
    }

    /// Descriptive name (e.g. `"torus 4x4x8"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All directed edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The directed edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn edge(&self, id: EdgeId) -> Edge {
        self.edges[id.index()]
    }

    /// Outgoing edges of a node.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::NodeOutOfRange`] for an invalid node.
    pub fn outgoing(&self, node: NodeId) -> Result<&[EdgeId], TopologyError> {
        self.adjacency
            .get(node.index())
            .map(Vec::as_slice)
            .ok_or(TopologyError::NodeOutOfRange {
                node: node.index() as u32,
                len: self.node_count() as u32,
            })
    }

    /// Iterates over `(neighbor, edge_id)` pairs of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        self.adjacency[node.index()]
            .iter()
            .map(move |&eid| (self.edges[eid.index()].dst, eid))
    }

    /// All node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u32).map(NodeId::new)
    }

    /// Coordinate of a node under the slice shape.
    pub fn coord(&self, node: NodeId) -> Coord3 {
        self.shape.coord_of(node.index() as u32)
    }

    /// Checks that for every directed edge (u → v) there is a reverse edge
    /// (v → u) with the same dimension and the opposite direction.
    ///
    /// All topologies in this crate are physically bidirectional; this is
    /// the consistency invariant the twisted-torus construction must keep.
    pub fn is_symmetric(&self) -> bool {
        self.edges.iter().all(|e| {
            self.adjacency[e.dst.index()].iter().any(|&rid| {
                let r = self.edges[rid.index()];
                r.dst == e.src
                    && r.label.dim == e.label.dim
                    && r.label.dir == e.label.dir.opposite()
            })
        })
    }
}

/// Graph statistics the crate's tests check topologies against.
#[cfg(test)]
impl LinkGraph {
    /// Number of wraparound (optical) directed edges.
    pub(crate) fn wraparound_edge_count(&self) -> usize {
        self.edges.iter().filter(|e| e.label.wraparound).count()
    }

    /// Degree (number of outgoing links) of every node, as (min, max).
    pub(crate) fn degree_range(&self) -> (usize, usize) {
        let mut min = usize::MAX;
        let mut max = 0;
        for adj in &self.adjacency {
            min = min.min(adj.len());
            max = max.max(adj.len());
        }
        if self.adjacency.is_empty() {
            (0, 0)
        } else {
            (min, max)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_graph() -> LinkGraph {
        // 2x1x1 "torus": two nodes joined by +x / -x pairs.
        let shape = SliceShape::new(2, 1, 1).unwrap();
        let lbl = |dir, wrap| LinkLabel {
            dim: Dim::X,
            dir,
            wraparound: wrap,
        };
        let edges = vec![
            Edge {
                src: NodeId::new(0),
                dst: NodeId::new(1),
                label: lbl(Direction::Plus, false),
            },
            Edge {
                src: NodeId::new(1),
                dst: NodeId::new(0),
                label: lbl(Direction::Minus, false),
            },
            Edge {
                src: NodeId::new(1),
                dst: NodeId::new(0),
                label: lbl(Direction::Plus, true),
            },
            Edge {
                src: NodeId::new(0),
                dst: NodeId::new(1),
                label: lbl(Direction::Minus, true),
            },
        ];
        LinkGraph::from_edges(shape, "tiny", edges)
    }

    #[test]
    fn basic_accessors() {
        let g = tiny_graph();
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.name(), "tiny");
        assert_eq!(g.wraparound_edge_count(), 2);
        assert_eq!(g.degree_range(), (2, 2));
    }

    #[test]
    fn symmetry_check() {
        let g = tiny_graph();
        assert!(g.is_symmetric());
    }

    #[test]
    fn asymmetric_graph_detected() {
        let shape = SliceShape::new(2, 1, 1).unwrap();
        let edges = vec![Edge {
            src: NodeId::new(0),
            dst: NodeId::new(1),
            label: LinkLabel {
                dim: Dim::X,
                dir: Direction::Plus,
                wraparound: false,
            },
        }];
        let g = LinkGraph::from_edges(shape, "oneway", edges);
        assert!(!g.is_symmetric());
    }

    #[test]
    fn outgoing_range_check() {
        let g = tiny_graph();
        assert!(g.outgoing(NodeId::new(0)).is_ok());
        assert_eq!(
            g.outgoing(NodeId::new(7)).unwrap_err(),
            TopologyError::NodeOutOfRange { node: 7, len: 2 }
        );
    }

    #[test]
    fn neighbors_iteration() {
        let g = tiny_graph();
        let nbrs: Vec<_> = g.neighbors(NodeId::new(0)).map(|(n, _)| n).collect();
        assert_eq!(nbrs, vec![NodeId::new(1), NodeId::new(1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_panics_on_bad_edge() {
        let shape = SliceShape::new(1, 1, 1).unwrap();
        let edges = vec![Edge {
            src: NodeId::new(0),
            dst: NodeId::new(5),
            label: LinkLabel {
                dim: Dim::X,
                dir: Direction::Plus,
                wraparound: false,
            },
        }];
        let _ = LinkGraph::from_edges(shape, "bad", edges);
    }

    #[test]
    fn display_ids() {
        assert_eq!(NodeId::new(3).to_string(), "n3");
        assert_eq!(EdgeId::new(9).to_string(), "e9");
    }

    #[test]
    fn coord_node_roundtrip() {
        let g = tiny_graph();
        for node in g.nodes() {
            assert_eq!(g.shape().index_of(g.coord(node)), node.index() as u32);
        }
    }
}
