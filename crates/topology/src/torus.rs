//! Regular (rectangular) 3D torus generator.

use crate::graph::{Edge, LinkGraph, LinkLabel};
use crate::{Coord3, Dim, Direction, SliceShape};

/// A regular 3D torus over a slice shape.
///
/// Every chip has six ICI links (±x, ±y, ±z); the wraparound links are the
/// ones TPU v4 routes through optical circuit switches. When a dimension has
/// extent 1 that dimension contributes no links, and when it has extent 2
/// the "+"/"−" neighbors coincide but remain two distinct physical cables,
/// matching the doubled bandwidth a 2-ring provides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Torus {
    shape: SliceShape,
}

impl Torus {
    /// Creates a torus over the given shape.
    pub fn new(shape: SliceShape) -> Torus {
        Torus { shape }
    }

    /// The slice shape.
    pub fn shape(self) -> SliceShape {
        self.shape
    }

    /// Materializes the torus as an explicit link graph.
    pub fn into_graph(self) -> LinkGraph {
        let shape = self.shape;
        let mut edges = Vec::new();
        for c in shape.coords() {
            for dim in Dim::ALL {
                let extent = shape.extent(dim);
                if extent <= 1 {
                    continue;
                }
                for dir in Direction::ALL {
                    let (nbr, wrap) = step(shape, c, dim, dir);
                    edges.push(Edge {
                        src: crate::NodeId::new(shape.index_of(c)),
                        dst: crate::NodeId::new(shape.index_of(nbr)),
                        label: LinkLabel {
                            dim,
                            dir,
                            wraparound: wrap,
                        },
                    });
                }
            }
        }
        LinkGraph::from_edges(shape, format!("torus {shape}"), edges)
    }
}

/// Moves one step from `c` along `dim` in direction `dir`, wrapping
/// toroidally. Returns the neighbor and whether the step wrapped.
pub(crate) fn step(shape: SliceShape, c: Coord3, dim: Dim, dir: Direction) -> (Coord3, bool) {
    let extent = shape.extent(dim);
    let pos = c.get(dim);
    match dir {
        Direction::Plus => {
            if pos + 1 == extent {
                (c.with(dim, 0), true)
            } else {
                (c.with(dim, pos + 1), false)
            }
        }
        Direction::Minus => {
            if pos == 0 {
                (c.with(dim, extent - 1), true)
            } else {
                (c.with(dim, pos - 1), false)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    #[test]
    fn cube_has_six_links_per_node() {
        let g = Torus::new(SliceShape::cube(4).unwrap()).into_graph();
        assert_eq!(g.node_count(), 64);
        assert_eq!(g.edge_count(), 64 * 6);
        assert_eq!(g.degree_range(), (6, 6));
        assert!(g.is_symmetric());
    }

    #[test]
    fn wraparound_count_matches_faces() {
        // A k^3 torus has 2 wrap edges (one per direction) per surface line:
        // 3 dims * k*k lines * 2 directions.
        let k = 4u32;
        let g = Torus::new(SliceShape::cube(k).unwrap()).into_graph();
        assert_eq!(g.wraparound_edge_count() as u32, 3 * k * k * 2);
    }

    #[test]
    fn degenerate_dims_produce_no_links() {
        let g = Torus::new(SliceShape::new(4, 1, 1).unwrap()).into_graph();
        // Ring of 4: 2 links per node.
        assert_eq!(g.degree_range(), (2, 2));
        assert!(g.is_symmetric());
    }

    #[test]
    fn extent_two_keeps_double_links() {
        let g = Torus::new(SliceShape::new(2, 1, 1).unwrap()).into_graph();
        // Two nodes, two parallel cables each direction.
        assert_eq!(g.edge_count(), 4);
        let nbrs: Vec<_> = g.neighbors(NodeId::new(0)).map(|(n, _)| n).collect();
        assert_eq!(nbrs, vec![NodeId::new(1), NodeId::new(1)]);
    }

    #[test]
    fn step_wraps_at_boundaries() {
        let s = SliceShape::new(4, 4, 8).unwrap();
        let c = Coord3::new(3, 0, 7);
        let (n, wrapped) = step(s, c, Dim::X, Direction::Plus);
        assert_eq!(n, Coord3::new(0, 0, 7));
        assert!(wrapped);
        let (n, wrapped) = step(s, c, Dim::Y, Direction::Minus);
        assert_eq!(n, Coord3::new(3, 3, 7));
        assert!(wrapped);
        let (n, wrapped) = step(s, c, Dim::Z, Direction::Minus);
        assert_eq!(n, Coord3::new(3, 0, 6));
        assert!(!wrapped);
    }

    #[test]
    fn graph_name_mentions_shape() {
        let g = Torus::new(SliceShape::new(4, 8, 8).unwrap()).into_graph();
        assert_eq!(g.name(), "torus 4x8x8");
    }
}
