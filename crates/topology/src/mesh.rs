//! Mesh topologies for sub-4³ slices (§2.9: slices smaller than one 4³
//! block have no wraparound links and "can only use a 2D mesh").

use crate::graph::{Edge, LinkGraph, LinkLabel};
use crate::{Dim, Direction, NodeId, SliceShape};
use serde::{Deserialize, Serialize};

/// Which mesh family a shape belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MeshKind {
    /// One dimension used (a chain), e.g. 1×1×2.
    Line,
    /// Two dimensions used, e.g. 2×2 on a tray (the PCB's 2×2 ICI mesh).
    Plane,
    /// All three dimensions used (a 3D mesh inside a rack, e.g. 4×4×4
    /// before the optical wraparounds are attached).
    Cuboid,
}

/// A mesh (torus without wraparound links) over a slice shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mesh {
    shape: SliceShape,
}

impl Mesh {
    /// Creates a mesh over the given shape.
    pub fn new(shape: SliceShape) -> Mesh {
        Mesh { shape }
    }

    /// The slice shape.
    pub fn shape(self) -> SliceShape {
        self.shape
    }

    /// Classification by the number of non-degenerate dimensions.
    pub fn kind(self) -> MeshKind {
        let used = Dim::ALL
            .iter()
            .filter(|&&d| self.shape.extent(d) > 1)
            .count();
        match used {
            0 | 1 => MeshKind::Line,
            2 => MeshKind::Plane,
            _ => MeshKind::Cuboid,
        }
    }

    /// Materializes the mesh as an explicit link graph (no wrap edges).
    pub fn into_graph(self) -> LinkGraph {
        let shape = self.shape;
        let mut edges = Vec::new();
        for c in shape.coords() {
            for dim in Dim::ALL {
                if shape.extent(dim) <= 1 {
                    continue;
                }
                for dir in Direction::ALL {
                    let (nbr, wrapped) = crate::torus::step(shape, c, dim, dir);
                    if wrapped {
                        continue;
                    }
                    edges.push(Edge {
                        src: NodeId::new(shape.index_of(c)),
                        dst: NodeId::new(shape.index_of(nbr)),
                        label: LinkLabel {
                            dim,
                            dir,
                            wraparound: false,
                        },
                    });
                }
            }
        }
        LinkGraph::from_edges(shape, format!("mesh {shape}"), edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_has_no_wraparounds() {
        let g = Mesh::new(SliceShape::new(2, 2, 4).unwrap()).into_graph();
        assert_eq!(g.wraparound_edge_count(), 0);
        assert!(g.is_symmetric());
    }

    #[test]
    fn corner_and_interior_degrees() {
        let g = Mesh::new(SliceShape::new(4, 4, 4).unwrap()).into_graph();
        // Corners have 3 links, interior nodes 6.
        assert_eq!(g.degree_range(), (3, 6));
    }

    #[test]
    fn kinds() {
        assert_eq!(
            Mesh::new(SliceShape::new(1, 1, 2).unwrap()).kind(),
            MeshKind::Line
        );
        assert_eq!(
            Mesh::new(SliceShape::new(1, 1, 1).unwrap()).kind(),
            MeshKind::Line
        );
        assert_eq!(
            Mesh::new(SliceShape::new(1, 2, 2).unwrap()).kind(),
            MeshKind::Plane
        );
        assert_eq!(
            Mesh::new(SliceShape::new(2, 2, 4).unwrap()).kind(),
            MeshKind::Cuboid
        );
    }

    #[test]
    fn line_mesh_edge_count() {
        let g = Mesh::new(SliceShape::new(1, 1, 4).unwrap()).into_graph();
        // 3 cables * 2 directions.
        assert_eq!(g.edge_count(), 6);
    }

    #[test]
    fn single_node_mesh_is_empty() {
        let m = Mesh::new(SliceShape::new(1, 1, 1).unwrap());
        let g = m.into_graph();
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.edge_count(), 0);
    }
}
