//! Bisection analysis by exhaustive coordinate-plane cuts.
//!
//! Embedding performance "is essentially proportional to the bisection
//! bandwidth" (§3.6), so the simulator needs exact link counts across the
//! worst-case equal split. For tori (regular or twisted) the minimum cut of
//! a balanced bisection is achieved by a pair of coordinate hyperplanes;
//! this module enumerates every rotation of every such cut and reports the
//! minimum, which reproduces both the analytic `2·N/k` of the regular torus
//! and the doubled bisection of the twisted construction.

use crate::graph::LinkGraph;
use crate::{Dim, TopologyError};
use serde::{Deserialize, Serialize};

/// One candidate cut evaluated during bisection search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CutReport {
    /// Dimension the slab cut runs across, or `None` for the index-split
    /// fallback cut.
    pub dim: Option<Dim>,
    /// Rotation offset of the slab (which coordinate the half starts at).
    pub offset: u32,
    /// Bidirectional links severed by the cut.
    pub links: u64,
}

/// Result of a plane-cut bisection search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bisection {
    cuts: Vec<CutReport>,
    min: CutReport,
}

impl Bisection {
    /// Evaluates every coordinate-slab bisection (all rotations of all
    /// even-extent dimensions) plus an index-split fallback, and keeps the
    /// minimum.
    ///
    /// # Panics
    ///
    /// Panics if the graph has fewer than two nodes (use
    /// [`Bisection::try_plane_cut`] for a fallible version).
    pub fn plane_cut(graph: &LinkGraph) -> Bisection {
        Bisection::try_plane_cut(graph).expect("graph too small to bisect") // tpu-lint: allow(panic-policy) -- unreachable: graph too small to bisect
    }

    /// Fallible variant of [`Bisection::plane_cut`].
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::TooSmallToBisect`] for graphs with fewer
    /// than two nodes.
    pub fn try_plane_cut(graph: &LinkGraph) -> Result<Bisection, TopologyError> {
        let n = graph.node_count();
        if n < 2 {
            return Err(TopologyError::TooSmallToBisect);
        }
        let shape = graph.shape();
        let mut cuts = Vec::new();

        for dim in Dim::ALL {
            let extent = shape.extent(dim);
            if extent < 2 || !extent.is_multiple_of(2) {
                continue;
            }
            let half = extent / 2;
            for offset in 0..extent {
                // Side A: coordinates in [offset, offset + half) mod extent.
                let in_a = |coord: u32| -> bool {
                    let rel = (coord + extent - offset) % extent;
                    rel < half
                };
                let mut crossing = 0u64;
                for e in graph.edges() {
                    let cs = graph.coord(e.src).get(dim);
                    let cd = graph.coord(e.dst).get(dim);
                    // Count each bidirectional cable once (src side in A).
                    if in_a(cs) && !in_a(cd) {
                        crossing += 1;
                    }
                }
                cuts.push(CutReport {
                    dim: Some(dim),
                    offset,
                    links: crossing,
                });
            }
        }

        // Fallback: split by node index (first half vs second half). This
        // is the only candidate for all-odd shapes and also upper-bounds
        // pathological graphs.
        let half_n = n / 2;
        let mut crossing = 0u64;
        for e in graph.edges() {
            if (e.src.index() < half_n) != (e.dst.index() < half_n) && e.src.index() < half_n {
                crossing += 1;
            }
        }
        cuts.push(CutReport {
            dim: None,
            offset: 0,
            links: crossing,
        });

        let min = *cuts
            .iter()
            .min_by_key(|c| c.links)
            .expect("at least the fallback cut exists"); // tpu-lint: allow(panic-policy) -- unreachable: at least the fallback cut exists
        Ok(Bisection { cuts, min })
    }

    /// Bidirectional links across the minimum bisection.
    pub fn min_links(&self) -> u64 {
        self.min.links
    }

    /// All evaluated cuts.
    pub fn cuts(&self) -> &[CutReport] {
        &self.cuts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Mesh, SliceShape, Torus, TwistedTorus};

    #[test]
    fn regular_torus_matches_analytic() {
        for shape in [
            SliceShape::new(4, 4, 4).unwrap(),
            SliceShape::new(4, 4, 8).unwrap(),
            SliceShape::new(8, 8, 8).unwrap(),
            SliceShape::new(4, 8, 16).unwrap(),
        ] {
            let b = Bisection::plane_cut(&Torus::new(shape).into_graph());
            // A torus cut across the widest dimension severs two cross
            // sections: 2 · volume / max_extent links.
            let widest = shape.x().max(shape.y()).max(shape.z());
            let analytic = 2 * shape.volume() / u64::from(widest);
            assert_eq!(b.min_links(), analytic, "shape {shape}");
        }
    }

    #[test]
    fn twisted_4x4x8_doubles_bisection() {
        let shape = SliceShape::new(4, 4, 8).unwrap();
        let reg = Bisection::plane_cut(&Torus::new(shape).into_graph());
        let tw = Bisection::plane_cut(&TwistedTorus::paper_default(shape).unwrap().into_graph());
        assert_eq!(reg.min_links(), 32);
        assert_eq!(
            tw.min_links(),
            64,
            "twist must double the plane-cut bisection"
        );
    }

    #[test]
    fn twisted_4x8x8_doubles_bisection() {
        let shape = SliceShape::new(4, 8, 8).unwrap();
        let reg = Bisection::plane_cut(&Torus::new(shape).into_graph());
        let tw = Bisection::plane_cut(&TwistedTorus::paper_default(shape).unwrap().into_graph());
        assert_eq!(reg.min_links(), 64);
        assert_eq!(tw.min_links(), 128);
    }

    #[test]
    fn mesh_is_half_torus() {
        let shape = SliceShape::new(4, 4, 8).unwrap();
        let mesh = Bisection::plane_cut(&Mesh::new(shape).into_graph());
        let torus = Bisection::plane_cut(&Torus::new(shape).into_graph());
        assert_eq!(torus.min_links(), 2 * mesh.min_links());
    }

    #[test]
    fn too_small_graph_errors() {
        let g = Mesh::new(SliceShape::new(1, 1, 1).unwrap()).into_graph();
        assert_eq!(
            Bisection::try_plane_cut(&g).unwrap_err(),
            TopologyError::TooSmallToBisect
        );
    }

    #[test]
    fn odd_shape_uses_fallback_cut() {
        let g = Torus::new(SliceShape::new(3, 3, 3).unwrap()).into_graph();
        let b = Bisection::plane_cut(&g);
        assert_eq!(b.min.dim, None);
        assert!(b.min_links() > 0);
    }
}
