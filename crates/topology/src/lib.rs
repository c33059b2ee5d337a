//! Interconnect topologies for the TPU v4 supercomputer simulator.
//!
//! This crate provides the structural substrate of the reproduction of
//! *"TPU v4: An Optically Reconfigurable Supercomputer for Machine Learning
//! with Hardware Support for Embeddings"* (ISCA 2023): 3D tori, **twisted**
//! tori (the k×k×2k / k×2k×2k constructions of Camarero, Martínez and
//! Beivide that TPU v4 materializes through its optical circuit switches),
//! and the 2D/3D meshes used by sub-4³ slices.
//!
//! The crate is purely structural: nodes, directed links, routing, and graph
//! metrics (distance profiles, diameter, plane-cut bisection). Bandwidths,
//! time, and traffic live in `tpu-net`; the OCS wiring that realizes these
//! graphs lives in `tpu-ocs`.
//!
//! # Example
//!
//! Build the regular and twisted versions of the 4×4×8 slice from Figure 6
//! of the paper and compare their bisections:
//!
//! ```
//! use tpu_topology::{SliceShape, Torus, TwistedTorus, Bisection};
//!
//! let shape = SliceShape::new(4, 4, 8)?;
//! let regular = Torus::new(shape).into_graph();
//! let twisted = TwistedTorus::paper_default(shape)?.into_graph();
//!
//! let b_reg = Bisection::plane_cut(&regular).min_links();
//! let b_twist = Bisection::plane_cut(&twisted).min_links();
//! assert!(b_twist > b_reg, "twisting must widen the bisection");
//! # Ok::<(), tpu_topology::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bisection;
mod coord;
mod error;
mod graph;
mod mesh;
mod metrics;
mod routing;
mod shape;
mod torus;
mod twisted;

pub use bisection::{Bisection, CutReport};
pub use coord::{Coord3, Dim, Direction};
pub use error::TopologyError;
pub use graph::{Edge, EdgeId, LinkGraph, LinkLabel, NodeId};
pub use mesh::{Mesh, MeshKind};
pub use metrics::{DistanceProfile, GraphMetrics};
pub use routing::{all_pairs_distances, bfs_distances, edge_betweenness};
pub use shape::{most_cubic_box, SliceShape, Twistability};
pub use torus::Torus;
pub use twisted::{TwistSpec, TwistedTorus};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, TopologyError>;
