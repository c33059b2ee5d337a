//! Interconnect performance models for the TPU v4 simulator.
//!
//! Three layers, from cheap to detailed:
//!
//! 1. **Analytic collectives** ([`CollectiveBackend`]) — alpha-beta
//!    all-reduce schedules on tori and switched fabrics, and all-to-all
//!    priced by the load model below, the models the paper's architects
//!    reason with (§3.6, §7.3).
//! 2. **Per-link load assignment** ([`load`]) — uniform traffic split over
//!    all shortest paths (edge betweenness); exact for steady-state
//!    bandwidth-bound operation and the engine behind the Figure 6
//!    regular-vs-twisted comparison.
//! 3. **Discrete-event flow simulation** ([`event`]) — max-min fair-shared
//!    flows over explicit paths at DMA granularity, used to validate the
//!    load model and to study dynamic effects.
//!
//! Every analytic collective cost flows through the schedule IR of
//! [`schedule`]: ring, double-binary-tree and reduce-scatter/all-gather
//! builders emit [`CollectiveSchedule`]s (phases of steps × alpha +
//! bytes-on-wire) and consumers price them, with the spec-driven
//! `ring`/`tree`/`auto` selection of `tpu_spec::CollectiveSpec` choosing
//! between algorithms per payload and scale (DESIGN.md §10).
//!
//! The InfiniBand fat tree of §7.3 is modelled in [`fattree`]; the
//! general switched (NVLink-island + fat-tree) backend that machines with
//! `torus_dims == 0` dispatch to — and the [`CollectiveBackend`] selector
//! the upper layers share — live in [`switched`], together with the §7.3
//! hybrid ICI/IB network and its comparison against the torus.
//!
//! # Example
//!
//! ```
//! use tpu_net::{AllToAll, LinkRate};
//! use tpu_topology::{SliceShape, Torus, TwistedTorus};
//!
//! let shape = SliceShape::new(4, 4, 8)?;
//! let rate = LinkRate::TPU_V4_ICI;
//! let reg = AllToAll::analyze(&Torus::new(shape).into_graph(), 4096, rate);
//! let tw = AllToAll::analyze(
//!     &TwistedTorus::paper_default(shape)?.into_graph(), 4096, rate);
//! assert!(tw.throughput_per_node() > reg.throughput_per_node());
//! # Ok::<(), tpu_topology::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod fattree;
pub mod flows;
pub mod latency;
pub mod load;
pub mod schedule;
pub mod switched;
mod units;

pub use event::{FlowSim, SimReport};
pub use fattree::FatTree;
pub use flows::{all_to_all_flows, Flow};
pub use latency::{torus_diameter_hops, AlphaBeta};
pub use load::{AllToAll, LinkLoads};
pub use schedule::{CollectiveSchedule, ScheduleAlgorithm, SchedulePhase, TorusPaths};
pub use switched::{BackendComparison, CollectiveBackend, IslandKind, SwitchedFabric};
pub use units::LinkRate;
