//! Slice scheduling, availability and the production slice mix.
//!
//! * [`goodput`] — the Figure 4 experiment: Monte Carlo goodput of slice
//!   scheduling under CPU-host failures, with the OCS plugboard (any
//!   healthy blocks form a slice) versus a statically-cabled machine
//!   (slices need contiguous healthy sub-boxes), selected by
//!   `tpu_spec::FabricKind`. The static arm counts placements with a
//!   `FirstFitPlan` of the slice's box, planned once per query on the
//!   model's pristine `StaticCluster`; the reconfigurable arm counts in
//!   closed form over the model's pristine machine (any healthy blocks
//!   or islands form a slice).
//! * [`slice_mix`] — the Table 2 production slice distribution, its
//!   sampler, and the §2.9 twist-adoption statistics.
//! * [`deploy`] — the §2.4 incremental-deployment benefit: OCS-attached
//!   blocks enter production as they land; a static machine waits for the
//!   last cable.
//! * [`model`] — the immutable, `Send + Sync`, spec-derived
//!   [`PlannerModel`] every simulator here shares via `Arc`: scheduling
//!   geometry, the canonical spec hash, and cached pristine fabric-arm
//!   prototypes, split from per-query mutable trial state (DESIGN.md
//!   §14).
//! * [`trials`] — deterministic parallel Monte Carlo: fixed-size trial
//!   chunks with per-chunk RNG streams and chunk-ordered reduction, so
//!   results are bit-identical for any worker-thread count.
//! * [`fleet`] — the discrete-event fleet simulator: months of
//!   Palomar-scale operation (job arrivals, host failures/repairs, OCS
//!   reconfiguration windows, priority preemption) as one deterministic
//!   event script, cross-checked against the closed-form models above.
//!   It also reproduces the §2.5 scheduling benefit: under the Table 2
//!   job mix the plugboard arm keeps more chips busy than contiguous
//!   static placement.
//!
//! # Example
//!
//! ```
//! use tpu_sched::GoodputSim;
//! use tpu_spec::{FabricKind, MachineSpec};
//!
//! let sim = GoodputSim::for_spec(&MachineSpec::v4(), 200, 7);
//! let ocs = sim.goodput(1024, 0.995, FabricKind::Ocs);
//! let fixed = sim.goodput(1024, 0.995, FabricKind::Static);
//! assert!(ocs > fixed, "the OCS must raise goodput: {ocs} vs {fixed}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deploy;
pub mod fleet;
pub mod goodput;
pub mod model;
pub mod slice_mix;
pub mod trials;

pub use deploy::DeploymentModel;
pub use fleet::{FleetMetrics, FleetSim, FleetTrace, TraceEvent, TraceKind};
pub use goodput::GoodputSim;
pub use model::PlannerModel;
pub use slice_mix::{SliceMix, SliceUsage, TopologyChoice};
