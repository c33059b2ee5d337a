//! `tpuv4` — a from-scratch simulator suite reproducing *"TPU v4: An
//! Optically Reconfigurable Supercomputer for Machine Learning with
//! Hardware Support for Embeddings"* (Jouppi et al., ISCA 2023).
//!
//! This facade crate re-exports every subsystem:
//!
//! | Module | Crate | Paper section |
//! |---|---|---|
//! | [`spec`] | `tpu-spec` | Tables 4–5 as one machine-description layer |
//! | [`topology`] | `tpu-topology` | §2.8 tori, twisted tori, bisection |
//! | [`ocs`] | `tpu-ocs` | §2.1–2.6 Palomar OCS, 4³ blocks, fabric |
//! | [`net`] | `tpu-net` | §2.8/§7.3 collectives, flow sim, InfiniBand |
//! | [`chip`] | `tpu-chip` | Tables 4–5, roofline (Fig 16), power |
//! | [`embedding`] | `tpu-embedding` | §3.2–3.3 tables, sharding, DLRMs |
//! | [`sparsecore`] | `tpu-sparsecore` | §3.5–3.6 SC architecture (Figs 7–9) |
//! | [`sched`] | `tpu-sched` | §2.3–2.5 goodput (Fig 4), slice mix (Table 2) |
//! | [`parallel`] | `tpu-parallel` | §4 topology search (Table 3), PA-NAS (Fig 10) |
//! | [`workloads`] | `tpu-workloads` | §5–6 production suite, MLPerf (Figs 11–15, 17) |
//! | [`energy`] | `tpu-energy` | §7.6 power (Table 6), CO₂e |
//! | [`core`] | `tpu-core` | the composed [`Supercomputer`] |
//!
//! # Quickstart
//!
//! ```
//! use tpuv4::{Collective, JobSpec, MachineSpec, SliceSpec, Supercomputer};
//! use tpuv4::topology::SliceShape;
//!
//! // Bring up the 4096-chip machine and schedule a twisted-torus slice.
//! let mut machine = Supercomputer::for_spec(&MachineSpec::v4());
//! let job = machine.submit(JobSpec::new(
//!     "recommender",
//!     SliceSpec::twisted(SliceShape::new(4, 8, 8)?)?,
//! ))?;
//!
//! // Time the embedding all-to-all on the slice's real link graph.
//! let t = machine.collective_time(job, Collective::AllToAll { bytes_per_pair: 4096 })?;
//! assert!(t > 0.0);
//!
//! // Every layer is parameterized by the same MachineSpec, so the
//! // paper's cross-generation comparisons are one argument away.
//! let mut v3 = Supercomputer::for_spec(&MachineSpec::v3());
//! let job3 = v3.submit(JobSpec::new(
//!     "recommender-on-v3",
//!     SliceSpec::regular(SliceShape::new(4, 8, 8)?),
//! ))?;
//! assert!(v3.collective_time(job3, Collective::AllToAll { bytes_per_pair: 4096 })? > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tpu_chip as chip;
pub use tpu_core as core;
pub use tpu_embedding as embedding;
pub use tpu_energy as energy;
pub use tpu_net as net;
pub use tpu_ocs as ocs;
pub use tpu_parallel as parallel;
pub use tpu_sched as sched;
pub use tpu_sparsecore as sparsecore;
pub use tpu_spec as spec;
pub use tpu_topology as topology;
pub use tpu_workloads as workloads;

pub use tpu_core::{
    Collective, JobId, JobSpec, MachineFabric, Placement, RunningJob, Supercomputer,
    SupercomputerError, SwitchedCluster,
};
pub use tpu_ocs::{Fabric, SliceSpec};
pub use tpu_sched::{FleetMetrics, FleetSim, FleetTrace};
pub use tpu_spec::{ChipSpec, FleetSpec, Generation, MachineSpec};
pub use tpu_topology::{SliceShape, Torus, TwistedTorus};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compose() {
        let machine = crate::Supercomputer::for_spec(&crate::MachineSpec::v4());
        assert_eq!(machine.total_chips(), 4096);
        let mix = crate::sched::SliceMix::table2();
        assert!(mix.total_share() > 0.9);
    }
}
