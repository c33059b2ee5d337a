//! The supercomputer object: fabric + job table + performance queries.
//!
//! Three fabric families share the object ([`MachineFabric`]),
//! dispatched on the spec's `fabric` discriminator: OCS-stitched tori
//! (the paper's machine), statically-cabled tori (TPU v2/v3 — a slice
//! needs an axis-aligned contiguous healthy sub-torus, so a dead host
//! fragments capacity instead of being routed around), and switched
//! NVLink-island + fat-tree clusters (the Table 5 A100 and the §7.3
//! `"v4-ib"` counterfactual). `submit` and failure injection dispatch on
//! the family, and `collective_time` prices every family through the
//! spec's [`tpu_net::CollectiveBackend`]; torus-only operations return
//! [`SupercomputerError::TorusOnly`] on switched machines, and OCS-only
//! operations (twists) return
//! [`SupercomputerError::OcsOnly`] on static ones.

use crate::StaticCluster;
use crate::{Result, SupercomputerError};
use std::collections::BTreeMap;
use std::fmt;
use tpu_net::CollectiveBackend;
use tpu_ocs::{healthy_chips, BlockId, Fabric, HostHealth, MaterializedSlice, SliceSpec};
use tpu_spec::{FabricKind, MachineSpec};

/// Identifier of a running job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(u64);

impl JobId {
    /// Creates a job id (normally produced by [`Supercomputer::submit`]).
    pub fn new(raw: u64) -> JobId {
        JobId(raw)
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job{}", self.0)
    }
}

/// A job submission: a name and the slice it wants.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    name: String,
    slice: SliceSpec,
}

impl JobSpec {
    /// Creates a job spec.
    pub fn new(name: impl Into<String>, slice: SliceSpec) -> JobSpec {
        JobSpec {
            name: name.into(),
            slice,
        }
    }

    /// Job name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Requested slice.
    pub fn slice(&self) -> &SliceSpec {
        &self.slice
    }
}

/// Where a running job's chips live.
#[derive(Debug, Clone, PartialEq)]
pub enum Placement {
    /// A materialized OCS slice: physical blocks, programmed circuits and
    /// the resulting chip-level link graph.
    Torus(MaterializedSlice),
    /// `chips` endpoints behind the full-bisection switched fabric — a
    /// switched allocation has no geometry.
    Switched {
        /// Chips allocated.
        chips: u64,
    },
    /// A contiguous box of blocks on a statically-cabled torus, in
    /// placement order (the geometry is the request's shape; there are
    /// no circuits to program).
    Static {
        /// Block indices occupied, in placement order.
        blocks: Vec<u32>,
        /// Chips backing the job.
        chips: u64,
    },
}

impl Placement {
    /// Chips backing the job.
    pub fn chips(&self) -> u64 {
        match self {
            Placement::Torus(slice) => slice.chips(),
            Placement::Switched { chips } => *chips,
            Placement::Static { chips, .. } => *chips,
        }
    }

    /// The materialized torus slice, if this is a torus placement.
    pub fn slice(&self) -> Option<&MaterializedSlice> {
        match self {
            Placement::Torus(slice) => Some(slice),
            Placement::Switched { .. } | Placement::Static { .. } => None,
        }
    }
}

/// A running job and its placement.
#[derive(Debug, Clone, PartialEq)]
pub struct RunningJob {
    id: JobId,
    spec: JobSpec,
    placement: Placement,
}

impl RunningJob {
    /// Job id.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// The submission.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// Where the job's chips live.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The live OCS slice (`None` on a switched machine).
    pub fn slice(&self) -> Option<&MaterializedSlice> {
        self.placement.slice()
    }

    /// Chips backing the job.
    pub fn chips(&self) -> u64 {
        self.placement.chips()
    }
}

/// A collective operation to time on a job's slice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Collective {
    /// All-reduce of `bytes` (gradient aggregation).
    AllReduce {
        /// Payload per replica.
        bytes: u64,
    },
    /// Uniform all-to-all with `bytes_per_pair` between every ordered
    /// pair (embedding exchange).
    AllToAll {
        /// Bytes per ordered pair.
        bytes_per_pair: u64,
    },
}

/// A switched (NVLink-island + fat-tree) machine's allocatable state:
/// island health. Islands are interchangeable behind the
/// full-bisection fat tree, so allocation is pure chip accounting — the
/// contrast the paper draws with slice geometry on the torus machine.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchedCluster {
    island_chips: u32,
    fleet_chips: u64,
    /// Host health of every island.
    health: HostHealth,
}

impl SwitchedCluster {
    /// The cluster a switched spec describes, or `None` for a torus
    /// machine (OCS-stitched or statically cabled). A fleet that is not
    /// a multiple of the island size gets one partial last island, so
    /// capacity always equals `fleet_chips` exactly.
    pub fn for_spec(spec: &MachineSpec) -> Option<SwitchedCluster> {
        if spec.fabric != FabricKind::Switched {
            return None;
        }
        let (islands, island_chips, hosts_per_island) = spec.scheduling_units();
        Some(SwitchedCluster {
            island_chips,
            fleet_chips: spec.fleet_chips,
            health: HostHealth::new(islands as usize, hosts_per_island),
        })
    }

    /// Islands (DGX-style boxes) in the cluster; the last may be
    /// partially populated.
    pub fn islands(&self) -> u64 {
        self.health.units() as u64
    }

    /// Chips per (full) island.
    pub fn island_chips(&self) -> u32 {
        self.island_chips
    }

    /// CPU hosts per island (a whole island is lost when any of its
    /// hosts is down — its chips share the hosts' boards).
    pub fn hosts_per_island(&self) -> u32 {
        self.health.hosts_per_unit()
    }

    /// Total chips installed (exactly the spec's `fleet_chips`).
    pub fn total_chips(&self) -> u64 {
        self.fleet_chips
    }

    /// Chips on islands whose hosts are all currently up; a partial last
    /// island counts the chips it holds.
    pub fn healthy_chips(&self) -> u64 {
        healthy_chips(
            self.health.words(),
            self.health.units(),
            u64::from(self.island_chips),
            self.fleet_chips,
        )
    }

    /// Failure and repair are tracked per host, so an island with two
    /// failed hosts only comes back after both are repaired.
    fn set_host_up(&mut self, island: BlockId, host: u32, up: bool) -> Result<()> {
        self.health.set_host_up(island.index(), host, up)?;
        Ok(())
    }
}

/// The interconnect backing a [`Supercomputer`]: the paper's OCS torus,
/// the statically-cabled torus it replaced (§2.7), or the switched
/// alternative it is compared against in §7.
#[derive(Debug, Clone, PartialEq)]
pub enum MachineFabric {
    /// OCS-stitched torus blocks (the TPU machine).
    Torus(Fabric),
    /// Statically-cabled torus blocks (TPU v2/v3): contiguous placement,
    /// no twisting, no route-around.
    StaticTorus(StaticCluster),
    /// Switched islands behind a fat tree (A100-style, `"v4-ib"`).
    Switched(SwitchedCluster),
}

/// One supercomputer — a TPU v4 OCS machine or a switched comparison
/// system, behind the same job/performance API.
#[derive(Debug, Clone, PartialEq)]
pub struct Supercomputer {
    fabric: MachineFabric,
    jobs: BTreeMap<JobId, RunningJob>,
    next_id: u64,
    collectives: CollectiveBackend,
}

impl Supercomputer {
    /// The fleet-scale machine a spec describes.
    ///
    /// Dispatches on the spec's `fabric` discriminator. `FabricKind::Ocs`
    /// specs get an OCS fabric holding `fleet_blocks()` blocks (the
    /// `"v3-ocs"` counterfactual models a pre-OCS fleet behind the
    /// reconfigurable fabric this way). `FabricKind::Static` specs — the
    /// real TPU v2/v3 machines — get a [`StaticCluster`] with
    /// contiguous-placement semantics. `FabricKind::Switched` specs (the
    /// Table 5 A100, the §7.3 `"v4-ib"` hybrid) get a switched island
    /// cluster. Collectives are priced by the spec's
    /// [`CollectiveBackend`]. `submit` → `collective_time` runs
    /// end-to-end on every built-in machine.
    pub fn for_spec(spec: &MachineSpec) -> Supercomputer {
        let fabric = match SwitchedCluster::for_spec(spec) {
            Some(cluster) => MachineFabric::Switched(cluster),
            None if spec.fabric == FabricKind::Static => {
                MachineFabric::StaticTorus(StaticCluster::for_spec(spec))
            }
            None => MachineFabric::Torus(Fabric::for_spec(spec)),
        };
        Supercomputer {
            fabric,
            jobs: BTreeMap::new(),
            next_id: 0,
            collectives: CollectiveBackend::for_spec(spec),
        }
    }

    /// The underlying OCS fabric (`None` on static and switched
    /// machines).
    pub fn fabric(&self) -> Option<&Fabric> {
        match &self.fabric {
            MachineFabric::Torus(fabric) => Some(fabric),
            MachineFabric::StaticTorus(_) | MachineFabric::Switched(_) => None,
        }
    }

    /// Enables (or disables) deferred OCS wiring — see
    /// [`Fabric::set_deferred_wiring`]: allocations keep full admission
    /// control but skip programming circuits, for loops that only ask
    /// whether and where slices fit. The fleet DES admits on its own
    /// occupancy words, so outside tests only the benchmark's
    /// admission probe calls this, and the mode goes once that probe
    /// stops using it. No-op on static and switched machines, which have
    /// no OCS circuits to defer.
    ///
    /// # Panics
    ///
    /// Panics if the torus fabric has live allocations (it refuses to
    /// flip wiring modes mid-flight).
    pub fn set_deferred_wiring(&mut self, deferred: bool) {
        if let MachineFabric::Torus(fabric) = &mut self.fabric {
            fabric.set_deferred_wiring(deferred);
        }
    }

    /// The switched cluster (`None` on a torus machine).
    pub fn switched(&self) -> Option<&SwitchedCluster> {
        match &self.fabric {
            MachineFabric::Switched(cluster) => Some(cluster),
            _ => None,
        }
    }

    /// Whether this machine runs on the switched (non-torus) backend.
    pub fn is_switched(&self) -> bool {
        matches!(self.fabric, MachineFabric::Switched(_))
    }

    /// Total chips installed.
    pub fn total_chips(&self) -> u64 {
        match &self.fabric {
            MachineFabric::Torus(fabric) => fabric.chip_count(),
            MachineFabric::StaticTorus(cluster) => cluster.total_chips(),
            MachineFabric::Switched(cluster) => cluster.total_chips(),
        }
    }

    /// Chips currently allocated to jobs.
    pub fn chips_in_use(&self) -> u64 {
        self.jobs.values().map(|j| j.placement.chips()).sum()
    }

    /// Machine utilization in [0, 1].
    pub fn utilization(&self) -> f64 {
        if self.total_chips() == 0 {
            return 0.0;
        }
        self.chips_in_use() as f64 / self.total_chips() as f64
    }

    /// Running jobs, by id order.
    pub fn jobs(&self) -> impl Iterator<Item = &RunningJob> {
        self.jobs.values()
    }

    /// Submits a job. On an OCS machine this allocates blocks anywhere
    /// in the machine and programs the OCSes (§2.5: "it can pick four 4³
    /// blocks from anywhere in the supercomputer"); on a statically-cabled
    /// machine it must find an axis-aligned contiguous box of healthy free
    /// blocks (wraparound allowed); on a switched machine it reserves the
    /// slice's chip count behind the fat tree (islands are
    /// interchangeable, so only capacity matters).
    ///
    /// # Errors
    ///
    /// Propagates fabric errors (insufficient healthy blocks, bad shape)
    /// on OCS tori; returns [`SupercomputerError::NoContiguousSlice`]
    /// when a static machine's capacity is too fragmented and
    /// [`SupercomputerError::OcsOnly`] for a twisted request on one (the
    /// wiring is fixed at install time); returns
    /// [`SupercomputerError::InsufficientChips`] when a switched machine
    /// is out of healthy capacity and [`SupercomputerError::TorusOnly`]
    /// for a twisted request on a switched machine (a switched fabric has
    /// no torus to twist).
    pub fn submit(&mut self, spec: JobSpec) -> Result<JobId> {
        let placement = match &mut self.fabric {
            MachineFabric::Torus(fabric) => Placement::Torus(fabric.allocate(spec.slice())?),
            MachineFabric::StaticTorus(cluster) => {
                if spec.slice().twist().is_some() {
                    return Err(SupercomputerError::OcsOnly {
                        operation: "twisted slice",
                    });
                }
                // The box is measured in this machine's own block edge
                // (4 on the shipped generations, but custom static specs
                // may cable a different electrical block).
                let shape = spec.slice().shape();
                let e = cluster.block_edge();
                if !(shape.x().is_multiple_of(e)
                    && shape.y().is_multiple_of(e)
                    && shape.z().is_multiple_of(e))
                {
                    return Err(SupercomputerError::Fabric(
                        tpu_ocs::OcsError::NotBlockAligned {
                            shape: (shape.x(), shape.y(), shape.z()),
                        },
                    ));
                }
                let blocks = cluster.allocate((shape.x() / e, shape.y() / e, shape.z() / e))?;
                Placement::Static {
                    blocks,
                    chips: shape.volume(),
                }
            }
            MachineFabric::Switched(cluster) => {
                if spec.slice().twist().is_some() {
                    return Err(SupercomputerError::TorusOnly {
                        operation: "twisted slice",
                    });
                }
                let needed = spec.slice().shape().volume();
                let available = cluster.healthy_chips().saturating_sub(self.chips_in_use());
                if needed > available {
                    return Err(SupercomputerError::InsufficientChips { needed, available });
                }
                Placement::Switched { chips: needed }
            }
        };
        let id = JobId(self.next_id);
        self.next_id += 1;
        self.jobs.insert(
            id,
            RunningJob {
                id,
                spec,
                placement,
            },
        );
        Ok(id)
    }

    /// Finishes a job, releasing its blocks and circuits (OCS torus),
    /// its contiguous box (static torus) or its reserved capacity
    /// (switched).
    ///
    /// # Errors
    ///
    /// Returns [`SupercomputerError::UnknownJob`] for an id that is not
    /// running.
    pub fn finish(&mut self, id: JobId) -> Result<()> {
        let job = self
            .jobs
            .remove(&id)
            .ok_or(SupercomputerError::UnknownJob { job: id })?;
        match (&mut self.fabric, job.placement()) {
            (MachineFabric::Torus(fabric), Placement::Torus(slice)) => fabric.release(slice)?,
            (MachineFabric::StaticTorus(cluster), Placement::Static { blocks, .. }) => {
                cluster.release(blocks);
            }
            _ => {}
        }
        Ok(())
    }

    /// A running job by id.
    ///
    /// # Errors
    ///
    /// Returns [`SupercomputerError::UnknownJob`] if absent.
    pub fn job(&self, id: JobId) -> Result<&RunningJob> {
        self.jobs
            .get(&id)
            .ok_or(SupercomputerError::UnknownJob { job: id })
    }

    /// Marks a CPU host down. On an OCS torus, running jobs keep their
    /// circuits (HPC-style checkpoint/restore handles mid-job failures)
    /// and new jobs route around the block. On a statically-cabled torus
    /// the block goes unhealthy in place — there is no routing around, so
    /// the failure *fragments* the contiguous capacity (the Figure 4
    /// effect). On a switched machine the block id names an island (a
    /// DGX-style box); the whole island stops accepting new work while
    /// any of its hosts is down. Failures are tracked per host on every
    /// family, so repairs must balance them.
    ///
    /// # Errors
    ///
    /// Fabric errors for an unknown block/island/host.
    pub fn inject_host_failure(&mut self, block: BlockId, host: u32) -> Result<()> {
        self.set_host_up(block, host, false)
    }

    /// Repairs a CPU host.
    ///
    /// # Errors
    ///
    /// Fabric errors for an unknown block/island/host.
    // tpu-lint: allow(no-caller) -- word_admission and fleet_fastpath_equivalence repair hosts of their reference machine through it
    pub fn repair_host(&mut self, block: BlockId, host: u32) -> Result<()> {
        self.set_host_up(block, host, true)
    }

    fn set_host_up(&mut self, block: BlockId, host: u32, up: bool) -> Result<()> {
        match &mut self.fabric {
            MachineFabric::Torus(fabric) => {
                fabric.set_host_up(block, host, up)?;
                Ok(())
            }
            MachineFabric::StaticTorus(cluster) => {
                cluster.set_host_up(block.index() as u32, host, up)
            }
            MachineFabric::Switched(cluster) => cluster.set_host_up(block, host, up),
        }
    }

    /// Steady-state time of a collective on a job's slice, seconds,
    /// priced by the spec's [`CollectiveBackend`] — latency-aware on
    /// every fabric family (DESIGN.md §7 alphas), through the
    /// collective-schedule IR: the spec's `ring`/`tree`/`auto` policy
    /// selects a schedule and the backend prices it (DESIGN.md §10).
    ///
    /// Every all-reduce, and the all-to-all of static and switched
    /// slices, is priced by the request's shape alone: static cabling
    /// changes placement, not steady-state link performance (DESIGN.md
    /// §9), and a switched slice has no geometry. An OCS slice's
    /// all-to-all is priced on its materialized, possibly twisted, chip
    /// graph ([`CollectiveBackend::all_to_all_time_on`]).
    ///
    /// # Errors
    ///
    /// Returns [`SupercomputerError::UnknownJob`] if absent.
    pub fn collective_time(&self, id: JobId, op: Collective) -> Result<f64> {
        let job = self.job(id)?;
        let shape = job.spec().slice().shape();
        Ok(match (op, job.placement()) {
            (Collective::AllReduce { bytes }, _) => {
                self.collectives.all_reduce_time(shape, bytes as f64)
            }
            (Collective::AllToAll { bytes_per_pair }, Placement::Torus(slice)) => self
                .collectives
                .all_to_all_time_on(shape, slice.chip_graph(), bytes_per_pair as f64),
            (Collective::AllToAll { bytes_per_pair }, _) => self
                .collectives
                .all_to_all_time(shape, bytes_per_pair as f64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_ocs::OcsError;
    use tpu_topology::SliceShape;

    fn shape(x: u32, y: u32, z: u32) -> SliceShape {
        SliceShape::new(x, y, z).unwrap()
    }

    #[test]
    fn submit_run_finish() {
        let mut sc = Supercomputer::for_spec(&MachineSpec::v4());
        assert_eq!(sc.total_chips(), 4096);
        let id = sc
            .submit(JobSpec::new("a", SliceSpec::regular(shape(8, 8, 8))))
            .unwrap();
        assert_eq!(sc.chips_in_use(), 512);
        assert!((sc.utilization() - 0.125).abs() < 1e-9);
        sc.finish(id).unwrap();
        assert_eq!(sc.chips_in_use(), 0);
    }

    #[test]
    fn generation_parameterized_machines_compose() {
        // The same submit -> collective_time flow runs on every TPU
        // generation's fleet.
        let mut v3 = Supercomputer::for_spec(&MachineSpec::v3());
        assert_eq!(v3.total_chips(), 1024);
        let mut v4 = Supercomputer::for_spec(&MachineSpec::v4());
        assert_eq!(v4.total_chips(), 4096);

        let op = Collective::AllReduce { bytes: 1 << 30 };
        let j3 = v3
            .submit(JobSpec::new("g", SliceSpec::regular(shape(4, 4, 8))))
            .unwrap();
        let j4 = v4
            .submit(JobSpec::new("g", SliceSpec::regular(shape(4, 4, 8))))
            .unwrap();
        let t3 = v3.collective_time(j3, op).unwrap();
        let t4 = v4.collective_time(j4, op).unwrap();
        // Table 4: v3 links run 70 GB/s vs v4's 50, so the same
        // bandwidth-bound all-reduce finishes sooner per link on v3.
        assert!(t3 > 0.0 && t4 > 0.0);
        assert!(t3 < t4, "v3 {t3} vs v4 {t4}");
    }

    #[test]
    fn unknown_job_errors() {
        let mut sc = Supercomputer::for_spec(&MachineSpec::v4());
        let err = sc.finish(JobId::new(99)).unwrap_err();
        assert_eq!(
            err,
            SupercomputerError::UnknownJob {
                job: JobId::new(99)
            }
        );
    }

    #[test]
    fn many_jobs_share_the_machine() {
        let mut sc = Supercomputer::for_spec(&MachineSpec::v4());
        let mut ids = Vec::new();
        // 64 single-block jobs fill the machine.
        for i in 0..64 {
            ids.push(
                sc.submit(JobSpec::new(
                    format!("job{i}"),
                    SliceSpec::regular(shape(4, 4, 4)),
                ))
                .unwrap(),
            );
        }
        assert!((sc.utilization() - 1.0).abs() < 1e-9);
        // Machine full.
        assert!(sc
            .submit(JobSpec::new("extra", SliceSpec::regular(shape(4, 4, 4))))
            .is_err());
        for id in ids {
            sc.finish(id).unwrap();
        }
        assert_eq!(sc.utilization(), 0.0);
    }

    #[test]
    fn failure_routes_around_block() {
        let mut sc = Supercomputer::for_spec(&MachineSpec::v4());
        sc.inject_host_failure(BlockId::new(0), 3).unwrap();
        // A 63-block machine still fits 63 block-jobs but not 64.
        for i in 0..63 {
            sc.submit(JobSpec::new(
                format!("j{i}"),
                SliceSpec::regular(shape(4, 4, 4)),
            ))
            .unwrap();
        }
        assert!(sc
            .submit(JobSpec::new("last", SliceSpec::regular(shape(4, 4, 4))))
            .is_err());
        sc.repair_host(BlockId::new(0), 3).unwrap();
        assert!(sc
            .submit(JobSpec::new("last", SliceSpec::regular(shape(4, 4, 4))))
            .is_ok());
    }

    #[test]
    fn twisted_all_to_all_beats_regular() {
        let mut sc = Supercomputer::for_spec(&MachineSpec::v4());
        let reg = sc
            .submit(JobSpec::new("r", SliceSpec::regular(shape(4, 4, 8))))
            .unwrap();
        let tw = sc
            .submit(JobSpec::new(
                "t",
                SliceSpec::twisted(shape(4, 4, 8)).unwrap(),
            ))
            .unwrap();
        let op = Collective::AllToAll {
            bytes_per_pair: 4096,
        };
        let t_reg = sc.collective_time(reg, op).unwrap();
        let t_tw = sc.collective_time(tw, op).unwrap();
        assert!(t_tw < t_reg, "twisted {t_tw} vs regular {t_reg}");
    }

    #[test]
    fn a100_machine_runs_end_to_end() {
        let mut sc = Supercomputer::for_spec(&MachineSpec::a100());
        assert!(sc.is_switched());
        assert!(sc.fabric().is_none());
        assert_eq!(sc.total_chips(), 4216);
        let id = sc
            .submit(JobSpec::new("gpt", SliceSpec::regular(shape(8, 8, 8))))
            .unwrap();
        assert_eq!(sc.chips_in_use(), 512);
        let ar = sc
            .collective_time(id, Collective::AllReduce { bytes: 1 << 30 })
            .unwrap();
        let a2a = sc
            .collective_time(
                id,
                Collective::AllToAll {
                    bytes_per_pair: 4096,
                },
            )
            .unwrap();
        assert!(ar > 0.0 && ar.is_finite());
        assert!(a2a > 0.0 && a2a.is_finite());
        sc.finish(id).unwrap();
        assert_eq!(sc.chips_in_use(), 0);
    }

    #[test]
    fn switched_machine_rejects_torus_only_operations() {
        let mut sc = Supercomputer::for_spec(&MachineSpec::a100());
        let err = sc
            .submit(JobSpec::new(
                "t",
                SliceSpec::twisted(shape(4, 4, 8)).unwrap(),
            ))
            .unwrap_err();
        assert!(matches!(err, SupercomputerError::TorusOnly { .. }));
    }

    #[test]
    fn switched_capacity_and_island_failures() {
        let mut sc = Supercomputer::for_spec(&MachineSpec::a100());
        // 1054 4-GPU islands = 4216 chips.
        assert_eq!(sc.switched().unwrap().islands(), 1054);
        let err = sc
            .submit(JobSpec::new("big", SliceSpec::regular(shape(16, 17, 16))))
            .unwrap_err();
        assert_eq!(
            err,
            SupercomputerError::InsufficientChips {
                needed: 4352,
                available: 4216
            }
        );

        // Down an island: 4 fewer healthy chips, so the exact full
        // machine (8×17×31 = 4216 chips) no longer fits.
        sc.inject_host_failure(BlockId::new(0), 0).unwrap();
        assert_eq!(sc.switched().unwrap().healthy_chips(), 4212);
        let err = sc
            .submit(JobSpec::new("full", SliceSpec::regular(shape(8, 17, 31))))
            .unwrap_err();
        assert_eq!(
            err,
            SupercomputerError::InsufficientChips {
                needed: 4216,
                available: 4212
            }
        );
        // A running job's chips are not available either: 4212 healthy
        // minus 64 in use.
        let small = sc
            .submit(JobSpec::new("small", SliceSpec::regular(shape(4, 4, 4))))
            .unwrap();
        let err = sc
            .submit(JobSpec::new("full", SliceSpec::regular(shape(8, 17, 31))))
            .unwrap_err();
        assert_eq!(
            err,
            SupercomputerError::InsufficientChips {
                needed: 4216,
                available: 4148
            }
        );
        sc.finish(small).unwrap();
        sc.repair_host(BlockId::new(0), 0).unwrap();
        assert!(sc
            .submit(JobSpec::new("full", SliceSpec::regular(shape(8, 17, 31))))
            .is_ok());
        // Unknown island and host ids are rejected with the health record's errors.
        assert_eq!(
            sc.inject_host_failure(BlockId::new(5000), 0),
            Err(SupercomputerError::Fabric(OcsError::UnknownBlock {
                block: BlockId::new(5000)
            }))
        );
        assert_eq!(
            sc.inject_host_failure(BlockId::new(0), 9),
            Err(SupercomputerError::Fabric(OcsError::UnknownHost {
                block: BlockId::new(0),
                host: 9
            }))
        );
    }

    #[test]
    fn multi_host_island_needs_every_host_repaired() {
        // v4-ib islands are 8 chips over 2 hosts: repairing one of two
        // failed hosts must not resurrect the island.
        let mut sc = Supercomputer::for_spec(&MachineSpec::v4_ib_hybrid());
        assert_eq!(sc.switched().unwrap().hosts_per_island(), 2);
        sc.inject_host_failure(BlockId::new(3), 0).unwrap();
        sc.inject_host_failure(BlockId::new(3), 1).unwrap();
        assert_eq!(sc.switched().unwrap().healthy_chips(), 4088);
        sc.repair_host(BlockId::new(3), 0).unwrap();
        assert_eq!(sc.switched().unwrap().healthy_chips(), 4088);
        sc.repair_host(BlockId::new(3), 1).unwrap();
        assert_eq!(sc.switched().unwrap().healthy_chips(), 4096);
    }

    #[test]
    fn non_divisible_fleet_keeps_exact_capacity() {
        // 4094 chips in 8-chip islands: 512 islands, the last holds 6.
        let mut spec = MachineSpec::v4_ib_hybrid();
        spec.fleet_chips = 4094;
        let mut sc = Supercomputer::for_spec(&spec);
        assert_eq!(sc.total_chips(), 4094);
        let cluster = sc.switched().unwrap();
        assert_eq!(cluster.islands(), 512);
        assert_eq!(cluster.healthy_chips(), 4094);
        // Downing the partial island removes exactly its 6 chips.
        sc.inject_host_failure(BlockId::new(511), 0).unwrap();
        assert_eq!(sc.switched().unwrap().healthy_chips(), 4088);
    }

    #[test]
    fn v4_ib_hybrid_slower_than_ocs_torus() {
        // The §7.3 headline, through the Supercomputer API end to end.
        let mut torus = Supercomputer::for_spec(&MachineSpec::v4());
        let mut ib = Supercomputer::for_spec(&MachineSpec::v4_ib_hybrid());
        let s = SliceSpec::regular(shape(8, 8, 8));
        let jt = torus.submit(JobSpec::new("t", s)).unwrap();
        let ji = ib.submit(JobSpec::new("i", s)).unwrap();
        let op = Collective::AllReduce { bytes: 1 << 30 };
        let slow = ib.collective_time(ji, op).unwrap() / torus.collective_time(jt, op).unwrap();
        assert!(
            (1.8..=2.4).contains(&slow),
            "§7.3 all-reduce slowdown out of band: {slow}"
        );
    }

    #[test]
    fn all_reduce_time_positive_and_scales() {
        let mut sc = Supercomputer::for_spec(&MachineSpec::v4());
        let id = sc
            .submit(JobSpec::new("ar", SliceSpec::regular(shape(8, 8, 8))))
            .unwrap();
        let t1 = sc
            .collective_time(id, Collective::AllReduce { bytes: 1 << 30 })
            .unwrap();
        let t2 = sc
            .collective_time(id, Collective::AllReduce { bytes: 1 << 31 })
            .unwrap();
        assert!(t1 > 0.0);
        // The fixed alpha steps keep the doubling just shy of exact.
        assert!((t2 / t1 - 2.0).abs() < 0.02, "{}", t2 / t1);
    }

    #[test]
    fn v3_machine_is_static_end_to_end() {
        // The acceptance flow on the static arm: for_spec(v3) -> submit
        // -> collective_time -> failure handling -> finish.
        let mut sc = Supercomputer::for_spec(&MachineSpec::v3());
        assert!(matches!(sc.fabric, MachineFabric::StaticTorus(_)));
        assert_eq!(sc.total_chips(), 1024);
        let id = sc
            .submit(JobSpec::new("v3", SliceSpec::regular(shape(8, 8, 8))))
            .unwrap();
        assert_eq!(sc.chips_in_use(), 512);
        let ar = sc
            .collective_time(id, Collective::AllReduce { bytes: 1 << 30 })
            .unwrap();
        let a2a = sc
            .collective_time(
                id,
                Collective::AllToAll {
                    bytes_per_pair: 4096,
                },
            )
            .unwrap();
        assert!(ar > 0.0 && ar.is_finite());
        assert!(a2a > 0.0 && a2a.is_finite());
        sc.finish(id).unwrap();
        assert_eq!(sc.chips_in_use(), 0);
    }

    #[test]
    fn static_machine_rejects_ocs_only_operations() {
        let mut sc = Supercomputer::for_spec(&MachineSpec::v3());
        let err = sc
            .submit(JobSpec::new(
                "t",
                SliceSpec::twisted(shape(4, 4, 8)).unwrap(),
            ))
            .unwrap_err();
        assert!(matches!(err, SupercomputerError::OcsOnly { .. }));
        // Non-block-aligned shapes fail the same way they do on OCS tori.
        let err = sc
            .submit(JobSpec::new("s", SliceSpec::regular(shape(2, 2, 2))))
            .unwrap_err();
        assert!(matches!(err, SupercomputerError::Fabric(_)));
    }

    #[test]
    fn static_failure_fragments_while_ocs_routes_around() {
        // The §2.7/Figure 4 mechanism as a deterministic experiment: the
        // same v4 fleet, OCS vs statically cabled, same failure pattern.
        // Killing one host in each all-even-coordinate block of the 4^3
        // block grid leaves 56/64 blocks healthy, but every contiguous
        // 2x2x2 box (wraparound included) contains one dead corner.
        let mut ocs = Supercomputer::for_spec(&MachineSpec::v4());
        let mut fixed = Supercomputer::for_spec(&MachineSpec::v4().with_fabric(FabricKind::Static));
        assert!(matches!(fixed.fabric, MachineFabric::StaticTorus(_)));
        assert_eq!(fixed.total_chips(), 4096);
        for z in [0u32, 2] {
            for y in [0u32, 2] {
                for x in [0u32, 2] {
                    let block = BlockId::new(x + 4 * (y + 4 * z));
                    ocs.inject_host_failure(block, 0).unwrap();
                    fixed.inject_host_failure(block, 0).unwrap();
                }
            }
        }
        let job = JobSpec::new("8cube", SliceSpec::regular(shape(8, 8, 8)));
        // 56 healthy blocks: the OCS machine stitches 8 of them freely...
        let id = ocs.submit(job.clone()).unwrap();
        assert_eq!(ocs.job(id).unwrap().chips(), 512);
        // ...the static machine cannot find a contiguous healthy box.
        let err = fixed.submit(job).unwrap_err();
        assert!(
            matches!(err, SupercomputerError::NoContiguousSlice { .. }),
            "{err}"
        );
        // Repair one corner: a 2x2x2 box opens up around it.
        fixed.repair_host(BlockId::new(0), 0).unwrap();
        assert!(fixed
            .submit(JobSpec::new("again", SliceSpec::regular(shape(8, 8, 8))))
            .is_ok());
    }

    #[test]
    fn static_and_ocs_slices_share_collective_performance() {
        // Static cabling changes placement, not steady-state link
        // performance (DESIGN.md §9): identical times on both arms.
        let mut ocs = Supercomputer::for_spec(&MachineSpec::v3_ocs());
        let mut fixed = Supercomputer::for_spec(&MachineSpec::v3());
        let s = SliceSpec::regular(shape(8, 8, 8));
        let jo = ocs.submit(JobSpec::new("o", s)).unwrap();
        let jf = fixed.submit(JobSpec::new("f", s)).unwrap();
        for op in [
            Collective::AllReduce { bytes: 1 << 30 },
            Collective::AllToAll {
                bytes_per_pair: 4096,
            },
        ] {
            let to = ocs.collective_time(jo, op).unwrap();
            let tf = fixed.collective_time(jf, op).unwrap();
            assert!(
                ((to - tf) / to).abs() < 1e-9,
                "{op:?}: ocs {to} vs static {tf}"
            );
        }
    }
}
