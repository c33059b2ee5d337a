//! The machine-level description: chip + interconnect + fleet.

use crate::json::{self, JsonValue};
use crate::{consts, ChipSpec, Generation, ProcessorStyle, SpecError};

/// The electrically-cabled building-block geometry (§2.2: 4³ chips in
/// one rack; inter-block links are optical).
///
/// For the pre-OCS generations (and the non-TPU comparison systems) this
/// records the granularity the slice-fabric model schedules at, so
/// cross-generation counterfactuals ("a v3 fleet behind OCSes") stay
/// expressible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockGeometry {
    /// Chips along one block edge.
    pub edge: u32,
    /// Chips attached to one CPU host.
    pub tpus_per_host: u32,
}

impl BlockGeometry {
    /// The TPU v4 block: 4³ chips, 4 chips per host.
    pub fn v4() -> BlockGeometry {
        BlockGeometry {
            edge: consts::BLOCK_EDGE,
            tpus_per_host: consts::V4_TPUS_PER_HOST,
        }
    }

    /// Chips in one block.
    pub fn chips(&self) -> u32 {
        self.edge * self.edge * self.edge
    }

    /// CPU hosts in one block.
    pub fn hosts(&self) -> u32 {
        self.chips() / self.tpus_per_host
    }
}

/// Per-hop latency (alpha) calibration of a machine's interconnect —
/// the fixed per-message costs that dominate small collectives (§7.9's
/// fixed-overhead scaling wall; §8's "tens of thousands of outstanding
/// memory requests" exist to hide exactly these).
///
/// Optional on [`MachineSpec`]: specs that omit it get
/// [`LatencySpec::reference`], the calibrated defaults of DESIGN.md §7.
/// All values are seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySpec {
    /// Per-hop latency on a direct chip-to-chip link (ICI, NVLink):
    /// DMA setup + wire + router, per message per hop.
    pub ici_hop_s: f64,
    /// Per-message NIC/endpoint overhead on the inter-island fat-tree
    /// path (send + receive side combined).
    pub nic_s: f64,
    /// Per-switch-stage traversal latency on the fat tree (a 3-level
    /// Clos adds up to 5 switch traversals per message).
    pub switch_hop_s: f64,
}

impl LatencySpec {
    /// Default ICI/island per-hop latency: ~1 µs (DESIGN.md §7).
    pub const ICI_HOP_S: f64 = 1.0e-6;
    /// Default InfiniBand NIC per-message overhead: 0.4 µs (DESIGN.md §7).
    pub const NIC_S: f64 = 0.4e-6;
    /// Default per-switch-stage latency: 0.1 µs (QM8790-class port-to-port
    /// latency is ~130 ns; DESIGN.md §7).
    pub const SWITCH_HOP_S: f64 = 0.1e-6;

    /// The calibrated reference values of DESIGN.md §7, used whenever a
    /// spec does not declare its own.
    pub fn reference() -> LatencySpec {
        LatencySpec {
            ici_hop_s: LatencySpec::ICI_HOP_S,
            nic_s: LatencySpec::NIC_S,
            switch_hop_s: LatencySpec::SWITCH_HOP_S,
        }
    }
}

/// Which all-reduce schedule family a machine's collectives should use —
/// the NCCL-style ring-vs-tree axis the large-scale tail of Figure 15
/// turns on (§7.9: fixed per-step overheads are what stall scaling).
///
/// `Ring` is the bandwidth-optimal flat schedule (`2(p−1)` alpha steps);
/// `Tree` is the double-binary-tree schedule (`2⌈log₂p⌉` alpha steps at a
/// `p/(p−1)` bandwidth penalty); `Auto` picks per collective, by payload
/// and participant count — the selection real NCCL-class stacks perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulePolicy {
    /// Always the flat ring schedule (the pre-IR behavior).
    Ring,
    /// Always the double-binary-tree schedule.
    Tree,
    /// Crossover-aware selection: whichever schedule is faster for the
    /// payload at hand (or the declared crossover override).
    Auto,
}

impl SchedulePolicy {
    /// The JSON label (`"ring"`, `"tree"`, `"auto"`).
    pub fn label(self) -> &'static str {
        match self {
            SchedulePolicy::Ring => "ring",
            SchedulePolicy::Tree => "tree",
            SchedulePolicy::Auto => "auto",
        }
    }

    /// Parses a JSON label.
    pub fn from_label(label: &str) -> Option<SchedulePolicy> {
        match label {
            "ring" => Some(SchedulePolicy::Ring),
            "tree" => Some(SchedulePolicy::Tree),
            "auto" => Some(SchedulePolicy::Auto),
            _ => None,
        }
    }
}

/// The collective-schedule calibration of a machine: which schedule
/// family to run and (optionally) a forced ring→tree crossover payload.
///
/// Optional on [`MachineSpec`]: specs that omit the block get
/// [`CollectiveSpec::reference`] — `auto` selection with the analytic
/// crossover (DESIGN.md §10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollectiveSpec {
    /// Schedule family (`ring`/`tree`/`auto`).
    pub schedule: SchedulePolicy,
    /// With `auto`: force tree below this all-reduce payload (bytes)
    /// instead of the analytic equal-time crossover. `None` keeps the
    /// analytic selection.
    pub crossover_bytes: Option<f64>,
}

impl CollectiveSpec {
    /// The default calibration when a spec omits its `collective` block:
    /// `auto` selection at the analytic crossover.
    pub fn reference() -> CollectiveSpec {
        CollectiveSpec {
            schedule: SchedulePolicy::Auto,
            crossover_bytes: None,
        }
    }
}

/// The fleet-operations calibration of a machine: the offered load and
/// failure/repair process a discrete-event fleet simulation should run
/// (`tpu_sched::fleet`). Times are wall-clock simulated time — seconds
/// for the job stream, hours for the (much slower) hardware process.
///
/// Optional on [`MachineSpec`]: specs that omit the block get
/// [`FleetSpec::reference`], a month-scale production profile whose
/// steady-state host availability is exactly 0.995 — the middle
/// availability column of the paper's Figure 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSpec {
    /// Mean job inter-arrival time, seconds (arrivals are Poisson).
    pub arrival_interval_s: f64,
    /// Mean job duration, seconds (durations are exponential).
    pub mean_duration_s: f64,
    /// Mean time between failures of one CPU host, hours (exponential
    /// up-times, independent across hosts).
    pub mtbf_h: f64,
    /// Mean time to repair a failed host, hours (exponential, except
    /// where truncated by the SLO below).
    pub mttr_h: f64,
    /// Repair SLO, hours: a hard bound on any single repair (the repair
    /// time is `min(Exp(mttr), slo)`). `None` means no bound.
    pub repair_slo_h: Option<f64>,
}

impl FleetSpec {
    /// Default mean inter-arrival time: one job every 30 minutes.
    pub const ARRIVAL_INTERVAL_S: f64 = 1800.0;
    /// Default mean job duration: 3 hours.
    pub const MEAN_DURATION_S: f64 = 10800.0;
    /// Default host MTBF: 995 hours (~41 days).
    pub const MTBF_H: f64 = 995.0;
    /// Default host MTTR: 5 hours.
    pub const MTTR_H: f64 = 5.0;

    /// The reference month-scale production profile, used whenever a
    /// spec does not declare its own `fleet` block. Its failure process
    /// gives `steady_availability() == 0.995` exactly (995/(995+5)).
    pub fn reference() -> FleetSpec {
        FleetSpec {
            arrival_interval_s: FleetSpec::ARRIVAL_INTERVAL_S,
            mean_duration_s: FleetSpec::MEAN_DURATION_S,
            mtbf_h: FleetSpec::MTBF_H,
            mttr_h: FleetSpec::MTTR_H,
            repair_slo_h: None,
        }
    }

    /// Expected duration of one repair, hours: `E[min(Exp(mttr), slo)]
    /// = mttr·(1 − e^(−slo/mttr))`, or plain `mttr` without an SLO.
    pub fn mean_repair_h(&self) -> f64 {
        match self.repair_slo_h {
            None => self.mttr_h,
            Some(slo) => self.mttr_h * (1.0 - (-slo / self.mttr_h).exp()),
        }
    }

    /// Steady-state availability of one host under this failure/repair
    /// process: `mtbf / (mtbf + E[repair])` (renewal-reward over the
    /// alternating up/down cycle). This is the closed form the
    /// discrete-event fleet simulation's measured availability — and,
    /// through `availability^hosts`, its measured goodput — must
    /// reproduce (the `fleet_equivalence` cross-check).
    pub fn steady_availability(&self) -> f64 {
        self.mtbf_h / (self.mtbf_h + self.mean_repair_h())
    }
}

/// How a machine's torus (or islands) are joined at fleet scale — the
/// §2.7 design axis the paper's Figure 4 argues over.
///
/// This is the backend-dispatch discriminator `Supercomputer::for_spec`
/// and `CollectiveBackend::for_spec` key off: `Ocs` and `Static` are both
/// ICI tori at the link level (identical steady-state collective cost),
/// but differ in *placement* — an OCS machine stitches a slice from any
/// healthy blocks, a statically-cabled one must find a contiguous healthy
/// sub-torus, so a single dead host fragments capacity instead of being
/// routed around.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FabricKind {
    /// OCS-stitched torus blocks (TPU v4): any healthy blocks form a
    /// slice, twists are programmable per job.
    Ocs,
    /// Statically-cabled torus (TPU v2/v3): slices need an axis-aligned
    /// contiguous healthy box of blocks; no twisting, no route-around.
    Static,
    /// Switched islands behind a fat tree (A100-style); requires
    /// `torus_dims == 0`.
    Switched,
}

impl FabricKind {
    /// The JSON label (`"ocs"`, `"static"`, `"switched"`).
    pub fn label(self) -> &'static str {
        match self {
            FabricKind::Ocs => "ocs",
            FabricKind::Static => "static",
            FabricKind::Switched => "switched",
        }
    }

    /// Parses a JSON label.
    pub fn from_label(label: &str) -> Option<FabricKind> {
        match label {
            "ocs" => Some(FabricKind::Ocs),
            "static" => Some(FabricKind::Static),
            "switched" => Some(FabricKind::Switched),
            _ => None,
        }
    }
}

/// The optical-circuit-switch layer of a machine (§2.1), absent on the
/// statically-cabled generations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OcsSpec {
    /// Switches in the fabric (48 = 3 dims × 16 face lines).
    pub count: u32,
    /// Ports per switch (Palomar: 136).
    pub ports: u16,
    /// Ports reserved as spares (Palomar: 8).
    pub spare_ports: u16,
    /// MEMS mirror reconfiguration time, milliseconds.
    pub reconfig_ms: f64,
}

impl OcsSpec {
    /// The Palomar fabric of the TPU v4 paper.
    pub fn palomar() -> OcsSpec {
        OcsSpec {
            count: consts::OCS_COUNT,
            ports: consts::PALOMAR_PORTS,
            spare_ports: consts::PALOMAR_SPARE_PORTS,
            reconfig_ms: consts::OCS_RECONFIG_MS,
        }
    }
}

/// One machine generation's complete declarative description.
///
/// Everything the per-crate `tpu_v4()` constructors used to hard-code
/// lives here exactly once: the chip record (peak FLOPS, HBM/CMEM
/// bandwidth, TDP/measured power), the MXU organization, the ICI link
/// rate and topology dimensionality, the block geometry and the fleet
/// size.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineSpec {
    /// Which generation this spec describes.
    pub generation: Generation,
    /// The chip record (Tables 4–5).
    pub chip: ChipSpec,
    /// Systolic MXUs per core (TensorCore); 0 for non-systolic chips.
    pub mxus_per_core: u32,
    /// MXU dimension (128 ⇒ 128×128 MACs); 0 for non-systolic chips.
    pub mxu_dim: u32,
    /// ICI torus dimensionality: 3 for v4, 2 for v2/v3, 0 for switched
    /// (fat-tree/NVLink) fabrics.
    pub torus_dims: u32,
    /// Building-block geometry.
    pub block: BlockGeometry,
    /// Chips in the full fleet-scale machine.
    pub fleet_chips: u64,
    /// How the fleet's blocks (or islands) are joined: OCS plugboard,
    /// static cabling, or a switched fat tree. Drives the
    /// `Supercomputer::for_spec` backend dispatch.
    pub fabric: FabricKind,
    /// The OCS layer, if the machine has one.
    pub ocs: Option<OcsSpec>,
    /// Per-hop latency calibration, if the machine declares one;
    /// `None` means the DESIGN.md §7 reference values apply (see
    /// [`MachineSpec::collective_latency`]).
    pub latency: Option<LatencySpec>,
    /// Collective-schedule calibration, if the machine declares one;
    /// `None` means `auto` ring-vs-tree selection at the analytic
    /// crossover (see [`MachineSpec::collective_schedule`]).
    pub collective: Option<CollectiveSpec>,
    /// Fleet-operations calibration (job arrival rate, host MTBF/MTTR,
    /// repair SLO), if the machine declares one; `None` means the
    /// reference month-scale profile applies (see
    /// [`MachineSpec::fleet_profile`]).
    pub fleet: Option<FleetSpec>,
}

impl MachineSpec {
    /// The TPU v4 supercomputer of the paper: 4096 chips, 64 blocks,
    /// 48 Palomar OCSes, 3D twisted-torus-capable ICI.
    pub fn v4() -> MachineSpec {
        MachineSpec {
            generation: Generation::V4,
            chip: ChipSpec::tpu_v4(),
            mxus_per_core: 4,
            mxu_dim: 128,
            torus_dims: 3,
            block: BlockGeometry::v4(),
            fleet_chips: consts::V4_FLEET_CHIPS,
            fabric: FabricKind::Ocs,
            ocs: Some(OcsSpec::palomar()),
            latency: None,
            collective: None,
            fleet: None,
        }
    }

    /// The TPU v3 machine: 1024 chips on a statically-cabled 2D torus —
    /// slices need contiguous healthy blocks (§2.5: the scheduler "had to
    /// find 256 contiguous chips that were idle").
    pub fn v3() -> MachineSpec {
        let chip = ChipSpec::tpu_v3();
        MachineSpec {
            generation: Generation::V3,
            mxus_per_core: 2,
            mxu_dim: 128,
            torus_dims: 2,
            block: BlockGeometry {
                edge: consts::BLOCK_EDGE,
                tpus_per_host: chip.chips_per_host,
            },
            fleet_chips: u64::from(chip.largest_config),
            fabric: FabricKind::Static,
            ocs: None,
            latency: None,
            collective: None,
            fleet: None,
            chip,
        }
    }

    /// The §2.7 counterfactual of the v3 fleet *behind* OCSes: identical
    /// chips, links and fleet, but the reconfigurable fabric in place of
    /// static cabling. Comparing this against [`MachineSpec::v3`] at equal
    /// host availability isolates the Figure 4 goodput gap.
    pub fn v3_ocs() -> MachineSpec {
        MachineSpec {
            generation: Generation::custom("v3-ocs"),
            fabric: FabricKind::Ocs,
            ocs: Some(OcsSpec::palomar()),
            ..MachineSpec::v3()
        }
    }

    /// The TPU v2 machine: 256 chips on a statically-cabled 2D torus.
    pub fn v2() -> MachineSpec {
        let chip = ChipSpec::tpu_v2();
        MachineSpec {
            generation: Generation::V2,
            mxus_per_core: 1,
            mxu_dim: 128,
            torus_dims: 2,
            block: BlockGeometry {
                edge: consts::BLOCK_EDGE,
                tpus_per_host: chip.chips_per_host,
            },
            fleet_chips: u64::from(chip.largest_config),
            fabric: FabricKind::Static,
            ocs: None,
            latency: None,
            collective: None,
            fleet: None,
            chip,
        }
    }

    /// The Table 5 A100 cluster (switched NVLink/InfiniBand fabric).
    pub fn a100() -> MachineSpec {
        let chip = ChipSpec::a100();
        MachineSpec {
            generation: Generation::custom("a100"),
            mxus_per_core: 0,
            mxu_dim: 0,
            torus_dims: 0,
            block: BlockGeometry {
                edge: 1,
                tpus_per_host: chip.chips_per_host,
            },
            fleet_chips: u64::from(chip.largest_config),
            fabric: FabricKind::Switched,
            ocs: None,
            latency: None,
            collective: None,
            fleet: None,
            chip,
        }
    }

    /// The §7.3 counterfactual: TPU v4 chips whose OCS-stitched torus is
    /// replaced by a switched fabric — 8-chip glueless ICI islands (2×2×2,
    /// the chips of two hosts) joined by a 3-level InfiniBand fat tree.
    ///
    /// `torus_dims == 0` routes this spec to the switched collective
    /// backend, so the paper's published 1.8×–2.4× all-reduce and
    /// 1.2×–2.4× all-to-all slowdowns regenerate from the same code path
    /// that answers the real A100 cluster.
    pub fn v4_ib_hybrid() -> MachineSpec {
        MachineSpec {
            generation: Generation::custom("v4-ib"),
            chip: ChipSpec::tpu_v4(),
            mxus_per_core: 4,
            mxu_dim: 128,
            torus_dims: 0,
            // A 2³ electrical island; hosts still carry 4 TPUs each.
            block: BlockGeometry {
                edge: 2,
                tpus_per_host: consts::V4_TPUS_PER_HOST,
            },
            fleet_chips: consts::V4_FLEET_CHIPS,
            fabric: FabricKind::Switched,
            ocs: None,
            latency: None,
            collective: None,
            fleet: None,
        }
    }

    /// An H100 NVLink-switch cluster (post-paper comparison point): the
    /// island-inference stress case where the glueless NVLink domain
    /// spans *more chips than one host* (DESIGN.md §6.1).
    ///
    /// Eight-GPU hosts, but NVLink4 reaches through NVLink switches
    /// across a 4³ = 64-GPU domain (8 hosts), so `block.edge = 4` makes
    /// the electrical block — not the host board — the glueless island:
    /// `glueless_island_chips() == 64 > chips_per_host == 8`. Islands are
    /// joined by the same HDR reference fat tree as every switched spec
    /// (the paper's comparisons hold the IB layer fixed).
    pub fn h100() -> MachineSpec {
        let chip = ChipSpec::h100();
        MachineSpec {
            generation: Generation::custom("h100"),
            mxus_per_core: 0,
            mxu_dim: 0,
            torus_dims: 0,
            block: BlockGeometry {
                edge: 4,
                tpus_per_host: chip.chips_per_host,
            },
            fleet_chips: u64::from(chip.largest_config),
            fabric: FabricKind::Switched,
            ocs: None,
            latency: None,
            collective: None,
            fleet: None,
            chip,
        }
    }

    /// The Table 5 Graphcore IPU Bow system.
    pub fn ipu_bow() -> MachineSpec {
        let chip = ChipSpec::ipu_bow();
        MachineSpec {
            generation: Generation::custom("ipu-bow"),
            mxus_per_core: 0,
            mxu_dim: 0,
            torus_dims: 0,
            block: BlockGeometry {
                edge: 1,
                tpus_per_host: chip.chips_per_host,
            },
            fleet_chips: u64::from(chip.largest_config),
            fabric: FabricKind::Switched,
            ocs: None,
            latency: None,
            collective: None,
            fleet: None,
            chip,
        }
    }

    /// The built-in spec for a generation, if one exists.
    ///
    /// V2/V3/V4 always resolve; [`Generation::Custom`] resolves for the
    /// well-known Table 5 labels `"a100"` and `"ipu-bow"`, the post-paper
    /// `"h100"` NVLink-switch cluster, and for the counterfactuals
    /// `"v4-ib"` (§7.3) and `"v3-ocs"` (§2.7).
    pub fn for_generation(generation: &Generation) -> Option<MachineSpec> {
        match generation {
            Generation::V2 => Some(MachineSpec::v2()),
            Generation::V3 => Some(MachineSpec::v3()),
            Generation::V4 => Some(MachineSpec::v4()),
            Generation::Custom(name) => match name.as_str() {
                "a100" => Some(MachineSpec::a100()),
                "h100" => Some(MachineSpec::h100()),
                "ipu-bow" => Some(MachineSpec::ipu_bow()),
                "v4-ib" => Some(MachineSpec::v4_ib_hybrid()),
                "v3-ocs" => Some(MachineSpec::v3_ocs()),
                _ => None,
            },
        }
    }

    /// Chips wired together gluelessly (without the switched fabric or
    /// OCS layer): the electrical block when it spans more than one chip,
    /// otherwise the chips sharing one host's board (an NVLink island).
    ///
    /// This is the island size the switched collective backend schedules
    /// hierarchically — 8 for the `"v4-ib"` counterfactual's 2×2×2 ICI
    /// islands, 4 for the Table 5 A100 host.
    pub fn glueless_island_chips(&self) -> u32 {
        if self.block.chips() > 1 {
            self.block.chips()
        } else {
            self.block.tpus_per_host.max(1)
        }
    }

    /// This spec with a different fleet-fabric kind — the one-line way to
    /// build the §2.7 counterfactuals (`v4().with_fabric(FabricKind::
    /// Static)` is "the same machine, statically cabled"). Switching to
    /// `Static` also drops any declared OCS layer, keeping the
    /// static-excludes-ocs invariant [`MachineSpec::from_json`] enforces,
    /// so that result always round-trips through JSON.
    ///
    /// `with_fabric(FabricKind::Switched)` on a torus spec is a usable
    /// in-memory counterfactual (the electrical blocks become the
    /// glueless islands behind a fat tree), but is deliberately not
    /// expressible as a spec *file* — the JSON format requires
    /// `"switched"` ⇔ `torus_dims == 0`, the way `specs/v4-ib.json`
    /// states that machine.
    pub fn with_fabric(mut self, fabric: FabricKind) -> MachineSpec {
        self.fabric = fabric;
        if fabric == FabricKind::Static {
            self.ocs = None;
        }
        self
    }

    /// The fleet's scheduling-unit accounting, shared by every placement
    /// model: `(units, chips_per_unit, hosts_per_unit)`.
    ///
    /// On torus machines the unit is the electrical block (v4: 64 units
    /// of 64 chips / 16 hosts). On `torus_dims == 0` machines it is the
    /// glueless island, with a partial trailing island counted as full
    /// (matching `SwitchedCluster`'s island count; ≤ island−1 chips of
    /// overcount on non-divisible fleets) and hosts derived from
    /// `tpus_per_host`.
    pub fn scheduling_units(&self) -> (u64, u32, u32) {
        if self.torus_dims == 0 {
            let island = self.glueless_island_chips();
            (
                self.fleet_chips.div_ceil(u64::from(island)).max(1),
                island,
                (island / self.block.tpus_per_host.max(1)).max(1),
            )
        } else {
            (self.fleet_blocks(), self.block.chips(), self.block.hosts())
        }
    }

    /// The latency calibration collective models should use: the spec's
    /// own [`LatencySpec`] when declared, otherwise the DESIGN.md §7
    /// reference values ([`LatencySpec::reference`]).
    pub fn collective_latency(&self) -> LatencySpec {
        self.latency.unwrap_or_else(LatencySpec::reference)
    }

    /// The collective-schedule calibration collective models should use:
    /// the spec's own [`CollectiveSpec`] when declared, otherwise
    /// [`CollectiveSpec::reference`] (`auto` ring-vs-tree selection at
    /// the analytic crossover, DESIGN.md §10).
    pub fn collective_schedule(&self) -> CollectiveSpec {
        self.collective.unwrap_or_else(CollectiveSpec::reference)
    }

    /// The fleet-operations calibration a discrete-event fleet
    /// simulation should use: the spec's own [`FleetSpec`] when
    /// declared, otherwise [`FleetSpec::reference`] (month-scale
    /// production profile at 0.995 steady-state host availability,
    /// DESIGN.md §12).
    pub fn fleet_profile(&self) -> FleetSpec {
        self.fleet.unwrap_or_else(FleetSpec::reference)
    }

    /// ICI link rate, bytes per second per link per direction.
    pub fn ici_bytes_per_s(&self) -> f64 {
        self.chip.ici_gbps_per_link * consts::GIGA
    }

    /// ICI links per chip.
    pub fn ici_links(&self) -> u32 {
        self.chip.ici_links
    }

    /// Peak dense compute, FLOP/s per chip.
    pub fn peak_flops(&self) -> f64 {
        self.chip.peak_tflops * consts::TERA
    }

    /// HBM bandwidth, bytes per second per chip.
    pub fn hbm_bytes_per_s(&self) -> f64 {
        self.chip.hbm_gbps * consts::GIGA
    }

    /// Blocks in the fleet-scale machine.
    pub fn fleet_blocks(&self) -> u64 {
        self.fleet_chips / u64::from(self.block.chips())
    }

    /// CPU hosts in the fleet-scale machine.
    pub fn fleet_hosts(&self) -> u64 {
        self.fleet_chips / u64::from(self.block.tpus_per_host)
    }

    /// Serializes the spec to a JSON string (see [`crate::json`]).
    pub fn to_json(&self) -> String {
        let chip = &self.chip;
        let mut chip_fields = vec![
            ("name".to_string(), JsonValue::Str(chip.name.clone())),
            (
                "deployed".to_string(),
                JsonValue::Num(f64::from(chip.deployed)),
            ),
            ("peak_tflops".to_string(), JsonValue::Num(chip.peak_tflops)),
            (
                "peak_tops_int8".to_string(),
                JsonValue::Num(chip.peak_tops_int8),
            ),
            ("clock_mhz".to_string(), JsonValue::Num(chip.clock_mhz)),
            (
                "boost_clock_mhz".to_string(),
                JsonValue::Num(chip.boost_clock_mhz),
            ),
            (
                "tech_nm".to_string(),
                JsonValue::Num(f64::from(chip.tech_nm)),
            ),
            ("die_mm2".to_string(), JsonValue::Num(chip.die_mm2)),
            (
                "transistors_b".to_string(),
                JsonValue::Num(chip.transistors_b),
            ),
            (
                "chips_per_host".to_string(),
                JsonValue::Num(f64::from(chip.chips_per_host)),
            ),
            ("tdp_w".to_string(), json::opt_num(chip.tdp_w)),
            ("idle_w".to_string(), json::opt_num(chip.idle_w)),
            (
                "power_min_mean_max_w".to_string(),
                match chip.power_min_mean_max_w {
                    None => JsonValue::Null,
                    Some((lo, mean, hi)) => JsonValue::Arr(vec![
                        JsonValue::Num(lo),
                        JsonValue::Num(mean),
                        JsonValue::Num(hi),
                    ]),
                },
            ),
            (
                "ici_links".to_string(),
                JsonValue::Num(f64::from(chip.ici_links)),
            ),
            (
                "ici_gbps_per_link".to_string(),
                JsonValue::Num(chip.ici_gbps_per_link),
            ),
            (
                "largest_config".to_string(),
                JsonValue::Num(f64::from(chip.largest_config)),
            ),
            (
                "style".to_string(),
                JsonValue::Str(chip.style.label().to_string()),
            ),
            (
                "processors".to_string(),
                JsonValue::Num(f64::from(chip.processors)),
            ),
            (
                "threads_per_core".to_string(),
                JsonValue::Num(f64::from(chip.threads_per_core)),
            ),
            (
                "sparse_cores".to_string(),
                JsonValue::Num(f64::from(chip.sparse_cores)),
            ),
            ("on_chip_mib".to_string(), JsonValue::Num(chip.on_chip_mib)),
            ("cmem_mib".to_string(), JsonValue::Num(chip.cmem_mib)),
            ("regfile_mib".to_string(), JsonValue::Num(chip.regfile_mib)),
            ("hbm_gib".to_string(), JsonValue::Num(chip.hbm_gib)),
            ("hbm_gbps".to_string(), JsonValue::Num(chip.hbm_gbps)),
        ];
        chip_fields.sort_by(|a, b| a.0.cmp(&b.0));

        let block = JsonValue::Obj(vec![
            (
                "edge".to_string(),
                JsonValue::Num(f64::from(self.block.edge)),
            ),
            (
                "tpus_per_host".to_string(),
                JsonValue::Num(f64::from(self.block.tpus_per_host)),
            ),
        ]);
        let ocs = match &self.ocs {
            None => JsonValue::Null,
            Some(ocs) => JsonValue::Obj(vec![
                ("count".to_string(), JsonValue::Num(f64::from(ocs.count))),
                ("ports".to_string(), JsonValue::Num(f64::from(ocs.ports))),
                (
                    "spare_ports".to_string(),
                    JsonValue::Num(f64::from(ocs.spare_ports)),
                ),
                ("reconfig_ms".to_string(), JsonValue::Num(ocs.reconfig_ms)),
            ]),
        };

        let latency = match &self.latency {
            None => JsonValue::Null,
            Some(lat) => JsonValue::Obj(vec![
                ("ici_hop_s".to_string(), JsonValue::Num(lat.ici_hop_s)),
                ("nic_s".to_string(), JsonValue::Num(lat.nic_s)),
                ("switch_hop_s".to_string(), JsonValue::Num(lat.switch_hop_s)),
            ]),
        };

        let collective = match &self.collective {
            None => JsonValue::Null,
            Some(col) => JsonValue::Obj(vec![
                (
                    "schedule".to_string(),
                    JsonValue::Str(col.schedule.label().to_string()),
                ),
                (
                    "crossover_bytes".to_string(),
                    json::opt_num(col.crossover_bytes),
                ),
            ]),
        };

        let fleet = match &self.fleet {
            None => JsonValue::Null,
            Some(fl) => JsonValue::Obj(vec![
                (
                    "arrival_interval_s".to_string(),
                    JsonValue::Num(fl.arrival_interval_s),
                ),
                (
                    "mean_duration_s".to_string(),
                    JsonValue::Num(fl.mean_duration_s),
                ),
                ("mtbf_h".to_string(), JsonValue::Num(fl.mtbf_h)),
                ("mttr_h".to_string(), JsonValue::Num(fl.mttr_h)),
                ("repair_slo_h".to_string(), json::opt_num(fl.repair_slo_h)),
            ]),
        };

        JsonValue::Obj(vec![
            (
                "generation".to_string(),
                JsonValue::Str(self.generation.label().to_string()),
            ),
            ("chip".to_string(), JsonValue::Obj(chip_fields)),
            (
                "mxus_per_core".to_string(),
                JsonValue::Num(f64::from(self.mxus_per_core)),
            ),
            (
                "mxu_dim".to_string(),
                JsonValue::Num(f64::from(self.mxu_dim)),
            ),
            (
                "torus_dims".to_string(),
                JsonValue::Num(f64::from(self.torus_dims)),
            ),
            ("block".to_string(), block),
            (
                "fleet_chips".to_string(),
                JsonValue::Num(self.fleet_chips as f64),
            ),
            (
                "fabric".to_string(),
                JsonValue::Str(self.fabric.label().to_string()),
            ),
            ("ocs".to_string(), ocs),
            ("latency".to_string(), latency),
            ("collective".to_string(), collective),
            ("fleet".to_string(), fleet),
        ])
        .to_string()
    }

    /// Parses a spec from the JSON produced by [`MachineSpec::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] on malformed JSON, missing fields,
    /// type-mismatched values, or a block and fleet geometry that no
    /// placement model can divide into blocks of whole hosts (the rules
    /// of `docs/spec-format.md`).
    pub fn from_json(text: &str) -> Result<MachineSpec, SpecError> {
        let root = json::parse(text)?;
        let generation = Generation::from_label(json::get_str(&root, "generation")?);
        let chip_obj = json::get(&root, "chip")?;
        let style_label = json::get_str(chip_obj, "chip.style")?;
        let style =
            ProcessorStyle::from_label(style_label).ok_or_else(|| SpecError::InvalidField {
                field: "chip.style".to_string(),
                expected: "one of si2d/simt/mimd".to_string(),
            })?;
        let chip = ChipSpec {
            name: json::get_str(chip_obj, "chip.name")?.to_string(),
            deployed: json::get_u32(chip_obj, "chip.deployed")?,
            peak_tflops: json::get_num(chip_obj, "chip.peak_tflops")?,
            peak_tops_int8: json::get_num(chip_obj, "chip.peak_tops_int8")?,
            clock_mhz: json::get_num(chip_obj, "chip.clock_mhz")?,
            boost_clock_mhz: json::get_num(chip_obj, "chip.boost_clock_mhz")?,
            tech_nm: json::get_u32(chip_obj, "chip.tech_nm")?,
            die_mm2: json::get_num(chip_obj, "chip.die_mm2")?,
            transistors_b: json::get_num(chip_obj, "chip.transistors_b")?,
            chips_per_host: json::get_u32(chip_obj, "chip.chips_per_host")?,
            tdp_w: json::get_opt_num(chip_obj, "chip.tdp_w")?,
            idle_w: json::get_opt_num(chip_obj, "chip.idle_w")?,
            power_min_mean_max_w: json::get_opt_triple(chip_obj, "chip.power_min_mean_max_w")?,
            ici_links: json::get_u32(chip_obj, "chip.ici_links")?,
            ici_gbps_per_link: json::get_num(chip_obj, "chip.ici_gbps_per_link")?,
            largest_config: json::get_u32(chip_obj, "chip.largest_config")?,
            style,
            processors: json::get_u32(chip_obj, "chip.processors")?,
            threads_per_core: json::get_u32(chip_obj, "chip.threads_per_core")?,
            sparse_cores: json::get_u32(chip_obj, "chip.sparse_cores")?,
            on_chip_mib: json::get_num(chip_obj, "chip.on_chip_mib")?,
            cmem_mib: json::get_num(chip_obj, "chip.cmem_mib")?,
            regfile_mib: json::get_num(chip_obj, "chip.regfile_mib")?,
            hbm_gib: json::get_num(chip_obj, "chip.hbm_gib")?,
            hbm_gbps: json::get_num(chip_obj, "chip.hbm_gbps")?,
        };
        let block_obj = json::get(&root, "block")?;
        let block = BlockGeometry {
            edge: json::get_u32(block_obj, "block.edge")?,
            tpus_per_host: json::get_u32(block_obj, "block.tpus_per_host")?,
        };
        let ocs = match json::get(&root, "ocs")? {
            JsonValue::Null => None,
            ocs_obj => Some(OcsSpec {
                count: json::get_u32(ocs_obj, "ocs.count")?,
                ports: json::get_u16(ocs_obj, "ocs.ports")?,
                spare_ports: json::get_u16(ocs_obj, "ocs.spare_ports")?,
                reconfig_ms: json::get_num(ocs_obj, "ocs.reconfig_ms")?,
            }),
        };
        // `latency` is optional *and* may be absent entirely: spec files
        // written before the field existed must keep parsing.
        let latency = match root.key("latency") {
            None | Some(JsonValue::Null) => None,
            Some(lat_obj) => Some(LatencySpec {
                ici_hop_s: json::get_num(lat_obj, "latency.ici_hop_s")?,
                nic_s: json::get_num(lat_obj, "latency.nic_s")?,
                switch_hop_s: json::get_num(lat_obj, "latency.switch_hop_s")?,
            }),
        };
        // `collective` is likewise optional and may be absent entirely:
        // spec files written before the schedule IR existed keep parsing
        // (and resolve to `auto` selection via `collective_schedule`).
        let collective = match root.key("collective") {
            None | Some(JsonValue::Null) => None,
            Some(col_obj) => {
                let label = json::get_str(col_obj, "collective.schedule")?;
                let schedule =
                    SchedulePolicy::from_label(label).ok_or_else(|| SpecError::InvalidField {
                        field: "collective.schedule".to_string(),
                        expected: "one of ring/tree/auto".to_string(),
                    })?;
                // Absent and null both mean "analytic crossover", so a
                // hand-written block can be just {"schedule": "tree"}.
                let crossover_bytes = match col_obj.key("crossover_bytes") {
                    None => None,
                    Some(_) => json::get_opt_num(col_obj, "collective.crossover_bytes")?,
                };
                if let Some(bytes) = crossover_bytes {
                    if !bytes.is_finite() || bytes < 0.0 {
                        return Err(SpecError::InvalidField {
                            field: "collective.crossover_bytes".to_string(),
                            expected: "a finite non-negative payload in bytes".to_string(),
                        });
                    }
                    // A forced ring/tree never consults the crossover;
                    // accepting the combination would let a spec author
                    // believe a threshold is in force when it has no
                    // effect on any costed collective.
                    if schedule != SchedulePolicy::Auto {
                        return Err(SpecError::InvalidField {
                            field: "collective.crossover_bytes".to_string(),
                            expected: "null unless schedule is \"auto\" (a forced schedule \
                                       ignores the crossover)"
                                .to_string(),
                        });
                    }
                }
                Some(CollectiveSpec {
                    schedule,
                    crossover_bytes,
                })
            }
        };
        // `fleet` is likewise optional and may be absent entirely: spec
        // files written before the fleet simulator existed keep parsing
        // (and resolve to the reference profile via `fleet_profile`).
        let fleet = match root.key("fleet") {
            None | Some(JsonValue::Null) => None,
            Some(fl_obj) => {
                let arrival_interval_s = json::get_num(fl_obj, "fleet.arrival_interval_s")?;
                let mean_duration_s = json::get_num(fl_obj, "fleet.mean_duration_s")?;
                let mtbf_h = json::get_num(fl_obj, "fleet.mtbf_h")?;
                let mttr_h = json::get_num(fl_obj, "fleet.mttr_h")?;
                for (field, value) in [
                    ("fleet.arrival_interval_s", arrival_interval_s),
                    ("fleet.mean_duration_s", mean_duration_s),
                    ("fleet.mtbf_h", mtbf_h),
                    ("fleet.mttr_h", mttr_h),
                ] {
                    if !value.is_finite() || value <= 0.0 {
                        return Err(SpecError::InvalidField {
                            field: field.to_string(),
                            expected: "a finite positive number".to_string(),
                        });
                    }
                }
                // Absent and null both mean "no repair-time bound", so a
                // hand-written block may omit the key.
                let repair_slo_h = match fl_obj.key("repair_slo_h") {
                    None => None,
                    Some(_) => json::get_opt_num(fl_obj, "fleet.repair_slo_h")?,
                };
                if let Some(slo) = repair_slo_h {
                    if !slo.is_finite() || slo <= 0.0 {
                        return Err(SpecError::InvalidField {
                            field: "fleet.repair_slo_h".to_string(),
                            expected: "a finite positive bound in hours, or null".to_string(),
                        });
                    }
                }
                Some(FleetSpec {
                    arrival_interval_s,
                    mean_duration_s,
                    mtbf_h,
                    mttr_h,
                    repair_slo_h,
                })
            }
        };
        let torus_dims = json::get_u32(&root, "torus_dims")?;
        // `fabric` is optional: spec files written before the field
        // existed keep parsing with the pre-fabric dispatch semantics
        // (torus specs behind the OCS slice fabric, `torus_dims == 0`
        // switched). When present it must agree with `torus_dims`, and a
        // statically-cabled machine cannot also declare an OCS layer.
        let fabric = match root.key("fabric") {
            None | Some(JsonValue::Null) => {
                if torus_dims == 0 {
                    FabricKind::Switched
                } else {
                    FabricKind::Ocs
                }
            }
            Some(JsonValue::Str(label)) => {
                FabricKind::from_label(label).ok_or_else(|| SpecError::InvalidField {
                    field: "fabric".to_string(),
                    expected: "one of ocs/static/switched".to_string(),
                })?
            }
            Some(_) => {
                return Err(SpecError::InvalidField {
                    field: "fabric".to_string(),
                    expected: "a string label (ocs/static/switched)".to_string(),
                })
            }
        };
        if (fabric == FabricKind::Switched) != (torus_dims == 0) {
            return Err(SpecError::InvalidField {
                field: "fabric".to_string(),
                expected: "switched if and only if torus_dims == 0".to_string(),
            });
        }
        if fabric == FabricKind::Static && ocs.is_some() {
            return Err(SpecError::InvalidField {
                field: "fabric".to_string(),
                expected: "no ocs layer on a statically-cabled machine".to_string(),
            });
        }
        let spec = MachineSpec {
            generation,
            chip,
            mxus_per_core: json::get_u32(&root, "mxus_per_core")?,
            mxu_dim: json::get_u32(&root, "mxu_dim")?,
            torus_dims,
            block,
            fleet_chips: json::get_u64(&root, "fleet_chips")?,
            fabric,
            ocs,
            latency,
            collective,
            fleet,
        };
        check_geometry(&spec)?;
        Ok(spec)
    }
}

/// The geometry every placement model divides by: a block of at least
/// one chip (whose chip count fits a `u32`) and hosts of at least one
/// chip; on a torus machine, blocks of whole hosts and a fleet of a
/// positive whole number of blocks, at most the
/// [`consts::PALOMAR_MAX_BLOCKS`] an OCS fabric joins; on a switched
/// one, at least one chip.
fn check_geometry(spec: &MachineSpec) -> Result<(), SpecError> {
    let (block, fleet_chips) = (spec.block, spec.fleet_chips);
    let invalid = |field: &str, expected: &str| {
        Err(SpecError::InvalidField {
            field: field.to_string(),
            expected: expected.to_string(),
        })
    };
    let Some(block_chips) = block.edge.checked_pow(3).filter(|&chips| chips > 0) else {
        return invalid("block.edge", "a positive edge whose cube fits in 32 bits");
    };
    if block.tpus_per_host == 0 {
        return invalid("block.tpus_per_host", "a positive chip count");
    }
    if spec.torus_dims == 0 {
        if fleet_chips == 0 {
            return invalid("fleet_chips", "at least one chip");
        }
        return Ok(());
    }
    if !block_chips.is_multiple_of(block.tpus_per_host) {
        return invalid(
            "block.tpus_per_host",
            "a divisor of the block's edge³ chips on a torus machine",
        );
    }
    if fleet_chips == 0 || !fleet_chips.is_multiple_of(u64::from(block_chips)) {
        return invalid(
            "fleet_chips",
            "a positive whole number of blocks (edge³ chips) on a torus machine",
        );
    }
    if fleet_chips / u64::from(block_chips) > u64::from(consts::PALOMAR_MAX_BLOCKS) {
        return invalid(
            "fleet_chips",
            &format!(
                "at most {} blocks on a torus machine, what one OCS fabric joins",
                consts::PALOMAR_MAX_BLOCKS
            ),
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v4_matches_table4_headlines() {
        let spec = MachineSpec::v4();
        assert_eq!(spec.chip.peak_tflops, 275.0);
        assert_eq!(spec.chip.hbm_gbps, 1200.0);
        assert_eq!(spec.chip.ici_gbps_per_link, 50.0);
        assert_eq!(spec.fleet_chips, 4096);
        assert_eq!(spec.fleet_blocks(), 64);
        assert_eq!(spec.fleet_hosts(), 1024);
        assert_eq!(spec.block.chips(), 64);
        assert_eq!(spec.block.hosts(), 16);
        let ocs = spec.ocs.expect("v4 has an OCS layer");
        assert_eq!(ocs.count, 48);
        assert_eq!(ocs.ports - ocs.spare_ports, 128);
    }

    #[test]
    fn generations_resolve() {
        for generation in [Generation::V2, Generation::V3, Generation::V4] {
            let spec = MachineSpec::for_generation(&generation).unwrap();
            assert_eq!(spec.generation, generation);
        }
        assert!(MachineSpec::for_generation(&Generation::custom("a100")).is_some());
        assert!(MachineSpec::for_generation(&Generation::custom("h100")).is_some());
        assert!(MachineSpec::for_generation(&Generation::custom("ipu-bow")).is_some());
        assert!(MachineSpec::for_generation(&Generation::custom("v4-ib")).is_some());
        assert!(MachineSpec::for_generation(&Generation::custom("v3-ocs")).is_some());
        assert!(MachineSpec::for_generation(&Generation::custom("gb200")).is_none());
    }

    #[test]
    fn fabric_kinds_of_builtins() {
        assert_eq!(MachineSpec::v4().fabric, FabricKind::Ocs);
        assert_eq!(MachineSpec::v3().fabric, FabricKind::Static);
        assert_eq!(MachineSpec::v2().fabric, FabricKind::Static);
        assert_eq!(MachineSpec::a100().fabric, FabricKind::Switched);
        assert_eq!(MachineSpec::ipu_bow().fabric, FabricKind::Switched);
        assert_eq!(MachineSpec::v4_ib_hybrid().fabric, FabricKind::Switched);
        assert_eq!(MachineSpec::v3_ocs().fabric, FabricKind::Ocs);
    }

    #[test]
    fn v3_ocs_is_the_v3_fleet_behind_ocses() {
        let spec = MachineSpec::v3_ocs();
        let v3 = MachineSpec::v3();
        assert_eq!(spec.generation, Generation::custom("v3-ocs"));
        assert_eq!(spec.chip, v3.chip);
        assert_eq!(spec.fleet_chips, v3.fleet_chips);
        assert_eq!(spec.torus_dims, v3.torus_dims);
        assert_eq!(spec.ocs, Some(OcsSpec::palomar()));
        // with_fabric alone recovers the static machine's placement
        // semantics (the fabric discriminator is the only axis).
        let mut back = spec.clone().with_fabric(FabricKind::Static);
        back.generation = Generation::V3;
        back.ocs = None;
        assert_eq!(back, v3);
    }

    #[test]
    fn fabric_field_round_trips_and_may_be_omitted() {
        // Every built-in's label survives the round trip (covered again by
        // json_roundtrip_all_builtins, but here for the field itself).
        for (spec, label) in [
            (MachineSpec::v4(), "\"fabric\":\"ocs\""),
            (MachineSpec::v3(), "\"fabric\":\"static\""),
            (MachineSpec::a100(), "\"fabric\":\"switched\""),
        ] {
            assert!(spec.to_json().contains(label), "{}", spec.to_json());
        }

        // A pre-fabric spec file (no "fabric" key) keeps parsing with the
        // legacy dispatch: torus specs behind the OCS slice fabric,
        // torus_dims == 0 switched.
        let stripped = MachineSpec::v3()
            .to_json()
            .replace(",\"fabric\":\"static\"", "");
        assert!(!stripped.contains("fabric"));
        let old = MachineSpec::from_json(&stripped).unwrap();
        assert_eq!(old.fabric, FabricKind::Ocs);
        let stripped = MachineSpec::a100()
            .to_json()
            .replace(",\"fabric\":\"switched\"", "");
        let old = MachineSpec::from_json(&stripped).unwrap();
        assert_eq!(old.fabric, FabricKind::Switched);

        // Unknown labels are positioned errors, not defaults.
        let bad = MachineSpec::v4()
            .to_json()
            .replace("\"fabric\":\"ocs\"", "\"fabric\":\"mesh\"");
        let err = MachineSpec::from_json(&bad).unwrap_err();
        assert!(
            matches!(&err, SpecError::InvalidField { field, .. } if field == "fabric"),
            "{err}"
        );
    }

    #[test]
    fn with_fabric_static_drops_the_ocs_layer_and_round_trips() {
        // The v4 static counterfactual must satisfy the same invariants
        // from_json enforces on files, so it can be persisted/reloaded.
        let counterfactual = MachineSpec::v4().with_fabric(FabricKind::Static);
        assert_eq!(counterfactual.fabric, FabricKind::Static);
        assert!(counterfactual.ocs.is_none());
        let back = MachineSpec::from_json(&counterfactual.to_json()).unwrap();
        assert_eq!(back, counterfactual);
        // Units are unchanged: same blocks, chips and hosts either way.
        assert_eq!(
            counterfactual.scheduling_units(),
            MachineSpec::v4().scheduling_units()
        );
    }

    #[test]
    fn scheduling_units_of_builtins() {
        assert_eq!(MachineSpec::v4().scheduling_units(), (64, 64, 16));
        assert_eq!(MachineSpec::v3().scheduling_units(), (16, 64, 8));
        assert_eq!(MachineSpec::a100().scheduling_units(), (1054, 4, 1));
        assert_eq!(MachineSpec::v4_ib_hybrid().scheduling_units(), (512, 8, 2));
    }

    #[test]
    fn fabric_field_must_agree_with_the_rest_of_the_spec() {
        // switched <=> torus_dims == 0, both directions.
        let bad = MachineSpec::v3()
            .to_json()
            .replace("\"fabric\":\"static\"", "\"fabric\":\"switched\"");
        assert!(MachineSpec::from_json(&bad).is_err());
        let bad = MachineSpec::a100()
            .to_json()
            .replace("\"fabric\":\"switched\"", "\"fabric\":\"ocs\"");
        assert!(MachineSpec::from_json(&bad).is_err());
        // A statically-cabled machine cannot also declare an OCS layer.
        let bad = MachineSpec::v4()
            .to_json()
            .replace("\"fabric\":\"ocs\"", "\"fabric\":\"static\"");
        assert!(MachineSpec::from_json(&bad).is_err());
        // But an OCS-fabric spec without an explicit ocs object is fine
        // (pre-OCS fleets modelled behind the reconfigurable fabric).
        let ok = MachineSpec::v3()
            .to_json()
            .replace("\"fabric\":\"static\"", "\"fabric\":\"ocs\"");
        assert_eq!(MachineSpec::from_json(&ok).unwrap().fabric, FabricKind::Ocs);
    }

    #[test]
    fn v4_ib_hybrid_is_a_switched_v4() {
        let spec = MachineSpec::v4_ib_hybrid();
        assert_eq!(spec.torus_dims, 0);
        assert!(spec.ocs.is_none());
        assert_eq!(spec.chip, ChipSpec::tpu_v4());
        assert_eq!(spec.fleet_chips, 4096);
        assert_eq!(spec.glueless_island_chips(), 8);
    }

    #[test]
    fn island_sizes() {
        assert_eq!(MachineSpec::v4().glueless_island_chips(), 64);
        assert_eq!(MachineSpec::a100().glueless_island_chips(), 4);
        assert_eq!(MachineSpec::ipu_bow().glueless_island_chips(), 4);
    }

    #[test]
    fn v3_is_a_2d_statically_cabled_machine() {
        let spec = MachineSpec::v3();
        assert_eq!(spec.torus_dims, 2);
        assert!(spec.ocs.is_none());
        assert_eq!(spec.fleet_chips, 1024);
        assert_eq!(spec.block.tpus_per_host, 8);
        assert_eq!(spec.fleet_hosts(), 128);
    }

    #[test]
    fn derived_rates() {
        let spec = MachineSpec::v4();
        assert_eq!(spec.ici_bytes_per_s(), 50e9);
        assert_eq!(spec.peak_flops(), 275e12);
        assert_eq!(spec.hbm_bytes_per_s(), 1.2e12);
        assert_eq!(spec.chip.cmem_mib, 128.0);
    }

    #[test]
    fn h100_island_spans_multiple_hosts() {
        // The §6.1 island-inference stress case: the NVLink-switch
        // domain (the electrical block, 4³ = 64 GPUs) is the glueless
        // island, and it is strictly larger than one 8-GPU host.
        let spec = MachineSpec::h100();
        assert_eq!(spec.fabric, FabricKind::Switched);
        assert_eq!(spec.torus_dims, 0);
        assert_eq!(spec.chip.chips_per_host, 8);
        assert_eq!(spec.glueless_island_chips(), 64);
        assert!(spec.glueless_island_chips() > spec.chip.chips_per_host);
        // 4096 GPUs in 64 islands of 8 hosts each.
        assert_eq!(spec.scheduling_units(), (64, 64, 8));
        let back = MachineSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn collective_field_round_trips_and_may_be_omitted() {
        // Explicit schedule blocks survive the round trip: a forced
        // tree (no crossover — the parser rejects that dead pair), and
        // an auto policy with a declared crossover.
        let mut spec = MachineSpec::a100();
        spec.collective = Some(CollectiveSpec {
            schedule: SchedulePolicy::Tree,
            ..CollectiveSpec::reference()
        });
        let back = MachineSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.collective_schedule().schedule, SchedulePolicy::Tree);
        spec.collective = Some(CollectiveSpec {
            schedule: SchedulePolicy::Auto,
            crossover_bytes: Some(8e6),
        });
        let back = MachineSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.collective_schedule().crossover_bytes, Some(8e6));

        // A pre-IR spec file (no "collective" key at all) still parses,
        // as None, and resolves to auto selection.
        let stripped = MachineSpec::v4()
            .to_json()
            .replace(",\"collective\":null", "");
        assert!(!stripped.contains("collective"));
        let old = MachineSpec::from_json(&stripped).unwrap();
        assert_eq!(old, MachineSpec::v4());
        assert_eq!(old.collective_schedule(), CollectiveSpec::reference());
        assert_eq!(old.collective_schedule().schedule, SchedulePolicy::Auto);

        // A block without the optional crossover key parses too.
        let terse = MachineSpec::v4().to_json().replace(
            "\"collective\":null",
            "\"collective\":{\"schedule\":\"ring\"}",
        );
        let parsed = MachineSpec::from_json(&terse).unwrap();
        assert_eq!(
            parsed.collective,
            Some(CollectiveSpec {
                schedule: SchedulePolicy::Ring,
                ..CollectiveSpec::reference()
            })
        );

        // Unknown schedule labels, negative crossovers, and a crossover
        // on a forced schedule (which would silently never be consulted)
        // are positioned errors, not defaults.
        for (bad, field) in [
            (
                "\"collective\":{\"schedule\":\"butterfly\"}",
                "collective.schedule",
            ),
            (
                "\"collective\":{\"schedule\":\"auto\",\"crossover_bytes\":-1}",
                "collective.crossover_bytes",
            ),
            (
                "\"collective\":{\"schedule\":\"ring\",\"crossover_bytes\":8e6}",
                "collective.crossover_bytes",
            ),
        ] {
            let text = MachineSpec::v4()
                .to_json()
                .replace("\"collective\":null", bad);
            let err = MachineSpec::from_json(&text).unwrap_err();
            assert!(
                matches!(&err, SpecError::InvalidField { field: f, .. } if f == field),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn fleet_field_round_trips_and_may_be_omitted() {
        // An explicit fleet block survives the round trip, with and
        // without the optional repair SLO.
        let mut spec = MachineSpec::v4();
        spec.fleet = Some(FleetSpec {
            arrival_interval_s: 600.0,
            mean_duration_s: 7200.0,
            mtbf_h: 500.0,
            mttr_h: 2.0,
            repair_slo_h: Some(24.0),
        });
        let back = MachineSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        spec.fleet.as_mut().unwrap().repair_slo_h = None;
        let back = MachineSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);

        // A pre-DES spec file (no "fleet" key at all) still parses, as
        // None, and resolves to the reference profile.
        let stripped = MachineSpec::v4().to_json().replace(",\"fleet\":null", "");
        assert!(!stripped.contains("\"fleet\":"));
        let old = MachineSpec::from_json(&stripped).unwrap();
        assert_eq!(old, MachineSpec::v4());
        assert_eq!(old.fleet_profile(), FleetSpec::reference());

        // A block without the optional repair_slo_h key parses too.
        let terse = MachineSpec::v4().to_json().replace(
            "\"fleet\":null",
            "\"fleet\":{\"arrival_interval_s\":60,\"mean_duration_s\":600,\
             \"mtbf_h\":995,\"mttr_h\":5}",
        );
        let parsed = MachineSpec::from_json(&terse).unwrap();
        assert_eq!(parsed.fleet.unwrap().repair_slo_h, None);

        // Non-positive or non-finite rates are positioned errors.
        for (bad, field) in [
            (
                "\"fleet\":{\"arrival_interval_s\":0,\"mean_duration_s\":600,\
                 \"mtbf_h\":995,\"mttr_h\":5}",
                "fleet.arrival_interval_s",
            ),
            (
                "\"fleet\":{\"arrival_interval_s\":60,\"mean_duration_s\":600,\
                 \"mtbf_h\":-1,\"mttr_h\":5}",
                "fleet.mtbf_h",
            ),
            (
                "\"fleet\":{\"arrival_interval_s\":60,\"mean_duration_s\":600,\
                 \"mtbf_h\":995,\"mttr_h\":5,\"repair_slo_h\":0}",
                "fleet.repair_slo_h",
            ),
        ] {
            let text = MachineSpec::v4().to_json().replace("\"fleet\":null", bad);
            let err = MachineSpec::from_json(&text).unwrap_err();
            assert!(
                matches!(&err, SpecError::InvalidField { field: f, .. } if f == field),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn fleet_spec_availability_matches_the_renewal_closed_form() {
        // The reference profile is tuned to the Figure 4 middle column.
        let reference = FleetSpec::reference();
        assert_eq!(reference.steady_availability(), 0.995);

        // A repair SLO truncates the exponential repair time:
        // E[min(Exp(m), s)] = m(1 - e^(-s/m)), so availability rises.
        let bounded = FleetSpec {
            repair_slo_h: Some(5.0),
            ..reference
        };
        let expected_repair = 5.0 * (1.0 - (-1.0f64).exp());
        assert!((bounded.mean_repair_h() - expected_repair).abs() < 1e-12);
        assert!(bounded.steady_availability() > reference.steady_availability());

        // A very loose SLO changes nothing measurable.
        let loose = FleetSpec {
            repair_slo_h: Some(5000.0),
            ..reference
        };
        assert!((loose.steady_availability() - 0.995).abs() < 1e-9);
    }

    #[test]
    fn schedule_policy_labels_round_trip() {
        for policy in [
            SchedulePolicy::Ring,
            SchedulePolicy::Tree,
            SchedulePolicy::Auto,
        ] {
            assert_eq!(SchedulePolicy::from_label(policy.label()), Some(policy));
        }
        assert_eq!(SchedulePolicy::from_label("butterfly"), None);
    }

    #[test]
    fn json_roundtrip_all_builtins() {
        for spec in [
            MachineSpec::v2(),
            MachineSpec::v3(),
            MachineSpec::v4(),
            MachineSpec::a100(),
            MachineSpec::h100(),
            MachineSpec::ipu_bow(),
            MachineSpec::v4_ib_hybrid(),
            MachineSpec::v3_ocs(),
        ] {
            let text = spec.to_json();
            let back = MachineSpec::from_json(&text).unwrap();
            assert_eq!(back, spec, "{text}");
        }
    }

    #[test]
    fn latency_field_round_trips_and_may_be_omitted() {
        // Explicit alphas survive the round trip.
        let mut spec = MachineSpec::a100();
        spec.latency = Some(LatencySpec {
            ici_hop_s: 2.5e-7,
            nic_s: 1.5e-6,
            switch_hop_s: 9e-8,
        });
        let back = MachineSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.collective_latency().nic_s, 1.5e-6);

        // A pre-latency spec file (no "latency" key at all) still parses,
        // as None, and resolves to the reference calibration.
        let stripped = MachineSpec::v4().to_json().replace(",\"latency\":null", "");
        assert!(!stripped.contains("latency"));
        let old = MachineSpec::from_json(&stripped).unwrap();
        assert_eq!(old, MachineSpec::v4());
        assert_eq!(old.collective_latency(), LatencySpec::reference());

        // A malformed latency object is a positioned error, not a default.
        let bad = MachineSpec::v4()
            .to_json()
            .replace("\"latency\":null", "\"latency\":{\"ici_hop_s\":1e-6}");
        let err = MachineSpec::from_json(&bad).unwrap_err();
        assert!(
            matches!(&err, SpecError::MissingField { field } if field == "latency.nic_s"),
            "{err}"
        );
    }

    #[test]
    fn from_json_reports_missing_fields() {
        let err = MachineSpec::from_json("{\"generation\": \"v4\"}").unwrap_err();
        assert!(matches!(err, SpecError::MissingField { .. }), "{err}");
    }

    #[test]
    fn from_json_rejects_out_of_range_integers() {
        // OCS ports must fit u16 — no silent truncation.
        let oversized = MachineSpec::v4()
            .to_json()
            .replace("\"ports\":136", "\"ports\":70000");
        let err = MachineSpec::from_json(&oversized).unwrap_err();
        assert!(
            matches!(&err, SpecError::InvalidField { field, .. } if field == "ocs.ports"),
            "{err}"
        );
        // Negative or fractional fleet sizes are invalid, not saturated.
        for bad in ["\"fleet_chips\":-7", "\"fleet_chips\":4096.5"] {
            let text = MachineSpec::v4()
                .to_json()
                .replace("\"fleet_chips\":4096", bad);
            let err = MachineSpec::from_json(&text).unwrap_err();
            assert!(
                matches!(&err, SpecError::InvalidField { field, .. } if field == "fleet_chips"),
                "{bad}: {err}"
            );
        }
    }
}
