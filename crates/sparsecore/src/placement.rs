//! Where embeddings live: the Figure 9 experiment.
//!
//! Four placements for the embedding tables of a DLRM:
//!
//! * **SparseCore** — the paper's design: tables in pooled HBM, lookups on
//!   the SC, exchange over ICI.
//! * **TensorCore** — no SC: the TC's dense-optimized VPU does the small
//!   gathers and the sparse work serializes with the dense work.
//! * **Host CPU** — tables in CPU host memory behind PCIe, "an Amdahl's
//!   Law bottleneck over the CPU DRAM interface, amplified by the 4:1
//!   TPU v4 to CPU host ratio".
//! * **Variable servers** — tables on external parameter servers across
//!   the datacenter network.
//!
//! Plus the standalone CPU cluster baseline (576 Skylake sockets: 400
//! learners and 176 variable servers).

use crate::arch::{ScGeneration, ScInstruction};
use crate::exec::{StepBreakdown, WorkloadProfile};
use tpu_spec::MachineSpec;

/// Where the embedding tables are placed (Figure 9's bars).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Placement {
    /// In pooled HBM, driven by the SparseCore.
    SparseCore,
    /// In HBM, driven by the TensorCore (no SC).
    TensorCore,
    /// In CPU host memory ("Emb on CPU").
    HostCpu,
    /// On external variable servers ("Emb on Variable Server").
    VariableServer,
}

/// Fraction of peak HBM bandwidth achieved by latency-bound small-row
/// gathers on the SparseCore's fetch units ("multiple outstanding memory
/// accesses" per tile).
const SC_GATHER_EFFICIENCY: f64 = 0.30;
/// The TensorCore's VPU achieves far less on scattered small rows (§3.5:
/// "suboptimal due to small gather/scatter memory accesses").
const TC_GATHER_EFFICIENCY: f64 = 0.08;
/// MXU efficiency on the DLRM dense layers.
const DENSE_EFFICIENCY: f64 = 0.5;
/// Host memory: DDR bandwidth per CPU socket, bytes/s.
const HOST_DRAM_BW: f64 = 128e9;
/// Random-access efficiency of host DRAM gathers.
const HOST_DRAM_EFFICIENCY: f64 = 0.30;
/// PCIe bandwidth per TPU chip to its host, bytes/s.
const PCIE_BW_PER_CHIP: f64 = 16e9;
/// Datacenter-network bandwidth per host/server NIC, bytes/s.
const DCN_BW: f64 = 12.5e9;
/// Effective throughput of one Skylake socket on the DLRM dense layers,
/// FLOP/s. Skylake has no bf16; fp32 AVX-512 with realistic MLP blocking,
/// input-pipeline stalls and async variable-server staleness lands near
/// 10% of the ~2 TFLOP/s peak (calibration constant, see DESIGN.md).
const CPU_DENSE_FLOPS: f64 = 0.20e12;
/// TensorCore software penalty running the SC's sort/dedup/combine stages
/// without cross-channel hardware.
const TC_SOFTWARE_PENALTY: f64 = 4.0;
/// CISC instruction streams per feature per step (sort, unique,
/// partition, gather, segment-sum, scatter).
const INSTRS_PER_FEATURE: u64 = 6;

/// A system that can train a DLRM (a TPU slice or the CPU baseline).
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingSystem {
    name: String,
    kind: SystemKind,
}

#[derive(Debug, Clone, PartialEq)]
enum SystemKind {
    TpuSlice {
        chips: u64,
        peak_flops: f64,
        hbm_bw: f64,
        generation: ScGeneration,
        /// Per-chip all-to-all bandwidth from the slice's bisection.
        a2a_bw_per_chip: f64,
    },
    CpuCluster {
        learner_sockets: u32,
        vs_sockets: u32,
    },
}

/// Per-chip all-to-all bandwidth of an N-chip 3D torus (TPU v4 shapes),
/// bytes/s: `min(injection, 4 · bisection_links · link_rate / N)`.
pub fn a2a_bw_3d(chips: u64, link_rate: f64, links_per_chip: u32) -> f64 {
    let shape = canonical_shape_3d(chips);
    let max_dim = shape.0.max(shape.1).max(shape.2);
    let bisection_links = if max_dim <= 1 { 1 } else { 2 * chips / max_dim };
    let network = 4.0 * bisection_links as f64 * link_rate / chips as f64;
    let injection = f64::from(links_per_chip) * link_rate;
    network.min(injection)
}

/// Per-chip all-to-all bandwidth of an N-chip 2D torus (TPU v2/v3
/// shapes), bytes/s. 2D bisection scales as √N (§3.6).
pub fn a2a_bw_2d(chips: u64, link_rate: f64, links_per_chip: u32) -> f64 {
    let (x, y) = canonical_shape_2d(chips);
    let max_dim = x.max(y);
    let bisection_links = if max_dim <= 1 { 1 } else { 2 * chips / max_dim };
    let network = 4.0 * bisection_links as f64 * link_rate / chips as f64;
    let injection = f64::from(links_per_chip) * link_rate;
    network.min(injection)
}

/// The most cubic 3D factorization of a chip count (prefers the paper's
/// canonical shapes: 64 → 4³, 512 → 8³, 4096 → 16³).
pub fn canonical_shape_3d(chips: u64) -> (u64, u64, u64) {
    let mut best = (1, 1, chips);
    let mut best_score = u64::MAX;
    for x in 1..=chips {
        if x * x * x > chips {
            break;
        }
        if !chips.is_multiple_of(x) {
            continue;
        }
        let rest = chips / x;
        for y in x..=rest {
            if y * y > rest {
                break;
            }
            if !rest.is_multiple_of(y) {
                continue;
            }
            let z = rest / y;
            let score = z - x; // minimize spread
            if score < best_score {
                best_score = score;
                best = (x, y, z);
            }
        }
    }
    best
}

/// The most square 2D factorization of a chip count.
pub fn canonical_shape_2d(chips: u64) -> (u64, u64) {
    let mut best = (1, chips);
    for x in 1..=chips {
        if x * x > chips {
            break;
        }
        if chips.is_multiple_of(x) {
            best = (x, chips / x);
        }
    }
    best
}

impl EmbeddingSystem {
    /// A slice of `chips` chips of the machine a spec describes, on the
    /// canonical torus of the spec's dimensionality. Compute, HBM and
    /// all-to-all bandwidths all come from the spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec's chip has no SparseCores (the embedding system
    /// model is TPU-specific; the CPU baseline is
    /// [`EmbeddingSystem::cpu_cluster`]).
    pub fn for_spec(spec: &MachineSpec, chips: u64) -> EmbeddingSystem {
        let generation = ScGeneration::for_spec(spec)
            .unwrap_or_else(|| panic!("{} has no SparseCores", spec.generation)); // tpu-lint: allow(panic-policy) -- documented precondition: caller must pass an embedding-capable generation
        let link_rate = spec.ici_bytes_per_s();
        let a2a_bw_per_chip = if spec.torus_dims >= 3 {
            a2a_bw_3d(chips, link_rate, spec.ici_links())
        } else {
            a2a_bw_2d(chips, link_rate, spec.ici_links())
        };
        EmbeddingSystem {
            name: format!("{} x{chips}", spec.generation),
            kind: SystemKind::TpuSlice {
                chips,
                peak_flops: spec.peak_flops(),
                hbm_bw: spec.hbm_bytes_per_s(),
                generation,
                a2a_bw_per_chip,
            },
        }
    }

    /// The Figure 9 CPU baseline: 576 Skylake sockets (400 learners, 176
    /// variable servers).
    pub fn cpu_cluster() -> EmbeddingSystem {
        EmbeddingSystem {
            name: "CPU x576".into(),
            kind: SystemKind::CpuCluster {
                learner_sockets: 400,
                vs_sockets: 176,
            },
        }
    }

    /// System name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Step time for a DLRM at a global batch under a placement.
    ///
    /// # Panics
    ///
    /// Panics if a placement other than [`Placement::SparseCore`] is used
    /// with the CPU cluster (the baseline has no accelerators).
    pub fn step_time(
        &self,
        model: &tpu_embedding::DlrmConfig,
        global_batch: u64,
        placement: Placement,
    ) -> StepBreakdown {
        let profile = WorkloadProfile::of_model(model);
        self.step_time_with_profile(&profile, global_batch, placement)
    }

    /// Step time from an explicit workload profile (e.g. measured from a
    /// generated batch).
    pub fn step_time_with_profile(
        &self,
        profile: &WorkloadProfile,
        global_batch: u64,
        placement: Placement,
    ) -> StepBreakdown {
        match &self.kind {
            SystemKind::TpuSlice {
                chips,
                peak_flops,
                hbm_bw,
                generation,
                a2a_bw_per_chip,
            } => tpu_step(
                profile,
                global_batch,
                *chips,
                *peak_flops,
                *hbm_bw,
                generation,
                *a2a_bw_per_chip,
                placement,
            ),
            SystemKind::CpuCluster {
                learner_sockets,
                vs_sockets,
            } => {
                assert!(
                    placement == Placement::SparseCore,
                    "the CPU baseline has a single placement; pass Placement::SparseCore"
                );
                cpu_step(profile, global_batch, *learner_sockets, *vs_sockets)
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn tpu_step(
    p: &WorkloadProfile,
    global_batch: u64,
    chips: u64,
    peak_flops: f64,
    hbm_bw: f64,
    generation: &ScGeneration,
    a2a_bw: f64,
    placement: Placement,
) -> StepBreakdown {
    let batch_per_chip = global_batch as f64 / chips as f64;
    let lookups = batch_per_chip * p.lookups_per_example;
    let unique = batch_per_chip * p.unique_lookups_per_example();
    // Forward gather + backward scatter-update of the same rows.
    let hbm_bytes = 2.0 * unique * p.row_bytes;
    // The owner chip segment-sums its locally-owned rows before sending,
    // so the all-to-all carries one partial vector per (example, feature)
    // each way (forward activations out, backward gradients back).
    let remote_fraction = 1.0 - 1.0 / chips as f64;
    let exchange_bytes =
        2.0 * batch_per_chip * f64::from(p.features) * p.row_bytes * remote_fraction;
    let dense_s = batch_per_chip * p.dense_flops_per_example / (peak_flops * DENSE_EFFICIENCY);

    match placement {
        Placement::SparseCore => {
            let gather_s = hbm_bytes / (hbm_bw * SC_GATHER_EFFICIENCY);
            let exchange_s = exchange_bytes / a2a_bw;
            let row_elements = (p.row_bytes / 4.0).max(1.0);
            let compute_s = generation.execute_time_s(ScInstruction::SortIds {
                count: lookups as u64,
            }) + generation.execute_time_s(ScInstruction::Unique {
                count: lookups as u64,
            }) + generation.execute_time_s(ScInstruction::Partition {
                count: unique as u64,
            }) + generation.execute_time_s(ScInstruction::SegmentSum {
                count: unique as u64,
                elements: row_elements as u64,
            }) + unique * generation.cycles_per_lookup
                / (f64::from(generation.sc_per_chip)
                    * f64::from(generation.tiles_per_sc)
                    * generation.clock_hz);
            let issue_s = generation.issue_time_s(u64::from(p.features) * INSTRS_PER_FEATURE);
            StepBreakdown {
                gather_s,
                exchange_s,
                compute_s,
                issue_s,
                dense_s,
            }
        }
        Placement::TensorCore => {
            // The TC does the gathers badly, emulates the cross-channel
            // units in software, and the sparse work steals time from the
            // dense work (same core): the two paths serialize.
            let gather_s = hbm_bytes / (hbm_bw * TC_GATHER_EFFICIENCY);
            let exchange_s = exchange_bytes / a2a_bw;
            let sc_equivalent_compute = unique * generation.cycles_per_lookup
                / (f64::from(generation.sc_per_chip)
                    * f64::from(generation.tiles_per_sc)
                    * generation.clock_hz);
            let compute_s = TC_SOFTWARE_PENALTY * sc_equivalent_compute;
            StepBreakdown {
                gather_s,
                exchange_s,
                compute_s,
                issue_s: 0.0,
                // Serialized with dense: fold the sparse path into the
                // dense path's serial time so total() reflects no overlap.
                dense_s: dense_s + gather_s + exchange_s + compute_s,
            }
        }
        Placement::HostCpu => {
            // Tables in host DRAM: hosts gather, PCIe moves vectors, DCN
            // exchanges between hosts; the TPUs stall meanwhile.
            let chips_per_host = 4.0;
            let host_bytes = chips_per_host * hbm_bytes;
            let gather_s = host_bytes / (HOST_DRAM_BW * HOST_DRAM_EFFICIENCY);
            // The host combines rows per (example, feature) before the
            // PCIe hop, so PCIe carries the same partial-sum volume as
            // the inter-host DCN exchange.
            let combined_bytes = 2.0 * batch_per_chip * f64::from(p.features) * p.row_bytes;
            let pcie_s = combined_bytes / PCIE_BW_PER_CHIP;
            let dcn_s = chips_per_host * exchange_bytes / DCN_BW;
            StepBreakdown {
                gather_s: gather_s + pcie_s,
                exchange_s: dcn_s,
                compute_s: 0.0,
                issue_s: 0.0,
                dense_s,
            }
        }
        Placement::VariableServer => {
            // Tables on 64 external servers: combined vectors flow down
            // per (example, feature); per-row gradients flow back up. The
            // servers' DRAM and NICs are shared by all chips.
            let servers = 64.0;
            let global_unique = unique * chips as f64;
            let global_batch_f = batch_per_chip * chips as f64;
            let global_bytes =
                (global_batch_f * f64::from(p.features) + global_unique) * p.row_bytes;
            let nic_s = global_bytes / (servers * DCN_BW);
            let dram_s = global_bytes / (servers * HOST_DRAM_BW * HOST_DRAM_EFFICIENCY);
            // Per-chip receive is also DCN-limited on the learner side.
            let learner_nic_s = 4.0 * exchange_bytes / DCN_BW;
            StepBreakdown {
                gather_s: dram_s,
                exchange_s: nic_s.max(learner_nic_s),
                compute_s: 0.0,
                issue_s: 0.0,
                dense_s,
            }
        }
    }
}

fn cpu_step(p: &WorkloadProfile, global_batch: u64, learners: u32, vs: u32) -> StepBreakdown {
    let b = global_batch as f64;
    let dense_s = b * p.dense_flops_per_example / (f64::from(learners) * CPU_DENSE_FLOPS);
    // Combined vectors down, per-row gradients up (as VariableServer).
    let global_bytes =
        (b * f64::from(p.features) + b * p.unique_lookups_per_example()) * p.row_bytes;
    let gather_s = global_bytes / (f64::from(vs) * HOST_DRAM_BW * HOST_DRAM_EFFICIENCY);
    let exchange_s = global_bytes / (f64::from(learners + vs) * DCN_BW);
    // Combining on CPU SIMD: ~16 lanes at 2.5 GHz per socket.
    let elements = b * p.lookups_per_example * (p.row_bytes / 4.0);
    let compute_s = elements / (f64::from(learners) * 16.0 * 2.5e9);
    StepBreakdown {
        gather_s,
        exchange_s,
        compute_s,
        issue_s: 0.0,
        // CPUs do not overlap the paths well; serialize everything.
        dense_s: dense_s + gather_s + exchange_s + compute_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_embedding::DlrmConfig;

    #[test]
    fn canonical_shapes() {
        assert_eq!(canonical_shape_3d(64), (4, 4, 4));
        assert_eq!(canonical_shape_3d(512), (8, 8, 8));
        assert_eq!(canonical_shape_3d(4096), (16, 16, 16));
        assert_eq!(canonical_shape_3d(128), (4, 4, 8));
        assert_eq!(canonical_shape_2d(1024), (32, 32));
        assert_eq!(canonical_shape_2d(128), (8, 16));
    }

    #[test]
    fn a2a_bandwidth_scaling_laws() {
        // §3.6: 2D bisection scales as N^(1/2), 3D as N^(2/3); per-chip
        // all-to-all bandwidth therefore falls as N^(-1/2) vs N^(-1/3).
        let v4_small = a2a_bw_3d(64, 50e9, 6);
        let v4_big = a2a_bw_3d(4096, 50e9, 6);
        let v3_small = a2a_bw_2d(64, 70e9, 4);
        let v3_big = a2a_bw_2d(1024, 70e9, 4);
        let v4_fall = v4_small / v4_big;
        let v3_fall = v3_small / v3_big;
        // Over 64x more chips: 3D falls ~4x; over 16x more chips: 2D falls ~4x.
        assert!((3.0..6.0).contains(&v4_fall), "{v4_fall}");
        assert!((3.0..6.0).contains(&v3_fall), "{v3_fall}");
    }

    #[test]
    fn figure8_bisection_ratio_band() {
        // Figure 8: the v4/v3 bisection ratio grows with chip count
        // (3D bisection scales as N^(2/3), 2D as N^(1/2)), reaching 2-4x.
        // The exact per-count value depends on how square/cubic the
        // canonical shape is, so the ratio oscillates within the band.
        let mut ratios = Vec::new();
        for chips in [256u64, 512, 1024, 2048] {
            let r = a2a_bw_3d(chips, 50e9, 6) / a2a_bw_2d(chips, 70e9, 4);
            assert!((1.2..4.5).contains(&r), "chips {chips}: ratio {r}");
            ratios.push(r);
        }
        // At least one configuration reaches the 2x regime of Figure 8.
        assert!(ratios.iter().any(|&r| r >= 2.0), "{ratios:?}");
    }

    #[test]
    fn sparse_core_beats_all_other_placements() {
        let model = DlrmConfig::dlrm0();
        let sys = EmbeddingSystem::for_spec(&MachineSpec::v4(), 128);
        let sc = sys.step_time(&model, 4096, Placement::SparseCore).total_s();
        for placement in [
            Placement::TensorCore,
            Placement::HostCpu,
            Placement::VariableServer,
        ] {
            let t = sys.step_time(&model, 4096, placement).total_s();
            assert!(t > sc, "{placement:?} should be slower: {t} vs {sc}");
        }
    }

    #[test]
    fn figure9_host_cpu_slowdown_5x_to_7x() {
        // "When embeddings are placed in CPU memory for TPU v4,
        // performance drops by 5x-7x."
        let model = DlrmConfig::dlrm0();
        let sys = EmbeddingSystem::for_spec(&MachineSpec::v4(), 128);
        let sc = sys.step_time(&model, 4096, Placement::SparseCore).total_s();
        let cpu = sys.step_time(&model, 4096, Placement::HostCpu).total_s();
        let slowdown = cpu / sc;
        assert!((4.0..8.5).contains(&slowdown), "slowdown {slowdown}");
    }

    #[test]
    fn figure9_v4_vs_v3_band() {
        // "TPU v4 beats TPU v3 by 3.1x" on DLRM0 at 128 chips.
        let model = DlrmConfig::dlrm0();
        let v4 = EmbeddingSystem::for_spec(&MachineSpec::v4(), 128)
            .step_time(&model, 4096, Placement::SparseCore)
            .total_s();
        let v3 = EmbeddingSystem::for_spec(&MachineSpec::v3(), 128)
            .step_time(&model, 4096, Placement::SparseCore)
            .total_s();
        let speedup = v3 / v4;
        assert!((2.4..3.8).contains(&speedup), "v4/v3 speedup {speedup}");
    }

    #[test]
    fn figure9_v3_vs_cpu_band() {
        // "TPU v3 is faster than CPUs by 9.8x."
        let model = DlrmConfig::dlrm0();
        let v3 = EmbeddingSystem::for_spec(&MachineSpec::v3(), 128)
            .step_time(&model, 4096, Placement::SparseCore)
            .total_s();
        let cpu = EmbeddingSystem::cpu_cluster()
            .step_time(&model, 4096, Placement::SparseCore)
            .total_s();
        let speedup = cpu / v3;
        assert!((7.0..13.0).contains(&speedup), "v3/CPU speedup {speedup}");
    }

    #[test]
    fn figure9_v4_vs_cpu_band() {
        // "TPU v4 ... beats CPUs by 30.1x."
        let model = DlrmConfig::dlrm0();
        let v4 = EmbeddingSystem::for_spec(&MachineSpec::v4(), 128)
            .step_time(&model, 4096, Placement::SparseCore)
            .total_s();
        let cpu = EmbeddingSystem::cpu_cluster()
            .step_time(&model, 4096, Placement::SparseCore)
            .total_s();
        let speedup = cpu / v4;
        assert!((20.0..42.0).contains(&speedup), "v4/CPU speedup {speedup}");
    }

    #[test]
    #[should_panic(expected = "single placement")]
    fn cpu_cluster_rejects_other_placements() {
        let model = DlrmConfig::dlrm0();
        let _ = EmbeddingSystem::cpu_cluster().step_time(&model, 1024, Placement::HostCpu);
    }

    #[test]
    fn names() {
        assert_eq!(
            EmbeddingSystem::for_spec(&MachineSpec::v4(), 128).name(),
            "TPU v4 x128"
        );
        assert_eq!(EmbeddingSystem::cpu_cluster().name(), "CPU x576");
    }
}
