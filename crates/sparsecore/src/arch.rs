//! The SparseCore hardware architecture (Figure 7).

use serde::{Deserialize, Serialize};
use tpu_spec::consts::MEGA;

/// The five cross-channel units (gold boxes in Figure 7). The paper says
/// only that "their names explain" their operations; these are the five
/// canonical stages of a distributed embedding lookup (inference recorded
/// in DESIGN.md §4.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CrossChannelUnit {
    /// Sorts lookup ids so duplicates become adjacent and destination
    /// chips become contiguous ranges.
    IdSorter,
    /// Collapses duplicate ids (§3.4 deduplication).
    Deduplicator,
    /// Splits sorted ids into per-destination-chip partitions for the
    /// all-to-all exchange.
    Partitioner,
    /// Sums gathered rows per example (multivalent combining).
    SegmentReducer,
    /// Selects the top-k values (sampled-softmax style heads).
    TopK,
}

impl CrossChannelUnit {
    /// All five units.
    pub const ALL: [CrossChannelUnit; 5] = [
        CrossChannelUnit::IdSorter,
        CrossChannelUnit::Deduplicator,
        CrossChannelUnit::Partitioner,
        CrossChannelUnit::SegmentReducer,
        CrossChannelUnit::TopK,
    ];

    /// Elements processed per clock cycle across all 16 spmem banks
    /// ("the cross-channel units operate across all 16 banks of Spmem
    /// collectively").
    pub fn elements_per_cycle(self) -> f64 {
        match self {
            // Merge-sort network: one element per bank-cycle.
            CrossChannelUnit::IdSorter => 16.0,
            // Adjacent-compare after sort: wide and cheap.
            CrossChannelUnit::Deduplicator => 32.0,
            CrossChannelUnit::Partitioner => 32.0,
            // Segment sums run through the same adders as the scVPU.
            CrossChannelUnit::SegmentReducer => 16.0,
            CrossChannelUnit::TopK => 16.0,
        }
    }
}

/// CISC-like SparseCore instructions (§3.5: "the units execute CISC-like
/// instructions and operate on variable-length inputs, where the run-time
/// of each instruction is data-dependent").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ScInstruction {
    /// Fetch `count` rows of `row_bytes` from HBM into spmem.
    Gather {
        /// Rows fetched.
        count: u64,
        /// Bytes per row.
        row_bytes: u64,
    },
    /// Write `count` updated rows back to HBM (backward pass).
    Scatter {
        /// Rows written.
        count: u64,
        /// Bytes per row.
        row_bytes: u64,
    },
    /// Sort `count` lookup ids.
    SortIds {
        /// Ids sorted.
        count: u64,
    },
    /// Deduplicate `count` sorted ids.
    Unique {
        /// Ids examined.
        count: u64,
    },
    /// Partition `count` ids into per-chip send lists.
    Partition {
        /// Ids partitioned.
        count: u64,
    },
    /// Segment-sum `count` gathered rows of `elements` each.
    SegmentSum {
        /// Rows combined.
        count: u64,
        /// Elements per row.
        elements: u64,
    },
}

impl ScInstruction {
    /// Data-dependent execution cycles on the given generation, excluding
    /// the fixed issue overhead (see [`ScGeneration::issue_cycles`]).
    pub fn cycles(self, generation: &ScGeneration) -> f64 {
        match self {
            // Memory instructions are accounted in bytes by the execution
            // model; here we charge the address-generation cycles.
            ScInstruction::Gather { count, .. } | ScInstruction::Scatter { count, .. } => {
                count as f64 / generation.tiles_per_sc as f64
            }
            ScInstruction::SortIds { count } => {
                let n = count as f64;
                // log factor of the merge network, ~10 for realistic sizes.
                n * (n.max(2.0)).log2() / CrossChannelUnit::IdSorter.elements_per_cycle()
            }
            ScInstruction::Unique { count } => {
                count as f64 / CrossChannelUnit::Deduplicator.elements_per_cycle()
            }
            ScInstruction::Partition { count } => {
                count as f64 / CrossChannelUnit::Partitioner.elements_per_cycle()
            }
            ScInstruction::SegmentSum { count, elements } => {
                (count * elements) as f64
                    / (f64::from(generation.tiles_per_sc) * f64::from(generation.simd_lanes))
            }
        }
    }
}

/// One TPU generation's SparseCore provisioning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScGeneration {
    /// SparseCores per chip (Table 4: v2 = 1, v3 = 2, v4 = 4).
    pub sc_per_chip: u32,
    /// Compute tiles per SparseCore (16 in Figure 7 for v4; earlier
    /// generations are narrower — inference recorded in DESIGN.md).
    pub tiles_per_sc: u32,
    /// SIMD lanes per tile scVPU (8-wide in Figure 7).
    pub simd_lanes: u32,
    /// Clock, Hz (the SC shares the chip clock).
    pub clock_hz: f64,
    /// Spmem per SparseCore, bytes (2.5 MiB in Figure 7; Table 4 lists
    /// 10 MiB of spMEM per chip for v4 = 4 SCs × 2.5 MiB).
    pub spmem_bytes: f64,
    /// Fixed CISC instruction issue overhead on the core sequencer,
    /// cycles (§7.9: "CISC instruction generation time on the SC core
    /// sequencer" is a fixed per-batch overhead).
    pub issue_cycles: f64,
    /// Effective amortized tile cycles consumed per deduplicated lookup
    /// across fetch, spmem and flush (calibrated; see DESIGN.md).
    pub cycles_per_lookup: f64,
}

impl ScGeneration {
    /// The SparseCore a machine spec describes: SC count and clock come
    /// from the spec's chip record; the per-generation microarchitecture
    /// (tile count, issue overhead) is the Figure 7 calibration that
    /// Table 4 does not publish.
    ///
    /// Returns `None` for chips without SparseCores.
    pub fn for_spec(spec: &tpu_spec::MachineSpec) -> Option<ScGeneration> {
        if spec.chip.sparse_cores == 0 {
            return None;
        }
        let (tiles_per_sc, issue_cycles) = match spec.generation {
            tpu_spec::Generation::V2 => (8, 400.0),
            tpu_spec::Generation::V3 => (8, 300.0),
            _ => (16, 200.0),
        };
        Some(ScGeneration {
            sc_per_chip: spec.chip.sparse_cores,
            tiles_per_sc,
            simd_lanes: 8,
            clock_hz: spec.chip.clock_mhz * MEGA,
            spmem_bytes: 2.5 * 1024.0 * 1024.0,
            issue_cycles,
            cycles_per_lookup: 300.0,
        })
    }

    /// TPU v2's original SparseCore (deployed 2017).
    pub fn tpu_v2() -> ScGeneration {
        // tpu-lint: allow(panic-policy) -- built-in v2/v3/v4 specs all carry SparseCores
        ScGeneration::for_spec(&tpu_spec::MachineSpec::v2()).expect("v2 has SparseCores")
    }

    /// TPU v3's SparseCore.
    pub fn tpu_v3() -> ScGeneration {
        // tpu-lint: allow(panic-policy) -- built-in v2/v3/v4 specs all carry SparseCores
        ScGeneration::for_spec(&tpu_spec::MachineSpec::v3()).expect("v3 has SparseCores")
    }

    /// Fixed issue time for `instructions` CISC instructions, seconds.
    pub fn issue_time_s(&self, instructions: u64) -> f64 {
        instructions as f64 * self.issue_cycles / self.clock_hz
    }

    /// Time for one instruction's data-dependent portion, seconds.
    pub fn execute_time_s(&self, instr: ScInstruction) -> f64 {
        instr.cycles(self) / self.clock_hz * (1.0 / f64::from(self.sc_per_chip))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_sc_counts_match_table4() {
        assert_eq!(ScGeneration::tpu_v2().sc_per_chip, 1);
        assert_eq!(ScGeneration::tpu_v3().sc_per_chip, 2);
        assert_eq!(
            ScGeneration::for_spec(&tpu_spec::MachineSpec::v4())
                .expect("v4 has SparseCores")
                .sc_per_chip,
            4
        );
    }

    #[test]
    fn v4_spmem_matches_table4() {
        // Table 4: 10 MiB spMEM per chip.
        let v4 = ScGeneration::for_spec(&tpu_spec::MachineSpec::v4()).expect("v4 has SparseCores");
        let per_chip = |g: &ScGeneration| f64::from(g.sc_per_chip) * g.spmem_bytes;
        assert!((per_chip(&v4) - 10.0 * 1024.0 * 1024.0).abs() < 1.0);
        // v3: 5 MiB.
        let v3 = ScGeneration::tpu_v3();
        assert!((per_chip(&v3) - 5.0 * 1024.0 * 1024.0).abs() < 1.0);
    }

    #[test]
    fn v4_throughput_exceeds_v3() {
        let lookups_per_second = |g: ScGeneration| {
            f64::from(g.sc_per_chip) * f64::from(g.tiles_per_sc) * g.clock_hz / g.cycles_per_lookup
        };
        let r = lookups_per_second(
            ScGeneration::for_spec(&tpu_spec::MachineSpec::v4()).expect("v4 has SparseCores"),
        ) / lookups_per_second(ScGeneration::tpu_v3());
        // 2x SCs * 2x tiles * 1.12x clock ≈ 4.5x per-chip lookup engine.
        assert!((4.0..5.0).contains(&r), "{r}");
    }

    #[test]
    fn issue_time_is_fixed_per_instruction() {
        let v4 = ScGeneration::for_spec(&tpu_spec::MachineSpec::v4()).expect("v4 has SparseCores");
        let t1 = v4.issue_time_s(100);
        let t2 = v4.issue_time_s(200);
        assert!((t2 / t1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sort_is_superlinear_unique_is_linear() {
        let v4 = ScGeneration::for_spec(&tpu_spec::MachineSpec::v4()).expect("v4 has SparseCores");
        let sort_small = ScInstruction::SortIds { count: 1_000 }.cycles(&v4);
        let sort_big = ScInstruction::SortIds { count: 10_000 }.cycles(&v4);
        assert!(sort_big / sort_small > 10.0);
        let uniq_small = ScInstruction::Unique { count: 1_000 }.cycles(&v4);
        let uniq_big = ScInstruction::Unique { count: 10_000 }.cycles(&v4);
        assert!((uniq_big / uniq_small - 10.0).abs() < 1e-9);
    }

    #[test]
    fn segment_sum_scales_with_row_elements() {
        let v4 = ScGeneration::for_spec(&tpu_spec::MachineSpec::v4()).expect("v4 has SparseCores");
        let narrow = ScInstruction::SegmentSum {
            count: 100,
            elements: 32,
        }
        .cycles(&v4);
        let wide = ScInstruction::SegmentSum {
            count: 100,
            elements: 128,
        }
        .cycles(&v4);
        assert!((wide / narrow - 4.0).abs() < 1e-9);
    }

    #[test]
    fn all_units_have_positive_throughput() {
        for u in CrossChannelUnit::ALL {
            assert!(u.elements_per_cycle() > 0.0);
        }
    }

    #[test]
    fn execute_time_parallel_across_scs() {
        let v4 = ScGeneration::for_spec(&tpu_spec::MachineSpec::v4()).expect("v4 has SparseCores");
        let v2 = ScGeneration::tpu_v2();
        let instr = ScInstruction::Unique { count: 100_000 };
        // v4 has 4 SCs to v2's 1 plus a faster clock.
        assert!(v4.execute_time_s(instr) < v2.execute_time_s(instr) / 3.0);
    }
}
