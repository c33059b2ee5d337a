//! Exhaustive topology + partitioning search (the Table 3 experiment).

use crate::cost::{LlmConfig, TrainingCost};
use crate::plan::{Partitioning, ShardingSpec};
use tpu_topology::SliceShape;

/// One evaluated configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// Topology used.
    pub shape: (u32, u32, u32),
    /// Parallelism plan.
    pub plan: Partitioning,
    /// Sharding spec.
    pub sharding: ShardingSpec,
    /// Evaluated cost.
    pub cost: TrainingCost,
}

/// Exhaustive search over topologies (4i×4j×4k), plans and sharding specs
/// for a fixed chip count.
#[derive(Debug, Clone)]
pub struct TopologySearch {
    chips: u64,
}

impl TopologySearch {
    /// Creates a search for a slice of `chips` chips.
    ///
    /// # Panics
    ///
    /// Panics unless `chips` is a positive multiple of 64.
    pub fn new(chips: u64) -> TopologySearch {
        assert!(
            chips > 0 && chips.is_multiple_of(64),
            "search operates on whole-block slices"
        );
        TopologySearch { chips }
    }

    /// All block-aligned topologies for the chip count, scheduler
    /// canonical (x ≤ y ≤ z).
    pub fn topologies(&self) -> Vec<SliceShape> {
        let blocks = self.chips / 64;
        let mut shapes = Vec::new();
        for bx in 1..=blocks {
            if !blocks.is_multiple_of(bx) {
                continue;
            }
            let rest = blocks / bx;
            for by in bx..=rest {
                if !rest.is_multiple_of(by) {
                    continue;
                }
                let bz = rest / by;
                if bz < by {
                    continue;
                }
                shapes.push(
                    SliceShape::new(4 * bx as u32, 4 * by as u32, 4 * bz as u32)
                        .expect("nonzero dims"), // tpu-lint: allow(panic-policy) -- unreachable: nonzero dims
                );
            }
        }
        shapes
    }

    /// All power-of-two partitionings of the chip count over the four
    /// axes.
    pub fn plans(&self) -> Vec<Partitioning> {
        let mut plans = Vec::new();
        let n = self.chips;
        let mut pipe = 1u64;
        while pipe <= n {
            if n.is_multiple_of(pipe) {
                let rest1 = n / pipe;
                let mut data = 1u64;
                while data <= rest1 {
                    if rest1.is_multiple_of(data) {
                        let rest2 = rest1 / data;
                        let mut m1 = 1u64;
                        while m1 <= rest2 {
                            if rest2.is_multiple_of(m1) {
                                let m2 = rest2 / m1;
                                plans.push(Partitioning::new(
                                    pipe as u32,
                                    data as u32,
                                    m1 as u32,
                                    m2 as u32,
                                ));
                            }
                            m1 *= 2;
                        }
                    }
                    data *= 2;
                }
            }
            pipe *= 2;
        }
        plans
    }

    /// Evaluates every (topology, plan, sharding) combination and returns
    /// the best by throughput.
    ///
    /// # Panics
    ///
    /// Panics if no configuration is feasible for the model.
    pub fn best(&self, llm: &LlmConfig) -> SearchOutcome {
        self.run(llm)
            .into_iter()
            .max_by(|a, b| {
                a.cost
                    .throughput_seqs_per_s()
                    .partial_cmp(&b.cost.throughput_seqs_per_s())
                    .expect("finite throughput") // tpu-lint: allow(panic-policy) -- unreachable: finite throughput
            })
            .expect("at least one feasible configuration") // tpu-lint: allow(panic-policy) -- unreachable: at least one feasible configuration
    }

    /// Evaluates every feasible combination.
    pub fn run(&self, llm: &LlmConfig) -> Vec<SearchOutcome> {
        let shardings = [
            ShardingSpec::new(1, 1),
            ShardingSpec::new(1, 2),
            ShardingSpec::new(2, 2),
        ];
        let mut out = Vec::new();
        for shape in self.topologies() {
            for plan in self.plans() {
                for sharding in shardings {
                    if let Some(cost) = TrainingCost::evaluate(llm, shape, plan, sharding) {
                        out.push(SearchOutcome {
                            shape: (shape.x(), shape.y(), shape.z()),
                            plan,
                            sharding,
                            cost,
                        });
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topologies_for_512() {
        let s = TopologySearch::new(512);
        let shapes = s.topologies();
        // 8 blocks factor as 1x1x8, 1x2x4, 2x2x2.
        assert_eq!(shapes.len(), 3);
        let strs: Vec<String> = shapes.iter().map(|s| s.to_string()).collect();
        assert!(strs.contains(&"4x4x32".to_string()));
        assert!(strs.contains(&"4x8x16".to_string()));
        assert!(strs.contains(&"8x8x8".to_string()));
    }

    #[test]
    fn plans_multiply_out() {
        let s = TopologySearch::new(512);
        for p in s.plans() {
            assert_eq!(p.chips(), 512);
        }
        assert!(s.plans().len() > 50);
    }

    #[test]
    fn table3_llm_search_beats_novice_by_large_factor() {
        // Table 3 case 1: the search improved a novice's 512-chip LLM
        // configuration by 2.3x.
        let llm = LlmConfig::table3_llm();
        let novice = TrainingCost::evaluate(
            &llm,
            SliceShape::new(4, 8, 16).unwrap(),
            Partitioning::new(1, 1, 16, 32),
            ShardingSpec::new(2, 2),
        )
        .unwrap();
        let best = TopologySearch::new(512).best(&llm);
        let gain = best.cost.throughput_seqs_per_s() / novice.throughput_seqs_per_s();
        assert!(
            (1.5..3.5).contains(&gain),
            "search gain {gain} outside the Table 3 band (paper: 2.3x)"
        );
    }

    #[test]
    fn table3_gpt3_search_beats_expert_modestly() {
        // Table 3 case 2: the search improved an expert's GPT-3 config by
        // 1.2x — "a harder task".
        let llm = LlmConfig::gpt3();
        let expert = TrainingCost::evaluate(
            &llm,
            SliceShape::new(8, 8, 8).unwrap(),
            Partitioning::new(8, 1, 8, 8),
            ShardingSpec::new(2, 2),
        )
        .unwrap();
        let best = TopologySearch::new(512).best(&llm);
        let gain = best.cost.throughput_seqs_per_s() / expert.throughput_seqs_per_s();
        assert!(
            (1.02..1.6).contains(&gain),
            "expert gain {gain} outside the Table 3 band (paper: 1.2x)"
        );
    }

    #[test]
    fn best_outcome_is_feasible() {
        let llm = LlmConfig::table3_llm();
        let best = TopologySearch::new(512).best(&llm);
        assert_eq!(best.plan.chips(), 512);
        let (x, y, z) = best.shape;
        assert_eq!(u64::from(x) * u64::from(y) * u64::from(z), 512);
    }

    #[test]
    #[should_panic(expected = "whole-block")]
    fn non_block_chip_count_rejected() {
        let _ = TopologySearch::new(100);
    }
}
