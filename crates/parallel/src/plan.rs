//! Partitionings and their mapping onto torus dimensions.

use std::fmt;
use tpu_topology::SliceShape;

/// A parallelism plan `[pipeline, data, model₁, model₂]` (the Table 3
/// hyper-parameter notation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Partitioning {
    /// Pipeline-parallel depth.
    pub pipeline: u32,
    /// Data-parallel replicas.
    pub data: u32,
    /// First model-parallel parameter (width).
    pub model1: u32,
    /// Second model-parallel parameter (length).
    pub model2: u32,
}

impl Partitioning {
    /// Creates a plan.
    ///
    /// # Panics
    ///
    /// Panics if any degree is zero.
    pub fn new(pipeline: u32, data: u32, model1: u32, model2: u32) -> Partitioning {
        assert!(
            pipeline > 0 && data > 0 && model1 > 0 && model2 > 0,
            "parallelism degrees must be positive"
        );
        Partitioning {
            pipeline,
            data,
            model1,
            model2,
        }
    }

    /// Chips the plan occupies.
    pub fn chips(&self) -> u64 {
        u64::from(self.pipeline)
            * u64::from(self.data)
            * u64::from(self.model1)
            * u64::from(self.model2)
    }

    /// Total model-parallel degree.
    pub fn model_parallel(&self) -> u32 {
        self.model1 * self.model2
    }
}

impl fmt::Display for Partitioning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{},{},{},{}]",
            self.pipeline, self.data, self.model1, self.model2
        )
    }
}

/// Activation/weight partitioning dimensionality (Table 3's "1D/2D
/// activation/weight partitioning"; see GSPMD \[63\]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardingSpec {
    activation_dims: u8,
    weight_dims: u8,
}

impl ShardingSpec {
    /// Creates a spec; each dimensionality must be 1 or 2.
    ///
    /// # Panics
    ///
    /// Panics on dimensionalities other than 1 or 2.
    pub fn new(activation_dims: u8, weight_dims: u8) -> ShardingSpec {
        assert!(
            (1..=2).contains(&activation_dims) && (1..=2).contains(&weight_dims),
            "sharding dims must be 1 or 2"
        );
        ShardingSpec {
            activation_dims,
            weight_dims,
        }
    }

    /// Activation sharding dimensionality.
    pub fn activation_dims(&self) -> u8 {
        self.activation_dims
    }

    /// Weight sharding dimensionality.
    pub fn weight_dims(&self) -> u8 {
        self.weight_dims
    }

    /// Relative model-parallel communication volume vs plain 1D/1D
    /// Megatron-style sharding over `m` model-parallel chips.
    ///
    /// 2D activation sharding turns broadcast-style all-gathers into
    /// subgroup collectives (volume ∝ 1/√m smaller per chip) but adds a
    /// second collective phase; 2D weights similarly trade gradient
    /// volume. The net: 2D helps at large m, hurts at small m — which is
    /// why Table 3's 512-chip winners moved *away* from 2D/2D.
    pub fn comm_volume_factor(&self, model_parallel: u32) -> f64 {
        let m = f64::from(model_parallel.max(1));
        // 2D's subgroup collectives cut volume ∝ 1/√m, but the extra
        // phases run on smaller messages whose latency and resharding
        // overheads floor the benefit (GSPMD's measured behavior; the
        // floor keeps 1D competitive at 512 chips, as Table 3 found).
        let two_d = (2.0 / m.sqrt()).max(0.35);
        let act = if self.activation_dims == 2 {
            two_d
        } else {
            1.0
        };
        let weight = if self.weight_dims == 2 { two_d } else { 1.0 };
        // Activations dominate the per-layer traffic; weights contribute
        // a smaller resharding term.
        0.75 * act + 0.25 * weight
    }
}

impl fmt::Display for ShardingSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}D/{}D", self.activation_dims, self.weight_dims)
    }
}

/// An assignment of the four parallel axes onto the three torus
/// dimensions: each torus dimension serves exactly one axis, and each
/// axis's degree must equal the product of its dimensions' extents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AxisMapping {
    /// Which axis (0 = pipeline, 1 = data, 2 = model1, 3 = model2) each
    /// torus dimension serves.
    pub dim_axis: [u8; 3],
}

impl AxisMapping {
    /// Enumerates all valid mappings of a plan onto a topology.
    pub fn enumerate(shape: SliceShape, plan: Partitioning) -> Vec<AxisMapping> {
        let extents = [shape.x(), shape.y(), shape.z()];
        let degrees = [plan.pipeline, plan.data, plan.model1, plan.model2];
        let mut out = Vec::new();
        // Each dim picks an axis: 4^3 = 64 assignments; keep those whose
        // per-axis extent products match the degrees.
        for a in 0..4u8 {
            for b in 0..4u8 {
                for c in 0..4u8 {
                    let assign = [a, b, c];
                    let mut product = [1u64; 4];
                    for (dim, &axis) in assign.iter().enumerate() {
                        product[axis as usize] *= u64::from(extents[dim]);
                    }
                    if (0..4).all(|i| product[i] == u64::from(degrees[i])) {
                        out.push(AxisMapping { dim_axis: assign });
                    }
                }
            }
        }
        out
    }

    /// Link count (per chip, both directions) serving a given axis under
    /// this mapping: 2 links per torus dimension assigned to the axis.
    pub fn links_for_axis(&self, axis: u8) -> u32 {
        2 * self.dim_axis.iter().filter(|&&a| a == axis).count() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_chips() {
        let p = Partitioning::new(16, 4, 1, 8);
        assert_eq!(p.chips(), 512);
        assert_eq!(p.model_parallel(), 8);
        assert_eq!(p.to_string(), "[16,4,1,8]");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_degree_rejected() {
        let _ = Partitioning::new(0, 1, 1, 1);
    }

    #[test]
    fn sharding_display_and_access() {
        let s = ShardingSpec::new(1, 2);
        assert_eq!(s.to_string(), "1D/2D");
        assert_eq!(s.activation_dims(), 1);
        assert_eq!(s.weight_dims(), 2);
    }

    #[test]
    #[should_panic(expected = "must be 1 or 2")]
    fn sharding_dims_validated() {
        let _ = ShardingSpec::new(3, 1);
    }

    #[test]
    fn comm_factor_2d_wins_at_large_m() {
        let d1 = ShardingSpec::new(1, 1);
        let d2 = ShardingSpec::new(2, 2);
        // Small model-parallel groups: 2D overhead dominates.
        assert!(d2.comm_volume_factor(4) > d1.comm_volume_factor(4) * 0.9);
        // Large groups: 2D volume reduction wins, but is floored by the
        // small-message penalty at 0.35 of the 1D volume.
        assert!(d2.comm_volume_factor(1024) < d1.comm_volume_factor(1024) * 0.5);
        assert!(d2.comm_volume_factor(1024) >= 0.35 - 1e-12);
    }

    #[test]
    fn table3_mappings_exist() {
        // Every Table 3 row must admit at least one mapping.
        let cases = [
            ((4u32, 8u32, 16u32), Partitioning::new(1, 1, 16, 32)),
            ((8, 8, 8), Partitioning::new(1, 1, 64, 8)),
            ((8, 8, 8), Partitioning::new(8, 1, 8, 8)),
            ((4, 8, 16), Partitioning::new(16, 4, 1, 8)),
        ];
        for ((x, y, z), plan) in cases {
            let shape = SliceShape::new(x, y, z).unwrap();
            let mappings = AxisMapping::enumerate(shape, plan);
            assert!(!mappings.is_empty(), "{shape} {plan}");
            for m in mappings {
                let total: u32 = (0..4).map(|a| m.links_for_axis(a)).sum();
                assert_eq!(total, 6, "all six links accounted for");
            }
        }
    }

    #[test]
    fn impossible_mapping_rejected() {
        // 512 chips but the plan needs degree 3 somewhere: no mapping.
        let shape = SliceShape::new(8, 8, 8).unwrap();
        let plan = Partitioning::new(1, 2, 16, 16);
        assert!(AxisMapping::enumerate(shape, plan).is_empty());
    }
}
