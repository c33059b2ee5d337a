//! Reconfiguration planning (§2.6): "Since the OCS can switch circuits
//! in milliseconds, TPU v4 can easily change topology to match the
//! application."
//!
//! A [`ReconfigPlan`] diffs two slice wirings over the same blocks into
//! the circuits each switch must tear down and establish. Twisting a
//! k×k×2k slice leaves the z-dimension circuits (and all electrical
//! links) untouched — "the only change is in the routing tables".

use crate::fabric::{Circuit, MaterializedSlice};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// The delta between two wirings of the same blocks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReconfigPlan {
    kept: usize,
    torn_down: Vec<Circuit>,
    established: Vec<Circuit>,
}

impl ReconfigPlan {
    /// Plans the transition from one materialized slice to another.
    ///
    /// Both slices must span the same blocks (the §2.7 in-place topology
    /// change); circuits present in both wirings are kept untouched.
    ///
    /// # Panics
    ///
    /// Panics if the two slices use different block sets.
    pub fn between(from: &MaterializedSlice, to: &MaterializedSlice) -> ReconfigPlan {
        let mut from_blocks: Vec<_> = from.blocks().to_vec();
        let mut to_blocks: Vec<_> = to.blocks().to_vec();
        from_blocks.sort_unstable();
        to_blocks.sort_unstable();
        assert_eq!(
            from_blocks, to_blocks,
            "reconfiguration plans require identical block sets"
        );

        // BTreeSet keeps the teardown/establish lists in a deterministic
        // (sorted) order — with a hash set their order would vary run to
        // run and leak into serialized plans.
        let old: BTreeSet<Circuit> = from.circuits().iter().copied().collect();
        let new: BTreeSet<Circuit> = to.circuits().iter().copied().collect();
        let kept = old.intersection(&new).count();
        let torn_down = old.difference(&new).copied().collect();
        let established = new.difference(&old).copied().collect();
        ReconfigPlan {
            kept,
            torn_down,
            established,
        }
    }

    /// Circuits left untouched.
    pub fn kept(&self) -> usize {
        self.kept
    }

    /// Circuits to tear down.
    pub fn torn_down(&self) -> &[Circuit] {
        &self.torn_down
    }

    /// Circuits to establish.
    pub fn established(&self) -> &[Circuit] {
        &self.established
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Fabric, SliceSpec};
    use tpu_spec::Generation;
    use tpu_topology::SliceShape;

    fn twist_pair() -> (MaterializedSlice, MaterializedSlice) {
        let shape = SliceShape::new(4, 4, 8).unwrap();
        let mut fabric = Fabric::for_generation(&Generation::V4);
        let regular = fabric.allocate(&SliceSpec::regular(shape)).unwrap();
        let blocks = regular.blocks().to_vec();
        fabric.release(&regular).unwrap();
        let twisted = fabric
            .allocate_on(&SliceSpec::twisted(shape).unwrap(), blocks)
            .unwrap();
        (regular, twisted)
    }

    #[test]
    fn twisting_touches_only_the_twisted_dimensions() {
        let (regular, twisted) = twist_pair();
        let plan = ReconfigPlan::between(&regular, &twisted);
        // 4x4x8 = 1x1x2 blocks: 96 circuits total (48 OCSes x 2 block
        // positions). The twist offsets z on x- and y-wraps; z-dimension
        // circuits are identical in both wirings.
        let z_circuits = 16 * 2; // 16 z-line OCSes x 2 positions
        assert!(
            plan.kept() >= z_circuits,
            "kept {} < z circuits {z_circuits}",
            plan.kept()
        );
        assert_eq!(plan.torn_down().len(), plan.established().len());
        assert!(!plan.established().is_empty());
    }

    #[test]
    fn identity_reconfiguration_is_free() {
        let shape = SliceShape::new(4, 4, 8).unwrap();
        let mut fabric = Fabric::for_generation(&Generation::V4);
        let a = fabric.allocate(&SliceSpec::regular(shape)).unwrap();
        let blocks = a.blocks().to_vec();
        fabric.release(&a).unwrap();
        let b = fabric
            .allocate_on(&SliceSpec::regular(shape), blocks)
            .unwrap();
        let plan = ReconfigPlan::between(&a, &b);
        assert!(plan.torn_down().is_empty() && plan.established().is_empty());
        assert_eq!(plan.kept(), a.circuits().len());
    }

    #[test]
    #[should_panic(expected = "identical block sets")]
    fn different_blocks_rejected() {
        let shape = SliceShape::new(4, 4, 8).unwrap();
        let mut fabric = Fabric::for_generation(&Generation::V4);
        let a = fabric.allocate(&SliceSpec::regular(shape)).unwrap();
        let b = fabric.allocate(&SliceSpec::regular(shape)).unwrap();
        let _ = ReconfigPlan::between(&a, &b);
    }
}
