//! Integration: §2.6–2.7 topology reconfiguration through the whole
//! stack — fabric diffing, mirror-move accounting, and the payoff of
//! retopologizing a slice in place.
//!
//! "Since the OCS can switch circuits in milliseconds, TPU v4 can easily
//! change topology to match the application." A [`ReconfigPlan`] diffs
//! two slice wirings over the same blocks into the circuits each switch
//! must tear down and establish. Twisting a k×k×2k slice leaves the
//! z-dimension circuits (and all electrical links) untouched — "the only
//! change is in the routing tables".

use std::collections::BTreeSet;
use tpuv4::net::{AllToAll, LinkRate};
use tpuv4::ocs::wiring::OCS_COUNT;
use tpuv4::ocs::{Circuit, Fabric, MaterializedSlice, SliceSpec};
use tpuv4::spec::consts::OCS_RECONFIG_MS;
use tpuv4::topology::SliceShape;
use tpuv4::MachineSpec;

/// The delta between two wirings of the same blocks.
struct ReconfigPlan {
    kept: usize,
    torn_down: Vec<Circuit>,
    established: Vec<Circuit>,
}

impl ReconfigPlan {
    /// Plans the transition from one materialized slice to another.
    /// Both slices must span the same blocks (the §2.7 in-place topology
    /// change); circuits present in both wirings are kept untouched.
    fn between(from: &MaterializedSlice, to: &MaterializedSlice) -> ReconfigPlan {
        let mut from_blocks: Vec<_> = from.blocks().to_vec();
        let mut to_blocks: Vec<_> = to.blocks().to_vec();
        from_blocks.sort_unstable();
        to_blocks.sort_unstable();
        assert_eq!(
            from_blocks, to_blocks,
            "reconfiguration plans require identical block sets"
        );
        // Sorted sets keep the teardown/establish lists in a fixed order.
        let old: BTreeSet<Circuit> = from.circuits().iter().copied().collect();
        let new: BTreeSet<Circuit> = to.circuits().iter().copied().collect();
        ReconfigPlan {
            kept: old.intersection(&new).count(),
            torn_down: old.difference(&new).copied().collect(),
            established: new.difference(&old).copied().collect(),
        }
    }
}

/// Wall-clock time of a plan, seconds: switches move their mirrors in
/// parallel, so the busiest switch sets the pace.
fn wall_clock_s(plan: &ReconfigPlan) -> f64 {
    let mut per_switch = vec![0u32; OCS_COUNT as usize];
    for c in plan.torn_down.iter().chain(&plan.established) {
        per_switch[c.ocs] += 1;
    }
    f64::from(per_switch.into_iter().max().unwrap_or(0)) * OCS_RECONFIG_MS / 1000.0
}

/// A regular slice and its twisted retopologization on the same blocks.
fn twist_pair(shape: SliceShape) -> (MaterializedSlice, MaterializedSlice) {
    let mut fabric = Fabric::for_spec(&MachineSpec::v4());
    let regular = fabric.allocate(&SliceSpec::regular(shape)).unwrap();
    let blocks = regular.blocks().to_vec();
    fabric.release(&regular).unwrap();
    let twisted = fabric
        .allocate_on(&SliceSpec::twisted(shape).unwrap(), blocks)
        .unwrap();
    (regular, twisted)
}

#[test]
fn twist_reconfiguration_is_cheap_and_pays_off() {
    // Materialize a regular 4x8x8 and its twisted retopologization on
    // the same racks, plan the mirror moves, and verify the collective
    // improvement justifies the millisecond-class cost.
    let (regular, twisted) = twist_pair(SliceShape::new(4, 8, 8).unwrap());
    let plan = ReconfigPlan::between(&regular, &twisted);
    assert!(!plan.established.is_empty());
    assert!(plan.kept > 0, "untouched dimensions keep their circuits");
    // Milliseconds of switching...
    let switching_s = wall_clock_s(&plan);
    assert!(switching_s > 0.0 && switching_s < 0.5, "{switching_s}");

    // ...buys a lasting all-to-all improvement.
    let rate = LinkRate::TPU_V4_ICI;
    let t_reg = AllToAll::analyze(regular.chip_graph(), 4096, rate).completion_time();
    let t_tw = AllToAll::analyze(twisted.chip_graph(), 4096, rate).completion_time();
    assert!(t_tw < t_reg * 0.85, "twisted {t_tw} vs regular {t_reg}");
}

#[test]
fn twisting_touches_only_the_twisted_dimensions() {
    let (regular, twisted) = twist_pair(SliceShape::new(4, 4, 8).unwrap());
    let plan = ReconfigPlan::between(&regular, &twisted);
    // 4x4x8 = 1x1x2 blocks: 96 circuits total (48 OCSes x 2 block
    // positions). The twist offsets z on x- and y-wraps; z-dimension
    // circuits are identical in both wirings.
    let z_circuits = 16 * 2; // 16 z-line OCSes x 2 positions
    assert!(
        plan.kept >= z_circuits,
        "kept {} < z circuits {z_circuits}",
        plan.kept
    );
    assert_eq!(plan.torn_down.len(), plan.established.len());
    assert!(!plan.established.is_empty());
}

#[test]
fn identity_reconfiguration_is_free() {
    let shape = SliceShape::new(4, 4, 8).unwrap();
    let mut fabric = Fabric::for_spec(&MachineSpec::v4());
    let a = fabric.allocate(&SliceSpec::regular(shape)).unwrap();
    let blocks = a.blocks().to_vec();
    fabric.release(&a).unwrap();
    let b = fabric
        .allocate_on(&SliceSpec::regular(shape), blocks)
        .unwrap();
    let plan = ReconfigPlan::between(&a, &b);
    assert!(plan.torn_down.is_empty() && plan.established.is_empty());
    assert_eq!(plan.kept, a.circuits().len());
}

#[test]
#[should_panic(expected = "identical block sets")]
fn different_blocks_rejected() {
    let shape = SliceShape::new(4, 4, 8).unwrap();
    let mut fabric = Fabric::for_spec(&MachineSpec::v4());
    let a = fabric.allocate(&SliceSpec::regular(shape)).unwrap();
    let b = fabric.allocate(&SliceSpec::regular(shape)).unwrap();
    let _ = ReconfigPlan::between(&a, &b);
}
