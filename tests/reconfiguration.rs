//! Integration: §2.6–2.7 topology reconfiguration through the whole
//! stack — fabric diffing, mirror-move accounting, and the payoff of
//! retopologizing a slice in place.

use tpuv4::net::{AllToAll, LinkRate};
use tpuv4::ocs::wiring::OCS_COUNT;
use tpuv4::ocs::{Fabric, ReconfigPlan, SliceSpec, OCS_RECONFIG_MS};
use tpuv4::topology::SliceShape;
use tpuv4::Generation;

/// Wall-clock time of a plan, seconds: switches move their mirrors in
/// parallel, so the busiest switch sets the pace.
fn wall_clock_s(plan: &ReconfigPlan) -> f64 {
    let mut per_switch = vec![0u32; OCS_COUNT as usize];
    for c in plan.torn_down().iter().chain(plan.established()) {
        per_switch[c.ocs] += 1;
    }
    f64::from(per_switch.into_iter().max().unwrap_or(0)) * OCS_RECONFIG_MS / 1000.0
}

#[test]
fn twist_reconfiguration_is_cheap_and_pays_off() {
    // Materialize a regular 4x8x8 and its twisted retopologization on
    // the same racks, plan the mirror moves, and verify the collective
    // improvement justifies the millisecond-class cost.
    let shape = SliceShape::new(4, 8, 8).unwrap();
    let mut fabric = Fabric::for_generation(&Generation::V4);
    let regular = fabric.allocate(&SliceSpec::regular(shape)).unwrap();
    let blocks = regular.blocks().to_vec();
    fabric.release(&regular).unwrap();
    let twisted = fabric
        .allocate_on(&SliceSpec::twisted(shape).unwrap(), blocks)
        .unwrap();

    let plan = ReconfigPlan::between(&regular, &twisted);
    assert!(!plan.established().is_empty());
    assert!(plan.kept() > 0, "untouched dimensions keep their circuits");
    // Milliseconds of switching...
    let switching_s = wall_clock_s(&plan);
    assert!(switching_s > 0.0 && switching_s < 0.5, "{switching_s}");

    // ...buys a lasting all-to-all improvement.
    let rate = LinkRate::TPU_V4_ICI;
    let t_reg = AllToAll::analyze(regular.chip_graph(), 4096, rate).completion_time();
    let t_tw = AllToAll::analyze(twisted.chip_graph(), 4096, rate).completion_time();
    assert!(t_tw < t_reg * 0.85, "twisted {t_tw} vs regular {t_reg}");
}
