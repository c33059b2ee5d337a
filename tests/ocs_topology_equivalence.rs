//! Integration: slices materialized through the OCS fabric are
//! link-for-link identical to the abstract topologies, for every
//! production shape family (the Figure 1 / Figure 5 audit at scale).

use tpuv4::ocs::{Fabric, SliceSpec};
use tpuv4::topology::{Edge, LinkGraph, SliceShape, Torus, TwistedTorus};
use tpuv4::MachineSpec;

fn edge_multiset(g: &LinkGraph) -> Vec<(u32, u32, u8, u8, bool)> {
    let mut v: Vec<_> = g
        .edges()
        .iter()
        .map(|e: &Edge| {
            (
                e.src.index() as u32,
                e.dst.index() as u32,
                e.label.dim.index() as u8,
                (e.label.dir == tpuv4::topology::Direction::Plus) as u8,
                e.label.wraparound,
            )
        })
        .collect();
    v.sort_unstable();
    v
}

#[test]
fn every_table2_regular_block_shape_materializes_exactly() {
    let mut fabric = Fabric::for_spec(&MachineSpec::v4());
    // The block-aligned regular shapes of Table 2 that fit in 64 blocks.
    let shapes = [
        (4u32, 4u32, 4u32),
        (4, 4, 8),
        (4, 4, 12),
        (4, 8, 8),
        (4, 4, 16),
        (4, 8, 12),
        (8, 8, 8),
        (4, 8, 16),
        (8, 8, 12),
        (8, 8, 16),
        (4, 16, 16),
        (8, 12, 16),
        (8, 8, 24),
    ];
    for (x, y, z) in shapes {
        let shape = SliceShape::new(x, y, z).unwrap();
        let slice = fabric
            .allocate(&SliceSpec::regular(shape))
            .unwrap_or_else(|e| panic!("{shape}: {e}"));
        let reference = Torus::new(shape).into_graph();
        assert_eq!(
            edge_multiset(slice.chip_graph()),
            edge_multiset(&reference),
            "shape {shape}"
        );
        fabric.release(&slice).unwrap();
    }
}

#[test]
fn every_table2_twisted_shape_materializes_exactly() {
    let mut fabric = Fabric::for_spec(&MachineSpec::v4());
    for (x, y, z) in [(4u32, 4, 8), (4, 8, 8), (8, 8, 16), (8, 16, 16)] {
        let shape = SliceShape::new(x, y, z).unwrap();
        let slice = fabric
            .allocate(&SliceSpec::twisted(shape).unwrap())
            .unwrap_or_else(|e| panic!("{shape}: {e}"));
        let reference = TwistedTorus::paper_default(shape).unwrap().into_graph();
        assert_eq!(
            edge_multiset(slice.chip_graph()),
            edge_multiset(&reference),
            "shape {shape}"
        );
        fabric.release(&slice).unwrap();
    }
}

#[test]
fn full_4096_chip_machine_materializes() {
    let mut fabric = Fabric::for_spec(&MachineSpec::v4());
    let shape = SliceShape::new(16, 16, 16).unwrap();
    let slice = fabric.allocate(&SliceSpec::regular(shape)).unwrap();
    let reference = Torus::new(shape).into_graph();
    assert_eq!(edge_multiset(slice.chip_graph()), edge_multiset(&reference));
    // 48 switches x 64 circuits = full port usage.
    assert_eq!(fabric.total_circuits(), 48 * 64);
}

#[test]
fn released_fabric_is_reusable_across_many_allocations() {
    let mut fabric = Fabric::for_spec(&MachineSpec::v4());
    for round in 0..20 {
        let spec = if round % 2 == 0 {
            SliceSpec::regular(SliceShape::new(8, 8, 8).unwrap())
        } else {
            SliceSpec::twisted(SliceShape::new(4, 8, 8).unwrap()).unwrap()
        };
        let slice = fabric.allocate(&spec).unwrap();
        fabric.release(&slice).unwrap();
        assert_eq!(fabric.total_circuits(), 0, "round {round} leaked circuits");
        assert_eq!(fabric.free_healthy_blocks().len(), 64);
    }
}
