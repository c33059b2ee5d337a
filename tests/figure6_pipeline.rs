//! Integration: the Figure 6 pipeline end to end — OCS materialization →
//! per-link load model → DMA-level flow simulation — and the agreement
//! between the two performance models.

use tpuv4::net::{all_to_all_flows, AllToAll, FlowSim, LinkRate};
use tpuv4::ocs::{Fabric, SliceSpec};
use tpuv4::topology::SliceShape;
use tpuv4::MachineSpec;

const RATE: LinkRate = LinkRate::TPU_V4_ICI;

#[test]
fn figure6_gains_via_ocs_materialized_slices() {
    let mut fabric = Fabric::for_spec(&MachineSpec::v4());
    // (shape, paper gain, accepted band)
    let cases = [
        ((4u32, 4u32, 8u32), 1.63, (1.3, 2.0)),
        ((4, 8, 8), 1.31, (1.1, 1.7)),
    ];
    for ((x, y, z), paper, (lo, hi)) in cases {
        let shape = SliceShape::new(x, y, z).unwrap();
        let regular = fabric.allocate(&SliceSpec::regular(shape)).unwrap();
        let t_reg = AllToAll::analyze(regular.chip_graph(), 4096, RATE).throughput_per_node();
        fabric.release(&regular).unwrap();

        let twisted = fabric
            .allocate(&SliceSpec::twisted(shape).unwrap())
            .unwrap();
        let t_tw = AllToAll::analyze(twisted.chip_graph(), 4096, RATE).throughput_per_node();
        fabric.release(&twisted).unwrap();

        let gain = t_tw / t_reg;
        assert!(
            (lo..hi).contains(&gain),
            "{shape}: gain {gain} (paper {paper}) outside [{lo}, {hi})"
        );
    }
}

#[test]
fn load_model_and_flow_sim_agree_on_small_slices() {
    // The analytic load model and the max-min flow simulator must tell
    // the same story within a modest factor (single-path pinning vs
    // all-shortest-path splitting).
    for (x, y, z) in [(4u32, 4u32, 1u32), (4, 4, 2)] {
        let shape = SliceShape::new(x, y, z).unwrap();
        let graph = tpuv4::topology::Torus::new(shape).into_graph();
        let bytes = 65536.0;
        let load_time =
            tpuv4::net::LinkLoads::uniform_all_to_all(&graph, bytes).completion_time(RATE);
        let flows = all_to_all_flows(&graph, bytes);
        let sim_time = FlowSim::new(&graph, RATE).run(&flows).completion_time();
        let ratio = sim_time / load_time;
        assert!(
            (0.7..2.2).contains(&ratio),
            "{shape}: sim {sim_time} vs load {load_time} (ratio {ratio})"
        );
    }
}

#[test]
fn twisted_wins_in_the_flow_simulator_too() {
    // The twist advantage is not an artifact of the analytic model: the
    // DMA-level simulator sees it as well. A small geometric-twistable
    // shape keeps the max-min simulation fast in debug builds.
    let shape = SliceShape::new(2, 2, 4).unwrap();
    let regular = tpuv4::topology::Torus::new(shape).into_graph();
    let twisted = tpuv4::topology::TwistedTorus::paper_default(shape)
        .unwrap()
        .into_graph();
    let bytes = 16384.0;
    let t_reg = FlowSim::new(&regular, RATE)
        .run(&all_to_all_flows(&regular, bytes))
        .completion_time();
    let t_tw = FlowSim::new(&twisted, RATE)
        .run(&all_to_all_flows(&twisted, bytes))
        .completion_time();
    assert!(
        t_tw < t_reg,
        "flow sim: twisted {t_tw} must beat regular {t_reg}"
    );
}

#[test]
fn ideal_fraction_reported_like_figure6_stacked_bars() {
    // Figure 6 annotates each bar with the delta from the theoretical
    // ideal; the analysis must report an achievable fraction in (0, 1].
    for (x, y, z) in [(4u32, 4u32, 8u32), (4, 8, 8)] {
        let shape = SliceShape::new(x, y, z).unwrap();
        for graph in [
            tpuv4::topology::Torus::new(shape).into_graph(),
            tpuv4::topology::TwistedTorus::paper_default(shape)
                .unwrap()
                .into_graph(),
        ] {
            let a = AllToAll::analyze(&graph, 4096, RATE);
            let f = a.fraction_of_ideal();
            assert!(f > 0.3 && f <= 1.0 + 1e-9, "{}: fraction {f}", graph.name());
        }
    }
}
