//! Regular vs twisted tori: diameter, bisection, and all-to-all
//! throughput (§2.8, Figures 5–6), plus the OCS wiring audit (Figure 1).
//!
//! ```sh
//! cargo run --release --example twisted_torus
//! ```

use tpuv4::net::{AllToAll, FlowSim, LinkRate};
use tpuv4::topology::{Bisection, GraphMetrics, SliceShape, Torus, TwistedTorus};
use tpuv4::{Fabric, MachineSpec, SliceSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let rate = LinkRate::TPU_V4_ICI;
    println!(
        "{:>8} | {:>9} {:>9} | {:>9} {:>9} | {:>12}",
        "slice", "diam reg", "diam tw", "bisec reg", "bisec tw", "a2a gain"
    );
    for (x, y, z) in [(4u32, 4, 8), (4, 8, 8), (8, 8, 16)] {
        let shape = SliceShape::new(x, y, z)?;
        let regular = Torus::new(shape).into_graph();
        let twisted = TwistedTorus::paper_default(shape)?.into_graph();

        let (d_reg, d_tw) = (
            GraphMetrics::compute(&regular).diameter(),
            GraphMetrics::compute(&twisted).diameter(),
        );
        let (b_reg, b_tw) = (
            Bisection::plane_cut(&regular).min_links(),
            Bisection::plane_cut(&twisted).min_links(),
        );
        let gain = AllToAll::analyze(&twisted, 4096, rate).throughput_per_node()
            / AllToAll::analyze(&regular, 4096, rate).throughput_per_node();
        println!(
            "{:>8} | {d_reg:>9} {d_tw:>9} | {b_reg:>9} {b_tw:>9} | {gain:>11.2}x",
            shape.to_string()
        );
    }
    println!("(paper Figure 6: 1.63x on 4x4x8, 1.31x on 4x8x8)\n");

    // Figure 1 audit: materialize a twisted 4x4x8 through the OCS fabric
    // and check it equals the abstract twisted torus, then replay the
    // all-to-all through the DMA-level flow simulator.
    let mut fabric = Fabric::for_spec(&MachineSpec::v4());
    let shape = SliceShape::new(4, 4, 8)?;
    let slice = fabric.allocate(&SliceSpec::twisted(shape)?)?;
    println!(
        "materialized twisted {} through {} OCS circuits on {} switches",
        shape,
        slice.circuits().len(),
        fabric.switches().len()
    );
    let reference = TwistedTorus::paper_default(shape)?.into_graph();
    assert_eq!(slice.chip_graph().edge_count(), reference.edge_count());
    println!("chip graph matches the abstract twisted torus: OK");

    let flows = tpuv4::net::all_to_all_flows(slice.chip_graph(), 4096.0);
    let sim = FlowSim::new(slice.chip_graph(), rate).run(&flows);
    println!(
        "DMA-level flow simulation: {} flows complete in {:.3} ms ({} events)",
        flows.len(),
        sim.completion_time() * 1e3,
        sim.events()
    );
    fabric.release(&slice)?;
    Ok(())
}
