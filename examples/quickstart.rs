//! Quickstart: bring up the 4096-chip machine, run a few jobs, inject a
//! failure, and time collectives on live slices.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use tpuv4::ocs::BlockId;
use tpuv4::topology::SliceShape;
use tpuv4::{Collective, JobSpec, MachineSpec, SliceSpec, Supercomputer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut machine = Supercomputer::for_spec(&MachineSpec::v4());
    let fabric = machine.fabric().expect("the v4 machine is an OCS torus");
    println!(
        "machine: {} chips over {} blocks, {} OCSes",
        machine.total_chips(),
        fabric.block_count(),
        fabric.switches().len()
    );

    // An LLM pre-training job on a 512-chip cube, and a recommender on a
    // twisted 256-chip slice for bisection (§2.7).
    let llm = machine.submit(JobSpec::new(
        "llm-pretrain",
        SliceSpec::regular(SliceShape::new(8, 8, 8)?),
    ))?;
    let recsys = machine.submit(JobSpec::new(
        "ads-recommender",
        SliceSpec::twisted(SliceShape::new(4, 8, 8)?)?,
    ))?;
    println!(
        "utilization after two jobs: {:.1}% ({} chips)",
        machine.utilization() * 100.0,
        machine.chips_in_use()
    );

    // Gradient all-reduce of 1 GiB on the LLM slice.
    let ar = machine.collective_time(llm, Collective::AllReduce { bytes: 1 << 30 })?;
    println!("llm 1 GiB all-reduce: {:.3} ms", ar * 1e3);

    // Embedding all-to-all (4 KiB DMAs, Figure 6's regime) on the
    // twisted recommender slice.
    let a2a = machine.collective_time(
        recsys,
        Collective::AllToAll {
            bytes_per_pair: 4096,
        },
    )?;
    println!("recsys 4 KiB/pair all-to-all: {:.3} ms", a2a * 1e3);

    // A CPU host dies; the machine routes new work around the block.
    machine.inject_host_failure(BlockId::new(40), 7)?;
    println!(
        "after host failure: {} healthy free blocks",
        machine
            .fabric()
            .expect("the v4 machine is an OCS torus")
            .free_healthy_blocks()
            .len()
    );
    let filler = machine.submit(JobSpec::new(
        "batch-inference",
        SliceSpec::regular(SliceShape::new(4, 4, 4)?),
    ))?;
    println!(
        "scheduled around the failure: {} still placed, utilization {:.1}%",
        machine.job(filler)?.spec().name(),
        machine.utilization() * 100.0
    );

    machine.finish(llm)?;
    machine.finish(recsys)?;
    machine.finish(filler)?;
    println!(
        "all jobs finished; utilization {:.1}%",
        machine.utilization() * 100.0
    );
    Ok(())
}
