//! Cross-generation sweep: the same quickstart flow on every built-in
//! TPU generation, plus a config-file-style custom machine.
//!
//! ```sh
//! cargo run --example cross_generation
//! ```

use tpuv4::topology::SliceShape;
use tpuv4::{Collective, JobSpec, MachineSpec, SliceSpec, Supercomputer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let shape = SliceShape::new(4, 4, 8)?;
    let op = Collective::AllReduce { bytes: 1 << 30 };

    println!(
        "{:<8} {:>8} {:>12} {:>12} {:>16}",
        "machine", "chips", "ICI GB/s", "TFLOPS", "all-reduce (ms)"
    );
    for spec in [MachineSpec::v2(), MachineSpec::v3(), MachineSpec::v4()] {
        let mut machine = Supercomputer::for_spec(&spec);
        let job = machine.submit(JobSpec::new("sweep", SliceSpec::regular(shape)))?;
        let t = machine.collective_time(job, op)?;
        println!(
            "{:<8} {:>8} {:>12.1} {:>12.1} {:>16.3}",
            spec.generation.label(),
            machine.total_chips(),
            spec.chip.ici_gbps_per_link,
            spec.chip.peak_tflops,
            t * 1e3
        );
        machine.finish(job)?;
    }

    // A custom machine defined the way a config file would: serialize the
    // v4 spec, edit it, load it back.
    let text = MachineSpec::v4()
        .to_json()
        .replace("\"generation\":\"v4\"", "\"generation\":\"half-v4\"")
        .replace("\"fleet_chips\":4096", "\"fleet_chips\":2048");
    let spec = MachineSpec::from_json(&text)?;
    let mut machine = Supercomputer::for_spec(&spec);
    let job = machine.submit(JobSpec::new("custom", SliceSpec::regular(shape)))?;
    println!(
        "{:<8} {:>8} {:>12.1} {:>12.1} {:>16.3}",
        spec.generation.label(),
        machine.total_chips(),
        spec.chip.ici_gbps_per_link,
        spec.chip.peak_tflops,
        machine.collective_time(job, op)? * 1e3
    );

    // Malformed spec files fail with a positioned error, not a panic.
    let err = MachineSpec::from_json("{\"generation\": \"v4\",").unwrap_err();
    println!("malformed spec file -> {err}");

    Ok(())
}
