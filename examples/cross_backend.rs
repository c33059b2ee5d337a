//! Cross-backend comparison: the same job flow on the OCS torus, the
//! §7.3 InfiniBand counterfactual, and the Table 5 A100 cluster — the
//! paper's headline network comparison, end to end through
//! `Supercomputer::for_spec`.
//!
//! ```sh
//! cargo run --example cross_backend
//! ```

use tpuv4::topology::SliceShape;
use tpuv4::{Collective, Generation, JobSpec, MachineSpec, SliceSpec, Supercomputer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let shape = SliceShape::new(8, 8, 8)?;
    let ar = Collective::AllReduce { bytes: 1 << 30 };
    let a2a = Collective::AllToAll {
        bytes_per_pair: 4096,
    };

    println!(
        "{:<8} {:<10} {:>8} {:>16} {:>16}",
        "machine", "fabric", "chips", "all-reduce (ms)", "all-to-all (ms)"
    );
    let mut v4_times = (0.0, 0.0);
    for spec in [
        MachineSpec::v4(),
        MachineSpec::v4_ib_hybrid(),
        MachineSpec::a100(),
    ] {
        let mut machine = Supercomputer::for_spec(&spec);
        let job = machine.submit(JobSpec::new("cmp", SliceSpec::regular(shape)))?;
        let t_ar = machine.collective_time(job, ar)?;
        let t_a2a = machine.collective_time(job, a2a)?;
        if spec.generation == Generation::V4 {
            v4_times = (t_ar, t_a2a);
        }
        println!(
            "{:<8} {:<10} {:>8} {:>16.3} {:>16.3}",
            spec.generation.label(),
            if machine.is_switched() {
                "switched"
            } else {
                "OCS torus"
            },
            machine.total_chips(),
            t_ar * 1e3,
            t_a2a * 1e3
        );
        machine.finish(job)?;
    }

    // The §7.3 claim, recomputed from the rows above.
    let ib = MachineSpec::v4_ib_hybrid();
    let mut machine = Supercomputer::for_spec(&ib);
    let job = machine.submit(JobSpec::new("ib", SliceSpec::regular(shape)))?;
    println!(
        "\nv4-ib vs v4 on a 512-chip slice: {:.2}x all-reduce, {:.2}x all-to-all",
        machine.collective_time(job, ar)? / v4_times.0,
        machine.collective_time(job, a2a)? / v4_times.1,
    );
    println!("(paper §7.3: 1.8x-2.4x all-reduce, 1.2x-2.4x all-to-all)");

    // Switched machines have no torus to twist — the API says so.
    let err = machine
        .submit(JobSpec::new(
            "nope",
            SliceSpec::twisted(SliceShape::new(4, 4, 8)?)?,
        ))
        .unwrap_err();
    println!("twist on a switched machine -> {err}");

    Ok(())
}
