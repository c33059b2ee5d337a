//! Goodput under host failures, with and without the OCS (§2.3, Fig 4).
//!
//! ```sh
//! cargo run --release --example goodput_availability
//! ```

use tpuv4::sched::{DeploymentModel, GoodputSim};
use tpuv4::spec::{FabricKind, MachineSpec};

fn main() {
    let sim = GoodputSim::for_spec(&MachineSpec::v4(), 400, 2023);
    println!(
        "goodput of a {}-chip machine ({} hosts), Monte Carlo:",
        sim.total_chips(),
        sim.total_hosts()
    );
    println!(
        "{:>8} | {:>22} | {:>22}",
        "slice", "OCS (reconfigurable)", "statically cabled"
    );
    println!(
        "{:>8} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6}",
        "chips", "99.0%", "99.5%", "99.9%", "99.0%", "99.5%", "99.9%"
    );
    for &chips in &[64u64, 128, 256, 512, 1024, 2048, 3072, 4096] {
        let g = |avail, fabric| sim.goodput(chips, avail, fabric) * 100.0;
        println!(
            "{chips:>8} | {:>6.1} {:>6.1} {:>6.1} | {:>6.1} {:>6.1} {:>6.1}",
            g(0.990, FabricKind::Ocs),
            g(0.995, FabricKind::Ocs),
            g(0.999, FabricKind::Ocs),
            g(0.990, FabricKind::Static),
            g(0.995, FabricKind::Static),
            g(0.999, FabricKind::Static),
        );
    }

    // §2.4: incremental deployment. One block is 60 days late.
    let rollout = DeploymentModel::uniform_with_delay(64, 1.0, 60.0);
    let horizon = 130.0;
    println!("\nincremental deployment over {horizon} days (last block 60 days late):");
    println!(
        "  OCS (per-block production): {:>8.0} block-days of capacity",
        rollout.incremental_block_days(horizon)
    );
    println!(
        "  all-or-nothing:             {:>8.0} block-days of capacity",
        rollout.static_block_days(horizon)
    );
    println!(
        "  advantage: {:.2}x",
        rollout.incremental_advantage(horizon)
    );
}
