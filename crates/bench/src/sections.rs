//! Regenerators for the in-text experiments (§2.9, §2.10, §7.2, §7.3,
//! §7.6) and the cross-generation collective sweep.

use std::fmt::Write;
use tpu_core::{Collective, JobSpec, Supercomputer};
use tpu_energy::carbon::{CarbonModel, Datacenter};
use tpu_net::fattree::FatTree;
use tpu_net::{BackendComparison, CollectiveBackend};
use tpu_ocs::{CostModel, SliceSpec};
use tpu_sched::SliceMix;
use tpu_spec::consts::{GIGA, KILO, MEGA};
use tpu_spec::{FabricKind, MachineSpec};
use tpu_topology::SliceShape;
use tpu_workloads::{StepCollectives, WorkloadKind};

/// §2.9: twist-adoption statistics from the Table 2 sample.
pub fn sec2_9() -> String {
    let mut out = String::new();
    let mix = SliceMix::table2();
    let _ = writeln!(
        out,
        "below 4^3:                         {:>5.1}%  (paper: 29%)",
        mix.share_below_64() * 100.0
    );
    let _ = writeln!(
        out,
        "twistable geometries:              {:>5.1}%  (paper: 33%)",
        mix.share_twistable() * 100.0
    );
    let _ = writeln!(
        out,
        "actually twisted:                  {:>5.1}%  (paper: 28%)",
        mix.share_twisted() * 100.0
    );
    let _ = writeln!(
        out,
        "adoption among twistable:          {:>5.1}%  (paper: 86%)",
        mix.twist_adoption_among_twistable() * 100.0
    );
    let _ = writeln!(
        out,
        "twisted share of >=4^3 topologies: {:>5.1}%  (paper: 40%)",
        mix.twist_adoption_at_or_above_64() * 100.0
    );
    out
}

/// §2.10: the optical fabric's share of the cost and power of the full
/// 64-block machine, under the deployment estimates of
/// [`CostModel::tpu_v4_estimates`].
pub fn sec2_10() -> String {
    let report = CostModel::tpu_v4_estimates().evaluate(64);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "optics share of system cost:  {:>5.1}%  (paper: <5%)",
        report.optics_cost_share() * 100.0
    );
    let _ = writeln!(
        out,
        "optics share of system power: {:>5.1}%  (paper: <3%)",
        report.optics_power_share() * 100.0
    );
    out
}

/// §7.3: the InfiniBand alternative, regenerated through the same
/// [`BackendComparison`] dispatch that serves the A100 backend — the v4
/// OCS torus vs the `"v4-ib"` switched counterfactual.
pub fn sec7_3() -> String {
    let mut out = String::new();
    let ft = FatTree::hdr_reference();
    let v4 = MachineSpec::v4();
    let ib = MachineSpec::v4_ib_hybrid();
    let _ = writeln!(
        out,
        "switch counts: 1120 chips -> {} IB switches (paper: 164); {} -> {} (paper: 568)",
        ft.estimated_switches(1120),
        v4.fleet_chips,
        ft.estimated_switches(v4.fleet_chips)
    );
    let _ = writeln!(
        out,
        "{:>10} {:>8} {:>20} {:>20}",
        "slice", "chips", "all-reduce slowdown", "all-to-all slowdown"
    );
    for (x, y, z) in [(8u32, 8, 8), (8, 8, 16), (8, 16, 16), (16, 16, 16)] {
        let shape = SliceShape::new(x, y, z).expect("valid"); // tpu-lint: allow(panic-policy) -- report generator over hard-coded paper configs; a bad config is a bug worth a crash
        let cmp = BackendComparison::between(&v4, &ib, shape, GIGA, 4096.0);
        let _ = writeln!(
            out,
            "{:>10} {:>8} {:>19.2}x {:>19.2}x",
            shape.to_string(),
            cmp.chips,
            cmp.all_reduce_slowdown,
            cmp.all_to_all_slowdown
        );
    }
    let _ = writeln!(
        out,
        "(paper: all-reduce 1.8x-2.4x slower, all-to-all 1.2x-2.4x slower)"
    );
    out
}

/// §7.2: TPU v4 vs the Table 5 A100 cluster — chips, rates, and the
/// interconnect side of the comparison through the switched backend,
/// plus per-workload-class collective slowdowns.
pub fn sec7_2() -> String {
    let mut out = String::new();
    let v4 = MachineSpec::v4();
    let a100 = MachineSpec::a100();
    let _ = writeln!(out, "{:<26} {:>12} {:>12}", "", "TPU v4", "NVIDIA A100");
    let _ = writeln!(
        out,
        "{:<26} {:>12} {:>12}",
        "largest config (chips)", v4.fleet_chips, a100.fleet_chips
    );
    let _ = writeln!(
        out,
        "{:<26} {:>12.0} {:>12.0}",
        "peak bf16 TFLOPS", v4.chip.peak_tflops, a100.chip.peak_tflops
    );
    let _ = writeln!(
        out,
        "{:<26} {:>12.0} {:>12.0}",
        "interconnect GB/s/link", v4.chip.ici_gbps_per_link, a100.chip.ici_gbps_per_link
    );
    let _ = writeln!(
        out,
        "{:<26} {:>12} {:>12}",
        "fabric", "OCS 3D torus", "NVLink+IB"
    );
    let _ = writeln!(out);
    let shape = SliceShape::new(8, 8, 8).expect("valid"); // tpu-lint: allow(panic-policy) -- shape literals are nonzero paper constants
    let cmp = BackendComparison::between(&v4, &a100, shape, GIGA, 4096.0);
    let _ = writeln!(
        out,
        "512-chip slice, 1 GB all-reduce / 4 KiB-pair all-to-all:"
    );
    let _ = writeln!(
        out,
        "  A100 fabric slowdown vs OCS torus: {:.2}x all-reduce, {:.2}x all-to-all",
        cmp.all_reduce_slowdown, cmp.all_to_all_slowdown
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "per-class collective slowdown on the A100 fabric:");
    for kind in [
        WorkloadKind::Cnn,
        WorkloadKind::Rnn,
        WorkloadKind::Bert,
        WorkloadKind::Dlrm,
    ] {
        let slow = StepCollectives::for_kind(kind).slowdown_on(&v4, &a100, shape);
        let _ = writeln!(out, "  {kind:?}: {slow:.2}x");
    }
    out
}

/// Cross-generation sweep: `{V2, V3, V4, A100, v4-ib}` × slice shape ×
/// collective, every cell through `Supercomputer::for_spec` →
/// `submit` → `collective_time`. Slices that exceed a fleet print `-`.
pub fn sweep() -> String {
    let mut out = String::new();
    let shapes = [(4u32, 4, 4), (4, 4, 8), (8, 8, 8), (8, 8, 16)];
    let specs = [
        MachineSpec::v2(),
        MachineSpec::v3(),
        MachineSpec::v4(),
        MachineSpec::a100(),
        MachineSpec::v4_ib_hybrid(),
    ];

    for (title, op) in [
        (
            "all-reduce of 1 GiB, ms",
            Collective::AllReduce { bytes: 1 << 30 },
        ),
        (
            "all-to-all of 4 KiB per pair, ms",
            Collective::AllToAll {
                bytes_per_pair: 4096,
            },
        ),
    ] {
        let _ = writeln!(out, "{title}:");
        let _ = write!(out, "{:<10}", "machine");
        for (x, y, z) in shapes {
            let _ = write!(out, "{:>10}", format!("{x}x{y}x{z}"));
        }
        let _ = writeln!(out);
        for spec in &specs {
            let _ = write!(out, "{:<10}", spec.generation.label());
            let mut machine = Supercomputer::for_spec(spec);
            for (x, y, z) in shapes {
                let shape = SliceShape::new(x, y, z).expect("valid"); // tpu-lint: allow(panic-policy) -- report generator over hard-coded paper configs; a bad config is a bug worth a crash
                let cell = match machine.submit(JobSpec::new("sweep", SliceSpec::regular(shape))) {
                    Ok(job) => {
                        let t = machine
                            .collective_time(job, op)
                            .expect("job just submitted"); // tpu-lint: allow(panic-policy) -- report generator over hard-coded paper configs; a bad config is a bug worth a crash
                        machine.finish(job).expect("job is running"); // tpu-lint: allow(panic-policy) -- report generator over hard-coded paper configs; a bad config is a bug worth a crash
                        format!("{:.3}", t * KILO)
                    }
                    // Slice exceeds this generation's fleet.
                    Err(_) => "-".to_string(),
                };
                let _ = write!(out, "{cell:>10}");
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "(one code path: CollectiveBackend::for_spec dispatches on torus_dims)"
    );
    out
}

/// Latency-regime sweep: for every built-in machine, the all-reduce
/// payload at which alpha and beta terms cross on a 512-chip slice, and
/// the latency-aware / bandwidth-only ratio across payloads — the §7.9
/// fixed-overhead and §8 latency-hiding discussion made quantitative.
pub fn crossover() -> String {
    let mut out = String::new();
    let shape = SliceShape::new(8, 8, 8).expect("valid"); // tpu-lint: allow(panic-policy) -- shape literals are nonzero paper constants
    let payloads: [(f64, &str); 6] = [
        (1024.0, "1 KiB"),
        (65536.0, "64 KiB"),
        (1048576.0, "1 MiB"),
        (8388608.0, "8 MiB"),
        (67108864.0, "64 MiB"),
        (1073741824.0, "1 GiB"),
    ];
    let _ = write!(out, "{:<10} {:>14}", "machine", "crossover");
    for (_, label) in payloads {
        let _ = write!(out, " {:>9}", label);
    }
    let _ = writeln!(out);
    for spec in [
        MachineSpec::v2(),
        MachineSpec::v3(),
        MachineSpec::v4(),
        MachineSpec::v4_ib_hybrid(),
        MachineSpec::a100(),
        MachineSpec::ipu_bow(),
    ] {
        let label = spec.generation.label();
        let backend = CollectiveBackend::for_spec(&spec);
        let bandwidth = backend.bandwidth_only();
        let _ = write!(
            out,
            "{:<10} {:>11.1} MB",
            label,
            backend.all_reduce_crossover_bytes(shape) / MEGA
        );
        for (bytes, _) in payloads {
            let ratio =
                backend.all_reduce_time(shape, bytes) / bandwidth.all_reduce_time(shape, bytes);
            let _ = write!(out, " {:>8.2}x", ratio);
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "\n(512-chip all-reduce, latency-aware time over bandwidth-only;"
    );
    let _ = writeln!(
        out,
        " below the crossover the fabric is latency-bound — the regime §8's"
    );
    let _ = writeln!(
        out,
        " tens of thousands of outstanding requests exist to hide)"
    );
    out
}

/// The ring/tree crossover surface per machine spec: for every switched
/// machine, the all-reduce payload below which `auto` selection runs the
/// inter-island phase as a double binary tree instead of the flat ring
/// (`tpu_net::SwitchedFabric::ring_tree_crossover_bytes`), across slice
/// sizes — plus what `auto` actually picks for the §6.3 BERT gradient
/// and for a latency-bound 1 MiB payload. Torus machines close the
/// table: per-hop alpha makes `auto` resolve to the ring at every size
/// and payload (DESIGN.md §10).
pub fn schedule_crossover() -> String {
    use tpu_net::SwitchedFabric;

    let mut out = String::new();
    let sizes: [u64; 5] = [64, 256, 512, 1024, 4096];
    let bert_bytes = 680e6; // §6.3: 340M bf16 gradients
    let small_bytes = 1048576.0;
    let switched = [
        MachineSpec::v4_ib_hybrid(),
        MachineSpec::a100(),
        MachineSpec::h100(),
        MachineSpec::ipu_bow(),
    ];

    let _ = writeln!(
        out,
        "ring/tree crossover payload by slice size (tree wins below; '-' = ring always):"
    );
    let _ = write!(out, "{:<10} {:>8}", "machine", "island");
    for chips in sizes {
        let _ = write!(out, " {:>10}", format!("{chips} chips"));
    }
    let _ = writeln!(out);
    for spec in &switched {
        let label = spec.generation.label();
        let fabric = SwitchedFabric::for_spec(spec).expect("switched spec"); // tpu-lint: allow(panic-policy) -- report generator over hard-coded paper configs; a bad config is a bug worth a crash
        let _ = write!(out, "{:<10} {:>8}", label, fabric.island_chips);
        for chips in sizes {
            let crossover = fabric.ring_tree_crossover_bytes(chips);
            let cell = if crossover <= 0.0 {
                "-".to_string()
            } else if crossover >= GIGA {
                format!("{:.1} GB", crossover / GIGA)
            } else {
                format!("{:.1} MB", crossover / MEGA)
            };
            let _ = write!(out, " {cell:>10}");
        }
        let _ = writeln!(out);
    }

    let _ = writeln!(
        out,
        "\nauto selection at the BERT gradient (680 MB) / at 1 MiB:"
    );
    for spec in &switched {
        let label = spec.generation.label();
        let fabric = SwitchedFabric::for_spec(spec).expect("switched spec"); // tpu-lint: allow(panic-policy) -- report generator over hard-coded paper configs; a bad config is a bug worth a crash
        let _ = write!(out, "{label:<10}");
        for chips in sizes {
            let pick = |bytes: f64| {
                fabric
                    .inter_island_algorithm(chips, bytes)
                    .map_or("intra", |algo| algo.label())
            };
            let _ = write!(
                out,
                " {:>13}",
                format!("{}/{}", pick(bert_bytes), pick(small_bytes))
            );
        }
        let _ = writeln!(out);
    }

    let _ = writeln!(
        out,
        "\ntorus machines (per-hop alpha: a tree pass crosses every hop, so"
    );
    let _ = writeln!(out, " auto == ring at every size and payload):");
    for spec in [MachineSpec::v2(), MachineSpec::v3(), MachineSpec::v4()] {
        let label = spec.generation.label();
        let link = tpu_net::AlphaBeta::for_spec(&spec);
        let shape = SliceShape::new(8, 8, 8).expect("valid"); // tpu-lint: allow(panic-policy) -- shape literals are nonzero paper constants
        let mut picks = Vec::new();
        for bytes in [1024.0, small_bytes, bert_bytes] {
            let (algorithm, _) = link.torus_all_reduce_schedule(
                shape,
                bytes,
                tpu_net::TorusPaths::MultiPath,
                spec.collective_schedule(),
            );
            picks.push(algorithm.label());
        }
        let _ = writeln!(
            out,
            "  {label:<8} 1 KiB/1 MiB/680 MB -> {}",
            picks.join("/")
        );
    }
    out
}

/// A machine report for an arbitrary spec file (the `repro --spec`
/// path): identity, derived fleet numbers and a collective table through
/// `Supercomputer::for_spec`.
pub fn spec_report(spec: &MachineSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "machine:      {}", spec.generation);
    let _ = writeln!(out, "chip:         {}", spec.chip.name);
    let _ = writeln!(
        out,
        "fleet:        {} chips, {} hosts",
        spec.fleet_chips,
        spec.fleet_hosts()
    );
    let _ = writeln!(
        out,
        "fabric:       {}",
        match spec.fabric {
            FabricKind::Switched => "switched (islands + fat tree)".to_string(),
            FabricKind::Ocs => format!("{}D torus, OCS-stitched", spec.torus_dims),
            FabricKind::Static => format!("{}D torus, statically cabled", spec.torus_dims),
        }
    );
    let _ = writeln!(
        out,
        "interconnect: {} links x {:.0} GB/s",
        spec.chip.ici_links, spec.chip.ici_gbps_per_link
    );
    let latency = spec.collective_latency();
    let _ = writeln!(
        out,
        "latency:      {:.2} µs/hop ici, {:.2} µs nic + {:.2} µs/switch-stage{}",
        latency.ici_hop_s * MEGA,
        latency.nic_s * MEGA,
        latency.switch_hop_s * MEGA,
        if spec.latency.is_some() {
            ""
        } else {
            " (reference)"
        }
    );
    let collective = spec.collective_schedule();
    let _ = writeln!(
        out,
        "schedule:     {}{}{}",
        collective.schedule.label(),
        match collective.crossover_bytes {
            // Only report the threshold where a costed collective
            // actually consults it: auto selection (forced schedules
            // are rejected by the parser) on a switched machine (the
            // torus arm deliberately ignores the override — the
            // crossover is an inter-island knob, DESIGN.md §10).
            Some(bytes)
                if collective.schedule == tpu_spec::SchedulePolicy::Auto
                    && spec.fabric == FabricKind::Switched =>
                format!(", ring/tree crossover forced at {:.1} MB", bytes / MEGA),
            Some(_) => ", crossover override ignored (torus arms stay ring)".to_string(),
            None => String::new(),
        },
        if spec.collective.is_some() {
            ""
        } else {
            " (reference)"
        }
    );
    let _ = writeln!(
        out,
        "crossover:    {:.1} MB all-reduce payload on a 512-chip slice",
        CollectiveBackend::for_spec(spec)
            .all_reduce_crossover_bytes(SliceShape::new(8, 8, 8).expect("valid")) // tpu-lint: allow(panic-policy) -- shape literals are nonzero paper constants
            / MEGA
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:>10} {:>8} {:>18} {:>18}",
        "slice", "chips", "all-reduce(ms)", "all-to-all(ms)"
    );
    let mut machine = Supercomputer::for_spec(spec);
    for (x, y, z) in [(4u32, 4, 4), (4, 4, 8), (8, 8, 8), (8, 8, 16)] {
        let shape = SliceShape::new(x, y, z).expect("valid"); // tpu-lint: allow(panic-policy) -- report generator over hard-coded paper configs; a bad config is a bug worth a crash
        let row = match machine.submit(JobSpec::new("report", SliceSpec::regular(shape))) {
            Ok(job) => {
                let ar = machine
                    .collective_time(job, Collective::AllReduce { bytes: 1 << 30 })
                    .expect("job just submitted"); // tpu-lint: allow(panic-policy) -- report generator over hard-coded paper configs; a bad config is a bug worth a crash
                let a2a = machine
                    .collective_time(
                        job,
                        Collective::AllToAll {
                            bytes_per_pair: 4096,
                        },
                    )
                    .expect("job just submitted"); // tpu-lint: allow(panic-policy) -- report generator over hard-coded paper configs; a bad config is a bug worth a crash
                machine.finish(job).expect("job is running"); // tpu-lint: allow(panic-policy) -- report generator over hard-coded paper configs; a bad config is a bug worth a crash
                format!("{:>18.3} {:>18.3}", ar * KILO, a2a * KILO)
            }
            Err(e) => format!("{:>37}", format!("({e})")),
        };
        let _ = writeln!(out, "{:>10} {:>8} {row}", shape.to_string(), shape.volume());
    }
    out
}

/// §7.6: the 4Ms energy and CO2e walkthrough.
pub fn sec7_6() -> String {
    let mut out = String::new();
    let tpu = Datacenter::google_oklahoma();
    let onprem = Datacenter::average_on_premise();
    let model = CarbonModel::paper_default();
    let _ = writeln!(
        out,
        "Model         = {:.2} (same model trained)",
        model.model_factor
    );
    let _ = writeln!(
        out,
        "Machine       = {:.2}x perf/W advantage (conservative)",
        model.machine_factor
    );
    let _ = writeln!(
        out,
        "Mechanization = PUE {:.2} (on-prem) vs {:.2} (WSC)",
        onprem.pue, tpu.pue
    );
    let _ = writeln!(
        out,
        "Map           = {:.3} vs {:.3} kg CO2e/kWh (CFE {:.0}% vs {:.0}%)",
        onprem.kg_co2e_per_kwh,
        tpu.kg_co2e_per_kwh,
        onprem.cfe_fraction * 100.0,
        tpu.cfe_fraction * 100.0
    );
    let _ = writeln!(
        out,
        "energy ratio: {:.2}x (paper: 2.85x)",
        model.energy_ratio(&onprem, &tpu)
    );
    let _ = writeln!(
        out,
        "CO2e ratio:   {:.1}x (paper: ~18.3x, summarized as ~20x)",
        model.co2e_ratio(&onprem, &tpu)
    );
    // A concrete job: PaLM-scale 50-day training on 6144 chips at 170 W.
    let it_kwh = 6144.0 * 0.170 * 24.0 * 50.0;
    let _ = writeln!(
        out,
        "example: 50-day 6144-chip job = {:.0} MWh IT-side; {:.0} t CO2e in-WSC vs {:.0} t on-prem",
        it_kwh / 1000.0,
        model.job_co2e_kg(&tpu, it_kwh) / 1000.0,
        model.job_co2e_kg(&onprem, it_kwh) * model.machine_factor / 1000.0
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sec2_9_has_all_five_statistics() {
        let out = sec2_9();
        for pct in ["29%", "33%", "28%", "86%", "40%"] {
            assert!(out.contains(pct), "{pct} missing:\n{out}");
        }
    }

    #[test]
    fn sec2_10_shares_are_under_the_paper_bounds() {
        let out = sec2_10();
        let shares: Vec<f64> = out
            .lines()
            .filter_map(|line| {
                line.split_whitespace()
                    .find_map(|w| w.strip_suffix('%')?.parse().ok())
            })
            .collect();
        assert_eq!(shares.len(), 2, "{out}");
        assert!(shares[0] < 5.0, "cost share over the paper's <5%:\n{out}");
        assert!(shares[1] < 3.0, "power share over the paper's <3%:\n{out}");
    }

    #[test]
    fn sec7_3_reports_slowdowns() {
        let out = sec7_3();
        assert!(out.contains("all-reduce"));
        assert!(out.contains("568"));
    }

    #[test]
    fn sec7_2_compares_tpu_and_a100() {
        let out = sec7_2();
        assert!(out.contains("NVIDIA A100"));
        assert!(out.contains("slowdown"));
        assert!(out.contains("Dlrm"));
    }

    #[test]
    fn sweep_covers_every_machine_and_marks_overflow() {
        let out = sweep();
        for label in ["v2", "v3", "v4", "a100", "v4-ib"] {
            assert!(out.contains(label), "{label} missing:\n{out}");
        }
        // v2's 256-chip fleet cannot host an 8x8x16 slice.
        assert!(out.contains('-'), "{out}");
    }

    #[test]
    fn spec_report_works_for_torus_and_switched() {
        for spec in [MachineSpec::v4(), MachineSpec::a100()] {
            let out = spec_report(&spec);
            assert!(out.contains("all-reduce"), "{out}");
            assert!(out.contains("4x4x8"), "{out}");
            assert!(out.contains("crossover"), "{out}");
        }
        assert!(spec_report(&MachineSpec::a100()).contains("switched"));
        assert!(spec_report(&MachineSpec::v4()).contains("OCS-stitched"));
        // A spec with explicit alphas and an explicit schedule block
        // reports both as its own (no "(reference)" tags left).
        let mut spec = MachineSpec::v4();
        assert_eq!(spec_report(&spec).matches("(reference)").count(), 2);
        assert!(spec_report(&spec).contains("schedule:     auto (reference)"));
        spec.latency = Some(tpu_spec::LatencySpec::reference());
        spec.collective = Some(tpu_spec::CollectiveSpec {
            schedule: tpu_spec::SchedulePolicy::Auto,
            crossover_bytes: Some(8e6),
        });
        // On a torus the override is never consulted — the report must
        // say so instead of claiming a threshold is in force.
        let report = spec_report(&spec);
        assert!(!report.contains("(reference)"), "{report}");
        assert!(report.contains("crossover override ignored"), "{report}");
        // On a switched machine the same block genuinely drives auto.
        let mut switched = MachineSpec::a100();
        switched.collective = spec.collective;
        let report = spec_report(&switched);
        assert!(report.contains("crossover forced at 8.0 MB"), "{report}");
    }

    #[test]
    fn crossover_covers_every_machine_in_megabytes() {
        let out = crossover();
        for label in ["v2", "v3", "v4", "v4-ib", "a100", "ipu-bow"] {
            assert!(out.contains(label), "{label} missing:\n{out}");
        }
        assert!(out.contains("MB"), "{out}");
        // Large payloads converge on every machine: the 1 GiB column is
        // within 1% of bandwidth-only.
        for line in out.lines().skip(1).take(6) {
            let last = line.split_whitespace().last().unwrap();
            let ratio: f64 = last.trim_end_matches('x').parse().unwrap();
            // Printed at 2 decimals, so within-1% shows as at most 1.01.
            assert!((1.0..=1.01).contains(&ratio), "{line}");
        }
    }

    #[test]
    fn schedule_crossover_covers_switched_and_torus_machines() {
        let out = schedule_crossover();
        for label in ["v4-ib", "a100", "h100", "ipu-bow", "v2", "v3", "v4"] {
            assert!(out.contains(label), "{label} missing:\n{out}");
        }
        // Assert on the computed table rows, not the header prose: a
        // machine's own line must carry real crossover cells.
        let row = |label: &str| {
            out.lines()
                .find(|l| l.starts_with(label))
                .unwrap_or_else(|| panic!("no {label} row:\n{out}"))
                .to_string()
        };
        // a100 surface row: crossovers in MB and GB, growing with size.
        let a100 = row("a100");
        assert!(a100.contains("MB") && a100.contains("GB"), "{a100}");
        // h100's 64-chip column is one island — ring-always '-' cell.
        let h100 = row("h100");
        assert!(h100.contains('-'), "{h100}");
        // Selection rows (second a100/h100 occurrence): auto picks the
        // tree at scale and still rings bulk payloads at small sizes.
        let selection: Vec<&str> = out.lines().filter(|l| l.starts_with("a100")).collect();
        assert_eq!(selection.len(), 2, "{out}");
        assert!(selection[1].contains("tree/tree"), "{}", selection[1]);
        assert!(selection[1].contains("ring/tree"), "{}", selection[1]);
        // Torus machines never leave the ring.
        assert!(out.contains("ring/ring/ring"), "{out}");
        assert!(!row("  v4 ").contains("tree"), "{out}");
    }

    #[test]
    fn sec7_6_reports_ratios() {
        let out = sec7_6();
        assert!(out.contains("2.85x"));
        assert!(out.contains("CO2e ratio"));
    }
}
