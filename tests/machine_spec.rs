//! The machine-spec layer: Table 4 numbers and cross-generation
//! composition through the whole stack.

use tpuv4::topology::SliceShape;
use tpuv4::{Collective, FleetSpec, Generation, JobSpec, MachineSpec, SliceSpec, Supercomputer};

#[test]
fn v4_spec_matches_table4() {
    let spec = MachineSpec::v4();
    // 275 TFLOPS peak bf16.
    assert_eq!(spec.chip.peak_tflops, 275.0);
    assert_eq!(spec.peak_flops(), 275e12);
    // 1.2 TB/s of HBM bandwidth.
    assert_eq!(spec.chip.hbm_gbps, 1200.0);
    assert_eq!(spec.hbm_bytes_per_s(), 1.2e12);
    // 6 ICI links at 50 GB/s each.
    assert_eq!(spec.chip.ici_gbps_per_link, 50.0);
    assert_eq!(spec.ici_bytes_per_s(), 50e9);
    assert_eq!(spec.ici_links(), 6);
    // 4096 chips in 64 blocks of 4^3, 4 chips per host, 48 OCSes.
    assert_eq!(spec.fleet_chips, 4096);
    assert_eq!(spec.fleet_blocks(), 64);
    assert_eq!(spec.block.edge, 4);
    assert_eq!(spec.block.chips(), 64);
    assert_eq!(spec.block.tpus_per_host, 4);
    assert_eq!(spec.ocs.unwrap().count, 48);
    // 128 MiB CMEM.
    assert_eq!(spec.chip.cmem_mib, 128.0);
    // 8 MXUs per chip: 2 cores x 4 MXUs.
    assert_eq!(spec.chip.processors * spec.mxus_per_core, 8);
    // 128x128 MXUs: §7.5's 128x operand reuse, 32x the A100's 4x4.
    assert_eq!(spec.mxu_dim, 128);
}

#[test]
fn every_layer_consumes_the_same_spec() {
    let spec = MachineSpec::v4();
    assert_eq!(
        tpuv4::net::LinkRate::for_spec(&spec).bytes_per_s(),
        spec.ici_bytes_per_s()
    );
    assert_eq!(
        tpuv4::ocs::Fabric::for_spec(&spec).chip_count(),
        spec.fleet_chips
    );
    assert_eq!(
        Supercomputer::for_spec(&spec).total_chips(),
        spec.fleet_chips
    );
    // 2 TensorCores x 4 MXUs x 128^2 MACs x 2 FLOPs x 1.05 GHz
    // reproduces the Table 4 peak from first principles, and twice the
    // MXUs at 1.12x the clock is Table 4's "2.2X gain in peak" over v3.
    let mxu_peak = |s: &MachineSpec| {
        f64::from(s.chip.processors)
            * f64::from(s.mxus_per_core)
            * f64::from(s.mxu_dim).powi(2)
            * 2.0
            * s.chip.clock_mhz
            * tpuv4::spec::consts::MEGA
    };
    assert!((mxu_peak(&spec) / 275e12 - 1.0).abs() < 0.01);
    let ratio = mxu_peak(&spec) / mxu_peak(&MachineSpec::v3());
    assert!((2.2..2.3).contains(&ratio), "{ratio}");
    let goodput = tpuv4::sched::GoodputSim::for_spec(&spec, 10, 1);
    assert_eq!(goodput.total_chips(), spec.fleet_chips);
    assert_eq!(goodput.total_hosts(), spec.fleet_hosts());
}

#[test]
fn v3_supercomputer_composes_end_to_end() {
    // The acceptance flow: for_spec(v3) -> submit -> collective_time.
    let mut machine = Supercomputer::for_spec(&MachineSpec::v3());
    assert_eq!(machine.total_chips(), 1024);
    let job = machine
        .submit(JobSpec::new(
            "v3-run",
            SliceSpec::regular(SliceShape::new(4, 8, 8).unwrap()),
        ))
        .unwrap();
    let all_reduce = machine
        .collective_time(job, Collective::AllReduce { bytes: 1 << 28 })
        .unwrap();
    let all_to_all = machine
        .collective_time(
            job,
            Collective::AllToAll {
                bytes_per_pair: 4096,
            },
        )
        .unwrap();
    assert!(all_reduce > 0.0);
    assert!(all_to_all > 0.0);
    machine.finish(job).unwrap();
}

#[test]
fn custom_generation_from_json_drives_the_stack() {
    // A config-file-defined machine: half-fleet v4 with slower links.
    let mut text = MachineSpec::v4().to_json();
    text = text.replace("\"generation\":\"v4\"", "\"generation\":\"half-v4\"");
    text = text.replace("\"fleet_chips\":4096", "\"fleet_chips\":2048");
    let spec = MachineSpec::from_json(&text).unwrap();
    assert_eq!(spec.generation, Generation::custom("half-v4"));
    assert_eq!(spec.fleet_blocks(), 32);
    let mut machine = Supercomputer::for_spec(&spec);
    assert_eq!(machine.total_chips(), 2048);
    let job = machine
        .submit(JobSpec::new(
            "custom",
            SliceSpec::regular(SliceShape::new(8, 8, 8).unwrap()),
        ))
        .unwrap();
    assert!(
        machine
            .collective_time(job, Collective::AllReduce { bytes: 1 << 28 })
            .unwrap()
            > 0.0
    );
}

#[test]
fn faster_v3_links_show_up_in_collective_times() {
    // Table 4: v3 runs 70 GB/s links vs v4's 50 GB/s, so a same-shape
    // bandwidth-bound all-reduce is faster on the v3 machine.
    let shape = SliceShape::new(4, 4, 8).unwrap();
    let op = Collective::AllReduce { bytes: 1 << 30 };
    let mut times = Vec::new();
    for spec in [MachineSpec::v3(), MachineSpec::v4()] {
        let mut machine = Supercomputer::for_spec(&spec);
        let job = machine
            .submit(JobSpec::new("sweep", SliceSpec::regular(shape)))
            .unwrap();
        times.push(machine.collective_time(job, op).unwrap());
    }
    assert!(times[0] < times[1], "v3 {} vs v4 {}", times[0], times[1]);
}

#[test]
fn shipped_spec_files_match_their_builtins() {
    // The specs/ directory is produced by `repro --emit-spec`; this
    // pins every file in it to the built-in constructor of its label
    // (the file name), so an edit to a tpu-spec constant cannot
    // silently strand stale spec files (the doc-drift failure mode
    // DESIGN.md exists to prevent), and a new file needs a built-in.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("specs");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("specs directory")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 9,
        "expected the committed specs, got {paths:?}"
    );
    for path in paths {
        let label = path.file_stem().unwrap().to_str().unwrap();
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("specs/{label}.json unreadable: {e}"));
        let loaded = MachineSpec::from_json(&text)
            .unwrap_or_else(|e| panic!("specs/{label}.json invalid: {e}"));
        assert_eq!(loaded.generation.label(), label, "specs/{label}.json");
        if label == "v4-half" {
            // The derated variant is the v4 spec with a relabel, half
            // fleet, and an explicit fleet profile (the
            // docs/spec-format.md worked example of a repair SLO).
            assert_eq!(loaded.fleet_chips, 2048);
            let mut expect = MachineSpec::v4();
            expect.generation = Generation::custom("v4-half");
            expect.fleet_chips = 2048;
            expect.fleet = Some(FleetSpec {
                repair_slo_h: Some(24.0),
                ..FleetSpec::reference()
            });
            assert_eq!(loaded, expect, "specs/v4-half.json drifted from its recipe");
        } else {
            let builtin = MachineSpec::for_generation(&loaded.generation)
                .unwrap_or_else(|| panic!("{label} should be built in"));
            assert_eq!(loaded, builtin, "specs/{label}.json drifted from built-in");
        }
    }
}
