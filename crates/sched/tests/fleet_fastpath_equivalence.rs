//! The closed-form reconfigurable placement count
//! (`place_reconfigurable`) must equal the submit-until-refused loop
//! through the production `Supercomputer` (the reference
//! [`place_reconfigurable_naive`] below) over randomized health
//! vectors. It runs on every committed spec, OCS plugboard and switched
//! islands alike, and on two switched fleets whose last island is
//! partial: a100 at 4214 chips (last island 2 of 4) and v4-ib at 4092
//! (last island 4 of 8). The naive loop runs interleaved on one machine
//! instance, so its inject/repair state restoration is exercised too,
//! while the closed form reads the model's pristine machine, as
//! `GoodputSim` and the fleet DES probe do.
//!
//! The fleet engine itself has no runtime alternative to compare
//! against: `fleet_golden` pins its traces on every committed spec, and
//! the `word_admission` unit test holds its word admission on the
//! reconfigurable arms to `Supercomputer::submit`/`finish`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::PathBuf;
use tpu_core::{JobSpec, Supercomputer};
use tpu_ocs::{BlockId, SliceSpec};
use tpu_sched::goodput::{place_reconfigurable, slice_geometry};
use tpu_sched::PlannerModel;
use tpu_spec::MachineSpec;
use tpu_topology::SliceShape;

fn committed_specs() -> Vec<(String, MachineSpec)> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs"));
    let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("specs/ directory exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 5,
        "expected the committed spec corpus, found {paths:?}"
    );
    paths
        .into_iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            let text = fs::read_to_string(&p).expect("readable spec");
            (name, MachineSpec::from_json(&text).expect("valid spec"))
        })
        .collect()
}

/// The reference trial of the reconfigurable arm: inject the drawn
/// failures, submit slices until the machine refuses, then finish
/// every job and repair every host so the next trial starts clean.
fn place_reconfigurable_naive(
    machine: &mut Supercomputer,
    healthy: &[bool],
    shape: SliceShape,
    blocks_needed: u32,
) -> u32 {
    for (b, up) in healthy.iter().enumerate() {
        if !up {
            machine
                .inject_host_failure(BlockId::new(b as u32), 0)
                .expect("block indices are in range");
        }
    }
    let mut placed = 0;
    while machine
        .submit(JobSpec::new("goodput", SliceSpec::regular(shape)))
        .is_ok()
    {
        placed += blocks_needed;
    }
    let jobs: Vec<_> = machine.jobs().map(|j| j.id()).collect();
    for id in jobs {
        machine.finish(id).expect("job is running");
    }
    for (b, up) in healthy.iter().enumerate() {
        if !up {
            machine
                .repair_host(BlockId::new(b as u32), 0)
                .expect("block indices are in range");
        }
    }
    placed
}

#[test]
fn reconfigurable_placement_arithmetic_matches_the_naive_fabric_loop() {
    let mut fleets = committed_specs();
    let mut a100 = MachineSpec::a100();
    a100.fleet_chips = 4214;
    let mut v4_ib = MachineSpec::v4_ib_hybrid();
    v4_ib.fleet_chips = 4092;
    fleets.push(("a100-partial".into(), a100));
    fleets.push(("v4-ib-partial".into(), v4_ib));

    let mut switched = 0;
    for (name, spec) in &fleets {
        let model = PlannerModel::for_spec(spec);
        let pristine = model.reconfigurable_arm();
        let mut machine = pristine.clone();
        switched += usize::from(machine.is_switched());
        let units = model.blocks() as usize;
        let block = u64::from(model.chips_per_block());
        let mut rng = StdRng::seed_from_u64(2024);
        for slice_blocks in [1u64, 2, (u64::from(model.blocks()) / 4).max(1)] {
            let (_, shape, blocks_needed) =
                slice_geometry(spec, model.chips_per_block(), slice_blocks * block);
            for trial in 0..20 {
                let p_up = 0.5 + 0.5 * rng.random::<f64>();
                let healthy: Vec<bool> = (0..units).map(|_| rng.random::<f64>() < p_up).collect();
                let naive =
                    place_reconfigurable_naive(&mut machine, &healthy, shape, blocks_needed);
                let fast = place_reconfigurable(pristine, &healthy, shape, blocks_needed);
                assert_eq!(
                    fast, naive,
                    "{name} slice {slice_blocks} blocks, trial {trial}: closed-form count diverged"
                );
            }
        }
    }
    assert!(
        switched > 2,
        "expected committed switched specs beside the two partial fleets, found {switched} switched fleets"
    );
}
