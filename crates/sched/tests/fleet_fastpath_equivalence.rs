//! The closed-form plugboard placement count (`place_reconfigurable`)
//! must equal the submit-until-refused loop through the production
//! fabric (`place_reconfigurable_naive`) over randomized health
//! vectors, on every committed torus spec — interleaved on one machine
//! instance, so the naive path's inject/repair state restoration is
//! exercised too.
//!
//! The fleet engine itself has no runtime alternative to compare
//! against: `fleet_golden` pins its traces on every committed spec, and
//! `tpu-core`'s `deferred_wiring` test proves the deferred OCS wiring it
//! places with admits exactly like eager wiring.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::PathBuf;
use tpu_sched::goodput::{place_reconfigurable, place_reconfigurable_naive, slice_geometry};
use tpu_sched::PlannerModel;
use tpu_spec::MachineSpec;

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

#[test]
fn plugboard_placement_arithmetic_matches_the_naive_fabric_loop() {
    for (name, spec) in committed_specs() {
        if spec.torus_dims == 0 {
            // Switched islands take the naive path unconditionally.
            continue;
        }
        let model = PlannerModel::for_spec(&spec);
        let mut machine = model.reconfigurable_arm().clone();
        let units = model.blocks() as usize;
        let block = u64::from(model.chips_per_block());
        let mut rng = StdRng::seed_from_u64(2024);
        for slice_blocks in [1u64, 2, (model.blocks() as u64 / 4).max(1)] {
            let (_, shape, blocks_needed) =
                slice_geometry(&spec, model.chips_per_block(), slice_blocks * block);
            for trial in 0..20 {
                let p_up = 0.5 + 0.5 * rng.random::<f64>();
                let healthy: Vec<bool> = (0..units).map(|_| rng.random::<f64>() < p_up).collect();
                let naive =
                    place_reconfigurable_naive(&mut machine, &healthy, shape, blocks_needed);
                let fast = place_reconfigurable(&mut machine, &healthy, shape, blocks_needed);
                assert_eq!(
                    fast, naive,
                    "{name} slice {slice_blocks} blocks, trial {trial}: closed-form count diverged"
                );
            }
        }
    }
}
