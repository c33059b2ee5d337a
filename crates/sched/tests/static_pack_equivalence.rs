//! The static arm's pack query (`place_static`, one first-fit pass of
//! `StaticCluster::count_first_fit`) must count exactly what the
//! allocate-until-refused trial placed: inject the drawn failures with
//! `set_host_up`, `allocate` until the cluster refuses, then release
//! every slice and repair every injected failure. Checked on every
//! committed spec — so on both sides of the conflict-mask count (grids
//! of at most 64 blocks) and the run test (v4-ib's 512 islands, a100's
//! 1 054-island rail) — at every `slice_axis()` point, under random
//! health at availabilities from 0.97 to 1.0, on pristine clusters and
//! on clusters that already hold jobs and failed hosts.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::PathBuf;
use tpu_core::StaticCluster;
use tpu_sched::goodput::{place_static, slice_geometry};
use tpu_sched::GoodputSim;
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

/// The reference trial: inject, allocate until refused, release,
/// repair. Its repair step also brings back a host 0 that was down
/// before the call, so it only ever runs on a copy.
fn place_static_naive(
    cluster: &mut StaticCluster,
    healthy: &[bool],
    slice_box: (u32, u32, u32),
    blocks_needed: u32,
) -> u32 {
    for (b, up) in healthy.iter().enumerate() {
        if !up {
            cluster.set_host_up(b as u32, 0, false).unwrap();
        }
    }
    let mut placed = 0;
    let mut held = Vec::new();
    while let Ok(blocks) = cluster.allocate(slice_box) {
        placed += blocks_needed;
        held.push(blocks);
    }
    for blocks in held {
        cluster.release(&blocks);
    }
    for (b, up) in healthy.iter().enumerate() {
        if !up {
            cluster.set_host_up(b as u32, 0, true).unwrap();
        }
    }
    placed
}

const AVAILABILITIES: [f64; 6] = [0.97, 0.98, 0.99, 0.995, 0.999, 1.0];

/// A cluster already holding a few jobs of assorted shapes, with a few
/// hosts down (host 0 among them, the host the reference injects on).
fn busy_cluster(pristine: &StaticCluster, rng: &mut StdRng) -> StaticCluster {
    let mut c = pristine.clone();
    let (gx, gy, gz) = c.grid();
    for _ in 0..4 {
        let bbox = (
            rng.random_range(1..=gx.div_ceil(2)),
            rng.random_range(1..=gy.div_ceil(2)),
            rng.random_range(1..=gz.div_ceil(4)),
        );
        let _ = c.allocate(bbox);
    }
    for _ in 0..3 {
        let block = rng.random_range(0..c.blocks());
        let host = rng.random_range(0..c.hosts_per_block().min(2));
        c.set_host_up(block, host, false).unwrap();
    }
    c
}

#[test]
fn pack_query_matches_the_allocate_until_refused_trial_on_every_spec() {
    let mut rng = StdRng::seed_from_u64(2025);
    for (name, spec) in committed_specs() {
        let sim = GoodputSim::for_spec(&spec, 1, 0);
        let model = sim.model();
        let axis = sim.slice_axis();
        let pristine = model.static_arm().clone();
        let busy = busy_cluster(&pristine, &mut rng);
        for (state, cluster) in [("pristine", pristine), ("busy", busy)] {
            let before = cluster.clone();
            // One cluster answers every query in turn.
            for availability in AVAILABILITIES {
                let p_block = availability.powi(model.hosts_per_block() as i32);
                for &chips in &axis {
                    let (bbox, _, needed) = slice_geometry(&spec, model.chips_per_block(), chips);
                    let healthy: Vec<bool> = (0..model.blocks())
                        .map(|_| rng.random::<f64>() < p_block)
                        .collect();
                    let want = place_static_naive(&mut cluster.clone(), &healthy, bbox, needed);
                    let got = place_static(&cluster, &healthy, bbox, needed);
                    assert_eq!(
                        got, want,
                        "{name} ({state}) slice {chips} chips at availability {availability}"
                    );
                    assert_eq!(
                        cluster, before,
                        "{name} ({state}): the query mutated the cluster"
                    );
                }
            }
        }
    }
}
