//! Deferred OCS wiring (`Supercomputer::set_deferred_wiring`) skips
//! programming circuits but must not change a single admission
//! decision: every `submit` must accept, refuse and choose blocks
//! exactly as an eager machine would. The fleet DES's word admission is
//! held to the deferred machine (`tpu-sched`'s `word_admission` unit
//! test), and so through this test to eager wiring too.
//!
//! The proof drives an eager and a deferred machine through one seeded
//! script of `submit`, `finish`, `inject_host_failure` and
//! `repair_host` on every committed torus spec (as the OCS plugboard
//! machine), asserting the same `Ok`/`Err` for every
//! call and the same block list for every admitted slice.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::PathBuf;
use tpu_core::{JobId, JobSpec, Supercomputer};
use tpu_ocs::{BlockId, SliceSpec};
use tpu_spec::{FabricKind, MachineSpec};
use tpu_topology::SliceShape;

fn committed_torus_specs() -> Vec<(String, MachineSpec)> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs"));
    let mut paths: Vec<PathBuf> = fs::read_dir(&dir)
        .expect("specs/ directory exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    let specs: Vec<(String, MachineSpec)> = paths
        .into_iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            let text = fs::read_to_string(&p).expect("readable spec");
            (name, MachineSpec::from_json(&text).expect("valid spec"))
        })
        .filter(|(_, spec)| spec.torus_dims > 0)
        .collect();
    assert!(
        specs.len() >= 4,
        "expected the committed torus specs, found {}",
        specs.len()
    );
    specs
}

/// The blocks backing a running job, in slice-position order.
fn blocks_of(machine: &Supercomputer, id: JobId) -> Vec<BlockId> {
    machine
        .job(id)
        .expect("admitted job is running")
        .slice()
        .expect("plugboard jobs hold torus slices")
        .blocks()
        .to_vec()
}

/// A request of 1–64 blocks: mostly the regular block-aligned boxes the
/// DES submits, some twisted ones, and some misaligned ones (refused at
/// admission). Boxes bigger than the free healthy capacity are refused
/// for capacity, which on the small specs is most of the big ones.
fn draw_slice(rng: &mut StdRng, edge: u32) -> SliceSpec {
    let side = |rng: &mut StdRng| [1, 1, 1, 1, 2, 2, 4][rng.random_range(0..7usize)];
    let (bx, by, bz) = (side(rng), side(rng), side(rng));
    let roll = rng.random::<f64>();
    let shape = if roll < 0.05 {
        SliceShape::new(bx * edge + 1, by * edge, bz * edge)
    } else {
        SliceShape::new(bx * edge, by * edge, bz * edge)
    }
    .expect("positive dimensions");
    if roll > 0.85 {
        SliceSpec::twisted(shape).unwrap_or_else(|_| SliceSpec::regular(shape))
    } else {
        SliceSpec::regular(shape)
    }
}

#[test]
fn deferred_wiring_admits_exactly_like_eager_wiring_on_every_torus_spec() {
    for (name, spec) in committed_torus_specs() {
        let ocs = spec.clone().with_fabric(FabricKind::Ocs);
        let mut eager = Supercomputer::for_spec(&ocs);
        let mut deferred = eager.clone();
        deferred.set_deferred_wiring(true);
        let (blocks, _, hosts) = ocs.scheduling_units();
        let edge = ocs.block.edge;
        let mut rng = StdRng::seed_from_u64(0x5EED_0CA5);
        let mut live: Vec<JobId> = Vec::new();
        let mut down: Vec<(BlockId, u32)> = Vec::new();
        let mut admitted = 0;
        let mut peak_circuits = 0;
        for step in 0..1_500 {
            let op = rng.random::<f64>();
            if op < 0.45 {
                let slice = draw_slice(&mut rng, edge);
                let a = eager.submit(JobSpec::new("script", slice));
                let b = deferred.submit(JobSpec::new("script", slice));
                assert_eq!(a, b, "{name} step {step}: submit({slice:?}) diverged");
                if let Ok(id) = a {
                    assert_eq!(
                        blocks_of(&eager, id),
                        blocks_of(&deferred, id),
                        "{name} step {step}: {slice:?} landed on different blocks"
                    );
                    live.push(id);
                    admitted += 1;
                }
            } else if op < 0.75 {
                // Mostly finish a running job; occasionally an unknown id.
                let id = if live.is_empty() || rng.random::<f64>() < 0.05 {
                    JobId::new(u64::MAX)
                } else {
                    live.swap_remove(rng.random_range(0..live.len()))
                };
                assert_eq!(
                    eager.finish(id),
                    deferred.finish(id),
                    "{name} step {step}: finish({id}) diverged"
                );
            } else if op < 0.85 || down.is_empty() {
                // One past the last block exercises the unknown-block error.
                let block = BlockId::new(rng.random_range(0..=blocks as u32));
                let host = rng.random_range(0..hosts);
                let result = eager.inject_host_failure(block, host);
                assert_eq!(
                    result,
                    deferred.inject_host_failure(block, host),
                    "{name} step {step}: failing host {block:?}/{host} diverged"
                );
                if result.is_ok() {
                    down.push((block, host));
                }
            } else {
                let (block, host) = down.swap_remove(rng.random_range(0..down.len()));
                assert_eq!(
                    eager.repair_host(block, host),
                    deferred.repair_host(block, host),
                    "{name} step {step}: repairing host {block:?}/{host} diverged"
                );
            }
            assert_eq!(eager.chips_in_use(), deferred.chips_in_use(), "{name}");
            let circuits = eager.fabric().expect("plugboard machine").total_circuits();
            peak_circuits = peak_circuits.max(circuits);
        }
        for &id in &live {
            assert_eq!(blocks_of(&eager, id), blocks_of(&deferred, id), "{name}");
        }
        // Both modes were really exercised: the eager machine programmed
        // circuits, the deferred one never did.
        assert!(admitted > 50, "{name}: only {admitted} slices admitted");
        assert!(peak_circuits > 0, "{name}: eager wiring programmed nothing");
        assert_eq!(
            deferred
                .fabric()
                .expect("plugboard machine")
                .total_circuits(),
            0,
            "{name}"
        );
    }
}
