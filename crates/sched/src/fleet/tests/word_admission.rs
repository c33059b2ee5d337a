//! The plugboard and switched arms admit on words; this holds them to
//! the code they replaced, step by step. It lives beside the engine's
//! unit tests because it drives the engine's private admission calls.

use super::super::*;
use tpu_ocs::{BlockId, SliceSpec};

/// The committed `specs/*.json` machines, by file stem.
fn committed_specs() -> Vec<(String, MachineSpec)> {
    let dir = std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs"));
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("specs/ directory exists")
        .map(|entry| entry.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let name = p.file_stem().unwrap().to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&p).expect("readable spec");
            (name, MachineSpec::from_json(&text).expect("valid spec"))
        })
        .collect()
}

/// The chip shape the engine submitted to `Supercomputer` for a
/// request before it admitted on words: the block box in chips on
/// geometric units, a 1×1×chips rail otherwise.
fn submit_shape(model: &PlannerModel, request: &Request) -> SliceShape {
    let (edge, b) = (model.spec().block.edge.max(1), request.blocks_box);
    if u64::from(edge).pow(3) == u64::from(model.chips_per_block()) {
        SliceShape::new(b.0 * edge, b.1 * edge, b.2 * edge).unwrap()
    } else {
        SliceShape::new(1, 1, request.chips as u32).unwrap()
    }
}

/// A request for a row of `units` whole units, through the engine's
/// own rounding.
fn row_of(model: &PlannerModel, units: u32) -> Request {
    let edge = model.spec().block.edge.max(1);
    let shape = if u64::from(edge).pow(3) == u64::from(model.chips_per_block()) {
        SliceShape::new(edge, edge, edge * units)
    } else {
        SliceShape::new(1, 1, model.chips_per_block() * units)
    };
    Request::for_shape(model, shape.unwrap())
}

/// The plugboard and switched arms admit on words (`admit`,
/// `release`, `set_host_up`). A seeded script of unit failures and
/// repairs (host 0 of the unit), Table 2 placements, placements sized
/// to the free capacity, and releases runs through them and through
/// the code they replaced, `Supercomputer::submit`/`finish` with
/// deferred wiring, on every committed spec's reconfigurable arm and
/// on two switched fleets with a partial last island. Every step must
/// accept or refuse alike, and every plugboard job must hold the blocks
/// the fabric gave it, which must also be the lowest-indexed blocks
/// that the script's own list of down units and the machine's job
/// table leave free.
#[test]
fn word_admission_decides_like_the_supercomputer() {
    let mut fleets = committed_specs();
    assert!(fleets.len() >= 5, "expected the committed spec corpus");
    let mut a100 = MachineSpec::a100();
    a100.fleet_chips = 4214;
    let mut v4_ib = MachineSpec::v4_ib_hybrid();
    v4_ib.fleet_chips = 4092;
    fleets.push(("a100-partial".into(), a100));
    fleets.push(("v4-ib-partial".into(), v4_ib));
    let mix = SliceMix::table2();
    for (name, spec) in &fleets {
        let sim = FleetSim::for_spec(spec, 1.0, 11).with_profile(FleetSpec {
            arrival_interval_s: f64::INFINITY,
            mtbf_h: 1.0e12,
            ..FleetSpec::reference()
        });
        let model = &sim.model;
        let switched = spec.torus_dims == 0;
        let fabric = if switched {
            FabricKind::Switched
        } else {
            FabricKind::Ocs
        };
        let mut engine = Engine::new(&sim, fabric, 11);
        let units = model.blocks();
        let hosts = model.hosts_per_block();
        assert_eq!(
            engine.health.up_units(),
            units,
            "{name}: every unit starts up"
        );
        let mut machine = model.reconfigurable_arm().clone();
        machine.set_deferred_wiring(true);
        let mut rng = StdRng::seed_from_u64(0xAD_3175);
        let mut live: Vec<(tpu_core::JobId, Hold, u64)> = Vec::new();
        let mut down: Vec<u32> = Vec::new();
        let (mut admitted, mut refused) = (0, 0);
        for step in 0..2_000 {
            let roll = rng.random::<f64>();
            if roll < 0.5 {
                // The reference view of free capacity: the script's own
                // down units and the machine's job table.
                let lowest: Vec<BlockId> = if switched {
                    Vec::new()
                } else {
                    let held: Vec<BlockId> = machine
                        .jobs()
                        .flat_map(|j| j.slice().unwrap().blocks().to_vec())
                        .collect();
                    (0..units)
                        .filter(|u| !down.contains(u))
                        .map(BlockId::new)
                        .filter(|b| !held.contains(b))
                        .collect()
                };
                let request = if roll < 0.4 {
                    Request::for_shape(model, mix.sample(&mut rng).shape)
                } else {
                    // The free capacity, give or take a unit: on a
                    // partial last island only the exact shortfall
                    // arithmetic decides these.
                    let free = match machine.switched() {
                        Some(c) => c
                            .healthy_chips()
                            .saturating_sub(machine.chips_in_use())
                            .div_ceil(u64::from(c.island_chips()))
                            as u32,
                        None => lowest.len() as u32,
                    };
                    row_of(model, (free + rng.random_range(0..3u32)).max(2) - 1)
                };
                let slice = SliceSpec::regular(submit_shape(model, &request));
                let reference = machine.submit(tpu_core::JobSpec::new("script", slice));
                let words = engine.admit(request);
                assert_eq!(
                    reference.is_ok(),
                    words.is_some(),
                    "{name} step {step}: {} chips decided differently",
                    request.chips
                );
                let (Ok(id), Some(hold)) = (reference, words) else {
                    refused += 1;
                    continue;
                };
                if let Hold::Mask(mask) = hold {
                    let blocks = machine.job(id).unwrap().slice().unwrap().blocks().to_vec();
                    let fabric_mask = blocks.iter().fold(0u64, |m, b| m | 1 << b.index());
                    assert_eq!(mask, fabric_mask, "{name} step {step}: blocks differ");
                    assert_eq!(blocks, lowest[..blocks.len()], "{name} step {step}");
                }
                live.push((id, hold, request.chips));
                admitted += 1;
            } else if roll < 0.75 {
                if !live.is_empty() {
                    let (id, hold, chips) = live.swap_remove(rng.random_range(0..live.len()));
                    machine.finish(id).unwrap();
                    engine.release(hold, chips);
                }
            } else if roll < 0.85 || down.is_empty() {
                let unit = rng.random_range(0..units);
                if !down.contains(&unit) {
                    machine.inject_host_failure(BlockId::new(unit), 0).unwrap();
                    assert!(engine.set_host_up(unit * hosts, false), "{name}");
                    down.push(unit);
                }
            } else {
                let unit = down.swap_remove(rng.random_range(0..down.len()));
                machine.repair_host(BlockId::new(unit), 0).unwrap();
                assert!(engine.set_host_up(unit * hosts, true), "{name}");
            }
            assert_eq!(
                engine.busy_chips,
                machine.chips_in_use(),
                "{name} step {step}"
            );
        }
        assert!(
            admitted > 100 && refused > 100,
            "{name}: {admitted} admitted, {refused} refused"
        );
    }
}
