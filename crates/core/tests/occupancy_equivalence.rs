//! Property test: the word-bitset allocator in
//! [`StaticCluster::allocate`] must place **exactly** the blocks the old
//! greedy cell-by-cell scan placed — same cells, same order, same
//! failures — under randomized health and occupancy churn, for every
//! machine spec shipped in `specs/*.json`. The reference keeps its own
//! per-host health and occupancy and reads nothing from the cluster it
//! checks, so the free words the cluster builds from its host-health
//! record are held to it too; any divergence here is a correctness bug,
//! not a tuning difference (DESIGN.md §11).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use tpu_core::StaticCluster;
use tpu_spec::MachineSpec;

/// The distinct axis orientations of a box in first-occurrence order —
/// the exact scan order `allocate` uses (mirrored here because the
/// production helper is private).
fn distinct_orientations(b: (u32, u32, u32)) -> Vec<(u32, u32, u32)> {
    let all = [
        (b.0, b.1, b.2),
        (b.0, b.2, b.1),
        (b.1, b.0, b.2),
        (b.1, b.2, b.0),
        (b.2, b.0, b.1),
        (b.2, b.1, b.0),
    ];
    let mut out = Vec::new();
    for o in all {
        if !out.contains(&o) {
            out.push(o);
        }
    }
    out
}

/// The reference allocator the word allocator replaced: scan anchors in
/// z/y/x index order, orientations in the fixed distinct order, and
/// walk every cell of each candidate box probing health and occupancy
/// directly — first fit wins, wraparound allowed. Health is this
/// model's own set of down (block, host) pairs, fed the same
/// `set_host_up` calls as the real cluster; occupancy is its own
/// `in_use`.
struct NaiveCluster {
    grid: (u32, u32, u32),
    down: BTreeSet<(u32, u32)>,
    in_use: Vec<bool>,
}

impl NaiveCluster {
    fn new(grid: (u32, u32, u32)) -> NaiveCluster {
        NaiveCluster {
            grid,
            down: BTreeSet::new(),
            in_use: vec![false; (grid.0 * grid.1 * grid.2) as usize],
        }
    }

    fn set_host_up(&mut self, block: u32, host: u32, up: bool) {
        if up {
            self.down.remove(&(block, host));
        } else {
            self.down.insert((block, host));
        }
    }

    fn block_healthy(&self, block: u32) -> bool {
        self.down
            .range((block, 0)..=(block, u32::MAX))
            .next()
            .is_none()
    }

    fn index(&self, x: u32, y: u32, z: u32) -> u32 {
        let (gx, gy, gz) = self.grid;
        (x % gx) + gx * ((y % gy) + gy * (z % gz))
    }

    fn allocate(&mut self, bbox: (u32, u32, u32)) -> Option<Vec<u32>> {
        let (gx, gy, gz) = self.grid;
        let orients = distinct_orientations(bbox);
        for z in 0..gz {
            for y in 0..gy {
                for x in 0..gx {
                    for &(bx, by, bz) in &orients {
                        if bx > gx || by > gy || bz > gz {
                            continue;
                        }
                        let mut cells = Vec::new();
                        let mut ok = true;
                        'walk: for dz in 0..bz {
                            for dy in 0..by {
                                for dx in 0..bx {
                                    let i = self.index(x + dx, y + dy, z + dz);
                                    if !self.block_healthy(i) || self.in_use[i as usize] {
                                        ok = false;
                                        break 'walk;
                                    }
                                    cells.push(i);
                                }
                            }
                        }
                        if ok {
                            for &i in &cells {
                                self.in_use[i as usize] = true;
                            }
                            return Some(cells);
                        }
                    }
                }
            }
        }
        None
    }

    fn release(&mut self, blocks: &[u32]) {
        for &b in blocks {
            self.in_use[b as usize] = false;
        }
    }
}

/// One randomized churn sequence over one spec: host failures/repairs,
/// allocations of assorted box shapes (cubes, slabs, Table 2 cigars,
/// unplaceable oversizes), and releases — the real allocator and the
/// naive reference must agree exactly at every step.
fn churn(spec: &MachineSpec, seed: u64, ops: u32) {
    let mut real = StaticCluster::for_spec(spec);
    let mut naive = NaiveCluster::new(real.grid());
    let (gx, gy, gz) = real.grid();
    let max_edge = gx.max(gy).max(gz);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<Vec<u32>> = Vec::new();

    for op in 0..ops {
        match rng.random_range(0u32..10) {
            // Toggle one host's health on both models.
            0..=3 => {
                let block = rng.random_range(0..real.blocks());
                let host = rng.random_range(0..real.hosts_per_block());
                let up: bool = rng.random();
                real.set_host_up(block, host, up).unwrap();
                naive.set_host_up(block, host, up);
            }
            // Try an allocation; shapes deliberately include boxes that
            // cannot fit so the failure paths are compared too.
            4..=7 => {
                let bbox = match rng.random_range(0u32..4) {
                    0 => {
                        let e = rng.random_range(1..=max_edge.min(4));
                        (e, e, e)
                    }
                    1 => (
                        rng.random_range(1..=max_edge),
                        rng.random_range(1..=max_edge),
                        rng.random_range(1..=max_edge),
                    ),
                    2 => (1, 1, rng.random_range(1..=gz.max(2) * 2)),
                    _ => (
                        rng.random_range(1..=max_edge + 1),
                        rng.random_range(1..=max_edge + 1),
                        rng.random_range(1..=max_edge + 1),
                    ),
                };
                let got = real.allocate(bbox);
                let want = naive.allocate(bbox);
                match (got, want) {
                    (Ok(a), Some(b)) => {
                        assert_eq!(
                            a, b,
                            "placement diverged: spec {:?} seed {seed} op {op} bbox {bbox:?}",
                            spec.generation
                        );
                        live.push(a);
                    }
                    (Err(_), None) => {}
                    (got, want) => panic!(
                        "feasibility diverged: spec {:?} seed {seed} op {op} bbox {bbox:?}: real {:?} vs naive {:?}",
                        spec.generation,
                        got.map(|c| c.len()),
                        want.map(|c| c.len()),
                    ),
                }
            }
            // Release a random live allocation on both models.
            _ => {
                if live.is_empty() {
                    continue;
                }
                let pick = rng.random_range(0..live.len());
                let cells = live.swap_remove(pick);
                real.release(&cells);
                naive.release(&cells);
            }
        }
    }
}

#[test]
fn bitset_allocator_matches_naive_greedy_scan_on_every_spec() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("specs directory")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 5,
        "expected the shipped spec set, got {paths:?}"
    );
    for path in paths {
        let text = std::fs::read_to_string(&path).unwrap();
        let spec =
            MachineSpec::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        // Big rail fleets (a100: 1054 islands) get fewer ops to keep the
        // naive O(blocks·volume) reference affordable; the torus grids
        // get deeper churn.
        let ops = if real_blocks(&spec) > 256 { 120 } else { 400 };
        for seed in [1u64, 2, 3] {
            churn(&spec, seed, ops);
        }
    }
}

fn real_blocks(spec: &MachineSpec) -> u64 {
    spec.scheduling_units().0
}

#[test]
fn wraparound_boxes_agree_under_adversarial_fragmentation() {
    // Deterministic adversarial case: fail an interior slab so every
    // placement of a big box must wrap, then confirm both allocators
    // pick the identical wrapped anchor.
    let spec = MachineSpec::v4();
    let mut real = StaticCluster::for_spec(&spec);
    let mut naive = NaiveCluster::new(real.grid());
    for z in 0..4u32 {
        for y in 0..4u32 {
            for x in [1u32, 2] {
                real.set_host_up(x + 4 * (y + 4 * z), 0, false).unwrap();
                naive.set_host_up(x + 4 * (y + 4 * z), 0, false);
            }
        }
    }
    let got = real.allocate((2, 4, 4)).unwrap();
    let want = naive.allocate((2, 4, 4)).unwrap();
    assert_eq!(got, want);
}
