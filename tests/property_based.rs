//! Property-based tests over the core data structures and invariants.
//!
//! Uses a small deterministic sampler instead of `proptest` (unavailable
//! in offline builds): each property runs over a fixed number of
//! pseudo-random cases drawn from a seeded `StdRng` stream, so failures
//! reproduce exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tpuv4::net::{LinkLoads, LinkRate};
use tpuv4::topology::{
    bfs_distances, edge_betweenness, Bisection, GraphMetrics, LinkGraph, NodeId, SliceShape, Torus,
    TwistedTorus,
};

/// Fewest and most outgoing links over the nodes of `g`.
fn degree_range(g: &LinkGraph) -> (usize, usize) {
    let degrees: Vec<usize> = g.nodes().map(|n| g.neighbors(n).count()).collect();
    let min = degrees.iter().copied().min().unwrap_or(0);
    (min, degrees.into_iter().max().unwrap_or(0))
}

/// A deterministic case generator over domain-shaped draws.
struct Cases {
    rng: StdRng,
}

impl Cases {
    fn new(seed: u64) -> Cases {
        Cases {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A uniform draw from `lo..=hi`.
    fn int(&mut self, lo: u64, hi: u64) -> u64 {
        self.rng.random_range(lo..=hi)
    }

    fn bool(&mut self) -> bool {
        self.rng.random()
    }

    /// An arbitrary shape with dimensions in 1..=6.
    fn small_shape(&mut self) -> SliceShape {
        SliceShape::new(
            self.int(1, 6) as u32,
            self.int(1, 6) as u32,
            self.int(1, 6) as u32,
        )
        .expect("nonzero")
    }

    /// A twistable n×n×2n or n×2n×2n shape with n in 1..=4.
    fn twistable_shape(&mut self) -> SliceShape {
        let n = self.int(1, 4) as u32;
        if self.bool() {
            SliceShape::new(n, n, 2 * n).expect("nonzero")
        } else {
            SliceShape::new(n, 2 * n, 2 * n).expect("nonzero")
        }
    }
}

#[test]
fn torus_is_symmetric_and_regular() {
    let mut cases = Cases::new(0xA0);
    for _ in 0..64 {
        let shape = cases.small_shape();
        let g = Torus::new(shape).into_graph();
        assert!(g.is_symmetric(), "{shape}");
        let active: u32 = [shape.x(), shape.y(), shape.z()]
            .iter()
            .filter(|&&k| k > 1)
            .count() as u32;
        let (min_deg, max_deg) = degree_range(&g);
        assert_eq!(min_deg, max_deg, "{shape}");
        assert_eq!(min_deg as u32, 2 * active, "{shape}");
    }
}

#[test]
fn torus_is_strongly_connected() {
    let mut cases = Cases::new(0xA1);
    for _ in 0..64 {
        let shape = cases.small_shape();
        let g = Torus::new(shape).into_graph();
        let d = bfs_distances(&g, NodeId::new(0));
        assert!(d.iter().all(|&x| x != u32::MAX), "{shape}");
    }
}

#[test]
fn twisted_torus_preserves_regularity() {
    let mut cases = Cases::new(0xA2);
    for _ in 0..64 {
        let shape = cases.twistable_shape();
        let g = TwistedTorus::paper_default(shape)
            .expect("twistable")
            .into_graph();
        assert!(g.is_symmetric(), "{shape}");
        let (min_deg, max_deg) = degree_range(&g);
        assert_eq!(min_deg, max_deg, "{shape}");
        let d = bfs_distances(&g, NodeId::new(0));
        assert!(d.iter().all(|&x| x != u32::MAX), "{shape}");
    }
}

#[test]
fn twisting_never_increases_diameter_or_mean_distance() {
    let mut cases = Cases::new(0xA3);
    for _ in 0..64 {
        let shape = cases.twistable_shape();
        let reg = GraphMetrics::compute(&Torus::new(shape).into_graph());
        let tw = GraphMetrics::compute(
            &TwistedTorus::paper_default(shape)
                .expect("twistable")
                .into_graph(),
        );
        assert!(tw.diameter() <= reg.diameter(), "{shape}");
        assert!(tw.mean_distance() <= reg.mean_distance() + 1e-9, "{shape}");
    }
}

#[test]
fn twisting_never_shrinks_bisection() {
    let mut cases = Cases::new(0xA4);
    for _ in 0..64 {
        let shape = cases.twistable_shape();
        if shape.volume() < 2 {
            continue;
        }
        let reg = Bisection::plane_cut(&Torus::new(shape).into_graph()).min_links();
        let tw = Bisection::plane_cut(
            &TwistedTorus::paper_default(shape)
                .expect("twistable")
                .into_graph(),
        )
        .min_links();
        assert!(tw >= reg, "twisted {tw} < regular {reg} for {shape}");
    }
}

#[test]
fn betweenness_conserves_total_distance() {
    let mut cases = Cases::new(0xA5);
    for _ in 0..64 {
        let shape = cases.small_shape();
        if shape.volume() < 2 || shape.volume() > 64 {
            continue;
        }
        let g = Torus::new(shape).into_graph();
        let total: f64 = edge_betweenness(&g).iter().sum();
        let expect: u64 = tpuv4::topology::all_pairs_distances(&g)
            .iter()
            .flat_map(|row| row.iter().map(|&d| u64::from(d)))
            .sum();
        assert!(
            (total - expect as f64).abs() < 1e-6 * expect.max(1) as f64,
            "{shape}: {total} vs {expect}"
        );
    }
}

/// Mean link load relative to the bottleneck link (1.0 = every link
/// equally loaded).
fn balance(loads: &LinkLoads) -> f64 {
    let per_edge = loads.as_slice();
    per_edge.iter().sum::<f64>() / per_edge.len() as f64 / loads.max_bytes()
}

#[test]
fn all_to_all_load_balance_at_most_one() {
    let mut cases = Cases::new(0xA6);
    for _ in 0..64 {
        let shape = cases.small_shape();
        if shape.volume() < 2 || shape.volume() > 64 {
            continue;
        }
        let g = Torus::new(shape).into_graph();
        let loads = LinkLoads::uniform_all_to_all(&g, 100.0);
        let b = balance(&loads);
        assert!(b > 0.0 && b <= 1.0 + 1e-9, "{shape}: balance {b}");
        assert!(
            loads.completion_time(LinkRate::TPU_V4_ICI) >= 0.0,
            "{shape}"
        );
    }
}

#[test]
fn index_coord_roundtrip() {
    let mut cases = Cases::new(0xA7);
    for _ in 0..64 {
        let shape = cases.small_shape();
        let seed = cases.int(0, 9_999) as u32;
        let idx = seed % shape.volume() as u32;
        assert_eq!(shape.index_of(shape.coord_of(idx)), idx, "{shape}");
    }
}

#[test]
fn canonicalization_is_idempotent_and_sorted() {
    let mut cases = Cases::new(0xA8);
    for _ in 0..64 {
        let shape = cases.small_shape();
        let c = shape.to_canonical();
        assert!(c.x() <= c.y() && c.y() <= c.z(), "{shape}");
        assert_eq!(c.to_canonical(), c, "{shape}");
        assert_eq!(c.volume(), shape.volume(), "{shape}");
    }
}

mod sharding_props {
    use super::Cases;
    use tpuv4::embedding::{DlrmConfig, Sharding, ShardingPlan};

    #[test]
    fn per_chip_bytes_conserved_for_sharded_plans() {
        let mut cases = Cases::new(0xB0);
        for _ in 0..16 {
            let chips = cases.int(1, 63) as u32;
            let model = DlrmConfig::dlrm0();
            let plan = ShardingPlan::new(chips, vec![Sharding::Row; model.tables().len()]);
            let total: u64 = plan.per_chip_bytes(&model).iter().sum();
            let expect: u64 = model.tables().iter().map(|t| t.size_bytes()).sum();
            assert_eq!(total, expect, "chips {chips}");
        }
    }

    #[test]
    fn remote_fraction_in_unit_interval() {
        let mut cases = Cases::new(0xB2);
        for _ in 0..16 {
            let chips = cases.int(1, 127) as u32;
            let model = DlrmConfig::dlrm0();
            let plan = ShardingPlan::auto(&model, chips, 1 << 20);
            let f = plan.remote_lookup_fraction(&model);
            assert!((0.0..=1.0).contains(&f), "chips {chips}: {f}");
        }
    }
}

mod schedule_props {
    use super::Cases;
    use tpuv4::net::CollectiveBackend;
    use tpuv4::spec::{CollectiveSpec, MachineSpec, SchedulePolicy};
    use tpuv4::topology::SliceShape;

    /// One spec per fabric arm (OCS torus, static torus, switched), each
    /// under every schedule policy — the surface the invariants must
    /// hold on.
    fn arms() -> Vec<MachineSpec> {
        let mut specs = Vec::new();
        for base in [
            MachineSpec::v4(),           // FabricKind::Ocs
            MachineSpec::v3(),           // FabricKind::Static
            MachineSpec::a100(),         // FabricKind::Switched, crossbar islands
            MachineSpec::v4_ib_hybrid(), // switched, torus islands
        ] {
            for policy in [
                SchedulePolicy::Ring,
                SchedulePolicy::Tree,
                SchedulePolicy::Auto,
            ] {
                let mut spec = base.clone();
                spec.collective = Some(CollectiveSpec {
                    schedule: policy,
                    ..CollectiveSpec::reference()
                });
                specs.push(spec);
            }
        }
        specs
    }

    #[test]
    fn all_reduce_time_is_monotone_in_bytes() {
        let mut cases = Cases::new(0xE0);
        for spec in arms() {
            let backend = CollectiveBackend::for_spec(&spec);
            for _ in 0..16 {
                let shape = cases.small_shape();
                let a = cases.int(1, 1_000_000) as f64;
                let b = a + cases.int(1, 1_000_000_000) as f64;
                let ta = backend.all_reduce_time(shape, a);
                let tb = backend.all_reduce_time(shape, b);
                assert!(
                    tb >= ta - 1e-15,
                    "{} {:?}: t({a}) = {ta} > t({b}) = {tb} on {shape}",
                    spec.generation,
                    spec.collective_schedule().schedule
                );
            }
        }
    }

    #[test]
    fn all_reduce_time_is_monotone_in_participants() {
        // More participants never make the same payload faster — on the
        // lattice where that is physically true. Two real exceptions are
        // deliberately outside it: growing a *degenerate* torus
        // dimension adds a whole dimension of links (multipath gets
        // faster), and a switched *partial* island is slower than the
        // next full configuration (the pinned t(9) > t(16) regression),
        // so tori grow an already-active dimension and switched fabrics
        // step in whole islands. Forced-tree-on-torus is excluded: a
        // halving-doubling pass moves the full volume regardless of the
        // dimension's extent, so only its alpha grows — `auto` never
        // picks it there (DESIGN.md §10).
        let mut cases = Cases::new(0xE1);
        for base in [MachineSpec::v4(), MachineSpec::v3()] {
            for policy in [SchedulePolicy::Ring, SchedulePolicy::Auto] {
                let mut spec = base.clone();
                spec.collective = Some(CollectiveSpec {
                    schedule: policy,
                    ..CollectiveSpec::reference()
                });
                let backend = CollectiveBackend::for_spec(&spec);
                for _ in 0..16 {
                    let bytes = cases.int(1, 1_000_000_000) as f64;
                    let (x, y, z) = (
                        cases.int(2, 6) as u32,
                        cases.int(1, 6) as u32,
                        cases.int(1, 6) as u32,
                    );
                    let small = SliceShape::new(x, y, z).expect("nonzero");
                    let grown = SliceShape::new(x + cases.int(1, 6) as u32, y, z).expect("nonzero");
                    let ts = backend.all_reduce_time(small, bytes);
                    let tg = backend.all_reduce_time(grown, bytes);
                    assert!(
                        tg >= ts - 1e-15,
                        "{} {policy:?}: t({small}) = {ts} > t({grown}) = {tg} at {bytes}",
                        spec.generation
                    );
                }
            }
        }
        for base in [MachineSpec::a100(), MachineSpec::v4_ib_hybrid()] {
            for policy in [
                SchedulePolicy::Ring,
                SchedulePolicy::Tree,
                SchedulePolicy::Auto,
            ] {
                let mut spec = base.clone();
                spec.collective = Some(CollectiveSpec {
                    schedule: policy,
                    ..CollectiveSpec::reference()
                });
                let backend = CollectiveBackend::for_spec(&spec);
                for _ in 0..16 {
                    let bytes = cases.int(1, 1_000_000_000) as f64;
                    // Whole 8-chip steps: multiples of both island sizes
                    // (a100: 4, v4-ib: 8), so no partial-island shard.
                    let n = cases.int(1, 8) as u32;
                    let m = n + cases.int(1, 8) as u32;
                    let small = SliceShape::new(2, 2, 2 * n).expect("nonzero");
                    let grown = SliceShape::new(2, 2, 2 * m).expect("nonzero");
                    let ts = backend.all_reduce_time(small, bytes);
                    let tg = backend.all_reduce_time(grown, bytes);
                    assert!(
                        tg >= ts - 1e-15,
                        "{} {policy:?}: t({} chips) = {ts} > t({} chips) = {tg} at {bytes}",
                        spec.generation,
                        small.volume(),
                        grown.volume()
                    );
                }
            }
        }
    }

    #[test]
    fn all_reduce_time_never_beats_the_bandwidth_lower_bound() {
        // Alphas only add: every schedule's latency-aware time is at
        // least its own zero-alpha (pure bandwidth) cost, and auto is
        // never worse than the better forced policy.
        let mut cases = Cases::new(0xE2);
        for spec in arms() {
            let backend = CollectiveBackend::for_spec(&spec);
            let bound = backend.bandwidth_only();
            for _ in 0..16 {
                let shape = cases.small_shape();
                let bytes = cases.int(1, 1_000_000_000) as f64;
                let t = backend.all_reduce_time(shape, bytes);
                let floor = bound.all_reduce_time(shape, bytes);
                assert!(
                    t >= floor - 1e-15,
                    "{} {:?}: {t} < bandwidth bound {floor} on {shape} at {bytes}",
                    spec.generation,
                    spec.collective_schedule().schedule
                );
            }
        }
        for base in [MachineSpec::v4(), MachineSpec::v3(), MachineSpec::a100()] {
            let mut cases = Cases::new(0xE3);
            let auto = CollectiveBackend::for_spec(&base);
            let forced: Vec<CollectiveBackend> = [SchedulePolicy::Ring, SchedulePolicy::Tree]
                .iter()
                .map(|&policy| {
                    let mut spec = base.clone();
                    spec.collective = Some(CollectiveSpec {
                        schedule: policy,
                        ..CollectiveSpec::reference()
                    });
                    CollectiveBackend::for_spec(&spec)
                })
                .collect();
            for _ in 0..16 {
                let shape = cases.small_shape();
                let bytes = cases.int(1, 1_000_000_000) as f64;
                let t = auto.all_reduce_time(shape, bytes);
                let best = forced
                    .iter()
                    .map(|b| b.all_reduce_time(shape, bytes))
                    .fold(f64::INFINITY, f64::min);
                assert!(
                    t <= best + 1e-15 + 1e-12 * best,
                    "{}: auto {t} > best forced {best} on {shape} at {bytes}",
                    base.generation
                );
            }
        }
    }
}

mod goodput_props {
    use super::Cases;
    use tpuv4::sched::GoodputSim;
    use tpuv4::spec::{FabricKind, MachineSpec};

    #[test]
    fn goodput_in_unit_interval_and_ocs_dominates() {
        let mut cases = Cases::new(0xC0);
        let slice_blocks = [1u64, 2, 4, 8, 16, 32];
        for _ in 0..8 {
            let blocks = slice_blocks[cases.int(0, slice_blocks.len() as u64 - 1) as usize];
            let avail = 0.97 + 0.03 * (cases.int(0, 999) as f64 / 1000.0);
            let sim = GoodputSim::for_spec(&MachineSpec::v4(), 40, 5);
            let chips = blocks * 64;
            let ocs = sim.goodput(chips, avail, FabricKind::Ocs);
            let fixed = sim.goodput(chips, avail, FabricKind::Static);
            assert!((0.0..=1.0).contains(&ocs), "{blocks} blocks: {ocs}");
            assert!((0.0..=1.0).contains(&fixed), "{blocks} blocks: {fixed}");
            assert!(ocs >= fixed - 1e-9, "{blocks} blocks at {avail}");
        }
    }
}

mod fabric_props {
    use super::Cases;
    use tpuv4::ocs::{Fabric, SliceSpec};
    use tpuv4::topology::{bfs_distances, NodeId, SliceShape};
    use tpuv4::MachineSpec;

    #[test]
    fn allocate_release_never_leaks() {
        let mut cases = Cases::new(0xD0);
        for _ in 0..12 {
            let rounds = cases.int(1, 5) as usize;
            let seed = cases.int(0, 999);
            let mut fabric = Fabric::for_spec(&MachineSpec::v4());
            let shapes = [(4u32, 4u32, 4u32), (4, 4, 8), (4, 8, 8), (8, 8, 8)];
            let mut live = Vec::new();
            for r in 0..rounds {
                let (x, y, z) = shapes[(seed as usize + r) % shapes.len()];
                let shape = SliceShape::new(x, y, z).expect("valid");
                let spec = if shape.is_production_twistable() && (seed + r as u64).is_multiple_of(2)
                {
                    SliceSpec::twisted(shape).expect("twistable")
                } else {
                    SliceSpec::regular(shape)
                };
                if let Ok(slice) = fabric.allocate(&spec) {
                    live.push(slice);
                }
            }
            // Circuit conservation: exactly the live slices' circuits.
            let expect: usize = live.iter().map(|s| s.circuits().len()).sum();
            assert_eq!(fabric.total_circuits(), expect);
            // Block conservation.
            let used: usize = live.iter().map(|s| s.blocks().len()).sum();
            assert_eq!(fabric.free_healthy_blocks().len(), 64 - used);
            for slice in &live {
                fabric.release(slice).expect("release succeeds");
            }
            assert_eq!(fabric.total_circuits(), 0);
            assert_eq!(fabric.free_healthy_blocks().len(), 64);
        }
    }

    #[test]
    fn materialized_graphs_are_always_valid_tori() {
        let mut cases = Cases::new(0xD1);
        for _ in 0..12 {
            let shapes = [(4u32, 4u32, 4u32), (4, 4, 8), (4, 8, 8), (8, 8, 16)];
            let (x, y, z) = shapes[cases.int(0, 3) as usize];
            let twist = cases.bool();
            let shape = SliceShape::new(x, y, z).expect("valid");
            let spec = if twist && shape.is_production_twistable() {
                SliceSpec::twisted(shape).expect("twistable")
            } else {
                SliceSpec::regular(shape)
            };
            let mut fabric = Fabric::for_spec(&MachineSpec::v4());
            let slice = fabric.allocate(&spec).expect("fits an empty machine");
            let g = slice.chip_graph();
            assert!(g.is_symmetric(), "{shape}");
            let (lo, hi) = super::degree_range(g);
            assert_eq!((lo, hi), (6, 6), "{shape}");
            let d = bfs_distances(g, NodeId::new(0));
            assert!(d.iter().all(|&x| x != u32::MAX), "{shape}");
        }
    }
}
