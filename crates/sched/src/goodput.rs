//! The Figure 4 goodput experiment, driven through the core fabric.
//!
//! A 4096-chip machine has 1024 CPU hosts; a slice is only schedulable on
//! blocks whose 16 hosts are all up. With OCSes any healthy blocks can be
//! stitched into a slice; a statically-cabled machine needs a contiguous
//! healthy sub-box of the fixed 4×4×4 block grid.
//!
//! Goodput = expected fraction of the machine's chips deliverable as
//! slices of the requested size. Each Monte Carlo trial draws block
//! health and counts how many slices the machine places with the down
//! blocks failed, through the placement rules production uses rather
//! than a private curve:
//!
//! * the static arm counts with a [`FirstFitPlan`] of the slice's box,
//!   planned once per query ([`StaticCluster::plan_first_fit`]) and
//!   borrowed by every worker: each trial is one first-fit pass in the
//!   anchor order and with the box test of [`StaticCluster::allocate`],
//!   so exactly the slices an allocate-until-refused loop would place,
//!   without touching the cluster;
//! * the reconfigurable arm counts in closed form on both of its
//!   fabrics: behind the OCS plugboard any healthy blocks form a slice,
//!   and behind the switched fat tree any healthy islands do, so a
//!   trial places ⌊healthy chips / slice chips⌋ slices. A test holds
//!   the count to the submit-until-refused loop through the production
//!   [`Supercomputer`].

use crate::model::PlannerModel;
use crate::trials::{chunk_seed, run_chunks};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use tpu_core::{FirstFitPlan, StaticCluster, Supercomputer};
use tpu_ocs::healthy_chips;
use tpu_spec::{FabricKind, MachineSpec};
use tpu_topology::{most_cubic_box, SliceShape};

/// Trials per Monte Carlo chunk: the unit of parallel work *and* of RNG
/// stream derivation. Fixed (never derived from the thread count), so
/// the chunk decomposition — and therefore the result — is identical no
/// matter how many workers run it.
const TRIALS_PER_CHUNK: u32 = 32;

/// Monte Carlo goodput simulator over the core fabric.
///
/// The immutable half — the spec, its scheduling geometry, and the
/// lazily-cached pristine fabric arms — lives in an [`Arc`]-shared
/// [`PlannerModel`] (DESIGN.md §14), so any number of sims (and any
/// number of worker threads inside each) query one machine without
/// cloning the spec or rebuilding a fabric. Only the query parameters
/// (`trials`, `seed`, `threads`) are per-sim.
#[derive(Debug, Clone)]
pub struct GoodputSim {
    model: Arc<PlannerModel>,
    trials: u32,
    seed: u64,
    /// Worker threads for trial chunks (0 = one per available CPU).
    /// Runtime tuning, not part of the simulator's identity.
    threads: usize,
}

impl GoodputSim {
    /// The fleet a machine spec describes.
    ///
    /// Goodput is pure capacity accounting, so the spec's optional
    /// `latency` block is deliberately ignored here — alphas change how
    /// fast a slice's collectives run (`Supercomputer::collective_time`,
    /// `StepCollectives`), never whether the slice schedules.
    ///
    /// Switched machines (`torus_dims == 0`) schedule per glueless
    /// island instead of per 4³ block: an island is lost when any of its
    /// hosts fails, and — like the OCS plugboard — the full-bisection fat
    /// tree lets *any* healthy islands form a slice, so the machine's own
    /// fabric is the "reconfigurable" arm of [`GoodputSim::goodput`] and
    /// [`FabricKind::Static`] is the counterfactual (a partial trailing
    /// island is modelled as full, ≤ island−1 chips of overcount on
    /// non-divisible fleets).
    pub fn for_spec(spec: &MachineSpec, trials: u32, seed: u64) -> GoodputSim {
        GoodputSim::for_model(Arc::new(PlannerModel::for_spec(spec)), trials, seed)
    }

    /// A sim over an already-shared [`PlannerModel`] — the service path:
    /// no spec clone, no fabric construction, just query parameters
    /// around the `Arc`.
    pub fn for_model(model: Arc<PlannerModel>, trials: u32, seed: u64) -> GoodputSim {
        GoodputSim {
            model,
            trials,
            seed,
            threads: 0,
        }
    }

    /// The shared spec-derived model this sim queries.
    pub fn model(&self) -> &Arc<PlannerModel> {
        &self.model
    }

    /// Sets the worker-thread count for Monte Carlo trials (0 = one per
    /// available CPU, the default). Results are bit-identical for every
    /// setting — trials are chunked and seeded per chunk, and partial
    /// sums reduce in chunk order regardless of which thread ran them.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> GoodputSim {
        self.threads = threads;
        self
    }

    /// Total chips in the machine (whole blocks/islands).
    pub fn total_chips(&self) -> u64 {
        self.model.total_chips()
    }

    /// Total CPU hosts.
    pub fn total_hosts(&self) -> u64 {
        self.model.total_hosts()
    }

    /// Expected goodput for slices of `slice_chips` chips when each host
    /// is independently up with probability `availability`, on the given
    /// fleet-fabric kind.
    ///
    /// `FabricKind::Ocs` models the reconfigurable machine (any healthy
    /// blocks form a slice, counted in closed form by
    /// [`place_reconfigurable`]); `FabricKind::Static` the
    /// statically-cabled one (greedy first-fit contiguous packing
    /// through [`StaticCluster`], wraparound placements allowed). For a
    /// `torus_dims == 0` spec, `FabricKind::Switched` and
    /// `FabricKind::Ocs` both mean "the machine's own switched fabric" —
    /// islands are interchangeable behind the fat tree exactly like
    /// blocks behind the plugboard.
    ///
    /// Trials run in fixed-size chunks across worker threads (see
    /// [`GoodputSim::with_threads`] and [`crate::trials`]); for a given
    /// seed the result is bit-identical no matter the thread count.
    ///
    /// # Panics
    ///
    /// Panics if the sim runs no trials, if `slice_chips` is not a
    /// positive multiple of the block (island) size or exceeds the
    /// machine, if `availability` is outside (0, 1], or if
    /// [`FabricKind::Switched`] is requested for a torus spec (a torus
    /// machine has no switched counterfactual here — that comparison is
    /// `BackendComparison`'s job, not goodput's).
    pub fn goodput(&self, slice_chips: u64, availability: f64, fabric: FabricKind) -> f64 {
        assert!(self.trials > 0, "at least one trial");
        assert!(
            fabric != FabricKind::Switched || self.model.spec().torus_dims == 0,
            "FabricKind::Switched goodput is only defined for torus_dims == 0 specs"
        );
        let block = u64::from(self.model.chips_per_block());
        assert!(
            slice_chips > 0
                && slice_chips.is_multiple_of(block)
                && slice_chips <= self.total_chips(),
            "slice must be a positive multiple of {block} chips within the machine"
        );
        assert!(
            availability > 0.0 && availability <= 1.0,
            "availability must be in (0, 1]"
        );
        let (slice_box, shape, blocks_needed) =
            slice_geometry(self.model.spec(), self.model.chips_per_block(), slice_chips);
        let total_blocks = self.model.blocks() as usize;
        // Block health is one Bernoulli draw per block: a block is up
        // when all of its hosts are, i.e. with probability
        // availability^hosts — the per-host draws the old stream spent
        // are statistically redundant.
        let up_below = bernoulli_threshold(availability.powi(self.model.hosts_per_block() as i32));

        // Trials run in fixed-size chunks, each on its own RNG stream
        // derived from (seed, chunk). Every worker borrows the model's
        // lazily-cached pristine arm, which neither count mutates; the
        // static arm's first fit is planned once here, for every worker.
        let arm = match fabric {
            FabricKind::Static => {
                FabricArm::Static(self.model.static_arm().plan_first_fit(slice_box))
            }
            FabricKind::Ocs | FabricKind::Switched => {
                FabricArm::Reconfigurable(self.model.reconfigurable_arm())
            }
        };
        let n_chunks = self.trials.div_ceil(TRIALS_PER_CHUNK) as usize;
        let chunk_sums = run_chunks(
            n_chunks,
            self.threads,
            || vec![0u64; total_blocks.div_ceil(64)],
            |chunk, health| {
                let mut rng = StdRng::seed_from_u64(chunk_seed(self.seed, chunk as u64));
                let chunk_trials =
                    TRIALS_PER_CHUNK.min(self.trials - chunk as u32 * TRIALS_PER_CHUNK);
                let mut sum = 0.0;
                for _ in 0..chunk_trials {
                    draw_health(&mut rng, up_below, total_blocks, health);
                    let placed_blocks = match &arm {
                        FabricArm::Static(plan) => plan.count(health) * blocks_needed,
                        FabricArm::Reconfigurable(machine) => place_reconfigurable_words(
                            machine,
                            health,
                            total_blocks,
                            shape,
                            blocks_needed,
                        ),
                    };
                    sum += placed_blocks as f64 / total_blocks as f64;
                }
                sum
            },
        );
        // Reduce in chunk order: bit-identical for any thread count.
        chunk_sums.into_iter().sum::<f64>() / f64::from(self.trials)
    }

    /// The Figure 4 slice-size axis for this machine, in chips:
    /// power-of-two block counts plus the ¾-machine point (where the
    /// caption's counterintuitive goodput recovery appears) and the full
    /// machine. For the v4 fleet this is 64..4096.
    pub fn slice_axis(&self) -> Vec<u64> {
        let total_blocks = u64::from(self.model.blocks());
        let mut blocks: Vec<u64> = Vec::new();
        let mut b = 1u64;
        while b < total_blocks {
            blocks.push(b);
            b *= 2;
        }
        let three_quarters = total_blocks * 3 / 4;
        if three_quarters > 0 && !blocks.contains(&three_quarters) {
            blocks.push(three_quarters);
        }
        blocks.push(total_blocks);
        blocks.sort_unstable();
        blocks
            .into_iter()
            .map(|b| b * u64::from(self.model.chips_per_block()))
            .collect()
    }

    /// Sweeps goodput over [`GoodputSim::slice_axis`] for one
    /// availability level, returning `(slice_chips, ocs_goodput,
    /// static_goodput)` rows — one Figure 4 curve pair.
    pub fn sweep(&self, availability: f64) -> Vec<(u64, f64, f64)> {
        self.slice_axis()
            .into_iter()
            .map(|s| {
                (
                    s,
                    self.goodput(s, availability, FabricKind::Ocs),
                    self.goodput(s, availability, FabricKind::Static),
                )
            })
            .collect()
    }
}

/// The model's pristine arm a goodput query counts on; every worker
/// borrows it, since neither count mutates it.
enum FabricArm<'a> {
    /// The first fit of the slice's box on the statically-cabled grid
    /// (the machine itself for static specs, the counterfactual
    /// otherwise), planned once per query.
    Static(FirstFitPlan<'a>),
    /// The [`Supercomputer`] on the spec's any-healthy-capacity fabric
    /// (OCS plugboard / switched islands).
    Reconfigurable(&'a Supercomputer),
}

/// The integer form of the Bernoulli draw `rng.random::<f64>() < p`:
/// that draw is `(z >> 11)·2⁻⁵³ < p` for the generator's raw output `z`,
/// and since `p·2⁵³` is exact in f64 and `z >> 11` is an integer, it
/// holds exactly when `(z >> 11) < ⌈p·2⁵³⌉` — the same draw, the same
/// outcome, no float conversion per block.
fn bernoulli_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Draws one trial's health for `units` units into `words`, one
/// Bernoulli per unit in unit order (the stream the `Vec<bool>` loop
/// drew): bit `i % 64` of `words[i / 64]` is set ⇔ unit `i` is up, and
/// the bits past the last unit are clear.
fn draw_health(rng: &mut StdRng, up_below: u64, units: usize, words: &mut [u64]) {
    for (w, word) in words.iter_mut().enumerate() {
        let mut bits = 0;
        for i in 0..(units - 64 * w).min(64) {
            bits |= u64::from((rng.random::<u64>() >> 11) < up_below) << i;
        }
        *word = bits;
    }
}

/// Per-unit health flags packed 64 to a word, the form the counts read:
/// bit `i % 64` of word `i / 64` is set ⇔ `healthy[i]`.
fn health_words(healthy: &[bool]) -> Vec<u64> {
    let mut words = vec![0u64; healthy.len().div_ceil(64)];
    for (i, &up) in healthy.iter().enumerate() {
        words[i / 64] |= u64::from(up) << (i % 64);
    }
    words
}

/// The spec whose fabric backs the "reconfigurable" arm: torus fleets
/// behind the plugboard (pre-OCS generations become their §2.7 "behind
/// OCSes" counterfactual), while `torus_dims == 0` specs keep their own
/// switched fabric. Shared with the discrete-event fleet simulator
/// ([`crate::fleet`]), which must probe through the identical arm.
pub(crate) fn reconfigurable_spec(spec: &MachineSpec) -> MachineSpec {
    if spec.torus_dims == 0 {
        spec.clone()
    } else {
        spec.clone().with_fabric(FabricKind::Ocs)
    }
}

/// The placement geometry of a slice of `slice_chips` chips: the block
/// box requested from the static arm, the chip-level shape submitted to
/// the reconfigurable arm, and the block count. Geometric blocks request
/// their most cubic box (scaled by the block edge for the submit shape);
/// geometry-less islands request a contiguous run on the linear rail
/// (StaticCluster arranges them the same way) and submit by chip count
/// alone. Shared with [`crate::fleet`] so the DES capacity probe asks
/// for *exactly* the shapes the closed-form model asks for.
#[doc(hidden)]
pub fn slice_geometry(
    spec: &MachineSpec,
    chips_per_block: u32,
    slice_chips: u64,
) -> ((u32, u32, u32), SliceShape, u32) {
    let blocks_needed = (slice_chips / u64::from(chips_per_block)) as u32;
    let geometric = u64::from(spec.block.edge.max(1)).pow(3) == u64::from(chips_per_block);
    let slice_box = if geometric {
        most_cubic_box(blocks_needed)
    } else {
        (1, 1, blocks_needed)
    };
    let shape = if spec.torus_dims == 0 {
        // tpu-lint: allow(panic-policy) -- shape literals are nonzero paper constants
        SliceShape::new(1, 1, blocks_needed * chips_per_block).expect("positive chip count")
    } else {
        let e = spec.block.edge;
        // tpu-lint: allow(panic-policy) -- unreachable: positive box
        SliceShape::new(slice_box.0 * e, slice_box.1 * e, slice_box.2 * e).expect("positive box")
    };
    (slice_box, shape, blocks_needed)
}

/// One trial of the reconfigurable arm: the blocks (or islands) a
/// pristine `machine` places as slices of `shape` when the units that
/// `healthy` marks down have failed. Also the capacity probe of the
/// discrete-event fleet simulator ([`crate::fleet`]): the DES hands its
/// *current* block health to the same count, so its goodput
/// generalizes — never diverges from — the closed-form arm.
///
/// Both reconfigurable fabrics admit any healthy units: the OCS
/// plugboard takes any free healthy blocks for a slice, and the
/// switched fat tree admits a slice while it fits in healthy chips
/// minus chips in use. So submit-until-refused on the pristine machine
/// places ⌊healthy chips / slice chips⌋ slices, and this function is
/// that arithmetic: it reads the machine and mutates nothing. Every
/// unit is full except, on a switched machine whose fleet is not a
/// multiple of the island size, the last island. The
/// `fleet_fastpath_equivalence` test holds the count to the
/// submit-until-refused loop on every committed spec.
#[doc(hidden)]
pub fn place_reconfigurable(
    machine: &Supercomputer,
    healthy: &[bool],
    shape: SliceShape,
    blocks_needed: u32,
) -> u32 {
    let words = health_words(healthy);
    place_reconfigurable_words(machine, &words, healthy.len(), shape, blocks_needed)
}

/// [`place_reconfigurable`] over health words ([`health_words`]) of
/// `units` units: the chips on the healthy units ([`healthy_chips`],
/// the last island partial) over the slice's chips.
pub(crate) fn place_reconfigurable_words(
    machine: &Supercomputer,
    health: &[u64],
    units: usize,
    shape: SliceShape,
    blocks_needed: u32,
) -> u32 {
    let total = machine.total_chips();
    let unit_chips = machine
        .switched()
        .map_or(total / (units as u64).max(1), |c| {
            u64::from(c.island_chips())
        });
    (healthy_chips(health, units, unit_chips, total) / shape.volume()) as u32 * blocks_needed
}

/// One trial of the statically-cabled arm: the blocks that greedy
/// first-fit of contiguous boxes places on the core [`StaticCluster`]
/// (which also serves as the static *counterfactual* grid for switched
/// specs, one "block" per island) with the blocks `healthy` marks down
/// failed. [`StaticCluster::count_first_fit`], which plans the box and
/// counts once and mutates nothing; [`GoodputSim::goodput`] and the
/// fleet DES capacity probe plan the box once and count every trial or
/// probe on that plan ([`FirstFitPlan::count`]).
#[doc(hidden)]
pub fn place_static(
    cluster: &StaticCluster,
    healthy: &[bool],
    slice_box: (u32, u32, u32),
    blocks_needed: u32,
) -> u32 {
    cluster.count_first_fit(&health_words(healthy), slice_box) * blocks_needed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim() -> GoodputSim {
        GoodputSim::for_spec(&MachineSpec::v4(), 300, 42)
    }

    /// A generator whose next `random::<u64>()` returns `z`.
    /// SplitMix64's output is an invertible mix of its state, and
    /// `seed_from_u64` steps the state once before the first draw.
    fn rng_emitting(z: u64) -> StdRng {
        const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
        let unshift = |y: u64, s: u32| (s..64).step_by(s as usize).fold(y, |x, k| x ^ y >> k);
        let inverse = |c: u64| {
            (0..5).fold(c, |i, _| {
                i.wrapping_mul(2u64.wrapping_sub(c.wrapping_mul(i)))
            })
        };
        let mut state = unshift(z, 31).wrapping_mul(inverse(0x94D0_49BB_1331_11EB));
        state = unshift(state, 27).wrapping_mul(inverse(0xBF58_476D_1CE4_E5B9));
        state = unshift(state, 30);
        let rng = StdRng::seed_from_u64(state.wrapping_sub(GAMMA.wrapping_mul(2)));
        assert_eq!(rng.clone().random::<u64>(), z, "generator inversion");
        rng
    }

    /// Whether the integer draw agrees with `rng.random::<f64>() < p` on
    /// a generator whose next 53-bit draw is `m` (low bits `low`).
    fn agrees(p: f64, m: u64, low: u64) -> bool {
        let mut rng = rng_emitting(m << 11 | low);
        let float = rng.clone().random::<f64>() < p;
        float == ((rng.random::<u64>() >> 11) < bernoulli_threshold(p))
    }

    #[test]
    fn integer_bernoulli_draw_equals_the_float_draw() {
        const TOP: u64 = 1 << 53;
        let scale = TOP as f64;
        // The 53-bit draws around p·2⁵³ and the two low-bit extremes.
        let check = |p: f64, ms: &[i64]| {
            let base = (p * scale).floor() as i64;
            for &dm in ms {
                let m = base + dm;
                if !(0..TOP as i64).contains(&m) {
                    continue;
                }
                for low in [0, 0x7FF] {
                    assert!(
                        agrees(p, m as u64, low),
                        "p {p:e} ({:#x}), m {m}",
                        p.to_bits()
                    );
                }
            }
        };
        // p = k·2⁻⁵³ and both of its f64 neighbours.
        for k in [1, 2, 3, 1 << 20, (1 << 52) - 1, 1 << 52, TOP - 2, TOP - 1] {
            let p = k as f64 / scale;
            for p in [p.next_down(), p, p.next_up()] {
                check(p, &[-1, 0, 1, 2]);
            }
        }
        // Certainty, a tiny p and subnormal ones.
        assert_eq!(bernoulli_threshold(1.0), TOP);
        for p in [1e-300, f64::MIN_POSITIVE / 4.0, 5e-324] {
            assert_eq!(bernoulli_threshold(p), 1, "{p:e}");
        }
        for p in [1.0, 1e-300, f64::MIN_POSITIVE / 4.0, 5e-324] {
            check(p, &[0, 1]);
            for m in [0, 1, 2, TOP / 2, TOP - 1] {
                assert!(agrees(p, m, 0x155), "p {p:e}, m {m}");
            }
        }
        // availability^hosts for every committed spec at the
        // availabilities the benchmark's cold and hot queries send
        // (and the service default, 0.99).
        let dir = std::path::PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs"));
        let mut ps = Vec::new();
        for entry in std::fs::read_dir(dir).expect("specs/ directory exists") {
            let path = entry.expect("readable entry").path();
            if path.extension().is_some_and(|e| e == "json") {
                let text = std::fs::read_to_string(&path).expect("readable spec");
                let spec = MachineSpec::from_json(&text).expect("valid spec");
                let hosts = spec.scheduling_units().2 as i32;
                for availability in [0.99f64, 0.993, 0.995, 0.996, 0.999] {
                    ps.push(availability.powi(hosts));
                }
            }
        }
        assert!(ps.len() >= 40, "{} spec probabilities", ps.len());
        for &p in &ps {
            check(p, &[-2, -1, 0, 1, 2]);
        }
        // Two generators on one stream, 1M draws, across those p.
        let mut float = StdRng::seed_from_u64(2023);
        let mut int = float.clone();
        let thresholds: Vec<u64> = ps.iter().map(|&p| bernoulli_threshold(p)).collect();
        for i in 0..1_000_000 {
            let j = i % ps.len();
            let want = float.random::<f64>() < ps[j];
            assert_eq!(
                (int.random::<u64>() >> 11) < thresholds[j],
                want,
                "draw {i}, p {}",
                ps[j]
            );
        }
    }

    #[test]
    fn switched_machines_schedule_per_island() {
        // A100: 1054 four-GPU islands, one host each.
        let sim = GoodputSim::for_spec(&MachineSpec::a100(), 50, 7);
        assert_eq!(sim.total_chips(), 4216);
        assert_eq!(sim.total_hosts(), 1054);
        let g = sim.goodput(512, 0.99, FabricKind::Switched);
        assert!(g > 0.9 && g <= 1.0, "{g}");

        // The v4-ib hybrid keeps 2-host 8-chip islands.
        let sim = GoodputSim::for_spec(&MachineSpec::v4_ib_hybrid(), 50, 7);
        assert_eq!(sim.total_chips(), 4096);
        assert_eq!(sim.total_hosts(), 1024);
    }

    #[test]
    fn machine_dimensions() {
        let s = sim();
        assert_eq!(s.total_chips(), 4096);
        assert_eq!(s.total_hosts(), 1024);
    }

    #[test]
    fn perfect_availability_gives_full_goodput() {
        let s = sim();
        for &chips in &[64u64, 512, 4096] {
            assert!((s.goodput(chips, 1.0, FabricKind::Ocs) - 1.0).abs() < 1e-9);
            assert!((s.goodput(chips, 1.0, FabricKind::Static) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn figure4_quarter_machine_rule() {
        // Caption: "At ¼ of the 4K chips, goodput for both 99.0% and
        // 99.5% is 75%, as 3 slices occupy ¾ of the chips."
        let s = sim();
        for &avail in &[0.990, 0.995] {
            let g = s.goodput(1024, avail, FabricKind::Ocs);
            assert!((0.68..0.80).contains(&g), "availability {avail}: {g}");
        }
    }

    #[test]
    fn figure4_half_machine_rule() {
        // Caption: "With one 2k node slice (50% of 4k) ... it will have
        // 50% goodput."
        let s = sim();
        let g = s.goodput(2048, 0.995, FabricKind::Ocs);
        assert!((0.40..0.56).contains(&g), "{g}");
    }

    #[test]
    fn figure4_full_machine_needs_everything() {
        let s = sim();
        // At 99% host availability a full-machine slice essentially never
        // schedules (0.99^1024 ≈ 3e-5).
        assert!(s.goodput(4096, 0.99, FabricKind::Ocs) < 0.01);
        // At 99.99% it usually does.
        assert!(s.goodput(4096, 0.9999, FabricKind::Ocs) > 0.7);
    }

    #[test]
    fn ocs_dominates_static_everywhere() {
        let s = GoodputSim::for_spec(&MachineSpec::v4(), 100, 7);
        for &avail in &[0.99, 0.995, 0.999] {
            for &chips in &[256u64, 512, 1024, 2048] {
                let ocs = s.goodput(chips, avail, FabricKind::Ocs);
                let fixed = s.goodput(chips, avail, FabricKind::Static);
                assert!(
                    ocs >= fixed - 1e-9,
                    "chips {chips} avail {avail}: ocs {ocs} < static {fixed}"
                );
            }
        }
    }

    #[test]
    fn figure4_static_needs_three_nines() {
        // "Without OCSes, host availability must be 99.9% to offer
        // reasonable slice goodput."
        let s = sim();
        let at_99 = s.goodput(1024, 0.99, FabricKind::Static);
        let at_999 = s.goodput(1024, 0.999, FabricKind::Static);
        assert!(at_999 > 0.7, "static at 99.9%: {at_999}");
        assert!(
            at_999 - at_99 > 0.25,
            "99.9% must be much better: {at_99} -> {at_999}"
        );
    }

    #[test]
    fn small_slices_track_block_availability() {
        // 64-chip slices: a trial's OCS goodput is the share of healthy
        // blocks, Binomial(64, availability^16)/64, so the mean of the
        // trials lies within 4σ/√trials of availability^16.
        let s = sim();
        let g = s.goodput(64, 0.99, FabricKind::Ocs);
        let p = 0.99f64.powi(16);
        let sigma = (p * (1.0 - p) / 64.0).sqrt();
        let tol = 4.0 * sigma / f64::from(s.trials).sqrt();
        assert!((g - p).abs() <= tol, "{g} vs {p} ± {tol}");
    }

    #[test]
    fn sweep_reproduces_figure4_counterintuitive_shape() {
        // Figure 4 caption: "Goodput is counterintuitive at large
        // slices": 2K slices drop to ~50% (one slice + 50% stranded
        // spares) while 3K slices recover to ~75% (25% spares).
        let s = GoodputSim::for_spec(&MachineSpec::v4(), 150, 3);
        let rows = s.sweep(0.995);
        assert_eq!(rows.len(), 8);
        let at = |chips: u64| rows.iter().find(|r| r.0 == chips).unwrap().1;
        assert!((0.40..0.58).contains(&at(2048)), "2K: {}", at(2048));
        assert!((0.68..0.80).contains(&at(3072)), "3K: {}", at(3072));
        assert!(at(3072) > at(2048), "the 3K recovery must appear");
        // Small slices track block availability and sit near the top.
        assert!(at(64) > at(1024));
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn rejects_sub_block_slices() {
        let _ = sim().goodput(32, 0.99, FabricKind::Ocs);
    }

    #[test]
    #[should_panic(expected = "availability")]
    fn rejects_bad_availability() {
        let _ = sim().goodput(64, 0.0, FabricKind::Ocs);
    }

    #[test]
    #[should_panic(expected = "at least one trial")]
    fn rejects_zero_trials() {
        // No trials would divide a zero sum by zero and answer NaN.
        let _ = GoodputSim::for_spec(&MachineSpec::v4(), 0, 1).goodput(1024, 0.99, FabricKind::Ocs);
    }

    #[test]
    #[should_panic(expected = "torus_dims == 0")]
    fn rejects_switched_arm_on_torus_specs() {
        // A torus machine has no switched counterfactual in goodput
        // terms; silently answering with the OCS number would mislead.
        let _ = sim().goodput(512, 0.99, FabricKind::Switched);
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || GoodputSim::for_spec(&MachineSpec::v4(), 50, 9);
        for fabric in [FabricKind::Ocs, FabricKind::Static] {
            let a = mk().goodput(512, 0.99, fabric);
            let b = mk().goodput(512, 0.99, fabric);
            assert_eq!(a, b, "{fabric:?}");
        }
    }

    #[test]
    fn thread_count_never_changes_the_answer() {
        // The acceptance bar for parallel Monte Carlo: per-chunk RNG
        // streams + chunk-ordered reduction make goodput bit-identical
        // for 1, 2 and 8 workers — on both v4 arms and a switched fleet,
        // and at a trial count that does not divide the chunk size.
        let v4 = MachineSpec::v4();
        let a100 = MachineSpec::a100();
        for (spec, fabric, chips) in [
            (&v4, FabricKind::Ocs, 512),
            (&v4, FabricKind::Static, 512),
            (&a100, FabricKind::Switched, 512),
        ] {
            let run = |threads| {
                GoodputSim::for_spec(spec, 70, 9)
                    .with_threads(threads)
                    .goodput(chips, 0.99, fabric)
            };
            let one = run(1);
            for threads in [2, 8] {
                let other = run(threads);
                assert!(
                    one.to_bits() == other.to_bits(),
                    "{fabric:?} with {threads} threads: {other} != {one}"
                );
            }
        }
    }

    #[test]
    fn sims_sharing_a_model_share_its_arms_and_agree_exactly() {
        // The service path: many sims over one Arc'd model. The arms
        // must materialize once in the model (pointer-identical across
        // sims — no fabric rebuild per query), and a shared-model sim
        // must answer bit-identically to a standalone one.
        let model = std::sync::Arc::new(crate::PlannerModel::for_spec(&MachineSpec::v4()));
        let a = GoodputSim::for_model(std::sync::Arc::clone(&model), 60, 11);
        let b = GoodputSim::for_model(std::sync::Arc::clone(&model), 60, 11);
        let ga = a.goodput(1024, 0.995, FabricKind::Ocs);
        let gb = b.goodput(1024, 0.995, FabricKind::Ocs);
        assert_eq!(ga.to_bits(), gb.to_bits());
        assert!(std::ptr::eq(
            a.model().reconfigurable_arm(),
            b.model().reconfigurable_arm()
        ));
        let standalone = GoodputSim::for_spec(&MachineSpec::v4(), 60, 11);
        let gs = standalone.goodput(1024, 0.995, FabricKind::Ocs);
        assert_eq!(ga.to_bits(), gs.to_bits());
    }

    #[test]
    fn repeated_goodput_calls_reuse_the_cached_arm() {
        // Same sim, same query, twice: the second call runs on the
        // cached pristine arm again and must agree exactly (a dirty
        // prototype would skew every later sweep point).
        let s = GoodputSim::for_spec(&MachineSpec::v4(), 60, 11);
        for fabric in [FabricKind::Ocs, FabricKind::Static] {
            let a = s.goodput(1024, 0.995, fabric);
            let b = s.goodput(1024, 0.995, fabric);
            assert_eq!(a.to_bits(), b.to_bits(), "{fabric:?}");
        }
    }

    #[test]
    fn island_static_counterfactual_tracks_availability_not_factorization() {
        // Regression: a100's 1054 islands are 2x17x31; the static
        // counterfactual must not return 0 goodput just because a cubic
        // box cannot fit that grid — islands sit on a linear rail.
        let sim = GoodputSim::for_spec(&MachineSpec::a100(), 30, 7);
        let perfect = sim.goodput(512, 1.0, FabricKind::Static);
        assert!(perfect > 0.9, "perfect-availability static: {perfect}");
        let fixed = sim.goodput(512, 0.99, FabricKind::Static);
        let any = sim.goodput(512, 0.99, FabricKind::Switched);
        assert!(fixed > 0.0, "static arm must place something");
        assert!(any >= fixed - 1e-9, "switched {any} < static {fixed}");
    }

    #[test]
    fn place_static_repairs_no_host_it_did_not_fail() {
        // Block 3's host 0 is down before the query, and `healthy` marks
        // block 3 down too: the query must leave that host down and the
        // cluster exactly as it found it.
        let mut cluster = StaticCluster::for_spec(&MachineSpec::v4());
        cluster.set_host_up(3, 0, false).unwrap();
        let before = cluster.clone();
        let mut healthy = vec![true; 64];
        healthy[3] = false;
        let placed = place_static(&cluster, &healthy, (2, 2, 2), 8);
        assert!(placed > 0);
        assert_eq!(cluster, before);
        assert_eq!(cluster.healthy_chips(), 63 * 64);
    }

    #[test]
    fn static_arm_of_a_static_spec_is_the_physical_machine() {
        // For the real v3 the static arm is the machine itself, and the
        // OCS arm is the "v3-ocs" counterfactual: at high availability
        // they agree, under failures OCS wins.
        let s = GoodputSim::for_spec(&MachineSpec::v3(), 120, 11);
        assert_eq!(s.total_chips(), 1024);
        assert!((s.goodput(256, 1.0, FabricKind::Static) - 1.0).abs() < 1e-9);
        let ocs = s.goodput(256, 0.99, FabricKind::Ocs);
        let fixed = s.goodput(256, 0.99, FabricKind::Static);
        assert!(ocs >= fixed - 1e-9, "ocs {ocs} < static {fixed}");
    }
}
