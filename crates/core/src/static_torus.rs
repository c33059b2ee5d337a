//! The statically-cabled fleet: contiguous-placement block accounting.
//!
//! This is the machine the paper's §2.7/Figure 4 argument is *against*:
//! the same torus blocks as the OCS machine, but wired once at install
//! time. A slice must therefore occupy an axis-aligned contiguous box of
//! healthy blocks (wraparound placements allowed — the full machine is a
//! torus), so a single dead CPU host fragments capacity instead of being
//! routed around, and the OCS-only "cigar" shapes of Table 2 (4×4×32 and
//! longer) may be inexpressible outright.
//!
//! Host health lives in the same [`HostHealth`](tpu_ocs::HostHealth)
//! record the OCS fabric keeps, and occupancy in one in-use bit per
//! block; the free blocks a placement searches are those two words
//! combined when it is asked for, as on the OCS fabric.
//!
//! Steady-state link performance is identical to the OCS torus — static
//! cabling changes *placement*, not the links (DESIGN.md §9) — so
//! collective times on a placed slice come from the same
//! [`AlphaBeta`](tpu_net::AlphaBeta) torus models the OCS arm uses.

use crate::{Result, SupercomputerError};
use serde::{Deserialize, Serialize};
use tpu_ocs::HostHealth;
use tpu_spec::MachineSpec;
use tpu_topology::most_cubic_box;

/// A statically-cabled cluster: a fixed grid of torus blocks with
/// per-host health and per-block occupancy. The allocation unit is one
/// block (4³ chips on the TPU generations); for `torus_dims == 0` specs
/// used counterfactually the unit is one glueless island.
///
/// A block is free while every one of its hosts is up and no slice
/// holds it. `allocate` and [`FirstFitPlan::count`] build the free
/// words from the health words and the in-use words when they are
/// called, so no mutation has a derived structure to keep current
/// (DESIGN.md §11).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StaticCluster {
    grid: (u32, u32, u32),
    block_edge: u32,
    chips_per_block: u32,
    /// Host health of every block.
    health: HostHealth,
    /// Blocks some slice holds: bit `i % 64` of word `i / 64` for block
    /// `i`.
    in_use: Vec<u64>,
    /// The grid as one word when it has at most 64 blocks (`None`
    /// above): the pack query's erosion arithmetic, derived from `grid`.
    #[serde(skip)]
    word_grid: Option<WordGrid>,
}

impl StaticCluster {
    /// The statically-cabled fleet a machine spec describes, with unit
    /// accounting from [`MachineSpec::scheduling_units`].
    ///
    /// Geometric units — electrical blocks whose `edge³` equals the unit
    /// size, i.e. every torus spec and v4-ib's 2³ islands — are arranged
    /// in the most cubic grid (v3: 16 blocks → 2×2×4). Geometry-less
    /// islands (a100/ipu-bow hosts, the static *counterfactual* of a
    /// switched machine) sit on a 1×1×n linear rail instead: "contiguous"
    /// then means a run of adjacent islands, not a 3-D box — a most-cubic
    /// grid of an arbitrary island count (1054 = 2×17×31) would make
    /// placement feasibility an artifact of the fleet's prime
    /// factorization rather than of availability.
    pub fn for_spec(spec: &MachineSpec) -> StaticCluster {
        let (blocks, chips_per_block, hosts_per_block) = spec.scheduling_units();
        let block_edge = spec.block.edge.max(1);
        let grid = if u64::from(block_edge).pow(3) == u64::from(chips_per_block) {
            most_cubic_box(blocks as u32)
        } else {
            (1, 1, blocks as u32)
        };
        StaticCluster {
            grid,
            block_edge,
            chips_per_block,
            health: HostHealth::new(blocks as usize, hosts_per_block),
            in_use: vec![0; (blocks as usize).div_ceil(64)],
            word_grid: WordGrid::new(grid),
        }
    }

    /// The block grid (x, y, z), in blocks.
    pub fn grid(&self) -> (u32, u32, u32) {
        self.grid
    }

    /// Total blocks in the machine.
    pub fn blocks(&self) -> u32 {
        self.health.units() as u32
    }

    /// Chips along one edge of a block — the divisor that converts a
    /// chip-level slice shape into a block box (4 on the shipped TPU
    /// generations).
    pub fn block_edge(&self) -> u32 {
        self.block_edge
    }

    /// Chips per block (the allocation unit).
    pub fn chips_per_block(&self) -> u32 {
        self.chips_per_block
    }

    /// CPU hosts per block (a block is schedulable only when all its
    /// hosts are up).
    pub fn hosts_per_block(&self) -> u32 {
        self.health.hosts_per_unit()
    }

    /// Total chips installed.
    pub fn total_chips(&self) -> u64 {
        u64::from(self.blocks()) * u64::from(self.chips_per_block)
    }

    /// Chips on blocks whose hosts are all currently up.
    pub fn healthy_chips(&self) -> u64 {
        u64::from(self.health.up_units()) * u64::from(self.chips_per_block)
    }

    /// Whether a box of blocks could *ever* be placed in this grid (some
    /// axis orientation fits), regardless of health or occupancy — the
    /// "can the scheduler even advertise this topology" check that
    /// rejects Table 2's OCS-only cigar shapes on static machines. A box
    /// with a zero extent holds nothing and never fits.
    pub fn fits(&self, bbox: (u32, u32, u32)) -> bool {
        !self.candidates(bbox).as_slice().is_empty()
    }

    /// The orientations of `bbox` that fit the grid, in first-occurrence
    /// order — the ones first-fit tries at every anchor. Empty for a box
    /// with a zero extent.
    fn candidates(&self, bbox: (u32, u32, u32)) -> Orientations {
        let (gx, gy, gz) = self.grid;
        let mut out = Orientations::default();
        if bbox.0 == 0 || bbox.1 == 0 || bbox.2 == 0 {
            return out;
        }
        for &(x, y, z) in orientations(bbox).iter() {
            if x <= gx && y <= gy && z <= gz {
                out.push((x, y, z));
            }
        }
        out
    }

    /// Failure and repair are tracked per host, so a block with two
    /// failed hosts only comes back after both are repaired.
    ///
    /// # Errors
    ///
    /// [`HostHealth::set_host_up`]'s refusal of a block or host outside
    /// the cluster, which changes nothing.
    pub fn set_host_up(&mut self, block: u32, host: u32, up: bool) -> Result<()> {
        self.health.set_host_up(block as usize, host, up)?;
        Ok(())
    }

    /// The healthy blocks no slice holds, 64 to a word.
    fn free_words(&self) -> impl Iterator<Item = u64> + '_ {
        self.health
            .words()
            .iter()
            .zip(&self.in_use)
            .map(|(h, u)| h & !u)
    }

    /// Allocates the first contiguous box of healthy free blocks that
    /// satisfies the request, scanning anchors in index order and axis
    /// orientations in a fixed order, wraparound allowed. Returns the
    /// block indices in placement order and marks them busy.
    ///
    /// Placements are identical to a greedy cell-by-cell scan over
    /// per-block health probes (the anchor/orientation order is
    /// unchanged); only the candidate test changed. On grids of at most
    /// 64 blocks the anchor is the lowest one that bit-parallel erosion
    /// of the free word leaves; larger grids test contiguous runs of the
    /// free words (DESIGN.md §11). A refusal changes nothing.
    ///
    /// # Errors
    ///
    /// [`SupercomputerError::NoContiguousSlice`] when no placement
    /// exists — including when the box cannot fit the grid at all or
    /// has a zero extent.
    pub fn allocate(&mut self, bbox: (u32, u32, u32)) -> Result<Vec<u32>> {
        let refused = SupercomputerError::NoContiguousSlice {
            needed_blocks: bbox,
        };
        let orients = self.candidates(bbox);
        if orients.as_slice().is_empty() {
            return Err(refused);
        }
        // Every candidate fits the grid, so the volume fits in u32.
        let volume = bbox.0 * bbox.1 * bbox.2;
        let (grid, orients) = (self.grid, orients.as_slice());
        let fit = match self.word_grid {
            Some(g) => {
                let free = self.health.words()[0] & !self.in_use[0];
                if volume > free.count_ones() {
                    return Err(refused);
                }
                g.first_fit(free, orients)
                    .map(|(a, b)| (coordinates(grid, a as usize), b))
            }
            None => {
                let free: Vec<u64> = self.free_words().collect();
                if volume > free.iter().map(|w| w.count_ones()).sum() {
                    return Err(refused);
                }
                first_fit(&free, grid, 0, orients.len(), |anchor, o| {
                    box_runs(grid, anchor, orients[o], |start, end| {
                        run_is_set(&free, start, end)
                    })
                })
                .map(|(_, anchor, o)| (anchor, orients[o]))
            }
        };
        let Some((anchor, b)) = fit else {
            return Err(refused);
        };
        let cells: Vec<u32> = box_cells(grid, anchor, b).collect();
        for &i in &cells {
            self.in_use[i as usize / 64] |= 1 << (i % 64);
        }
        Ok(cells)
    }

    /// How many boxes repeated [`StaticCluster::allocate`] calls would
    /// place, until the first refusal, with every block that `healthy`
    /// marks down also failed — without touching the cluster: the
    /// one-shot form of [`FirstFitPlan::count`], which plans `bbox` on
    /// this cluster and counts once. A query that counts one box over
    /// many health words plans it once ([`StaticCluster::plan_first_fit`]).
    ///
    /// # Panics
    ///
    /// Panics if `healthy` does not hold exactly one word per 64 blocks.
    pub fn count_first_fit(&self, healthy: &[u64], bbox: (u32, u32, u32)) -> u32 {
        self.plan_first_fit(bbox).count(healthy)
    }

    /// Plans the first-fit count of `bbox` on this cluster, for any
    /// number of health words: the box's orientations that fit the grid
    /// and, on grids of at most 64 blocks, the conflict masks the count
    /// clears placed boxes with (DESIGN.md §11). The plan borrows the
    /// cluster, so it counts on the grid it was built for and sees the
    /// cluster's health and occupancy as they are when it counts.
    pub fn plan_first_fit(&self, bbox: (u32, u32, u32)) -> FirstFitPlan<'_> {
        let orients = self.candidates(bbox);
        let conflicts = match self.word_grid {
            Some(g) => g.conflicts(orients.as_slice()),
            None => Vec::new(),
        };
        FirstFitPlan {
            cluster: self,
            orients,
            conflicts,
        }
    }

    /// Releases a previously allocated set of blocks.
    pub fn release(&mut self, blocks: &[u32]) {
        for &b in blocks {
            if let Some(word) = self.in_use.get_mut(b as usize / 64) {
                *word &= !(1 << (b % 64));
            }
        }
    }
}

/// The first-fit count of one box on one [`StaticCluster`], planned once
/// ([`StaticCluster::plan_first_fit`]) so that a Monte Carlo query or a
/// fleet run pays only the count per health draw.
///
/// On grids of at most 64 blocks the plan holds, for every orientation
/// `p` the box can be placed in and every anchor `a`, one mask per
/// orientation `q`: the anchors at which a `q` box would overlap the `p`
/// box at `a`, wraparound included. That is n²·blocks words for `n`
/// orientations, at most 18 KB. Larger grids plan only the orientations
/// and count by the run test.
#[derive(Debug)]
pub struct FirstFitPlan<'a> {
    cluster: &'a StaticCluster,
    orients: Orientations,
    /// Entry `(p·blocks + a)·n + q`: the anchors where orientation `q`
    /// overlaps orientation `p` placed at anchor `a` (empty above 64
    /// blocks).
    conflicts: Vec<u64>,
}

impl FirstFitPlan<'_> {
    /// How many boxes repeated [`StaticCluster::allocate`] calls would
    /// place on the planned cluster, until the first refusal, with every
    /// block that `healthy` marks down also failed — without touching
    /// the cluster. `healthy` holds one bit per block, 64 to a word: bit
    /// `i % 64` of `healthy[i / 64]` is set ⇔ block `i` is up; bits past
    /// the last block are ignored. Blocks already allocated or with a
    /// failed host stay unavailable. A box with a zero extent counts 0.
    ///
    /// On grids of at most 64 blocks the free word ANDed with `healthy`
    /// is eroded once per orientation into the anchors where that
    /// orientation fits. Each placement takes the lowest anchor over the
    /// orientations (on a tie the earlier orientation wins, as in
    /// `allocate`'s scan) and ANDs out the placed box's conflict masks,
    /// so each orientation's word stays exactly the erosion of the cells
    /// still free. The words only shrink, and every box at the placed
    /// anchor overlaps the placed box, so the next lowest anchor lies
    /// past it. Larger grids make one first-fit pass of the run test
    /// over a copy of the free words, resuming after each placement at
    /// its anchor plus one (DESIGN.md §11).
    ///
    /// # Panics
    ///
    /// Panics if `healthy` does not hold exactly one word per 64 blocks.
    pub fn count(&self, healthy: &[u64]) -> u32 {
        let cluster = self.cluster;
        let blocks = cluster.blocks() as usize;
        if healthy.len() != blocks.div_ceil(64) {
            // tpu-lint: allow(panic-policy) -- callers size `healthy` from this cluster's block count; any other length is a caller bug
            panic!("{} health words for {blocks} blocks", healthy.len());
        }
        let orients = self.orients.as_slice();
        let Some(&(bx, by, bz)) = orients.first() else {
            return 0;
        };
        // Every candidate fits the grid, so the volume fits in u32.
        let volume = bx * by * bz;
        let mut placed = 0;
        if let Some(g) = cluster.word_grid {
            let free = cluster.health.words()[0] & !cluster.in_use[0] & healthy[0];
            if volume > free.count_ones() {
                return 0;
            }
            let n = orients.len();
            let mut fits = [0u64; 6];
            for (word, &o) in fits.iter_mut().zip(orients) {
                *word = g.erode(free, o);
            }
            let fits = &mut fits[..n];
            loop {
                let (mut a, mut p) = (64, 0);
                for (o, word) in fits.iter().enumerate() {
                    let first = word.trailing_zeros();
                    if first < a {
                        (a, p) = (first, o);
                    }
                }
                if a == 64 {
                    return placed;
                }
                placed += 1;
                let masks = &self.conflicts[(p * blocks + a as usize) * n..][..n];
                for (word, mask) in fits.iter_mut().zip(masks) {
                    *word &= !mask;
                }
            }
        }
        let grid = cluster.grid;
        let mut words: Vec<u64> = cluster
            .free_words()
            .zip(healthy)
            .map(|(f, h)| f & h)
            .collect();
        let mut left: u32 = words.iter().map(|w| w.count_ones()).sum();
        let mut from = 0;
        while volume <= left {
            let fit = first_fit(&words, grid, from, orients.len(), |anchor, o| {
                box_runs(grid, anchor, orients[o], |start, end| {
                    run_is_set(&words, start, end)
                })
            });
            let Some((a, anchor, o)) = fit else { break };
            box_runs(grid, anchor, orients[o], |start, end| {
                clear_run(&mut words, start, end);
                true
            });
            left -= volume;
            placed += 1;
            from = a + 1;
        }
        placed
    }
}

/// A grid of at most 64 blocks as one word, bit `i` for block `i` in
/// linear (x-fastest) order. Moving every cell's bit a few steps along
/// one axis, cyclically, is two shifts and two masks, so the anchors at
/// which a box lies wholly in a free word take a handful of word
/// operations (bit-parallel erosion), and so do the box's cells.
#[derive(Debug, Clone, Copy, PartialEq)]
struct WordGrid {
    /// Cells per step along x, y and z: 1, gx and gx·gy.
    step: [u32; 3],
    /// The grid's extent along x, y and z.
    len: [u32; 3],
    /// One bit at the first cell of every period of an axis: every
    /// x-row, every xy-plane, and (for z) the grid itself.
    rep: [u64; 3],
    /// Every cell of the grid.
    cells: u64,
}

/// The word of the `k` lowest bits (`1 ≤ k ≤ 64`).
fn low_bits(k: u32) -> u64 {
    u64::MAX >> (64 - k)
}

impl WordGrid {
    /// The word form of `grid`, or `None` past 64 blocks. Word
    /// arithmetic only: one division per axis, no per-cell loop.
    fn new(grid: (u32, u32, u32)) -> Option<WordGrid> {
        let (gx, gy, gz) = grid;
        let n = u64::from(gx) * u64::from(gy) * u64::from(gz);
        if n == 0 || n > 64 {
            return None;
        }
        let cells = low_bits(n as u32);
        let step = [1, gx, gx * gy];
        let len = [gx, gy, gz];
        let rep = [0, 1, 2].map(|axis| cells / low_bits(step[axis] * len[axis]));
        Some(WordGrid {
            step,
            len,
            rep,
            cells,
        })
    }

    /// The cells whose neighbour `d` steps on along `axis` does not wrap
    /// (`0 < d < len`): those whose coordinate is below `len − d`.
    fn unwrapped(&self, axis: usize, d: u32) -> u64 {
        self.rep[axis] * low_bits((self.len[axis] - d) * self.step[axis])
    }

    /// Bit `a` of the result is the bit of `word` at the cell `d` steps
    /// on from `a` along `axis`, wrapping around the torus.
    fn pull(&self, word: u64, axis: usize, d: u32) -> u64 {
        let (step, lo) = (self.step[axis], self.unwrapped(axis, d));
        (word >> (d * step) & lo) | (word << ((self.len[axis] - d) * step) & (self.cells ^ lo))
    }

    /// The mirror of [`WordGrid::pull`]: every set bit of `word` moves
    /// `d` steps on along `axis`, wrapping around the torus.
    fn push(&self, word: u64, axis: usize, d: u32) -> u64 {
        let (step, lo) = (self.step[axis], self.unwrapped(axis, d));
        (word & lo) << (d * step) | (word & (self.cells ^ lo)) >> ((self.len[axis] - d) * step)
    }

    /// The anchors at which box `b` lies wholly in `free`: `free` ANDed
    /// with itself pulled along x, then the result along y, then z.
    fn erode(&self, free: u64, b: (u32, u32, u32)) -> u64 {
        let mut e = free;
        for (axis, extent) in [b.0, b.1, b.2].into_iter().enumerate() {
            let base = e;
            for d in 1..extent {
                e &= self.pull(base, axis, d);
            }
        }
        e
    }

    /// The anchors at which box `b` would hold a cell of `cells`:
    /// `cells` ORed with itself pulled along x, then the result along y,
    /// then z — erosion's mirror.
    fn overlaps(&self, cells: u64, b: (u32, u32, u32)) -> u64 {
        let mut e = cells;
        for (axis, extent) in [b.0, b.1, b.2].into_iter().enumerate() {
            let base = e;
            for d in 1..extent {
                e |= self.pull(base, axis, d);
            }
        }
        e
    }

    /// The lowest anchor at which some orientation's box lies wholly in
    /// `free`, with that orientation; on a tie the earlier orientation
    /// wins, as in the cell-by-cell scan. `allocate`'s first fit. Not
    /// forced inline: on the fleet DES's static arm, where `allocate`
    /// runs once per placement, `#[inline(always)]` measured no faster.
    fn first_fit(&self, free: u64, orients: &[(u32, u32, u32)]) -> Option<(u32, (u32, u32, u32))> {
        let (mut a, mut b) = (64, orients[0]);
        for &o in orients {
            let first = self.erode(free, o).trailing_zeros();
            if first < a {
                (a, b) = (first, o);
            }
        }
        (a < 64).then_some((a, b))
    }

    /// The conflict masks of [`FirstFitPlan`] for `orients`, laid out as
    /// its `conflicts` field. At anchor 0 a mask is the overlap of
    /// orientation `q` with the cells of `p` there; every later anchor
    /// is one step on from an earlier one along x, or at the start of a
    /// row along y, or of a plane along z, so its masks are that
    /// anchor's pushed one step.
    fn conflicts(&self, orients: &[(u32, u32, u32)]) -> Vec<u64> {
        let n = orients.len();
        let blocks = self.cells.count_ones() as usize;
        let (row, plane) = (self.step[1] as usize, self.step[2] as usize);
        let mut masks = vec![0; n * blocks * n];
        for (p, &placed) in orients.iter().enumerate() {
            let first = p * blocks * n;
            let cells = self.dilate(1, placed);
            for (q, &o) in orients.iter().enumerate() {
                masks[first + q] = self.overlaps(cells, o);
            }
            for a in 1..blocks {
                let (axis, back) = if a % row != 0 {
                    (0, 1)
                } else if a % plane != 0 {
                    (1, row)
                } else {
                    (2, plane)
                };
                let (to, from) = (first + a * n, first + (a - back) * n);
                for q in 0..n {
                    masks[to + q] = self.push(masks[from + q], axis, 1);
                }
            }
        }
        masks
    }

    /// The cells of box `b` anchored at the one set bit of `anchor`: the
    /// mirrored dilation, pushing along x, then y, then z.
    fn dilate(&self, anchor: u64, b: (u32, u32, u32)) -> u64 {
        let mut cells = anchor;
        for (axis, extent) in [b.0, b.1, b.2].into_iter().enumerate() {
            let base = cells;
            for d in 1..extent {
                cells |= self.push(base, axis, d);
            }
        }
        cells
    }
}

/// The grid coordinates of the block at linear index `a` (x fastest).
fn coordinates(grid: (u32, u32, u32), a: usize) -> (u32, u32, u32) {
    let (gx, gy) = (grid.0 as usize, grid.1 as usize);
    (
        (a % gx) as u32,
        (a / gx % gy) as u32,
        (a / (gx * gy)) as u32,
    )
}

/// The first-fit scan of `allocate` and [`FirstFitPlan::count`] on grids
/// above 64 blocks: anchors in linear index order (x fastest) from
/// `from`, and at each anchor the `orients` candidate orientations in
/// order; returns the first `(anchor index, anchor coordinates,
/// orientation index)` that `fits` accepts. An anchor whose own bit is
/// clear in `words` is skipped without a test — the anchor cell belongs
/// to every orientation's box.
fn first_fit(
    words: &[u64],
    grid: (u32, u32, u32),
    from: usize,
    orients: usize,
    mut fits: impl FnMut((u32, u32, u32), usize) -> bool,
) -> Option<(usize, (u32, u32, u32), usize)> {
    let (gx, gy, gz) = grid;
    let blocks = (gx * gy * gz) as usize;
    // Anchor coordinates advance with the index — no division per anchor.
    let (mut x, mut y, mut z) = coordinates(grid, from);
    for a in from..blocks {
        if words[a / 64] >> (a % 64) & 1 == 1 {
            if let Some(o) = (0..orients).find(|&o| fits((x, y, z), o)) {
                return Some((a, (x, y, z), o));
            }
        }
        x += 1;
        if x == gx {
            x = 0;
            y += 1;
            if y == gy {
                y = 0;
                z += 1;
            }
        }
    }
    None
}

/// The cells of the box `b` anchored at `anchor`, wraparound included,
/// in placement (dz/dy/dx) order — what `allocate` returns.
fn box_cells(
    grid: (u32, u32, u32),
    anchor: (u32, u32, u32),
    b: (u32, u32, u32),
) -> impl Iterator<Item = u32> {
    let (gx, gy, gz) = grid;
    let (x, y, z) = anchor;
    (0..b.2).flat_map(move |dz| {
        let zi = (z + dz) % gz;
        (0..b.1).flat_map(move |dy| {
            let row = gx * ((y + dy) % gy + gy * zi);
            (0..b.0).map(move |dx| row + (x + dx) % gx)
        })
    })
}

/// Visits the box `b` anchored at `anchor` as contiguous runs
/// `[start, end)` of the linear block order, calling `run` on each until
/// it returns false; returns whether every call returned true. There is
/// one x-run per row; a box spanning the grid in x covers whole rows,
/// so each plane's rows merge into one run, and a box spanning x and y
/// likewise merges whole planes. A run that wraps splits in two.
fn box_runs(
    grid: (u32, u32, u32),
    anchor: (u32, u32, u32),
    b: (u32, u32, u32),
    mut run: impl FnMut(usize, usize) -> bool,
) -> bool {
    let (gx, gy, gz) = (grid.0 as usize, grid.1 as usize, grid.2 as usize);
    let (x, y, z) = (anchor.0 as usize, anchor.1 as usize, anchor.2 as usize);
    let (bx, by, bz) = (b.0 as usize, b.1 as usize, b.2 as usize);
    // `len` cells from `offset` within the period starting at `base`.
    let mut wrapped = |base: usize, period: usize, offset: usize, len: usize| {
        let end = offset + len;
        if end <= period {
            run(base + offset, base + end)
        } else {
            run(base + offset, base + period) && run(base, base + end - period)
        }
    };
    let plane = gx * gy;
    if bx < gx {
        (0..bz).all(|dz| {
            let zi = (z + dz) % gz;
            (0..by).all(|dy| wrapped(gx * ((y + dy) % gy + gy * zi), gx, x, bx))
        })
    } else if by < gy {
        (0..bz).all(|dz| wrapped(plane * ((z + dz) % gz), plane, gx * y, gx * by))
    } else {
        wrapped(0, plane * gz, plane * z, plane * bz)
    }
}

/// Whether every bit of `[start, end)` is set (`start < end`).
fn run_is_set(words: &[u64], start: usize, end: usize) -> bool {
    let (first, last) = (start / 64, (end - 1) / 64);
    let head = u64::MAX << (start % 64);
    let tail = u64::MAX >> (63 - (end - 1) % 64);
    if first == last {
        return words[first] & head & tail == head & tail;
    }
    words[first] & head == head
        && words[first + 1..last].iter().all(|&w| w == u64::MAX)
        && words[last] & tail == tail
}

/// Clears every bit of `[start, end)` (`start < end`).
fn clear_run(words: &mut [u64], start: usize, end: usize) {
    let (first, last) = (start / 64, (end - 1) / 64);
    let head = u64::MAX << (start % 64);
    let tail = u64::MAX >> (63 - (end - 1) % 64);
    if first == last {
        words[first] &= !(head & tail);
        return;
    }
    words[first] &= !head;
    words[first + 1..last].fill(0);
    words[last] &= !tail;
}

/// The distinct axis orientations of a box, inline (at most 6, no heap
/// allocation — `allocate` computes them once per call, and a
/// [`FirstFitPlan`] once per query).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Orientations {
    items: [(u32, u32, u32); 6],
    len: usize,
}

impl Orientations {
    /// Appends one orientation (at most six ever are).
    fn push(&mut self, o: (u32, u32, u32)) {
        self.items[self.len] = o;
        self.len += 1;
    }

    /// The distinct orientations, in first-occurrence order.
    fn as_slice(&self) -> &[(u32, u32, u32)] {
        &self.items[..self.len]
    }

    /// Iterates the distinct orientations.
    fn iter(&self) -> std::slice::Iter<'_, (u32, u32, u32)> {
        self.as_slice().iter()
    }
}

/// The distinct axis orientations of a box, in first-occurrence order
/// (a cube has one, not six — the Monte Carlo packing loop scans each
/// candidate exactly once).
fn orientations(b: (u32, u32, u32)) -> Orientations {
    let all = [
        (b.0, b.1, b.2),
        (b.0, b.2, b.1),
        (b.1, b.0, b.2),
        (b.1, b.2, b.0),
        (b.2, b.0, b.1),
        (b.2, b.1, b.0),
    ];
    let mut out = Orientations::default();
    for o in all {
        if !out.as_slice().contains(&o) {
            out.push(o);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_ocs::{BlockId, OcsError};

    fn v4_static() -> StaticCluster {
        StaticCluster::for_spec(&MachineSpec::v4())
    }

    #[test]
    fn v3_fleet_dimensions() {
        let c = StaticCluster::for_spec(&MachineSpec::v3());
        assert_eq!(c.grid(), (2, 2, 4));
        assert_eq!(c.blocks(), 16);
        assert_eq!(c.chips_per_block(), 64);
        assert_eq!(c.hosts_per_block(), 8);
        assert_eq!(c.total_chips(), 1024);
    }

    #[test]
    fn switched_spec_counterfactual_uses_islands_on_a_rail() {
        let mut c = StaticCluster::for_spec(&MachineSpec::a100());
        assert_eq!(c.blocks(), 1054);
        assert_eq!(c.chips_per_block(), 4);
        assert_eq!(c.hosts_per_block(), 1);
        // Geometry-less islands form a 1x1x1054 rail, so any run up to
        // the fleet size places when everything is healthy — placement
        // feasibility must not depend on 1054's prime factorization.
        assert_eq!(c.grid(), (1, 1, 1054));
        assert_eq!(c.allocate((1, 1, 128)).unwrap().len(), 128);
        // v4-ib's 2^3 islands keep real geometry.
        let c = StaticCluster::for_spec(&MachineSpec::v4_ib_hybrid());
        assert_eq!(c.grid(), (8, 8, 8));
    }

    #[test]
    fn cubic_boxes_have_one_distinct_orientation() {
        assert_eq!(orientations((2, 2, 2)).as_slice(), &[(2, 2, 2)]);
        assert_eq!(orientations((1, 2, 2)).as_slice().len(), 3);
        assert_eq!(orientations((1, 2, 3)).as_slice().len(), 6);
    }

    #[test]
    fn orientation_counts_are_pinned_per_box_class() {
        // Cube: one orientation; slab (two equal edges) and cigar
        // (1×1×n): three; scalene: six. The distinct list is what the
        // allocate loop scans, so these counts are load-bearing for both
        // correctness and the anchor-scan cost.
        assert_eq!(orientations((4, 4, 4)).as_slice().len(), 1); // cube
        assert_eq!(orientations((2, 4, 4)).as_slice().len(), 3); // slab
        assert_eq!(orientations((4, 4, 2)).as_slice().len(), 3); // slab, rotated
        assert_eq!(orientations((1, 1, 48)).as_slice().len(), 3); // Table 2 cigar
        assert_eq!(orientations((1, 2, 3)).as_slice().len(), 6); // scalene
                                                                 // First orientation is always the request itself (first-fit
                                                                 // prefers the caller's shape).
        assert_eq!(orientations((2, 4, 4)).as_slice()[0], (2, 4, 4));
    }

    #[test]
    fn allocate_release_roundtrip() {
        let mut c = v4_static();
        assert_eq!(c.grid(), (4, 4, 4));
        let a = c.allocate((2, 2, 2)).unwrap();
        assert_eq!(a.len(), 8);
        let b = c.allocate((4, 4, 4)).unwrap_err();
        assert!(matches!(b, SupercomputerError::NoContiguousSlice { .. }));
        c.release(&a);
        assert_eq!(c.allocate((4, 4, 4)).unwrap().len(), 64);
    }

    #[test]
    fn orientation_fallback_places_rotated_boxes() {
        // A 1x1x4 box fits a (2,2,4) grid only along z; a 4x1x1 request
        // must rotate into it.
        let mut c = StaticCluster::for_spec(&MachineSpec::v3());
        assert!(c.fits((4, 1, 1)));
        assert_eq!(c.allocate((4, 1, 1)).unwrap().len(), 4);
        // A 1x1x5 cigar can never fit, nor can a box whose volume
        // overflows u32.
        assert!(!c.fits((1, 1, 5)));
        assert!(c.allocate((1, 1, 5)).is_err());
        let huge = (u32::MAX, u32::MAX, 2);
        assert!(!c.fits(huge));
        assert!(c.allocate(huge).is_err());
        assert_eq!(c.count_first_fit(&[u64::MAX], huge), 0);
    }

    #[test]
    fn one_dead_host_fragments_capacity() {
        let mut c = v4_static();
        // Kill one host in every all-even-coordinate block: every 2x2x2
        // box (wraparound included) contains exactly one such corner, so
        // an 8-block slice becomes unplaceable even though 56 of 64
        // blocks are healthy.
        for z in [0u32, 2] {
            for y in [0u32, 2] {
                for x in [0u32, 2] {
                    c.set_host_up(x + 4 * (y + 4 * z), 0, false).unwrap();
                }
            }
        }
        assert_eq!(c.healthy_chips(), 56 * 64);
        assert!(matches!(
            c.allocate((2, 2, 2)),
            Err(SupercomputerError::NoContiguousSlice { .. })
        ));
        // Single blocks still place on the healthy remainder.
        assert_eq!(c.allocate((1, 1, 1)).unwrap().len(), 1);
    }

    #[test]
    fn repair_must_balance_every_failure() {
        let mut c = v4_static();
        c.set_host_up(5, 0, false).unwrap();
        c.set_host_up(5, 7, false).unwrap();
        assert_eq!(c.healthy_chips(), 63 * 64);
        c.set_host_up(5, 0, true).unwrap();
        assert_eq!(c.healthy_chips(), 63 * 64);
        c.set_host_up(5, 7, true).unwrap();
        assert_eq!(c, v4_static());
    }

    #[test]
    fn unknown_indices_are_rejected() {
        let mut c = v4_static();
        assert_eq!(
            c.set_host_up(64, 0, false),
            Err(SupercomputerError::Fabric(OcsError::UnknownBlock {
                block: BlockId::new(64)
            }))
        );
        assert_eq!(
            c.set_host_up(0, 16, false),
            Err(SupercomputerError::Fabric(OcsError::UnknownHost {
                block: BlockId::new(0),
                host: 16
            }))
        );
    }

    #[test]
    fn zero_extent_boxes_never_place() {
        let mut c = v4_static();
        let before = c.clone();
        let healthy = [u64::MAX];
        for bbox in [(0, 1, 1), (1, 0, 1), (1, 1, 0), (0, 0, 0)] {
            assert!(!c.fits(bbox), "{bbox:?}");
            assert!(
                matches!(
                    c.allocate(bbox),
                    Err(SupercomputerError::NoContiguousSlice { needed_blocks }) if needed_blocks == bbox
                ),
                "{bbox:?}"
            );
            assert_eq!(c.count_first_fit(&healthy, bbox), 0, "{bbox:?}");
        }
        assert_eq!(c, before);
    }

    /// Health flags packed 64 to a word, as `count_first_fit` reads them.
    fn words(healthy: &[bool]) -> Vec<u64> {
        let mut out = vec![0u64; healthy.len().div_ceil(64)];
        for (i, &up) in healthy.iter().enumerate() {
            out[i / 64] |= u64::from(up) << (i % 64);
        }
        out
    }

    /// Repeated `allocate` on a copy with `healthy`'s failures injected.
    fn allocate_until_refused(c: &StaticCluster, healthy: &[bool], bbox: (u32, u32, u32)) -> u32 {
        let mut copy = c.clone();
        for (b, &up) in healthy.iter().enumerate() {
            if !up {
                copy.set_host_up(b as u32, 0, false).unwrap();
            }
        }
        let mut placed = 0;
        while copy.allocate(bbox).is_ok() {
            placed += 1;
        }
        placed
    }

    #[test]
    fn count_first_fit_counts_what_allocate_places_and_mutates_nothing() {
        // v4 (64 blocks, erosion) and v4-ib (512 islands, runs), each
        // with a job in place and a host already down.
        for spec in [MachineSpec::v4(), MachineSpec::v4_ib_hybrid()] {
            let mut c = StaticCluster::for_spec(&spec);
            let job = c.allocate((2, 2, 2)).unwrap();
            c.set_host_up(job[0] + 3, 1, false).unwrap();
            let before = c.clone();
            let n = c.blocks() as usize;
            let healthy: Vec<bool> = (0..n).map(|i| i % 7 != 3).collect();
            let (gx, gy, gz) = c.grid();
            for bbox in [
                (1, 1, 1),
                (2, 2, 2),
                (1, 2, 3),
                (gx, gy, 1),
                (gx, 1, gz),
                (gx, gy, gz),
            ] {
                let want = allocate_until_refused(&before, &healthy, bbox);
                assert_eq!(c.count_first_fit(&words(&healthy), bbox), want, "{bbox:?}");
                assert_eq!(c, before, "{bbox:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "2 health words for 64 blocks")]
    fn count_first_fit_rejects_a_health_vector_of_the_wrong_length() {
        v4_static().count_first_fit(&[u64::MAX; 2], (1, 1, 1));
    }

    /// Every grid shape of at most 64 blocks that a spec can produce
    /// (most cubic boxes, and the 1×1×n rail), plus lopsided ones.
    fn small_grids() -> Vec<(u32, u32, u32)> {
        let mut grids: Vec<(u32, u32, u32)> = (1..=64).map(most_cubic_box).collect();
        grids.extend((1..=64).map(|n| (1, 1, n)));
        grids.extend([
            (4, 1, 1),
            (3, 5, 2),
            (8, 2, 4),
            (2, 8, 4),
            (64, 1, 1),
            (1, 64, 1),
        ]);
        grids
    }

    /// The next word of a xorshift64 stream.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn erosion_and_dilation_match_the_cell_walk_on_small_grids() {
        // On every small grid, for every box that fits, erosion sets
        // exactly the anchors whose cells are all free, its mirror exactly
        // the anchors whose box holds a free cell, and dilation of one
        // anchor is its cells.
        // Extents 1 to 5, and on longer axes the two longest.
        let extents = |len: u32| (1..=len).filter(move |&e| e <= 5 || e + 1 >= len);
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        for grid in small_grids() {
            let g = WordGrid::new(grid).expect("at most 64 blocks");
            let n = (grid.0 * grid.1 * grid.2) as usize;
            for bx in extents(grid.0) {
                for by in extents(grid.1) {
                    for bz in extents(grid.2) {
                        let b = (bx, by, bz);
                        for round in 0..4 {
                            // The all-free word, then dense xorshift64 words.
                            let word = xorshift(&mut state);
                            let dense = if round == 0 {
                                u64::MAX
                            } else {
                                word | word.rotate_left(11)
                            };
                            let free = dense & g.cells;
                            let eroded = g.erode(free, b);
                            let reached = g.overlaps(free, b);
                            for a in 0..n {
                                let cells: u64 = box_cells(grid, coordinates(grid, a), b)
                                    .fold(0, |m, i| m | 1 << i);
                                assert_eq!(g.dilate(1 << a, b), cells, "{grid:?} {b:?} @{a}");
                                let fits = free & cells == cells;
                                assert_eq!(eroded >> a & 1 == 1, fits, "{grid:?} {b:?} @{a}");
                                let meets = free & cells != 0;
                                assert_eq!(reached >> a & 1 == 1, meets, "{grid:?} {b:?} @{a}");
                            }
                            assert_eq!(eroded & !g.cells, 0, "{grid:?} {b:?}");
                            assert_eq!(reached & !g.cells, 0, "{grid:?} {b:?}");
                        }
                    }
                }
            }
        }
        assert!(WordGrid::new((4, 4, 5)).is_none());
    }

    /// A cluster of one-host blocks on `grid`, a grid no spec need make.
    fn on_grid(grid: (u32, u32, u32)) -> StaticCluster {
        let blocks = (grid.0 * grid.1 * grid.2) as usize;
        StaticCluster {
            grid,
            block_edge: 1,
            chips_per_block: 1,
            health: HostHealth::new(blocks, 1),
            in_use: vec![0; blocks.div_ceil(64)],
            word_grid: WordGrid::new(grid),
        }
    }

    /// The pack query before conflict masks, on a grid of at most 64
    /// blocks: after every placement, erode the free word again for each
    /// orientation, take the lowest anchor past the last placement (the
    /// earlier orientation on a tie), and clear the placed box's cells by
    /// dilation.
    fn count_by_erosion(c: &StaticCluster, healthy: u64, bbox: (u32, u32, u32)) -> u32 {
        let g = c.word_grid.expect("at most 64 blocks");
        let orients = c.candidates(bbox);
        let orients = orients.as_slice();
        let mut free = c.health.words()[0] & !c.in_use[0] & healthy;
        let (mut placed, mut from) = (0, 0);
        while !orients.is_empty() && bbox.0 * bbox.1 * bbox.2 <= free.count_ones() {
            let ahead = u64::MAX.checked_shl(from).unwrap_or(0);
            let (mut a, mut b) = (64, orients[0]);
            for &o in orients {
                let first = (g.erode(free, o) & ahead).trailing_zeros();
                if first < a {
                    (a, b) = (first, o);
                }
            }
            if a == 64 {
                break;
            }
            free &= !g.dilate(1 << a, b);
            placed += 1;
            from = a + 1;
        }
        placed
    }

    #[test]
    fn conflict_masks_count_what_erosion_after_every_placement_counts() {
        // On every small grid and for every box that some orientation
        // fits, with no cap on the extents: the planned count equals the
        // count that erodes again after every placement, on the all-free
        // word and on 8 xorshift64 words of about 50%, 75% and 87.5% up
        // blocks, both on a pristine cluster and on one that holds two
        // jobs and has a host down on about one block in eight.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut checks = 0;
        for grid in small_grids() {
            let pristine = on_grid(grid);
            let blocks = pristine.blocks();
            let mut busy = pristine.clone();
            for b in 0..blocks {
                if xorshift(&mut state).is_multiple_of(8) {
                    busy.set_host_up(b, 0, false).unwrap();
                }
            }
            let _ = busy.allocate((1, 1, 1));
            let _ = busy.allocate((2, 1, 1));
            let words: Vec<u64> = (0..9u32)
                .map(|round| match round {
                    0 => u64::MAX,
                    _ => (0..round % 3).fold(xorshift(&mut state), |w, _| w | xorshift(&mut state)),
                })
                .collect();
            for bx in 1..=blocks {
                for by in 1..=blocks / bx {
                    for bz in 1..=blocks / (bx * by) {
                        let b = (bx, by, bz);
                        if !pristine.fits(b) {
                            continue;
                        }
                        for cluster in [&pristine, &busy] {
                            let plan = cluster.plan_first_fit(b);
                            for &healthy in &words {
                                let want = count_by_erosion(cluster, healthy, b);
                                assert_eq!(
                                    plan.count(&[healthy]),
                                    want,
                                    "{grid:?} {b:?} {healthy:#x}"
                                );
                                checks += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(checks > 200_000, "{checks} checks");
    }

    #[test]
    fn runs_are_tested_and_cleared_across_word_boundaries() {
        for (start, end) in [
            (0, 1),
            (5, 6),
            (0, 64),
            (60, 70),
            (63, 129),
            (64, 128),
            (0, 192),
        ] {
            let mut words = vec![u64::MAX; 3];
            assert!(run_is_set(&words, start, end));
            clear_run(&mut words, start, end);
            for i in 0..192 {
                let set = words[i / 64] >> (i % 64) & 1 == 1;
                assert_eq!(set, !(start..end).contains(&i), "[{start}, {end}) bit {i}");
            }
            assert!(!run_is_set(&words, start, end));
            // One clear bit anywhere in the run refuses it.
            let mut one = vec![u64::MAX; 3];
            one[(end - 1) / 64] &= !(1 << ((end - 1) % 64));
            assert!(!run_is_set(&one, start, end));
            assert!(start == 0 || run_is_set(&one, 0, start));
        }
    }

    #[test]
    fn wraparound_placements_are_legal() {
        let mut c = v4_static();
        // Occupy the 2-wide slab x in {1, 2}; a 2x4x4 box must wrap
        // through x = 3, 0 to place.
        let mut slab = Vec::new();
        for z in 0..4u32 {
            for y in 0..4u32 {
                for x in [1u32, 2] {
                    slab.push(x + 4 * (y + 4 * z));
                }
            }
        }
        // Mark the slab busy through the public API: allocate 1x1x1
        // boxes would not target specific blocks, so simulate occupancy
        // with failures instead (same exclusion rule).
        for &b in &slab {
            c.set_host_up(b, 0, false).unwrap();
        }
        let placed = c.allocate((2, 4, 4)).unwrap();
        assert_eq!(placed.len(), 32);
        for b in placed {
            assert!(!slab.contains(&b));
        }
    }
}
