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
//! Steady-state link performance is identical to the OCS torus — static
//! cabling changes *placement*, not the links (DESIGN.md §9) — so
//! collective times on a placed slice come from the same
//! [`AlphaBeta`](tpu_net::AlphaBeta) torus models the OCS arm uses.

use crate::{Result, SupercomputerError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use tpu_spec::MachineSpec;
use tpu_topology::most_cubic_box;

/// A statically-cabled cluster: a fixed grid of torus blocks with
/// per-host health and per-block occupancy. The allocation unit is one
/// block (4³ chips on the TPU generations); for `torus_dims == 0` specs
/// used counterfactually the unit is one glueless island.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StaticCluster {
    grid: (u32, u32, u32),
    block_edge: u32,
    chips_per_block: u32,
    hosts_per_block: u32,
    down_hosts: BTreeSet<(u32, u32)>,
    in_use: Vec<bool>,
    /// Occupancy acceleration structure, derived from
    /// `down_hosts`/`in_use` (the sources of truth): built on first use,
    /// then maintained incrementally by every mutation — pure cache, so
    /// it is skipped on the wire and excluded from equality.
    #[serde(skip)]
    occ: OccupancyIndex,
    /// Working memory of [`StaticCluster::count_first_fit`], reused
    /// across calls — pure cache, like `occ`.
    #[serde(skip)]
    pack: PackScratch,
}

/// Equality is over the logical cluster state; the occupancy and pack
/// caches are derived and deliberately excluded (a cluster that has
/// built them still equals one that has not).
impl PartialEq for StaticCluster {
    fn eq(&self, other: &StaticCluster) -> bool {
        self.grid == other.grid
            && self.block_edge == other.block_edge
            && self.chips_per_block == other.chips_per_block
            && self.hosts_per_block == other.hosts_per_block
            && self.down_hosts == other.down_hosts
            && self.in_use == other.in_use
    }
}

/// The incremental occupancy structure behind [`StaticCluster::allocate`]:
/// a word-packed free bitset over the blocks in linear (x-fastest)
/// order, its population count, and per-block down-host counters, all
/// maintained **incrementally** on every mutation.
///
/// Invariant, whenever `dirty == false` (every moment after the first
/// probe; `dirty` only marks a fresh or freshly-deserialized cluster):
/// `free.len() == blocks.div_ceil(64)`, bit `i % 64` of `free[i / 64]`
/// is set ⇔ `block_healthy(i) && !in_use[i]`, the bits past the last
/// block are clear, and `free_total` counts the set bits — mutations
/// keep these exact via [`OccupancyIndex::set_free`], O(1) per block.
#[derive(Debug, Clone)]
struct OccupancyIndex {
    free: Vec<u64>,
    free_total: u32,
    /// Down-host count per block — the O(1) health probe the hot paths
    /// (`set_host_up`, `release`) use instead of a `BTreeSet` range scan.
    down: Vec<u16>,
    dirty: bool,
}

impl Default for OccupancyIndex {
    fn default() -> OccupancyIndex {
        OccupancyIndex {
            free: Vec::new(),
            free_total: 0,
            down: Vec::new(),
            dirty: true,
        }
    }
}

impl OccupancyIndex {
    /// Rebuilds the free bitset and down-host counts from the sources of
    /// truth (only needed on a fresh or freshly-deserialized cluster —
    /// afterwards both are maintained incrementally).
    fn rebuild_free(&mut self, down_hosts: &BTreeSet<(u32, u32)>, in_use: &[bool]) {
        let blocks = in_use.len();
        self.down.clear();
        self.down.resize(blocks, 0);
        for &(block, _) in down_hosts {
            self.down[block as usize] += 1;
        }
        self.free.clear();
        self.free.resize(blocks.div_ceil(64), 0);
        for (i, &used) in in_use.iter().enumerate() {
            if !used && self.down[i] == 0 {
                self.free[i / 64] |= 1 << (i % 64);
            }
        }
        self.free_total = self.free.iter().map(|w| w.count_ones()).sum();
        self.dirty = false;
    }

    /// Point update of one block's free bit, keeping `free_total` exact.
    fn set_free(&mut self, block: usize, free: bool) {
        let (word, bit) = (&mut self.free[block / 64], 1u64 << (block % 64));
        if (*word & bit != 0) != free {
            *word ^= bit;
            if free {
                self.free_total += 1;
            } else {
                self.free_total -= 1;
            }
        }
    }
}

/// Working memory of the pack query: the one-word mask table of the
/// last request (grids of at most 64 blocks) and the multi-word pass's
/// copy of the free words.
#[derive(Debug, Clone, Default)]
struct PackScratch {
    /// The request `masks` was built for; `(0, 0, 0)` (never a
    /// placeable request) until the first build.
    bbox: (u32, u32, u32),
    /// `masks[o * blocks + a]`: bit `i` set ⇔ block `i` is a cell of the
    /// box in the request's `o`-th grid-fitting orientation anchored at
    /// block `a`.
    masks: Vec<u64>,
    /// The multi-word pass's copy of the free words.
    words: Vec<u64>,
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
            hosts_per_block,
            down_hosts: BTreeSet::new(),
            in_use: vec![false; blocks as usize],
            occ: OccupancyIndex::default(),
            pack: PackScratch::default(),
        }
    }

    /// The block grid (x, y, z), in blocks.
    pub fn grid(&self) -> (u32, u32, u32) {
        self.grid
    }

    /// Total blocks in the machine.
    pub fn blocks(&self) -> u32 {
        self.in_use.len() as u32
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
        self.hosts_per_block
    }

    /// Total chips installed.
    pub fn total_chips(&self) -> u64 {
        u64::from(self.blocks()) * u64::from(self.chips_per_block)
    }

    /// Chips on blocks whose hosts are all currently up.
    pub fn healthy_chips(&self) -> u64 {
        let mut down_blocks: Vec<u32> = self.down_hosts.iter().map(|&(b, _)| b).collect();
        down_blocks.dedup();
        self.total_chips() - down_blocks.len() as u64 * u64::from(self.chips_per_block)
    }

    /// Whether every host of one block is up.
    pub fn block_healthy(&self, block: u32) -> bool {
        self.down_hosts
            .range((block, 0)..(block, self.hosts_per_block))
            .next()
            .is_none()
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
    /// [`SupercomputerError::UnknownBlock`] / [`UnknownBlockHost`] for
    /// indices outside the cluster.
    ///
    /// [`UnknownBlockHost`]: SupercomputerError::UnknownBlockHost
    pub fn set_host_up(&mut self, block: u32, host: u32, up: bool) -> Result<()> {
        if block >= self.blocks() {
            return Err(SupercomputerError::UnknownBlock {
                block: u64::from(block),
            });
        }
        if host >= self.hosts_per_block {
            return Err(SupercomputerError::UnknownBlockHost {
                block: u64::from(block),
                host,
            });
        }
        let changed = if up {
            self.down_hosts.remove(&(block, host))
        } else {
            self.down_hosts.insert((block, host))
        };
        if changed && !self.occ.dirty {
            let b = block as usize;
            if up {
                self.occ.down[b] -= 1;
            } else {
                self.occ.down[b] += 1;
            }
            let free = self.occ.down[b] == 0 && !self.in_use[b];
            self.occ.set_free(b, free);
        }
        Ok(())
    }

    /// Makes the free bitset valid (a no-op except on a fresh or
    /// freshly-deserialized cluster; every mutation afterwards keeps it
    /// exact incrementally).
    fn ensure_free(&mut self) {
        if self.occ.dirty {
            self.occ.rebuild_free(&self.down_hosts, &self.in_use);
        }
    }

    /// Allocates the first contiguous box of healthy free blocks that
    /// satisfies the request, scanning anchors in index order and axis
    /// orientations in a fixed order, wraparound allowed. Returns the
    /// block indices in placement order and marks them busy.
    ///
    /// Placements are identical to a greedy cell-by-cell scan over
    /// `BTreeSet` health probes (the anchor/orientation order is
    /// unchanged); only the candidate test changed, to contiguous runs
    /// of the always-fresh word-packed free bitset (DESIGN.md §11). A
    /// refusal changes nothing.
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
        self.ensure_free();
        // Every candidate fits the grid, so the volume fits in u32.
        let volume = bbox.0 * bbox.1 * bbox.2;
        if volume > self.occ.free_total {
            return Err(refused);
        }
        let (grid, free, orients) = (self.grid, &self.occ.free, orients.as_slice());
        let fit = first_fit(free, grid, 0, orients.len(), |_, anchor, o| {
            box_runs(grid, anchor, orients[o], |start, end| {
                run_is_set(free, start, end)
            })
        });
        let Some((_, anchor, o)) = fit else {
            return Err(refused);
        };
        let cells: Vec<u32> = box_cells(grid, anchor, orients[o]).collect();
        for &i in &cells {
            self.in_use[i as usize] = true;
            self.occ.set_free(i as usize, false);
        }
        Ok(cells)
    }

    /// How many boxes repeated [`StaticCluster::allocate`] calls would
    /// place, until the first refusal, with every block that `healthy`
    /// marks down also failed — without touching the cluster. Blocks
    /// already allocated or with a failed host stay unavailable. A box
    /// with a zero extent counts 0.
    ///
    /// One first-fit pass over a copy of the free bitset: after a
    /// placement at anchor `a` the pass resumes at `a + 1`, which is
    /// exact because cells only ever become occupied during the fill —
    /// a candidate refused earlier stays refused, and every candidate at
    /// `a` now holds a taken cell. On grids of at most 64 blocks each
    /// candidate is one AND against a per-request table of one-word
    /// masks, cached between calls; larger grids use `allocate`'s run
    /// test (DESIGN.md §11).
    ///
    /// # Panics
    ///
    /// Panics if `healthy` does not hold exactly one flag per block.
    pub fn count_first_fit(&mut self, healthy: &[bool], bbox: (u32, u32, u32)) -> u32 {
        let blocks = self.in_use.len();
        if healthy.len() != blocks {
            // tpu-lint: allow(panic-policy) -- callers size `healthy` from this cluster's block count; any other length is a caller bug
            panic!("{} health flags for {blocks} blocks", healthy.len());
        }
        let orients = self.candidates(bbox);
        if orients.as_slice().is_empty() {
            return 0;
        }
        self.ensure_free();
        let (grid, orients) = (self.grid, orients.as_slice());
        // Every candidate fits the grid, so the volume fits in u32.
        let volume = bbox.0 * bbox.1 * bbox.2;
        let mut placed = 0;
        let mut from = 0;
        if blocks <= 64 {
            if self.pack.bbox != bbox {
                self.pack.build_masks(grid, bbox, orients);
            }
            let masks = &self.pack.masks;
            let mut free = self.occ.free[0];
            for (i, &up) in healthy.iter().enumerate() {
                if !up {
                    free &= !(1 << i);
                }
            }
            while volume <= free.count_ones() {
                let fit = first_fit(&[free], grid, from, orients.len(), |a, _, o| {
                    let mask = masks[o * blocks + a];
                    free & mask == mask
                });
                let Some((a, _, o)) = fit else { break };
                free &= !masks[o * blocks + a];
                placed += 1;
                from = a + 1;
            }
            return placed;
        }
        let mut words = std::mem::take(&mut self.pack.words);
        words.clear();
        words.extend_from_slice(&self.occ.free);
        for (i, &up) in healthy.iter().enumerate() {
            if !up {
                words[i / 64] &= !(1 << (i % 64));
            }
        }
        let mut left: u32 = words.iter().map(|w| w.count_ones()).sum();
        while volume <= left {
            let fit = first_fit(&words, grid, from, orients.len(), |_, anchor, o| {
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
        self.pack.words = words;
        placed
    }

    /// Releases a previously allocated set of blocks.
    pub fn release(&mut self, blocks: &[u32]) {
        for &b in blocks {
            if let Some(slot) = self.in_use.get_mut(b as usize) {
                *slot = false;
            }
        }
        if !self.occ.dirty {
            for &b in blocks {
                if (b as usize) < self.in_use.len() {
                    let free = self.occ.down[b as usize] == 0;
                    self.occ.set_free(b as usize, free);
                }
            }
        }
    }
}

impl PackScratch {
    /// Builds the one-word mask table of `bbox` from the cell walk
    /// `allocate` returns its cells by.
    fn build_masks(
        &mut self,
        grid: (u32, u32, u32),
        bbox: (u32, u32, u32),
        orients: &[(u32, u32, u32)],
    ) {
        let blocks = (grid.0 * grid.1 * grid.2) as usize;
        self.masks.clear();
        for &b in orients {
            for a in 0..blocks {
                let anchor = coordinates(grid, a);
                let mask = box_cells(grid, anchor, b).fold(0u64, |m, i| m | 1 << i);
                self.masks.push(mask);
            }
        }
        self.bbox = bbox;
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

/// The first-fit scan `allocate` and `count_first_fit` share: anchors in
/// linear index order (x fastest) from `from`, and at each anchor the
/// `orients` candidate orientations in order; returns the first
/// `(anchor index, anchor coordinates, orientation index)` that `fits`
/// accepts. An anchor whose own bit is clear in `words` is skipped
/// without a test — the anchor cell belongs to every orientation's box.
fn first_fit(
    words: &[u64],
    grid: (u32, u32, u32),
    from: usize,
    orients: usize,
    mut fits: impl FnMut(usize, (u32, u32, u32), usize) -> bool,
) -> Option<(usize, (u32, u32, u32), usize)> {
    let (gx, gy, gz) = grid;
    let blocks = (gx * gy * gz) as usize;
    // Anchor coordinates advance with the index — no division per anchor.
    let (mut x, mut y, mut z) = coordinates(grid, from);
    for a in from..blocks {
        if words[a / 64] >> (a % 64) & 1 == 1 {
            if let Some(o) = (0..orients).find(|&o| fits(a, (x, y, z), o)) {
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
/// allocation — `allocate` and `count_first_fit` compute them once per
/// call, and the Monte Carlo packing loop calls the latter every trial).
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
        assert_eq!(c.count_first_fit(&[true; 16], huge), 0);
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
        assert!(!c.block_healthy(5));
        c.set_host_up(5, 0, true).unwrap();
        assert!(!c.block_healthy(5));
        c.set_host_up(5, 7, true).unwrap();
        assert!(c.block_healthy(5));
    }

    #[test]
    fn unknown_indices_are_rejected() {
        let mut c = v4_static();
        assert!(matches!(
            c.set_host_up(64, 0, false),
            Err(SupercomputerError::UnknownBlock { block: 64 })
        ));
        assert!(matches!(
            c.set_host_up(0, 16, false),
            Err(SupercomputerError::UnknownBlockHost { block: 0, host: 16 })
        ));
    }

    #[test]
    fn zero_extent_boxes_never_place() {
        let mut c = v4_static();
        let before = c.clone();
        let healthy = vec![true; 64];
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
        // v4 (64 blocks, one-word masks) and v4-ib (512 islands, runs),
        // each with a job in place and a host already down.
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
                assert_eq!(c.count_first_fit(&healthy, bbox), want, "{bbox:?}");
                assert_eq!(c, before, "{bbox:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "63 health flags for 64 blocks")]
    fn count_first_fit_rejects_a_health_vector_of_the_wrong_length() {
        v4_static().count_first_fit(&[true; 63], (1, 1, 1));
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
