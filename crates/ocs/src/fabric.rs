//! The full OCS fabric: 64 blocks joined by 48 switches, with slice
//! allocation, twist programming, failure route-around and release.

use crate::block::{
    face_chip, BlockId, HostHealth, BLOCK_EDGE, HOSTS_PER_BLOCK, LINKS_PER_FACE, TPUS_PER_BLOCK,
};
use crate::switch::{OcsSwitch, PortId};
use crate::wiring::{block_port, ocs_index, OCS_COUNT};
use crate::OcsError;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use tpu_spec::MachineSpec;
use tpu_topology::{
    Coord3, Dim, Direction, LinkGraph, NodeId, SliceShape, TwistSpec, TwistedTorus,
};
use tpu_topology::{Edge, LinkLabel};

/// Request for a slice: a chip-level shape plus optional twist.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SliceSpec {
    shape: SliceShape,
    twist: Option<TwistSpec>,
}

impl SliceSpec {
    /// A regular (untwisted) torus slice.
    pub fn regular(shape: SliceShape) -> SliceSpec {
        SliceSpec { shape, twist: None }
    }

    /// A twisted torus slice using the paper's default twist.
    ///
    /// # Errors
    ///
    /// Returns a topology error if the shape is not twistable.
    pub fn twisted(shape: SliceShape) -> Result<SliceSpec, OcsError> {
        Ok(SliceSpec {
            shape,
            twist: Some(TwistSpec::paper_default(shape)?),
        })
    }

    /// The chip-level shape.
    pub fn shape(&self) -> SliceShape {
        self.shape
    }

    /// The twist, if any.
    pub fn twist(&self) -> Option<TwistSpec> {
        self.twist
    }

    /// Blocks this slice needs.
    pub fn blocks_needed(&self) -> Result<u64, OcsError> {
        self.shape
            .in_blocks()
            .map(|b| b.volume())
            .ok_or(OcsError::NotBlockAligned {
                shape: (self.shape.x(), self.shape.y(), self.shape.z()),
            })
    }
}

/// One programmed OCS circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Circuit {
    /// Which of the 48 switches carries the circuit.
    pub ocs: usize,
    /// The '+' side port.
    pub plus: PortId,
    /// The '−' side port.
    pub minus: PortId,
}

/// A live slice: physical blocks, programmed circuits, and (on first
/// use) the resulting chip-level link graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MaterializedSlice {
    spec: SliceSpec,
    blocks: Vec<BlockId>,
    circuits: Vec<Circuit>,
    /// Built lazily: Monte Carlo placement loops submit and release
    /// thousands of slices without ever asking for chip-level routes, and
    /// the graph is the expensive part of materialization (6 edges per
    /// chip). Derived entirely from `spec`, so it is skipped on the wire.
    #[serde(skip)]
    graph: OnceLock<LinkGraph>,
}

/// Equality is over the physical placement (spec, blocks, circuits); the
/// chip graph is derived from `spec` and deliberately excluded so a
/// slice that has materialized its graph still equals one that has not.
impl PartialEq for MaterializedSlice {
    fn eq(&self, other: &MaterializedSlice) -> bool {
        self.spec == other.spec && self.blocks == other.blocks && self.circuits == other.circuits
    }
}

impl MaterializedSlice {
    /// The request this slice satisfies.
    pub fn spec(&self) -> &SliceSpec {
        &self.spec
    }

    /// Physical blocks backing the slice, in slice-position order.
    pub fn blocks(&self) -> &[BlockId] {
        &self.blocks
    }

    /// OCS circuits programmed for the slice.
    pub fn circuits(&self) -> &[Circuit] {
        &self.circuits
    }

    /// The chip-level link graph (slice-local coordinates), built on
    /// first use and cached for the slice's lifetime.
    pub fn chip_graph(&self) -> &LinkGraph {
        self.graph.get_or_init(|| {
            let block_shape = self
                .spec
                .shape()
                .in_blocks()
                .expect("allocation validated block alignment"); // tpu-lint: allow(panic-policy) -- unreachable: allocation validated block alignment
            let block_twist =
                block_level_twist(&self.spec, block_shape).expect("allocation validated the twist"); // tpu-lint: allow(panic-policy) -- unreachable: allocation validated the twist
            build_chip_graph(
                &self.spec,
                block_shape,
                TwistedTorus::new(block_shape, block_twist),
            )
        })
    }

    /// Number of chips.
    pub fn chips(&self) -> u64 {
        self.spec.shape().volume()
    }
}

/// The OCS fabric of one TPU v4 supercomputer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fabric {
    /// Host health of every block.
    health: HostHealth,
    /// Blocks some slice holds, bit `i` for block `i` (a fabric has at
    /// most 64 blocks).
    in_use: u64,
    ocses: Vec<OcsSwitch>,
    /// Deferred-wiring mode: allocations validate and reserve blocks but
    /// skip programming circuits. Runtime-only tuning, not fabric state —
    /// excluded from serialization (deserialized fabrics wake up eager).
    #[serde(skip)]
    deferred_wiring: bool,
}

impl Fabric {
    /// The fleet-scale fabric a machine spec describes: one deployed
    /// block per `fleet_blocks()`, with the spec's hosts per block (16
    /// on v4, 8 on v3). Generations without an OCS layer get
    /// the Palomar switch complement — the fabric then models the §2.7
    /// counterfactual of that fleet behind OCSes, which is what the
    /// cross-generation sweeps compare against.
    ///
    /// # Panics
    ///
    /// Panics if the spec's fleet exceeds
    /// [`PALOMAR_MAX_BLOCKS`](tpu_spec::consts::PALOMAR_MAX_BLOCKS)
    /// blocks (the Palomar port budget), which
    /// [`MachineSpec::from_json`] refuses.
    pub fn for_spec(spec: &MachineSpec) -> Fabric {
        Fabric::new(spec.fleet_blocks() as u32, spec.block.hosts())
    }

    /// A fabric with a custom number of deployed v4 blocks (16 hosts
    /// each).
    ///
    /// # Panics
    ///
    /// Panics if `blocks > 64`.
    pub fn with_blocks(blocks: u32) -> Fabric {
        Fabric::new(blocks, HOSTS_PER_BLOCK)
    }

    /// A fabric of `blocks` blocks (≤ 64, since each OCS has 128 usable
    /// ports; it is also what keeps the blocks in use in one word).
    fn new(blocks: u32, hosts_per_block: u32) -> Fabric {
        use tpu_spec::consts::PALOMAR_MAX_BLOCKS;
        const { assert!(PALOMAR_MAX_BLOCKS <= u64::BITS) };
        assert!(
            blocks <= PALOMAR_MAX_BLOCKS,
            "a {OCS_COUNT}-OCS fabric supports at most {PALOMAR_MAX_BLOCKS} blocks"
        );
        Fabric {
            health: HostHealth::new(blocks as usize, hosts_per_block),
            in_use: 0,
            ocses: (0..OCS_COUNT).map(|_| OcsSwitch::palomar()).collect(),
            deferred_wiring: false,
        }
    }

    /// Switches the fabric into deferred-wiring mode (or back to eager).
    ///
    /// In deferred mode [`Fabric::allocate`] / [`Fabric::allocate_on`]
    /// still run every admission step — block choice, health and in-use
    /// checks, block alignment, twist expressibility — and reserve the
    /// blocks, but skip programming the per-(dim, line) OCS circuits.
    /// The returned slice carries an empty circuit list (its cached
    /// [`MaterializedSlice::chip_graph`] is unaffected: the graph is
    /// derived from the spec and block torus, not from switch state),
    /// and [`Fabric::total_circuits`] counts only physically programmed
    /// circuits, i.e. stays at zero.
    ///
    /// This is for loops that only ask *whether* and *where* a slice
    /// fits, where the 48-circuits-per-block program/teardown traffic is
    /// pure overhead. The fleet DES does not place through a fabric
    /// (it picks blocks with [`pick_lowest_blocks`] on its own words),
    /// so the one caller outside tests is the benchmark's admission
    /// probe, and the mode goes once that probe stops using it. Anything
    /// that inspects programmed wiring — reconfiguration planning over
    /// [`MaterializedSlice::circuits`], link-level figures,
    /// switch-utilization counts — must stay in the default eager mode.
    ///
    /// # Panics
    ///
    /// Panics if any slice is currently allocated: flipping modes with
    /// live circuits would strand or double-program switch state.
    pub fn set_deferred_wiring(&mut self, deferred: bool) {
        assert!(
            self.in_use == 0,
            "wiring mode can only change on an idle fabric"
        );
        self.deferred_wiring = deferred;
    }

    /// Whether allocations currently skip circuit programming.
    pub fn deferred_wiring(&self) -> bool {
        self.deferred_wiring
    }

    /// Number of blocks (deployed or not).
    pub fn block_count(&self) -> usize {
        self.health.units()
    }

    /// Total chips in the fabric.
    pub fn chip_count(&self) -> u64 {
        self.block_count() as u64 * u64::from(TPUS_PER_BLOCK)
    }

    /// The switches (48 for a full fabric).
    pub fn switches(&self) -> &[OcsSwitch] {
        &self.ocses
    }

    /// Refuses a block id outside the fabric.
    fn check(&self, id: BlockId) -> Result<(), OcsError> {
        if id.index() < self.block_count() {
            Ok(())
        } else {
            Err(OcsError::UnknownBlock { block: id })
        }
    }

    /// Sets the health of one CPU host in one block. A block is
    /// healthy while every one of its hosts is up.
    ///
    /// # Errors
    ///
    /// Returns [`OcsError::UnknownBlock`] for an id outside the fabric
    /// and [`OcsError::UnknownHost`] for a host index past the block's
    /// hosts; either refusal changes nothing.
    pub fn set_host_up(&mut self, id: BlockId, host: u32, up: bool) -> Result<(), OcsError> {
        self.health.set_host_up(id.index(), host, up)?;
        Ok(())
    }

    /// Healthy, unallocated blocks — what the scheduler can draw on.
    pub fn free_healthy_blocks(&self) -> Vec<BlockId> {
        block_ids(self.free_mask()).collect()
    }

    /// Healthy, unallocated blocks as a mask, bit `i` for block `i`.
    fn free_mask(&self) -> u64 {
        self.health.words().first().map_or(0, |w| w & !self.in_use)
    }

    /// Allocates and programs a slice from any free healthy blocks
    /// (the OCS "acts like a plugboard": block positions are arbitrary).
    /// It takes the lowest-indexed ones ([`pick_lowest_blocks`]).
    ///
    /// # Errors
    ///
    /// * [`OcsError::NotBlockAligned`] — shape not made of 4³ blocks.
    /// * [`OcsError::InsufficientBlocks`] — not enough healthy free blocks.
    /// * [`OcsError::TwistNotBlockExpressible`] — twist offsets are not
    ///   whole blocks.
    pub fn allocate(&mut self, spec: &SliceSpec) -> Result<MaterializedSlice, OcsError> {
        let needed = spec.blocks_needed()? as usize;
        let free = self.free_mask();
        let chosen = pick_lowest_blocks(free, needed).ok_or(OcsError::InsufficientBlocks {
            needed,
            available: free.count_ones() as usize,
        })?;
        self.allocate_on(spec, block_ids(chosen).collect())
    }

    /// Allocates a slice on an explicit set of blocks (ordered by slice
    /// position). Used by schedulers that pick blocks themselves.
    ///
    /// # Errors
    ///
    /// As [`Fabric::allocate`], plus [`OcsError::UnknownBlock`] for a
    /// block outside the fabric and [`OcsError::UnhealthyBlock`] for one
    /// that is unhealthy, in use, or named twice. A refusal changes
    /// nothing.
    pub fn allocate_on(
        &mut self,
        spec: &SliceSpec,
        chosen: Vec<BlockId>,
    ) -> Result<MaterializedSlice, OcsError> {
        let needed = spec.blocks_needed()? as usize;
        if chosen.len() != needed {
            return Err(OcsError::InsufficientBlocks {
                needed,
                available: chosen.len(),
            });
        }
        // Each block must still be free once the earlier ones are taken,
        // so a repeated block is refused like one in use.
        let free = self.free_mask();
        let mut mask = 0u64;
        for &id in &chosen {
            self.check(id)?;
            let bit = 1u64 << id.index();
            if free & !mask & bit == 0 {
                return Err(OcsError::UnhealthyBlock { block: id });
            }
            mask |= bit;
        }

        let block_shape = spec
            .shape()
            .in_blocks()
            .expect("validated by blocks_needed"); // tpu-lint: allow(panic-policy) -- unreachable: validated by blocks_needed
        let block_twist = block_level_twist(spec, block_shape)?;
        let block_torus = TwistedTorus::new(block_shape, block_twist);

        // Program circuits: for every (dim, line) OCS and every block
        // position, connect the '+' fiber of the block to the '−' fiber of
        // its +dim neighbor in the (possibly twisted) block torus. In
        // deferred-wiring mode admission is already settled at this point,
        // so the switch maps are left untouched and the slice records no
        // circuits (release then has nothing to tear down).
        let mut circuits = Vec::new();
        if !self.deferred_wiring {
            for dim in Dim::ALL {
                for line in 0..LINKS_PER_FACE {
                    let ocs = ocs_index(dim, line);
                    for pos in block_shape.coords() {
                        let (nbr, _) = block_torus.neighbor(pos, dim, Direction::Plus);
                        let src_block = chosen[block_shape.index_of(pos) as usize];
                        let dst_block = chosen[block_shape.index_of(nbr) as usize];
                        let plus = block_port(src_block, Direction::Plus);
                        let minus = block_port(dst_block, Direction::Minus);
                        self.ocses[ocs].connect(plus, minus)?;
                        circuits.push(Circuit { ocs, plus, minus });
                    }
                }
            }
        }

        self.in_use |= mask;
        Ok(MaterializedSlice {
            spec: *spec,
            blocks: chosen,
            circuits,
            graph: OnceLock::new(),
        })
    }

    /// Releases a slice: tears down its circuits and frees its blocks.
    ///
    /// # Errors
    ///
    /// Returns [`OcsError::UnknownBlock`] if the slice references blocks
    /// outside this fabric.
    pub fn release(&mut self, slice: &MaterializedSlice) -> Result<(), OcsError> {
        for c in slice.circuits() {
            self.ocses[c.ocs].disconnect(c.plus)?;
        }
        for &id in slice.blocks() {
            self.check(id)?;
            self.in_use &= !(1u64 << id.index());
        }
        Ok(())
    }

    /// Total circuits currently programmed across all switches.
    // tpu-lint: allow(no-caller) -- ocs_topology_equivalence checks through it that released slices leave no circuit behind
    pub fn total_circuits(&self) -> usize {
        self.ocses.iter().map(OcsSwitch::circuit_count).sum()
    }
}

/// The plugboard's block choice: the lowest `needed` blocks of `free`
/// (bit `i` for block `i`), as a mask, or `None` when fewer are free.
/// [`Fabric::allocate`] and the fleet DES both pick through it.
pub fn pick_lowest_blocks(free: u64, needed: usize) -> Option<u64> {
    if (free.count_ones() as usize) < needed {
        return None;
    }
    let mut rest = free;
    for _ in 0..needed {
        rest &= rest - 1;
    }
    Some(free ^ rest)
}

/// The blocks of a mask, in index order.
fn block_ids(mut mask: u64) -> impl Iterator<Item = BlockId> {
    std::iter::from_fn(move || {
        let i = mask.trailing_zeros();
        mask &= mask.wrapping_sub(1);
        (i < 64).then(|| BlockId::new(i))
    })
}

/// Converts a chip-level twist to block units, checking expressibility.
fn block_level_twist(spec: &SliceSpec, block_shape: SliceShape) -> Result<TwistSpec, OcsError> {
    let Some(twist) = spec.twist() else {
        return Ok(TwistSpec::identity());
    };
    let mut offsets = [Coord3::default(); 3];
    for dim in Dim::ALL {
        let off = twist.offset(dim);
        for other in Dim::ALL {
            let chips = off.get(other);
            if chips % BLOCK_EDGE != 0 {
                return Err(OcsError::TwistNotBlockExpressible { offset: chips });
            }
            offsets[dim.index()] = offsets[dim.index()].with(other, chips / BLOCK_EDGE);
        }
    }
    TwistSpec::new(block_shape, offsets).map_err(OcsError::from)
}

/// Builds the chip-level link graph of a slice: electrical 4³ meshes inside
/// every block plus the optical inter-block links the OCS circuits provide.
fn build_chip_graph(
    spec: &SliceSpec,
    block_shape: SliceShape,
    block_torus: TwistedTorus,
) -> LinkGraph {
    let shape = spec.shape();
    let mut edges = Vec::new();

    // Electrical intra-block mesh links.
    for c in shape.coords() {
        for dim in Dim::ALL {
            for dir in Direction::ALL {
                let pos = c.get(dim);
                let within = match dir {
                    Direction::Plus => pos % BLOCK_EDGE != BLOCK_EDGE - 1,
                    Direction::Minus => pos % BLOCK_EDGE != 0,
                };
                if !within {
                    continue;
                }
                let nbr = match dir {
                    Direction::Plus => c.with(dim, pos + 1),
                    Direction::Minus => c.with(dim, pos - 1),
                };
                edges.push(Edge {
                    src: NodeId::new(shape.index_of(c)),
                    dst: NodeId::new(shape.index_of(nbr)),
                    label: LinkLabel {
                        dim,
                        dir,
                        wraparound: false,
                    },
                });
            }
        }
    }

    // Optical inter-block links, one per (dim, line, block position):
    // exactly what the OCS circuits carry.
    for dim in Dim::ALL {
        for line in 0..LINKS_PER_FACE {
            for pos in block_shape.coords() {
                let (nbr, wrapped) = block_torus.neighbor(pos, dim, Direction::Plus);
                let src_chip = block_origin(pos) + face_chip(dim, Direction::Plus, line);
                let dst_chip = block_origin(nbr) + face_chip(dim, Direction::Minus, line);
                let src = NodeId::new(shape.index_of(src_chip));
                let dst = NodeId::new(shape.index_of(dst_chip));
                edges.push(Edge {
                    src,
                    dst,
                    label: LinkLabel {
                        dim,
                        dir: Direction::Plus,
                        wraparound: wrapped,
                    },
                });
                edges.push(Edge {
                    src: dst,
                    dst: src,
                    label: LinkLabel {
                        dim,
                        dir: Direction::Minus,
                        wraparound: wrapped,
                    },
                });
            }
        }
    }

    let kind = if spec.twist().is_some() {
        "ocs-twisted"
    } else {
        "ocs-regular"
    };
    LinkGraph::from_edges(shape, format!("{kind} {shape}"), edges)
}

/// Chip coordinate of a block position's origin corner.
fn block_origin(pos: Coord3) -> Coord3 {
    Coord3::new(pos.x * BLOCK_EDGE, pos.y * BLOCK_EDGE, pos.z * BLOCK_EDGE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_topology::Torus;

    fn edge_multiset(g: &LinkGraph) -> Vec<(NodeId, NodeId, LinkLabel)> {
        let mut v: Vec<_> = g.edges().iter().map(|e| (e.src, e.dst, e.label)).collect();
        v.sort_by_key(|&(s, d, l)| (s, d, l.dim, l.dir, l.wraparound));
        v
    }

    #[test]
    fn regular_slice_matches_topology_torus() {
        // The Figure 1 / Figure 5 audit: OCS materialization == abstract torus.
        let mut fabric = Fabric::for_spec(&MachineSpec::v4());
        for shape in [
            SliceShape::new(4, 4, 4).unwrap(),
            SliceShape::new(4, 4, 8).unwrap(),
            SliceShape::new(4, 8, 8).unwrap(),
        ] {
            let slice = fabric.allocate(&SliceSpec::regular(shape)).unwrap();
            let reference = Torus::new(shape).into_graph();
            assert_eq!(
                edge_multiset(slice.chip_graph()),
                edge_multiset(&reference),
                "shape {shape}"
            );
            fabric.release(&slice).unwrap();
        }
    }

    #[test]
    fn twisted_slice_matches_topology_twisted_torus() {
        let mut fabric = Fabric::for_spec(&MachineSpec::v4());
        for shape in [
            SliceShape::new(4, 4, 8).unwrap(),
            SliceShape::new(4, 8, 8).unwrap(),
        ] {
            let slice = fabric
                .allocate(&SliceSpec::twisted(shape).unwrap())
                .unwrap();
            let reference = TwistedTorus::paper_default(shape).unwrap().into_graph();
            assert_eq!(
                edge_multiset(slice.chip_graph()),
                edge_multiset(&reference),
                "shape {shape}"
            );
            fabric.release(&slice).unwrap();
        }
    }

    #[test]
    fn full_machine_slice_uses_all_ports() {
        let mut fabric = Fabric::for_spec(&MachineSpec::v4());
        let shape = SliceShape::new(16, 16, 16).unwrap();
        let slice = fabric.allocate(&SliceSpec::regular(shape)).unwrap();
        assert_eq!(slice.chips(), 4096);
        // 48 OCSes x 64 circuits each.
        assert_eq!(fabric.total_circuits(), 48 * 64);
        for ocs in fabric.switches() {
            assert_eq!(ocs.circuit_count(), 64);
        }
        fabric.release(&slice).unwrap();
        assert_eq!(fabric.total_circuits(), 0);
    }

    #[test]
    fn concurrent_slices_share_switches() {
        let mut fabric = Fabric::for_spec(&MachineSpec::v4());
        let a = fabric
            .allocate(&SliceSpec::regular(SliceShape::new(4, 4, 8).unwrap()))
            .unwrap();
        let b = fabric
            .allocate(&SliceSpec::regular(SliceShape::new(8, 8, 8).unwrap()))
            .unwrap();
        // No block is shared.
        let mut all: Vec<BlockId> = a.blocks().iter().chain(b.blocks()).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), a.blocks().len() + b.blocks().len());
        fabric.release(&a).unwrap();
        fabric.release(&b).unwrap();
    }

    #[test]
    fn failed_host_excludes_block() {
        let mut fabric = Fabric::with_blocks(2);
        fabric.set_host_up(BlockId::new(0), 3, false).unwrap();
        let free = fabric.free_healthy_blocks();
        assert_eq!(free, vec![BlockId::new(1)]);
        // A 128-chip slice now cannot be placed.
        let err = fabric
            .allocate(&SliceSpec::regular(SliceShape::new(4, 4, 8).unwrap()))
            .unwrap_err();
        assert_eq!(
            err,
            OcsError::InsufficientBlocks {
                needed: 2,
                available: 1
            }
        );
        // But a 64-chip slice fits on the healthy block.
        let slice = fabric
            .allocate(&SliceSpec::regular(SliceShape::new(4, 4, 4).unwrap()))
            .unwrap();
        assert_eq!(slice.blocks(), &[BlockId::new(1)]);
    }

    #[test]
    fn refusals_count_only_free_healthy_blocks() {
        let mut fabric = Fabric::with_blocks(5);
        let one_block = SliceSpec::regular(SliceShape::new(4, 4, 4).unwrap());
        let held = fabric.allocate(&one_block).unwrap();
        assert_eq!(held.blocks(), &[BlockId::new(0)]);
        fabric.set_host_up(BlockId::new(1), 7, false).unwrap();
        assert_eq!(
            fabric.free_healthy_blocks(),
            vec![BlockId::new(2), BlockId::new(3), BlockId::new(4)]
        );
        // Block 0 is in use and block 1 has a failed host: three of the
        // five blocks are available.
        let err = fabric
            .allocate(&SliceSpec::regular(SliceShape::new(4, 4, 16).unwrap()))
            .unwrap_err();
        assert_eq!(
            err,
            OcsError::InsufficientBlocks {
                needed: 4,
                available: 3
            }
        );
        // A slice that fits takes the lowest-indexed free healthy blocks.
        let slice = fabric
            .allocate(&SliceSpec::regular(SliceShape::new(4, 4, 8).unwrap()))
            .unwrap();
        assert_eq!(slice.blocks(), &[BlockId::new(2), BlockId::new(3)]);
    }

    #[test]
    fn a_repeated_block_is_refused_before_any_state_changes() {
        // Two slice positions on one 64-chip block. Unless refused up
        // front, eager wiring programs a circuit and then hits a busy
        // port, and deferred wiring places 128 chips on 64.
        let spec = SliceSpec::regular(SliceShape::new(4, 4, 8).unwrap());
        for deferred in [false, true] {
            let mut fabric = Fabric::with_blocks(4);
            fabric.set_deferred_wiring(deferred);
            let free = fabric.free_healthy_blocks();
            let err = fabric
                .allocate_on(&spec, vec![BlockId::new(0), BlockId::new(0)])
                .unwrap_err();
            assert_eq!(
                err,
                OcsError::UnhealthyBlock {
                    block: BlockId::new(0)
                },
                "deferred {deferred}"
            );
            assert_eq!(fabric.total_circuits(), 0, "deferred {deferred}");
            assert_eq!(fabric.free_healthy_blocks(), free, "deferred {deferred}");
            // The fabric is untouched: two distinct blocks still place.
            let slice = fabric
                .allocate_on(&spec, vec![BlockId::new(1), BlockId::new(0)])
                .unwrap();
            assert_eq!(slice.blocks(), &[BlockId::new(1), BlockId::new(0)]);
        }
    }

    #[test]
    fn picks_take_the_lowest_free_blocks() {
        let free = 0b1011_0110;
        assert_eq!(pick_lowest_blocks(free, 0), Some(0));
        assert_eq!(pick_lowest_blocks(free, 1), Some(0b0000_0010));
        assert_eq!(pick_lowest_blocks(free, 3), Some(0b0001_0110));
        assert_eq!(pick_lowest_blocks(free, 5), Some(free));
        assert_eq!(pick_lowest_blocks(free, 6), None);
        assert_eq!(pick_lowest_blocks(u64::MAX, 64), Some(u64::MAX));
        assert_eq!(pick_lowest_blocks(u64::MAX, 65), None);
        assert_eq!(pick_lowest_blocks(1 << 63, 1), Some(1 << 63));
    }

    #[test]
    fn non_block_aligned_rejected() {
        let mut fabric = Fabric::for_spec(&MachineSpec::v4());
        let err = fabric
            .allocate(&SliceSpec::regular(SliceShape::new(2, 2, 4).unwrap()))
            .unwrap_err();
        assert_eq!(err, OcsError::NotBlockAligned { shape: (2, 2, 4) });
    }

    #[test]
    fn release_then_reallocate() {
        let mut fabric = Fabric::with_blocks(2);
        let spec = SliceSpec::regular(SliceShape::new(4, 4, 8).unwrap());
        let a = fabric.allocate(&spec).unwrap();
        assert!(fabric.allocate(&spec).is_err());
        fabric.release(&a).unwrap();
        let b = fabric.allocate(&spec).unwrap();
        assert_eq!(b.blocks().len(), 2);
    }

    #[test]
    fn graph_degree_is_six_everywhere() {
        let mut fabric = Fabric::for_spec(&MachineSpec::v4());
        let slice = fabric
            .allocate(&SliceSpec::regular(SliceShape::new(8, 8, 8).unwrap()))
            .unwrap();
        let g = slice.chip_graph();
        assert!(g.nodes().all(|n| g.neighbors(n).count() == 6));
        assert!(slice.chip_graph().is_symmetric());
    }

    #[test]
    fn single_block_slice_wraps_through_ocs() {
        let mut fabric = Fabric::with_blocks(1);
        let slice = fabric
            .allocate(&SliceSpec::regular(SliceShape::new(4, 4, 4).unwrap()))
            .unwrap();
        let reference = Torus::new(SliceShape::new(4, 4, 4).unwrap()).into_graph();
        assert_eq!(edge_multiset(slice.chip_graph()), edge_multiset(&reference));
        // 48 circuits: each OCS connects the block's + fiber to its own −.
        assert_eq!(fabric.total_circuits(), 48);
    }
}
