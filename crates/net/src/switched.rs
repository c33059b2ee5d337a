//! The general switched-fabric collective backend (§7.2–§7.3).
//!
//! The paper's headline network comparison pits the OCS-stitched 3D torus
//! against conventional switched GPU fabrics: glueless islands (NVLink
//! inside a DGX box, or the 8-chip ICI islands of the §7.3 thought
//! experiment) joined by a 3-level InfiniBand fat tree. This module models
//! that family of machines behind one type, [`SwitchedFabric`], and
//! exposes [`CollectiveBackend`] — the one collective pricer: every
//! `Supercomputer::collective_time` quote, the `tpu-workloads`
//! interconnect models and the `tpu-bench` §7 tables go through it. It
//! is keyed off the spec's `fabric` discriminator (`FabricKind::Switched`
//! takes the switched arm; OCS-stitched and statically-cabled tori both
//! take the torus arm, since static cabling changes placement, not
//! steady-state link performance).
//!
//! Calibration (see `DESIGN.md` §6): islands are non-blocking internally;
//! the fat tree is full-bisection with all-reduce utilization 1.0 and
//! all-to-all utilization 0.80 (ECMP collisions). Hierarchical schedules:
//! intra-island reduce-scatter, inter-island ring all-reduce of the
//! 1/island shard with every chip driving its own NIC, intra-island
//! all-gather. The published 1.8×–2.4× / 1.2×–2.4× slowdowns then emerge
//! from bandwidth arithmetic alone.
//!
//! Every model here is alpha-beta (DESIGN.md §7): each schedule step
//! pays a per-message latency — the island link's hop alpha on
//! intra-island steps, NIC + per-switch-stage alpha on fat-tree steps
//! (up to 5 switch traversals on a 3-level Clos) — so small-message
//! collectives and the §7.9/§8 fixed-overhead regime are quantitative.
//! [`CollectiveBackend::bandwidth_only`] recovers the infinite-message
//! asymptote, and the two agree within 1% at ≥1 GB payloads.

use crate::fattree::FatTree;
use crate::latency::{torus_diameter_hops, AlphaBeta};
use crate::load::AllToAll;
use crate::schedule::{self, CollectiveSchedule, ScheduleAlgorithm, TorusPaths};
use crate::units::LinkRate;
use tpu_spec::{CollectiveSpec, FabricKind, MachineSpec, ProcessorStyle};
use tpu_topology::{LinkGraph, SliceShape, Torus};

/// How the chips inside one glueless island are wired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IslandKind {
    /// Point-to-point ICI links forming a small torus (the §7.3 2×2×2
    /// islands): collectives follow the torus schedule on per-link rates.
    Torus,
    /// A non-blocking intra-island switch (NVLink/NVSwitch, IPU-Link):
    /// every chip gets its full aggregate injection bandwidth.
    Crossbar,
}

/// A switched (island + fat-tree) machine fabric: the §7.3 alternative to
/// the OCS torus, generalized to cover the Table 5 A100 cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchedFabric {
    /// Chips per glueless island (8 for the §7.3 experiment, 4 per
    /// Table 5 A100 host).
    pub island_chips: u32,
    /// Intra-island wiring style.
    pub island_kind: IslandKind,
    /// Intra-island per-link rate (one direction).
    pub island_rate: LinkRate,
    /// Intra-island links per chip.
    pub island_links: u32,
    /// The inter-island InfiniBand fat tree.
    pub fat_tree: FatTree,
    /// Per-hop, per-message latency on an island link (ICI or NVLink),
    /// seconds.
    pub island_alpha_s: f64,
    /// Per-message NIC/endpoint overhead on the fat-tree path, seconds.
    pub nic_alpha_s: f64,
    /// Per-switch-stage latency on the fat tree, seconds (stage count
    /// from [`FatTree::switch_stages`]).
    pub switch_alpha_s: f64,
    /// The spec's `ring`/`tree`/`auto` policy for the inter-island
    /// all-reduce phase (islands keep their native schedules — a torus
    /// island is already ring-optimal, see DESIGN.md §10).
    pub selection: CollectiveSpec,
}

impl SwitchedFabric {
    /// The switched backend a machine spec describes, or `None` for
    /// torus machines (OCS-stitched or statically cabled — the spec's
    /// `fabric` discriminator decides; `FabricKind::Switched` implies
    /// `torus_dims == 0`).
    ///
    /// Island size comes from [`MachineSpec::glueless_island_chips`];
    /// TPU-style (`si2d`) chips form torus islands, switch-connected GPUs
    /// and IPUs form crossbar islands; island link count and rate come
    /// from the chip record; the fat tree is the §7.3 HDR reference.
    pub fn for_spec(spec: &MachineSpec) -> Option<SwitchedFabric> {
        if spec.fabric != FabricKind::Switched {
            return None;
        }
        let island_kind = match spec.chip.style {
            ProcessorStyle::SingleInstruction2dData => IslandKind::Torus,
            _ => IslandKind::Crossbar,
        };
        let latency = spec.collective_latency();
        Some(SwitchedFabric {
            island_chips: spec.glueless_island_chips(),
            island_kind,
            island_rate: LinkRate::for_spec(spec),
            island_links: spec.chip.ici_links.max(1),
            fat_tree: FatTree::hdr_reference(),
            island_alpha_s: latency.ici_hop_s,
            nic_alpha_s: latency.nic_s,
            switch_alpha_s: latency.switch_hop_s,
            selection: spec.collective_schedule(),
        })
    }

    /// This fabric with every alpha zeroed: the pure-bandwidth
    /// (infinite-message) asymptote the pre-latency model computed.
    pub fn bandwidth_only(&self) -> SwitchedFabric {
        SwitchedFabric {
            island_alpha_s: 0.0,
            nic_alpha_s: 0.0,
            switch_alpha_s: 0.0,
            ..*self
        }
    }

    /// Aggregate intra-island injection bandwidth per chip, bytes/s.
    pub fn island_injection(&self) -> f64 {
        self.island_rate.bytes_per_s() * f64::from(self.island_links)
    }

    /// Per-message latency of one inter-island schedule step for a
    /// fabric of `chips` endpoints: NIC/endpoint overhead plus one
    /// fat-tree crossing's switch traversals (1, 3 or 5 stages on the
    /// 3-level Clos, by fabric size).
    pub fn inter_step_alpha(&self, chips: u64) -> f64 {
        self.nic_alpha_s + f64::from(self.fat_tree.switch_stages(chips)) * self.switch_alpha_s
    }

    /// The all-reduce schedule of `bytes` confined to (up to) one
    /// island: the multi-path torus ring schedule on ICI islands, a ring
    /// through the non-blocking switch (`2(n−1)` steps, each one switch
    /// hop, at full per-chip injection) on crossbars.
    fn intra_all_reduce_schedule(&self, chips: u32, bytes: f64) -> CollectiveSchedule {
        if chips <= 1 {
            return CollectiveSchedule::empty();
        }
        match self.island_kind {
            IslandKind::Torus => AlphaBeta::new(self.island_alpha_s, self.island_rate)
                .torus_ring_schedule(island_shape(chips), bytes, TorusPaths::MultiPath),
            IslandKind::Crossbar => schedule::ring_all_reduce(
                u64::from(chips),
                bytes,
                self.island_injection(),
                self.island_alpha_s,
            ),
        }
    }

    /// The island count, smallest-island size, inter-island shard bytes,
    /// and per-step wire of an all-reduce over `chips` chips, or `None`
    /// when it never leaves one island.
    ///
    /// A fleet whose chip count is not a multiple of the island size
    /// gets one partial island. Its `r` chips must still source and sink
    /// the full payload through their own NICs, so the per-chip
    /// inter-island shard is `bytes / r` — not `bytes / island_chips`
    /// (DESIGN.md §7.2). This is the single definition of that rule;
    /// the schedule builder, the algorithm query and the closed-form
    /// crossover all read it from here.
    fn inter_phase_terms(&self, chips: u64, bytes: f64) -> Option<(u64, u64, f64, f64)> {
        let island = u64::from(self.island_chips);
        if chips <= island.max(1) {
            return None;
        }
        let remainder = chips % island;
        let smallest_island = if remainder == 0 { island } else { remainder };
        let wire = self.fat_tree.per_chip_injection() * self.fat_tree.all_reduce_utilization;
        Some((
            chips.div_ceil(island),
            smallest_island,
            bytes / smallest_island as f64,
            wire,
        ))
    }

    /// The complete hierarchical all-reduce schedule of `bytes` over
    /// `chips` chips: intra-island reduce-scatter + all-gather (emitted
    /// as one intra all-reduce, bounded by the slower of the full and
    /// partial island — a 1×1×r ring is slower per byte than a 2×2×2
    /// cube) around an inter-island phase where every chip drives its own
    /// NIC and each step pays [`SwitchedFabric::inter_step_alpha`].
    ///
    /// The inter-island phase is where the spec's `ring`/`tree`/`auto`
    /// policy bites: the flat ring serializes `2(g−1)` alpha steps, the
    /// double binary tree `2⌈log₂g⌉` at a `g/(g−1)` bandwidth penalty,
    /// and `auto` picks per payload — at 1k+ islands the tree wins
    /// everything below hundreds of gigabytes, which is exactly the
    /// NCCL-style behavior the Figure 15 tail needs (DESIGN.md §10).
    pub fn all_reduce_schedule(&self, chips: u64, bytes: f64) -> CollectiveSchedule {
        if chips <= 1 {
            return CollectiveSchedule::empty();
        }
        let Some((_, smallest_island, _, _)) = self.inter_phase_terms(chips, bytes) else {
            return self.intra_all_reduce_schedule(chips as u32, bytes);
        };
        let intra_full = self.intra_all_reduce_schedule(self.island_chips, bytes);
        let intra_partial = self.intra_all_reduce_schedule(smallest_island as u32, bytes);
        let mut out = if intra_partial.time() > intra_full.time() {
            intra_partial
        } else {
            intra_full
        };
        let (_, inter) = self
            .inter_island_schedule(chips, bytes)
            .expect("inter_phase_terms above proved the inter phase exists"); // tpu-lint: allow(panic-policy) -- unreachable: inter_phase_terms above proved the inter phase exists
        out.extend(inter);
        out
    }

    /// The selected inter-island phase of an all-reduce of `bytes` over
    /// `chips` chips — the one place the ring/tree candidates are built
    /// and the policy applied, shared by the schedule builder and the
    /// algorithm query so they cannot drift. `None` when the collective
    /// never leaves one island.
    fn inter_island_schedule(
        &self,
        chips: u64,
        bytes: f64,
    ) -> Option<(ScheduleAlgorithm, CollectiveSchedule)> {
        let (groups, _, shard, wire) = self.inter_phase_terms(chips, bytes)?;
        let alpha = self.inter_step_alpha(chips);
        Some(schedule::select_with(
            self.selection,
            bytes,
            || schedule::ring_all_reduce(groups, shard, wire, alpha),
            || schedule::tree_all_reduce(groups, shard, wire, alpha),
        ))
    }

    /// Which algorithm the inter-island phase of an all-reduce of
    /// `bytes` over `chips` chips runs, or `None` when the collective
    /// never leaves one island.
    pub fn inter_island_algorithm(&self, chips: u64, bytes: f64) -> Option<ScheduleAlgorithm> {
        Some(self.inter_island_schedule(chips, bytes)?.0)
    }

    /// The all-reduce payload at which the inter-island ring and tree
    /// schedules cost the same for `chips` chips — the `auto` flip point
    /// (tree below, ring above). Returns 0 when the tree never wins:
    /// with few islands `⌈log₂g⌉ = g−1` saves no steps, and a collective
    /// confined to one island has no inter phase at all.
    ///
    /// Closed form from equating the two schedules: the shard crossover
    /// is `alpha · wire · g · (g − 1 − ⌈log₂g⌉)`, scaled back to the
    /// full payload by the partial-island shard rule of DESIGN.md §7.2.
    pub fn ring_tree_crossover_bytes(&self, chips: u64) -> f64 {
        let Some((groups, smallest_island, _, wire)) = self.inter_phase_terms(chips, 1.0) else {
            return 0.0;
        };
        let steps = f64::from(schedule::log2_ceil(groups));
        let margin = groups as f64 - 1.0 - steps;
        if margin <= 0.0 {
            return 0.0;
        }
        let alpha = self.inter_step_alpha(chips);
        alpha * wire * groups as f64 * margin * smallest_island as f64
    }

    /// Hierarchical all-reduce time of `bytes` over `chips` chips — the
    /// priced [`SwitchedFabric::all_reduce_schedule`].
    pub fn all_reduce_time(&self, chips: u64, bytes: f64) -> f64 {
        self.all_reduce_schedule(chips, bytes).time()
    }

    /// All-to-all time of the intra-island traffic (the `island - 1`
    /// local destinations), under the island's own wiring: the per-link
    /// load model on the island torus for [`IslandKind::Torus`] (so a
    /// slice confined to one island costs exactly what the identical
    /// OCS-torus wiring costs), full injection for crossbars.
    fn intra_all_to_all_time(&self, chips: u32, bytes_per_pair: f64) -> f64 {
        if chips <= 1 {
            return 0.0;
        }
        match self.island_kind {
            IslandKind::Torus => {
                let shape = island_shape(chips);
                torus_all_to_all_time(
                    AlphaBeta::new(self.island_alpha_s, self.island_rate),
                    shape,
                    &Torus::new(shape).into_graph(),
                    bytes_per_pair,
                )
            }
            IslandKind::Crossbar => {
                bytes_per_pair * (f64::from(chips) - 1.0) / self.island_injection()
                    + self.island_alpha_s
            }
        }
    }

    /// Uniform all-to-all time with `bytes_per_pair` between every
    /// ordered pair: the max of the intra-island bound (local peers at
    /// island bandwidth, torus-scheduled on ICI islands) and the
    /// NIC-injection bound on traffic leaving the island (the fat tree
    /// itself is full-bisection).
    ///
    /// The alpha term is the *pipeline depth* of the longest path (island
    /// diameter hops, or NIC + switch stages), not a per-destination
    /// cost: bulk all-to-all streams to all peers concurrently, and §8's
    /// tens of thousands of outstanding requests hide every latency
    /// except the first arrival's.
    pub fn all_to_all_time(&self, chips: u64, bytes_per_pair: f64) -> f64 {
        if chips <= 1 {
            return 0.0;
        }
        let island = u64::from(self.island_chips).min(chips);
        let remote_bytes = bytes_per_pair * (chips - island) as f64;
        let local = self.intra_all_to_all_time(island as u32, bytes_per_pair);
        if chips <= island {
            return local;
        }
        let remote = remote_bytes
            / (self.fat_tree.per_chip_injection() * self.fat_tree.all_to_all_utilization)
            + self.inter_step_alpha(chips);
        local.max(remote)
    }

    /// Switches needed for the inter-island fat tree over `chips`
    /// endpoints (delegates to [`FatTree::estimated_switches`]).
    pub fn estimated_switches(&self, chips: u64) -> u64 {
        self.fat_tree.estimated_switches(chips)
    }
}

/// All-to-all time over a torus chip graph of `shape` at per-link
/// `link`: the load model's completion time plus the shape diameter's
/// pipeline depth. Fractional per-pair payloads stay fractional (the
/// load model is linear): a sub-byte pair budget must not round to a
/// free collective while the crossbar/NIC branches charge for it.
fn torus_all_to_all_time(
    link: AlphaBeta,
    shape: SliceShape,
    graph: &LinkGraph,
    bytes_per_pair: f64,
) -> f64 {
    AllToAll::analyze_fractional(graph, bytes_per_pair, link.rate).completion_time()
        + f64::from(torus_diameter_hops(shape)) * link.alpha_s
}

/// The natural ICI island geometry for a handful of chips: the compact
/// power-of-two box (8 → 2×2×2), or a 1×1×n ring for any other count —
/// every count gets a torus of exactly `chips` chips, so island
/// collectives are never costed on a smaller geometry.
pub(crate) fn island_shape(chips: u32) -> SliceShape {
    let shape = match chips {
        1 => (1, 1, 1),
        2 => (1, 1, 2),
        4 => (1, 2, 2),
        8 => (2, 2, 2),
        _ if chips.is_power_of_two() => {
            let mut dims = [1u32; 3];
            let mut remaining = chips;
            let mut i = 0;
            while remaining > 1 {
                dims[i % 3] *= 2;
                remaining /= 2;
                i += 1;
            }
            (dims[0], dims[1], dims[2])
        }
        // A glueless daisy-chain ring of all chips.
        _ => (1, 1, chips),
    };
    SliceShape::new(shape.0, shape.1, shape.2).expect("nonzero dims") // tpu-lint: allow(panic-policy) -- unreachable: nonzero dims
}

/// The collective-performance backend a machine spec selects: the
/// analytic torus models for ICI machines, [`SwitchedFabric`] for
/// switched ones. This is the one code path behind
/// `Supercomputer::collective_time`, the workload interconnect models and
/// the `tpu-bench` §7 tables. A `Supercomputer` prices an OCS slice's
/// all-to-all on the slice's materialized wiring
/// ([`CollectiveBackend::all_to_all_time_on`]); everything else prices a
/// slice by its shape alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CollectiveBackend {
    /// An ICI torus at a per-link alpha-beta (OCS-stitched or statically
    /// cabled — steady-state collective cost is identical).
    Torus {
        /// Per-hop latency + per-link rate, one direction.
        link: AlphaBeta,
        /// The spec's `ring`/`tree`/`auto` policy (per-hop alpha makes
        /// `auto` resolve to the ring on tori; a forced tree is still
        /// expressible).
        selection: CollectiveSpec,
    },
    /// A switched island + fat-tree machine.
    Switched(SwitchedFabric),
}

impl CollectiveBackend {
    /// The backend a machine spec describes, at the spec's declared
    /// latency and schedule calibrations (DESIGN.md §7/§10 references
    /// when omitted).
    pub fn for_spec(spec: &MachineSpec) -> CollectiveBackend {
        match SwitchedFabric::for_spec(spec) {
            Some(fabric) => CollectiveBackend::Switched(fabric),
            None => CollectiveBackend::Torus {
                link: AlphaBeta::for_spec(spec),
                selection: spec.collective_schedule(),
            },
        }
    }

    /// This backend with every alpha zeroed: the pure-bandwidth
    /// (infinite-message) asymptote the pre-latency model computed.
    pub fn bandwidth_only(&self) -> CollectiveBackend {
        match self {
            CollectiveBackend::Torus { link, selection } => CollectiveBackend::Torus {
                link: AlphaBeta::new(0.0, link.rate),
                selection: *selection,
            },
            CollectiveBackend::Switched(fabric) => {
                CollectiveBackend::Switched(fabric.bandwidth_only())
            }
        }
    }

    /// Whether this is the switched (non-torus) backend.
    pub fn is_switched(&self) -> bool {
        matches!(self, CollectiveBackend::Switched(_))
    }

    /// The all-reduce schedule of `bytes` on a slice of `shape` under
    /// the backend's policy (the switched backend only uses the shape's
    /// chip count — a switched slice has no geometry). Every consumer
    /// prices this IR; [`CollectiveBackend::all_reduce_time`] is its
    /// [`CollectiveSchedule::time`].
    pub fn all_reduce_schedule(&self, shape: SliceShape, bytes: f64) -> CollectiveSchedule {
        match self {
            CollectiveBackend::Torus { link, selection } => {
                link.torus_all_reduce_schedule(shape, bytes, TorusPaths::MultiPath, *selection)
                    .1
            }
            CollectiveBackend::Switched(fabric) => {
                fabric.all_reduce_schedule(shape.volume(), bytes)
            }
        }
    }

    /// All-reduce time of `bytes` on a slice of `shape` — the priced
    /// [`CollectiveBackend::all_reduce_schedule`].
    pub fn all_reduce_time(&self, shape: SliceShape, bytes: f64) -> f64 {
        self.all_reduce_schedule(shape, bytes).time()
    }

    /// Uniform all-to-all time with `bytes_per_pair` between every
    /// ordered pair of chips in a slice of `shape`: on a torus,
    /// [`CollectiveBackend::all_to_all_time_on`] over the regular torus
    /// of `shape`. Fractional per-pair payloads are kept fractional on
    /// every branch (torus, crossbar and NIC).
    pub fn all_to_all_time(&self, shape: SliceShape, bytes_per_pair: f64) -> f64 {
        match self {
            CollectiveBackend::Torus { .. } => {
                self.all_to_all_time_on(shape, &Torus::new(shape).into_graph(), bytes_per_pair)
            }
            CollectiveBackend::Switched(fabric) => {
                fabric.all_to_all_time(shape.volume(), bytes_per_pair)
            }
        }
    }

    /// Uniform all-to-all time with `bytes_per_pair` between every
    /// ordered pair of a slice of `shape` wired as the chip graph
    /// `graph` — an OCS slice's materialized, possibly twisted, torus.
    /// On a torus: the per-link load model over `graph` plus the shape
    /// diameter's pipeline latency (a twist changes link loads, not the
    /// pipeline depth). A switched slice has no geometry: the switched
    /// backend prices `shape`'s chip count and ignores `graph`.
    pub fn all_to_all_time_on(
        &self,
        shape: SliceShape,
        graph: &LinkGraph,
        bytes_per_pair: f64,
    ) -> f64 {
        match self {
            CollectiveBackend::Torus { link, .. } => {
                torus_all_to_all_time(*link, shape, graph, bytes_per_pair)
            }
            CollectiveBackend::Switched(fabric) => {
                fabric.all_to_all_time(shape.volume(), bytes_per_pair)
            }
        }
    }

    /// The all-reduce payload at which latency and bandwidth terms are
    /// equal on a slice of `shape` — below it the collective is
    /// latency-bound, the regime where the switched and torus fabrics of
    /// §7.3 stop being distinguishable by bandwidth arithmetic.
    ///
    /// Found by bisection on `t(B) = 2 · t_bandwidth(B)`: with `auto`
    /// selection the schedule in force can change with the payload, so
    /// there is no single closed form, but `t(B)/B` is still strictly
    /// decreasing (each candidate is affine with a non-negative
    /// intercept and min/max preserve that), so the root is unique.
    pub fn all_reduce_crossover_bytes(&self, shape: SliceShape) -> f64 {
        let bandwidth = self.bandwidth_only();
        let per_byte = bandwidth.all_reduce_time(shape, 1.0);
        let alpha_floor = self.all_reduce_time(shape, 0.0);
        if per_byte <= 0.0 || alpha_floor <= 0.0 {
            return 0.0;
        }
        // Bracket the root of R(B) = t(B) − 2·per_byte·B (positive at 0,
        // eventually negative); the ring-only closed form alpha/per_byte
        // is within a small factor of it on every real machine.
        let mut lo = 0.0_f64;
        let mut hi = alpha_floor / per_byte;
        while self.all_reduce_time(shape, hi) > 2.0 * bandwidth.all_reduce_time(shape, hi) {
            hi *= 2.0;
        }
        for _ in 0..128 {
            let mid = 0.5 * (lo + hi);
            if self.all_reduce_time(shape, mid) > 2.0 * bandwidth.all_reduce_time(shape, mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }
}

/// Side-by-side collective comparison of two machine specs on the same
/// slice, through [`CollectiveBackend`] on both sides (the §7.2–§7.3
/// TPU-vs-switched tables).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendComparison {
    /// Slice shape compared.
    pub shape: (u32, u32, u32),
    /// Chip count.
    pub chips: u64,
    /// All-reduce slowdown of the alternative vs the baseline (>1 means
    /// the alternative is slower).
    pub all_reduce_slowdown: f64,
    /// All-to-all slowdown of the alternative vs the baseline.
    pub all_to_all_slowdown: f64,
}

impl BackendComparison {
    /// Compares `alternative` against `baseline` for an all-reduce of
    /// `ar_bytes` and an all-to-all of `a2a_bytes_per_pair` on a slice of
    /// `shape`.
    pub fn between(
        baseline: &MachineSpec,
        alternative: &MachineSpec,
        shape: SliceShape,
        ar_bytes: f64,
        a2a_bytes_per_pair: f64,
    ) -> BackendComparison {
        let base = CollectiveBackend::for_spec(baseline);
        let alt = CollectiveBackend::for_spec(alternative);
        BackendComparison {
            shape: (shape.x(), shape.y(), shape.z()),
            chips: shape.volume(),
            all_reduce_slowdown: alt.all_reduce_time(shape, ar_bytes)
                / base.all_reduce_time(shape, ar_bytes),
            all_to_all_slowdown: alt.all_to_all_time(shape, a2a_bytes_per_pair)
                / base.all_to_all_time(shape, a2a_bytes_per_pair),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_spec::LatencySpec;

    /// The §7.3 reference: 8-chip ICI islands (2×2×2 tori of TPU v4
    /// links) over an HDR fat tree. Equals
    /// `for_spec(&MachineSpec::v4_ib_hybrid())`.
    fn v4_ib_reference() -> SwitchedFabric {
        let latency = LatencySpec::reference();
        SwitchedFabric {
            island_chips: 8,
            island_kind: IslandKind::Torus,
            island_rate: LinkRate::TPU_V4_ICI,
            island_links: 6,
            fat_tree: FatTree::hdr_reference(),
            island_alpha_s: latency.ici_hop_s,
            nic_alpha_s: latency.nic_s,
            switch_alpha_s: latency.switch_hop_s,
            selection: CollectiveSpec::reference(),
        }
    }

    /// The Table 5 A100 cluster: 4-GPU NVLink hosts (12 × 25 GB/s links
    /// through NVSwitch) over an HDR fat tree. Equals
    /// `for_spec(&MachineSpec::a100())`.
    fn nvlink_a100() -> SwitchedFabric {
        let latency = LatencySpec::reference();
        SwitchedFabric {
            island_chips: 4,
            island_kind: IslandKind::Crossbar,
            island_rate: LinkRate::from_bytes_per_s(25e9),
            island_links: 12,
            fat_tree: FatTree::hdr_reference(),
            island_alpha_s: latency.ici_hop_s,
            nic_alpha_s: latency.nic_s,
            switch_alpha_s: latency.switch_hop_s,
            selection: CollectiveSpec::reference(),
        }
    }

    fn shape(x: u32, y: u32, z: u32) -> SliceShape {
        SliceShape::new(x, y, z).unwrap()
    }

    #[test]
    fn for_spec_keys_off_the_fabric_discriminator() {
        assert!(SwitchedFabric::for_spec(&MachineSpec::v4()).is_none());
        assert!(SwitchedFabric::for_spec(&MachineSpec::v3()).is_none());
        assert!(SwitchedFabric::for_spec(&MachineSpec::v3_ocs()).is_none());
        assert_eq!(
            SwitchedFabric::for_spec(&MachineSpec::a100()),
            Some(nvlink_a100())
        );
        assert_eq!(
            SwitchedFabric::for_spec(&MachineSpec::v4_ib_hybrid()),
            Some(v4_ib_reference())
        );
    }

    #[test]
    fn island_kinds_follow_processor_style() {
        let a100 = SwitchedFabric::for_spec(&MachineSpec::a100()).unwrap();
        assert_eq!(a100.island_kind, IslandKind::Crossbar);
        let ipu = SwitchedFabric::for_spec(&MachineSpec::ipu_bow()).unwrap();
        assert_eq!(ipu.island_kind, IslandKind::Crossbar);
        let ib = SwitchedFabric::for_spec(&MachineSpec::v4_ib_hybrid()).unwrap();
        assert_eq!(ib.island_kind, IslandKind::Torus);
    }

    #[test]
    fn degenerate_sizes_are_free() {
        for fabric in [v4_ib_reference(), nvlink_a100()] {
            assert_eq!(fabric.all_reduce_time(1, 1e9), 0.0);
            assert_eq!(fabric.all_to_all_time(1, 1e9), 0.0);
            assert_eq!(fabric.all_reduce_time(0, 1e9), 0.0);
        }
        // One §7.3 island uses no IB, but its ICI torus still costs time.
        assert!(v4_ib_reference().all_reduce_time(8, 1e9) > 0.0);
    }

    #[test]
    fn all_reduce_is_monotone_in_chips_and_bytes() {
        let ib = v4_ib_reference();
        assert!(ib.all_reduce_time(4096, 1e9) >= ib.all_reduce_time(512, 1e9));
        let f = nvlink_a100();
        let t512 = f.all_reduce_time(512, 1e9);
        let t4096 = f.all_reduce_time(4096, 1e9);
        assert!(t512 > 0.0);
        assert!(t4096 >= t512);
        // Bytes scale the bandwidth term exactly; the alpha floor makes
        // the full doubling only approximate (within 1% at 1 GB).
        let t2x = f.all_reduce_time(512, 2e9);
        assert!((t2x / t512 - 2.0).abs() < 0.02);
        let bw = f.bandwidth_only();
        assert!((bw.all_reduce_time(512, 2e9) / bw.all_reduce_time(512, 1e9) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn nvlink_island_is_fast_but_nic_dominates_at_scale() {
        let f = nvlink_a100();
        // Intra-island all-reduce runs at the 300 GB/s NVLink injection,
        // plus 2(n-1) ring steps of one switch hop each.
        let intra = f.all_reduce_time(4, 1e9);
        let expect = 2.0 * 0.75 * 1e9 / 300e9 + 6.0 * f.island_alpha_s;
        assert!((intra - expect).abs() < 1e-12, "{intra} vs {expect}");
        // At 512 chips the 25 GB/s NIC ring dominates the island term.
        let full = f.all_reduce_time(512, 1e9);
        assert!(full > 3.0 * intra);
    }

    #[test]
    fn all_to_all_nic_bound_at_scale() {
        let f = nvlink_a100();
        // 512 chips: 508 remote destinations of 4 KiB over a 0.8-utilized
        // 25 GB/s NIC, one NIC + 5-stage Clos crossing deep in latency.
        let t = f.all_to_all_time(512, 4096.0);
        let expect = 4096.0 * 508.0 / (25e9 * 0.8) + f.inter_step_alpha(512);
        assert!((t - expect).abs() / expect < 1e-12, "{t} vs {expect}");
        // Confined to one island: NVLink-bound instead, one switch hop.
        let intra = f.all_to_all_time(4, 4096.0);
        let expect = 4096.0 * 3.0 / 300e9 + f.island_alpha_s;
        assert!((intra - expect).abs() < 1e-15);
    }

    #[test]
    fn torus_island_all_to_all_matches_torus_baseline() {
        // A slice confined to one 2x2x2 ICI island is physically the
        // same wiring as the OCS-torus slice of that shape — the models
        // (both latency-aware) must agree.
        let f = v4_ib_reference();
        let s = shape(2, 2, 2);
        let baseline = CollectiveBackend::for_spec(&MachineSpec::v4()).all_to_all_time(s, 4096.0);
        let switched = f.all_to_all_time(8, 4096.0);
        assert!(
            (switched - baseline).abs() < 1e-15,
            "{switched} vs {baseline}"
        );
    }

    #[test]
    fn backend_dispatch_matches_direct_models() {
        let s = shape(8, 8, 8);
        let torus = CollectiveBackend::for_spec(&MachineSpec::v4());
        assert!(!torus.is_switched());
        let direct = AlphaBeta::for_spec(&MachineSpec::v4())
            .torus_ring_schedule(s, 1e9, TorusPaths::MultiPath)
            .time();
        assert_eq!(torus.all_reduce_time(s, 1e9), direct);

        let switched = CollectiveBackend::for_spec(&MachineSpec::a100());
        assert!(switched.is_switched());
        assert_eq!(
            switched.all_reduce_time(s, 1e9),
            nvlink_a100().all_reduce_time(512, 1e9)
        );
    }

    #[test]
    fn partial_island_carries_the_right_shard() {
        // Regression: 10 chips on 8-chip islands used to be costed as if
        // both islands were full (shard = bytes/8). The 2-chip partial
        // island's chips each have to push bytes/2 through their NICs.
        let f = v4_ib_reference();
        let bytes = 1e9;
        let inj = f.fat_tree.per_chip_injection() * f.fat_tree.all_reduce_utilization;

        // Crossing the island boundary can never get cheaper.
        assert!(f.all_reduce_time(9, bytes) >= f.all_reduce_time(8, bytes));
        // 9 chips = one full island + a 1-chip island that moves the
        // whole payload through a single NIC: the inter term is the full
        // 2(g-1)/g · bytes / injection, far above the full-shard model.
        let t9 = f.all_reduce_time(9, bytes);
        let inter_right_shard = 2.0 * 0.5 * bytes / inj;
        assert!(
            t9 >= f.all_reduce_time(8, bytes) + 0.99 * inter_right_shard,
            "t9 = {t9}"
        );
        // Two full islands share the load properly again — so 16 chips
        // all-reduce *faster* than the pathological 9-chip split.
        assert!(f.all_reduce_time(16, bytes) < t9);
        // And divisible fleets are unchanged by the fix: shard = bytes/8.
        let t16 = f.bandwidth_only().all_reduce_time(16, bytes);
        let intra = f.bandwidth_only().all_reduce_time(8, bytes);
        let expect = intra + 2.0 * 0.5 * (bytes / 8.0) / inj;
        assert!((t16 - expect).abs() / expect < 1e-12, "{t16} vs {expect}");
    }

    #[test]
    fn fractional_all_to_all_payloads_are_not_free() {
        // Regression: the torus branches rounded bytes_per_pair to u64,
        // so sub-byte per-pair budgets cost 0 on tori while the
        // crossbar/NIC branches charged for them.
        let ib = CollectiveBackend::for_spec(&MachineSpec::v4_ib_hybrid()).bandwidth_only();
        let torus = CollectiveBackend::for_spec(&MachineSpec::v4()).bandwidth_only();
        let s = shape(2, 2, 2);
        for backend in [&torus, &ib] {
            let t_half = backend.all_to_all_time(s, 0.4);
            assert!(t_half > 0.0, "0.4 B/pair must not round to free");
            // The load model is linear in the payload.
            let t_full = backend.all_to_all_time(s, 0.8);
            assert!((t_full / t_half - 2.0).abs() < 1e-9);
        }
        // Both island branches agree with each other on the same wiring.
        assert_eq!(ib.all_to_all_time(s, 0.4), torus.all_to_all_time(s, 0.4));
    }

    #[test]
    fn crossover_payloads_sit_between_regimes() {
        for spec in [MachineSpec::a100(), MachineSpec::v4_ib_hybrid()] {
            let backend = CollectiveBackend::for_spec(&spec);
            let s = shape(8, 8, 8);
            let crossover = backend.all_reduce_crossover_bytes(s);
            assert!(crossover > 0.0, "{}", spec.generation);
            // At the crossover, latency and bandwidth terms are equal.
            let total = backend.all_reduce_time(s, crossover);
            let bw = backend.bandwidth_only().all_reduce_time(s, crossover);
            assert!((total / bw - 2.0).abs() < 1e-9, "{}", total / bw);
        }
    }

    #[test]
    fn v4_ib_comparison_lands_in_paper_bands() {
        // §7.3: all-reduce 1.8x–2.4x slower, all-to-all 1.2x–2.4x slower,
        // depending on the slice size. Every shape stays inside a wider
        // band, and each slowdown is pinned to 1%. All-reduce lands in
        // the band on every shape; all-to-all does not on 8x8x16
        // (1.137x) and 8x16x16 (1.178x), below the paper's 1.2x.
        let v4 = MachineSpec::v4();
        let ib = MachineSpec::v4_ib_hybrid();
        let mut ar = Vec::new();
        let mut a2a = Vec::new();
        for (s, pinned) in [
            (shape(4, 4, 8), (2.294, 1.367)),
            (shape(8, 8, 8), (2.359, 1.930)),
            (shape(8, 8, 16), (2.360, 1.137)),
            (shape(8, 16, 16), (2.353, 1.178)),
            (shape(16, 16, 16), (2.347, 1.206)),
        ] {
            let cmp = BackendComparison::between(&v4, &ib, s, 1e9, 4096.0);
            let (r, a) = (cmp.all_reduce_slowdown, cmp.all_to_all_slowdown);
            assert!(r > 1.4 && r < 3.0, "{s:?}: all-reduce {r}");
            assert!(a > 1.0 && a < 3.2, "{s:?}: all-to-all {a}");
            assert!((r / pinned.0 - 1.0).abs() <= 0.01, "{s:?}: all-reduce {r}");
            assert!((a / pinned.1 - 1.0).abs() <= 0.01, "{s:?}: all-to-all {a}");
            ar.push(r);
            a2a.push(a);
        }
        // Some shape from 8x8x8 to 8x16x16 lands in the published
        // all-reduce band, and 8x8x8 or 8x8x16 in the all-to-all one.
        assert!(ar[1..4].iter().any(|&s| (1.8..=2.4).contains(&s)), "{ar:?}");
        assert!(
            a2a[1..3].iter().any(|&s| (1.2..=2.4).contains(&s)),
            "{a2a:?}"
        );
    }

    #[test]
    fn a100_cluster_answers_collectives_end_to_end() {
        let backend = CollectiveBackend::for_spec(&MachineSpec::a100());
        let s = shape(8, 8, 8);
        let ar = backend.all_reduce_time(s, 1e9);
        let a2a = backend.all_to_all_time(s, 4096.0);
        assert!(ar > 0.0 && ar.is_finite());
        assert!(a2a > 0.0 && a2a.is_finite());
        // The switched A100 fabric is slower than the OCS torus on both.
        let torus = CollectiveBackend::for_spec(&MachineSpec::v4());
        assert!(ar > torus.all_reduce_time(s, 1e9));
        assert!(a2a > torus.all_to_all_time(s, 4096.0));
    }

    #[test]
    fn auto_selection_switches_ring_to_tree_at_scale() {
        use tpu_spec::SchedulePolicy;

        // 4096 A100s = 1024 islands: the flat ring's 2(g−1) NIC alphas
        // are ~1.8 ms, the double binary tree's 2·log2(g) are ~18 µs, at
        // a bandwidth penalty of g/(g−1) ≈ 0.1%. Auto must pick the tree
        // for any realistic payload at this scale...
        let f = nvlink_a100();
        assert_eq!(
            f.inter_island_algorithm(4096, 680e6),
            Some(ScheduleAlgorithm::Tree)
        );
        // ...and stick with the ring at few islands and bulk payloads
        // (two islands: the tree saves no steps at a bandwidth cost).
        assert_eq!(
            f.inter_island_algorithm(8, 1e9),
            Some(ScheduleAlgorithm::Ring)
        );
        assert_eq!(f.inter_island_algorithm(4, 1e9), None);

        // The auto time is never worse than either forced policy.
        for chips in [16u64, 512, 4096] {
            for bytes in [1e4, 1e6, 1e9] {
                let mut ring = f;
                ring.selection = CollectiveSpec {
                    schedule: SchedulePolicy::Ring,
                    ..CollectiveSpec::reference()
                };
                let mut tree = f;
                tree.selection = CollectiveSpec {
                    schedule: SchedulePolicy::Tree,
                    ..CollectiveSpec::reference()
                };
                let auto = f.all_reduce_time(chips, bytes);
                let best = ring
                    .all_reduce_time(chips, bytes)
                    .min(tree.all_reduce_time(chips, bytes));
                assert!(
                    (auto - best).abs() <= 1e-12 * best.max(1e-30),
                    "{chips} chips, {bytes} B: auto {auto} vs best {best}"
                );
            }
        }
    }

    #[test]
    fn ring_tree_crossover_surface_grows_with_island_count() {
        // The analytic flip point alpha·wire·g·(g−1−log2 g)·island: a
        // quadratically growing payload window where the tree wins —
        // the "crossover surface" repro -- schedule_crossover prints.
        let f = nvlink_a100();
        assert_eq!(f.ring_tree_crossover_bytes(4), 0.0); // one island
        assert_eq!(f.ring_tree_crossover_bytes(8), 0.0); // g=2: no step saving
        let c64 = f.ring_tree_crossover_bytes(64); // 16 islands
        let c512 = f.ring_tree_crossover_bytes(512); // 128 islands
        let c4096 = f.ring_tree_crossover_bytes(4096); // 1024 islands
        assert!(c64 > 0.0);
        assert!(c512 > 10.0 * c64, "{c512} vs {c64}");
        assert!(c4096 > 10.0 * c512, "{c4096} vs {c512}");

        // The closed form and the selection agree on both sides of the
        // flip (1% margin keeps the check off the knife edge).
        for chips in [64u64, 512, 4096] {
            let crossover = f.ring_tree_crossover_bytes(chips);
            assert_eq!(
                f.inter_island_algorithm(chips, crossover * 0.99),
                Some(ScheduleAlgorithm::Tree),
                "{chips}"
            );
            assert_eq!(
                f.inter_island_algorithm(chips, crossover * 1.01),
                Some(ScheduleAlgorithm::Ring),
                "{chips}"
            );
        }
    }

    #[test]
    fn forced_tree_spec_drives_the_backend() {
        use tpu_spec::SchedulePolicy;

        // A spec whose collective block forces the tree changes the
        // backend; the crossover override flips auto by payload alone.
        let mut spec = MachineSpec::a100();
        spec.collective = Some(CollectiveSpec {
            schedule: SchedulePolicy::Tree,
            ..CollectiveSpec::reference()
        });
        let CollectiveBackend::Switched(forced) = CollectiveBackend::for_spec(&spec) else {
            panic!("a100 is switched");
        };
        assert_eq!(
            forced.inter_island_algorithm(16, 1e12),
            Some(ScheduleAlgorithm::Tree)
        );

        let mut spec = MachineSpec::a100();
        spec.collective = Some(CollectiveSpec {
            schedule: SchedulePolicy::Auto,
            crossover_bytes: Some(1e9),
        });
        let CollectiveBackend::Switched(overridden) = CollectiveBackend::for_spec(&spec) else {
            panic!("a100 is switched");
        };
        assert_eq!(
            overridden.inter_island_algorithm(8, 0.5e9),
            Some(ScheduleAlgorithm::Tree)
        );
        assert_eq!(
            overridden.inter_island_algorithm(8, 2e9),
            Some(ScheduleAlgorithm::Ring)
        );
    }

    #[test]
    fn schedules_price_identically_to_times() {
        // The IR is the single costing path: schedule().time() IS the
        // time, on both arms, and its alpha/bandwidth decomposition is
        // exact.
        let s = shape(8, 8, 8);
        for spec in [MachineSpec::v4(), MachineSpec::a100()] {
            let backend = CollectiveBackend::for_spec(&spec);
            let schedule = backend.all_reduce_schedule(s, 1e9);
            assert_eq!(schedule.time(), backend.all_reduce_time(s, 1e9));
            assert!(
                (schedule.alpha_seconds() + schedule.bandwidth_seconds() - schedule.time()).abs()
                    < 1e-15
            );
            assert!(!schedule.phases().is_empty());
        }
    }

    #[test]
    fn h100_islands_span_hosts_and_keep_collectives_fast() {
        // The §6.1 island-inference case where the NVLink-switch domain
        // beats the host boundary: 64-GPU islands over 8-GPU hosts.
        let h100 = SwitchedFabric::for_spec(&MachineSpec::h100()).unwrap();
        assert_eq!(h100.island_chips, 64);
        assert_eq!(h100.island_kind, IslandKind::Crossbar);
        assert_eq!(h100.island_injection(), 18.0 * 25e9);
        // Bigger islands shard the NIC phase 16x finer than the A100's
        // 4-GPU hosts: at 4096 chips the H100 all-reduce is faster.
        let a100 = nvlink_a100();
        assert!(h100.all_reduce_time(4096, 1e9) < a100.all_reduce_time(4096, 1e9));
    }

    #[test]
    fn island_shapes() {
        assert_eq!(island_shape(8).volume(), 8);
        assert_eq!(island_shape(4).volume(), 4);
        assert_eq!(island_shape(2).volume(), 2);
        assert_eq!(island_shape(1).volume(), 1);
        // Powers of two become compact boxes; anything else a ring —
        // every count keeps its exact volume.
        assert_eq!(island_shape(16).volume(), 16);
        assert_eq!(island_shape(32).volume(), 32);
        assert_eq!(island_shape(12).volume(), 12);
        assert_eq!(island_shape(6).volume(), 6);
        assert_eq!(island_shape(27).volume(), 27);
    }

    #[test]
    fn non_power_of_two_island_collectives_are_not_undercosted() {
        // A 6-chip torus-island all-reduce must cost strictly more than
        // a 4-chip one (the old rounding made them equal).
        let f = v4_ib_reference();
        assert!(f.all_reduce_time(6, 1e9) > f.all_reduce_time(4, 1e9));
    }
}
