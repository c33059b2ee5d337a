//! The collective-schedule IR: every collective cost in `tpu_net` is a
//! [`CollectiveSchedule`] — a sequence of phases, each with a step
//! count, a per-step alpha and per-step bytes-on-wire — emitted by the
//! ring, double-binary-tree and reduce-scatter/all-gather builders here
//! and *costed* (never re-derived) by the consumers: the torus models,
//! the switched backend, `Supercomputer::collective_time` and the
//! Figure 15 tail derivation.
//!
//! The IR exists so the *choice* of schedule is a first-class, per-spec
//! decision instead of a formula baked into each backend: real
//! NCCL-class stacks switch from rings to trees as participant count
//! grows and payload shrinks, and modeling that selection is what the
//! large-scale tail of Figure 15 turns on (§7.9). [`select_with`] implements
//! the crossover-aware `ring`/`tree`/`auto` policy of
//! `tpu_spec::CollectiveSpec` (calibration notes: DESIGN.md §10).

use crate::units::LinkRate;
use tpu_spec::{CollectiveSpec, SchedulePolicy};
use tpu_topology::SliceShape;

/// Which algorithm family a concrete schedule implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleAlgorithm {
    /// Flat ring: `2(p−1)` serialized steps, bandwidth-optimal.
    Ring,
    /// Double binary tree: `2⌈log₂p⌉` serialized steps, a `p/(p−1)`
    /// bandwidth penalty (each phase moves the full payload once).
    Tree,
}

impl ScheduleAlgorithm {
    /// Human-readable label (`"ring"` / `"tree"`).
    pub fn label(self) -> &'static str {
        match self {
            ScheduleAlgorithm::Ring => "ring",
            ScheduleAlgorithm::Tree => "tree",
        }
    }
}

/// How a torus all-reduce drives its dimension rings — the axis the old
/// two-variant `AllReduceSchedule` enum hard-coded, now a builder input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TorusPaths {
    /// One dimension's links busy at a time (reduce-scatter x, y, z then
    /// all-gather z, y, x).
    Sequential,
    /// Payload split across the dimension orderings so every dimension's
    /// links run concurrently (the "optimized all-reduce" of §7.3). Only
    /// the bandwidth term divides — each ordering still serializes every
    /// dimension's alpha steps.
    MultiPath,
}

/// One phase of a collective schedule: `steps` serialized steps, each
/// paying `alpha_s` of fixed latency and moving `step_bytes` over a wire
/// of `wire_bytes_per_s` (the phase's bottleneck: a link direction pair,
/// an island's injection, a NIC).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulePhase {
    /// What the phase does (diagnostic; printed by `schedule_crossover`).
    pub label: &'static str,
    /// Serialized steps on the critical path.
    pub steps: u64,
    /// Fixed latency per step, seconds.
    pub alpha_s: f64,
    /// Bytes on the bottleneck wire per step.
    pub step_bytes: f64,
    /// Bottleneck wire rate, bytes per second.
    pub wire_bytes_per_s: f64,
}

impl SchedulePhase {
    /// The phase's fixed-latency seconds (`steps × alpha`).
    pub fn alpha_seconds(&self) -> f64 {
        self.steps as f64 * self.alpha_s
    }

    /// The phase's bandwidth seconds (`steps × step_bytes / wire`).
    pub fn bandwidth_seconds(&self) -> f64 {
        if self.steps == 0 || self.step_bytes == 0.0 {
            return 0.0;
        }
        self.steps as f64 * self.step_bytes / self.wire_bytes_per_s
    }

    /// Total seconds of the phase.
    pub fn seconds(&self) -> f64 {
        self.alpha_seconds() + self.bandwidth_seconds()
    }

    /// Total bytes the phase puts on its wire.
    pub fn bytes_on_wire(&self) -> f64 {
        self.steps as f64 * self.step_bytes
    }
}

/// A complete collective schedule: phases run back to back, so the cost
/// is the sum of phase costs — concurrency (multi-path tori, parallel
/// rings) is expressed in the phases' `step_bytes`/`wire`, never by a
/// consumer-side divide.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CollectiveSchedule {
    phases: Vec<SchedulePhase>,
}

impl CollectiveSchedule {
    /// The empty (zero-cost) schedule — what degenerate collectives
    /// (single member) emit.
    pub fn empty() -> CollectiveSchedule {
        CollectiveSchedule::default()
    }

    /// Appends a phase.
    pub fn push(&mut self, phase: SchedulePhase) {
        self.phases.push(phase);
    }

    /// Appends every phase of `other`.
    pub fn extend(&mut self, other: CollectiveSchedule) {
        self.phases.extend(other.phases);
    }

    /// The phases, in execution order.
    pub fn phases(&self) -> &[SchedulePhase] {
        &self.phases
    }

    /// Total time, seconds: the quantity every consumer prices.
    pub fn time(&self) -> f64 {
        self.phases.iter().map(SchedulePhase::seconds).sum()
    }

    /// Fixed-latency seconds across all phases.
    pub fn alpha_seconds(&self) -> f64 {
        self.phases.iter().map(SchedulePhase::alpha_seconds).sum()
    }

    /// Bandwidth seconds across all phases.
    pub fn bandwidth_seconds(&self) -> f64 {
        self.phases
            .iter()
            .map(SchedulePhase::bandwidth_seconds)
            .sum()
    }

    /// Total bytes on the wire across all phases.
    pub fn bytes_on_wire(&self) -> f64 {
        self.phases.iter().map(SchedulePhase::bytes_on_wire).sum()
    }

    /// This schedule with every alpha zeroed — the pure-bandwidth
    /// (infinite-message) asymptote.
    pub fn bandwidth_only(&self) -> CollectiveSchedule {
        CollectiveSchedule {
            phases: self
                .phases
                .iter()
                .map(|p| SchedulePhase { alpha_s: 0.0, ..*p })
                .collect(),
        }
    }
}

/// Ceil of log₂ — serialized steps of one binary-tree pass over `p`.
/// Shared with the switched backend's closed-form crossover so the
/// tree-depth definition cannot diverge from the builder's.
pub(crate) fn log2_ceil(p: u64) -> u32 {
    if p <= 1 {
        0
    } else {
        u64::BITS - (p - 1).leading_zeros()
    }
}

/// Ring reduce-scatter of `bytes` over `p` members: `p−1` steps, each
/// moving the `bytes/p` shard over `wire` (the per-member bottleneck —
/// both link directions and any parallel rings are folded into it).
pub fn reduce_scatter_phase(p: u64, bytes: f64, wire: f64, alpha_s: f64) -> SchedulePhase {
    SchedulePhase {
        label: "reduce-scatter",
        steps: if p < 2 { 0 } else { p - 1 },
        alpha_s,
        step_bytes: if p < 2 { 0.0 } else { bytes / p as f64 },
        wire_bytes_per_s: wire,
    }
}

/// Ring all-gather of `bytes` over `p` members — the mirror of
/// [`reduce_scatter_phase`].
pub fn all_gather_phase(p: u64, bytes: f64, wire: f64, alpha_s: f64) -> SchedulePhase {
    SchedulePhase {
        label: "all-gather",
        ..reduce_scatter_phase(p, bytes, wire, alpha_s)
    }
}

/// The flat ring all-reduce of `bytes` over `p` members: reduce-scatter
/// then all-gather, `2(p−1)` steps total, `2(p−1)/p · bytes / wire` of
/// bandwidth time — the bandwidth-optimal schedule.
pub fn ring_all_reduce(p: u64, bytes: f64, wire: f64, alpha_s: f64) -> CollectiveSchedule {
    let mut schedule = CollectiveSchedule::empty();
    if p < 2 {
        return schedule;
    }
    schedule.push(reduce_scatter_phase(p, bytes, wire, alpha_s));
    schedule.push(all_gather_phase(p, bytes, wire, alpha_s));
    schedule
}

/// The double-binary-tree all-reduce of `bytes` over `p` members:
/// a reduce pass and a broadcast pass of `⌈log₂p⌉` steps each, each pass
/// moving the full payload once over `wire` (the two complementary trees
/// split the payload, but every member's wire still carries all of it) —
/// so the bandwidth term is `2 · bytes / wire`, a `p/(p−1)` penalty over
/// the ring, bought down from `2(p−1)` to `2⌈log₂p⌉` alpha steps.
pub fn tree_all_reduce(p: u64, bytes: f64, wire: f64, alpha_s: f64) -> CollectiveSchedule {
    let mut schedule = CollectiveSchedule::empty();
    if p < 2 {
        return schedule;
    }
    let steps = u64::from(log2_ceil(p));
    for label in ["tree-reduce", "tree-broadcast"] {
        schedule.push(SchedulePhase {
            label,
            steps,
            alpha_s,
            step_bytes: bytes / steps as f64,
            wire_bytes_per_s: wire,
        });
    }
    schedule
}

/// Builds the all-reduce schedule of `bytes` on a torus of `shape` at
/// per-link `rate` and per-hop `alpha_s`: one reduce-scatter + all-gather
/// (or tree) pass per non-degenerate dimension, the payload shrinking by
/// each dimension's extent as it is scattered.
///
/// `paths` controls link concurrency: [`TorusPaths::MultiPath`] splits
/// the payload across the dimension orderings (bandwidth ÷ active
/// dimensions; the alpha steps stay serialized — every ordering still
/// traverses every dimension). Wraparound links give each ring both
/// directions (`wire = 2 × rate`); a mesh, without them, gets half.
///
/// A [`ScheduleAlgorithm::Tree`] torus schedule pays the same total
/// per-hop alpha as the ring (halving-doubling partners sit `2ⁱ` hops
/// apart, and alpha here is per *hop*) at a worse bandwidth term — which
/// is exactly why tori run rings and `auto` never picks the tree on this
/// arm (DESIGN.md §10): the crossover that matters is on switched
/// fabrics, where alpha is per *message*.
pub fn torus_all_reduce(
    shape: SliceShape,
    bytes: f64,
    rate: LinkRate,
    alpha_s: f64,
    paths: TorusPaths,
    algorithm: ScheduleAlgorithm,
) -> CollectiveSchedule {
    torus_passes(
        shape,
        bytes,
        2.0 * rate.bytes_per_s(),
        alpha_s,
        paths,
        algorithm,
    )
}

fn torus_passes(
    shape: SliceShape,
    bytes: f64,
    wire: f64,
    alpha_s: f64,
    paths: TorusPaths,
    algorithm: ScheduleAlgorithm,
) -> CollectiveSchedule {
    let extents = [shape.x(), shape.y(), shape.z()];
    let active = extents.iter().filter(|&&k| k > 1).count() as f64;
    let split = match paths {
        TorusPaths::Sequential => 1.0,
        TorusPaths::MultiPath => active.max(1.0),
    };
    let mut schedule = CollectiveSchedule::empty();
    let mut volume = bytes;
    for &k in extents.iter().filter(|&&k| k > 1) {
        let p = u64::from(k);
        match algorithm {
            ScheduleAlgorithm::Ring => {
                schedule.extend(ring_all_reduce(p, volume / split, wire, alpha_s));
            }
            ScheduleAlgorithm::Tree => {
                // Per-hop alpha: a tree pass still crosses k−1 hops of
                // the physical ring, spread over ⌈log₂k⌉ steps.
                let steps = log2_ceil(p);
                let hop_alpha = f64::from(k - 1) / f64::from(steps) * alpha_s;
                schedule.extend(tree_all_reduce(p, volume / split, wire, hop_alpha));
            }
        }
        volume /= f64::from(k);
    }
    schedule
}

/// Applies a spec's `ring`/`tree`/`auto` policy to a (ring, tree)
/// schedule pair for an all-reduce of `payload_bytes`, returning the
/// chosen algorithm and its schedule. Candidates are built lazily: a
/// forced policy (or an `auto` crossover override) never constructs the
/// losing schedule.
///
/// `Auto` without a crossover override picks whichever schedule is
/// faster (ties go to the ring — it is bandwidth-optimal); with an
/// override it picks the tree exactly when the payload is below the
/// declared crossover, the way production stacks expose a tunable
/// `NCCL_ALGO`-style threshold.
pub fn select_with(
    selection: CollectiveSpec,
    payload_bytes: f64,
    ring: impl FnOnce() -> CollectiveSchedule,
    tree: impl FnOnce() -> CollectiveSchedule,
) -> (ScheduleAlgorithm, CollectiveSchedule) {
    match selection.schedule {
        SchedulePolicy::Ring => (ScheduleAlgorithm::Ring, ring()),
        SchedulePolicy::Tree => (ScheduleAlgorithm::Tree, tree()),
        SchedulePolicy::Auto => match selection.crossover_bytes {
            Some(crossover) if payload_bytes < crossover => (ScheduleAlgorithm::Tree, tree()),
            Some(_) => (ScheduleAlgorithm::Ring, ring()),
            None => {
                let ring = ring();
                let tree = tree();
                if tree.time() < ring.time() {
                    (ScheduleAlgorithm::Tree, tree)
                } else {
                    (ScheduleAlgorithm::Ring, ring)
                }
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WIRE: f64 = 100e9;
    const ALPHA: f64 = 1e-6;

    /// Serialized steps across all phases.
    fn total_steps(s: &CollectiveSchedule) -> u64 {
        s.phases.iter().map(|p| p.steps).sum()
    }

    #[test]
    fn empty_schedule_is_free() {
        let s = CollectiveSchedule::empty();
        assert_eq!(s.time(), 0.0);
        assert_eq!(total_steps(&s), 0);
        assert_eq!(ring_all_reduce(1, 1e9, WIRE, ALPHA).time(), 0.0);
        assert_eq!(tree_all_reduce(1, 1e9, WIRE, ALPHA).time(), 0.0);
        let single = SliceShape::new(1, 1, 1).unwrap();
        let rate = LinkRate::from_bytes_per_s(50e9);
        for paths in [TorusPaths::Sequential, TorusPaths::MultiPath] {
            let torus = torus_all_reduce(single, 1e9, rate, ALPHA, paths, ScheduleAlgorithm::Ring);
            assert_eq!(torus.time(), 0.0);
        }
    }

    #[test]
    fn ring_matches_the_closed_form() {
        let p = 64u64;
        let bytes = 1e9;
        let s = ring_all_reduce(p, bytes, WIRE, ALPHA);
        let expect_alpha = 2.0 * 63.0 * ALPHA;
        let expect_bw = 2.0 * 63.0 / 64.0 * bytes / WIRE;
        assert!((s.alpha_seconds() - expect_alpha).abs() < 1e-15);
        assert!((s.bandwidth_seconds() - expect_bw).abs() / expect_bw < 1e-12);
        assert_eq!(total_steps(&s), 126);
        // Decomposition is exact: time = alpha + bandwidth.
        assert_eq!(s.time(), s.alpha_seconds() + s.bandwidth_seconds());
    }

    #[test]
    fn tree_trades_bandwidth_for_alpha_steps() {
        let p = 1024u64;
        let bytes = 1e9;
        let ring = ring_all_reduce(p, bytes, WIRE, ALPHA);
        let tree = tree_all_reduce(p, bytes, WIRE, ALPHA);
        // 2·log2(1024) = 20 steps vs 2·1023.
        assert_eq!(total_steps(&tree), 20);
        assert_eq!(total_steps(&ring), 2046);
        // Bandwidth penalty is exactly p/(p−1).
        let penalty = tree.bandwidth_seconds() / ring.bandwidth_seconds();
        assert!((penalty - 1024.0 / 1023.0).abs() < 1e-12, "{penalty}");
        // At this scale the alpha saving dwarfs the bandwidth penalty
        // for small payloads...
        let ring_small = ring_all_reduce(p, 1e5, WIRE, ALPHA);
        let tree_small = tree_all_reduce(p, 1e5, WIRE, ALPHA);
        assert!(tree_small.time() < ring_small.time());
        // ...and the ring still wins at bulk payloads on few members.
        let ring_bulk = ring_all_reduce(4, 1e9, WIRE, ALPHA);
        let tree_bulk = tree_all_reduce(4, 1e9, WIRE, ALPHA);
        assert!(ring_bulk.time() < tree_bulk.time());
    }

    #[test]
    fn non_power_of_two_trees_round_steps_up() {
        assert_eq!(total_steps(&tree_all_reduce(3, 1e6, WIRE, ALPHA)), 4);
        assert_eq!(total_steps(&tree_all_reduce(9, 1e6, WIRE, ALPHA)), 8);
        assert_eq!(total_steps(&tree_all_reduce(1054, 1e6, WIRE, ALPHA)), 22);
    }

    #[test]
    fn rs_plus_ag_compose_to_the_ring() {
        let p = 16u64;
        let bytes = 4e8;
        let mut composed = CollectiveSchedule::empty();
        composed.push(reduce_scatter_phase(p, bytes, WIRE, ALPHA));
        composed.push(all_gather_phase(p, bytes, WIRE, ALPHA));
        assert_eq!(composed, ring_all_reduce(p, bytes, WIRE, ALPHA));
        // A torus with one non-degenerate dimension is that ring, on
        // both directions of each link.
        let line = SliceShape::new(4, 1, 1).unwrap();
        let rate = LinkRate::from_bytes_per_s(WIRE / 2.0);
        for paths in [TorusPaths::Sequential, TorusPaths::MultiPath] {
            let torus = torus_all_reduce(line, bytes, rate, ALPHA, paths, ScheduleAlgorithm::Ring);
            assert_eq!(torus, ring_all_reduce(4, bytes, WIRE, ALPHA));
        }
    }

    #[test]
    fn torus_multipath_divides_bandwidth_not_alpha() {
        let shape = SliceShape::new(8, 8, 8).unwrap();
        let rate = LinkRate::from_bytes_per_s(50e9);
        let seq = torus_all_reduce(
            shape,
            1e9,
            rate,
            ALPHA,
            TorusPaths::Sequential,
            ScheduleAlgorithm::Ring,
        );
        let par = torus_all_reduce(
            shape,
            1e9,
            rate,
            ALPHA,
            TorusPaths::MultiPath,
            ScheduleAlgorithm::Ring,
        );
        let ratio = seq.bandwidth_seconds() / par.bandwidth_seconds();
        assert!((ratio - 3.0).abs() < 1e-12, "{ratio}");
        assert_eq!(seq.alpha_seconds(), par.alpha_seconds());
        assert_eq!(total_steps(&seq), total_steps(&par));
        // Sequentially, the first dimension's ring dominates: the later
        // ones move a payload 8x and 64x smaller.
        let first = ring_all_reduce(8, 1e9, 2.0 * rate.bytes_per_s(), ALPHA);
        let dominance = seq.time() / first.time();
        assert!(dominance > 1.0 && dominance < 1.3, "{dominance}");
        // The bandwidth term is linear in the payload.
        let double = torus_all_reduce(
            shape,
            2e9,
            rate,
            ALPHA,
            TorusPaths::Sequential,
            ScheduleAlgorithm::Ring,
        );
        let ratio = double.bandwidth_seconds() / seq.bandwidth_seconds();
        assert!((ratio - 2.0).abs() < 1e-12, "{ratio}");
    }

    #[test]
    fn torus_tree_never_beats_the_ring() {
        // Per-hop alpha makes the tree's latency equal and its bandwidth
        // worse on a torus — rings are simply optimal there.
        let rate = LinkRate::from_bytes_per_s(50e9);
        for bytes in [1e3, 1e6, 1e9] {
            for shape in [
                SliceShape::new(8, 8, 8).unwrap(),
                SliceShape::new(4, 1, 1).unwrap(),
                SliceShape::new(16, 16, 16).unwrap(),
            ] {
                let ring = torus_all_reduce(
                    shape,
                    bytes,
                    rate,
                    ALPHA,
                    TorusPaths::MultiPath,
                    ScheduleAlgorithm::Ring,
                );
                let tree = torus_all_reduce(
                    shape,
                    bytes,
                    rate,
                    ALPHA,
                    TorusPaths::MultiPath,
                    ScheduleAlgorithm::Tree,
                );
                assert!(
                    ring.time() <= tree.time() + 1e-18,
                    "{shape} at {bytes}: ring {} vs tree {}",
                    ring.time(),
                    tree.time()
                );
                assert!((ring.alpha_seconds() - tree.alpha_seconds()).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn selection_respects_policy_and_crossover() {
        let ring = || ring_all_reduce(1024, 1e5, WIRE, ALPHA);
        let tree = || tree_all_reduce(1024, 1e5, WIRE, ALPHA);
        use tpu_spec::{CollectiveSpec, SchedulePolicy};

        // Forced policies ignore the clock.
        let forced = |schedule| CollectiveSpec {
            schedule,
            ..CollectiveSpec::reference()
        };
        let (algo, _) = select_with(forced(SchedulePolicy::Ring), 1e5, ring, tree);
        assert_eq!(algo, ScheduleAlgorithm::Ring);
        let (algo, _) = select_with(forced(SchedulePolicy::Tree), 1e5, ring, tree);
        assert_eq!(algo, ScheduleAlgorithm::Tree);

        // Auto picks the faster schedule: tree at 100 KB over 1024
        // members (the computed case above).
        let (algo, chosen) = select_with(CollectiveSpec::reference(), 1e5, ring, tree);
        assert_eq!(algo, ScheduleAlgorithm::Tree);
        assert_eq!(chosen, tree());

        // A crossover override flips on the payload, not the clock.
        let forced_ring = CollectiveSpec {
            schedule: SchedulePolicy::Auto,
            crossover_bytes: Some(1e4),
        };
        let (algo, _) = select_with(forced_ring, 1e5, ring, tree);
        assert_eq!(algo, ScheduleAlgorithm::Ring);
        let forced_tree = CollectiveSpec {
            schedule: SchedulePolicy::Auto,
            crossover_bytes: Some(1e9),
        };
        let (algo, _) = select_with(forced_tree, 1e5, ring, tree);
        assert_eq!(algo, ScheduleAlgorithm::Tree);
    }

    #[test]
    fn bandwidth_only_zeroes_alphas_only() {
        let s = ring_all_reduce(64, 1e9, WIRE, ALPHA);
        let bw = s.bandwidth_only();
        assert_eq!(bw.alpha_seconds(), 0.0);
        assert_eq!(bw.bandwidth_seconds(), s.bandwidth_seconds());
        assert_eq!(total_steps(&bw), total_steps(&s));
    }

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(1024), 10);
        assert_eq!(log2_ceil(1054), 11);
    }
}
