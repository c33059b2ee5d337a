//! Alpha-beta (latency + bandwidth) collective costs on tori.
//!
//! A zero alpha gives the pure-bandwidth asymptote, exact for the large
//! transfers of Figure 6 but an underestimate for small-message
//! collectives, where per-hop latency dominates — the same
//! fixed-overhead regime that §7.9 blames for MLPerf-DLRM's scaling wall.
//! [`AlphaBeta`] builds its schedules through the IR of
//! [`crate::schedule`] with the alpha filled in, so latency-aware and
//! bandwidth-only numbers ([`AlphaBeta::new`] at alpha 0, or
//! [`crate::CollectiveBackend::bandwidth_only`]) are always comparable
//! (they converge as the payload grows), and applies the spec's
//! `ring`/`tree`/`auto` policy via
//! [`AlphaBeta::torus_all_reduce_schedule`] — on a torus the per-hop
//! alpha makes `auto` resolve to the ring at every payload, which is the
//! paper's §2.7 point that all-reduce "maps well" to tori.

use crate::schedule::{self, CollectiveSchedule, ScheduleAlgorithm, TorusPaths};
use crate::units::LinkRate;
use serde::{Deserialize, Serialize};
use tpu_spec::CollectiveSpec;
use tpu_topology::SliceShape;

/// Latency/bandwidth parameters of one link hop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AlphaBeta {
    /// Per-message, per-hop latency, seconds (DMA setup + wire + router).
    pub alpha_s: f64,
    /// Link rate (the beta term's reciprocal scale).
    pub rate: LinkRate,
}

impl AlphaBeta {
    /// An alpha-beta model from explicit parameters.
    pub fn new(alpha_s: f64, rate: LinkRate) -> AlphaBeta {
        AlphaBeta { alpha_s, rate }
    }

    /// The alpha-beta model at a machine spec's ICI link rate and the
    /// spec's declared per-hop latency (the DESIGN.md §7 reference when
    /// the spec omits the `latency` block).
    pub fn for_spec(spec: &tpu_spec::MachineSpec) -> AlphaBeta {
        AlphaBeta {
            alpha_s: spec.collective_latency().ici_hop_s,
            rate: LinkRate::for_spec(spec),
        }
    }

    /// Builds the latency-aware ring all-reduce schedule of `bytes` on a
    /// torus of `shape` under the given path policy.
    pub fn torus_ring_schedule(
        &self,
        shape: SliceShape,
        bytes: f64,
        paths: TorusPaths,
    ) -> CollectiveSchedule {
        schedule::torus_all_reduce(
            shape,
            bytes,
            self.rate,
            self.alpha_s,
            paths,
            ScheduleAlgorithm::Ring,
        )
    }

    /// Builds the all-reduce schedule a spec's `collective` policy
    /// selects on this torus: ring and double-binary-tree candidates are
    /// emitted lazily and [`schedule::select_with`] picks per the policy.
    ///
    /// With per-hop alpha the tree candidate pays the same latency at a
    /// worse bandwidth term, so `auto` resolves to the ring on every
    /// torus — the selection only bites on switched fabrics, where alpha
    /// is per message (DESIGN.md §10). For the same reason, an `auto`
    /// `crossover_bytes` override is *ignored* here: it is an
    /// inter-island threshold, and honoring it on a torus would force
    /// the provably-slower tree below the threshold, breaking the
    /// documented auto-equals-ring guarantee. A forced `tree` policy
    /// remains an explicit (honestly worse) choice.
    pub fn torus_all_reduce_schedule(
        &self,
        shape: SliceShape,
        bytes: f64,
        paths: TorusPaths,
        selection: CollectiveSpec,
    ) -> (ScheduleAlgorithm, CollectiveSchedule) {
        let selection = CollectiveSpec {
            crossover_bytes: None,
            ..selection
        };
        schedule::select_with(
            selection,
            bytes,
            || self.torus_ring_schedule(shape, bytes, paths),
            || {
                schedule::torus_all_reduce(
                    shape,
                    bytes,
                    self.rate,
                    self.alpha_s,
                    paths,
                    ScheduleAlgorithm::Tree,
                )
            },
        )
    }
}

/// Hop count of the longest shortest path on a torus of `shape` (each
/// dimension contributes ⌊k/2⌋ wraparound hops) — the pipeline depth a
/// bulk all-to-all pays in per-hop latency once, with §8-style
/// outstanding requests hiding everything behind the first arrival.
pub fn torus_diameter_hops(shape: SliceShape) -> u32 {
    shape.x() / 2 + shape.y() / 2 + shape.z() / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpu_spec::{MachineSpec, SchedulePolicy};

    /// Latency-aware and bandwidth-only times of the ring all-reduce of
    /// `bytes` on `shape` at v4's link parameters.
    fn with_and_without_alpha(shape: SliceShape, bytes: f64, paths: TorusPaths) -> (f64, f64) {
        let ab = AlphaBeta::for_spec(&MachineSpec::v4());
        let bandwidth_only = AlphaBeta::new(0.0, ab.rate);
        (
            ab.torus_ring_schedule(shape, bytes, paths).time(),
            bandwidth_only
                .torus_ring_schedule(shape, bytes, paths)
                .time(),
        )
    }

    #[test]
    fn large_messages_converge_to_bandwidth_model() {
        let shape = SliceShape::new(8, 8, 8).unwrap();
        for paths in [TorusPaths::Sequential, TorusPaths::MultiPath] {
            let (with_latency, bandwidth_only) = with_and_without_alpha(shape, 10e9, paths);
            let overhead = with_latency / bandwidth_only;
            assert!((1.0..1.01).contains(&overhead), "{paths:?}: {overhead}");
        }
    }

    #[test]
    fn multipath_matches_the_backend_not_sequential() {
        // Regression: the old model hard-coded the Sequential schedule
        // while the backend costs tori with MultiPath — a 3x gap on a
        // cube. Passing the path policy through closes it.
        let ab = AlphaBeta::for_spec(&MachineSpec::v4());
        let shape = SliceShape::new(8, 8, 8).unwrap();
        let bytes = 10e9;
        let seq = ab.torus_ring_schedule(shape, bytes, TorusPaths::Sequential);
        let par = ab.torus_ring_schedule(shape, bytes, TorusPaths::MultiPath);
        let ratio = seq.time() / par.time();
        assert!((ratio - 3.0).abs() < 0.01, "{ratio}");
    }

    #[test]
    fn auto_selection_resolves_to_the_ring_on_tori() {
        // Per-hop alpha: the tree candidate saves no latency and pays a
        // bandwidth penalty, so auto == ring at every payload — which
        // also keeps every pre-IR torus number bit-identical.
        let ab = AlphaBeta::for_spec(&MachineSpec::v4());
        let shape = SliceShape::new(8, 8, 8).unwrap();
        let ring = |bytes| ab.torus_ring_schedule(shape, bytes, TorusPaths::MultiPath);
        for bytes in [1e3, 1e6, 1e9] {
            let (algo, schedule) = ab.torus_all_reduce_schedule(
                shape,
                bytes,
                TorusPaths::MultiPath,
                CollectiveSpec::reference(),
            );
            assert_eq!(algo, ScheduleAlgorithm::Ring, "at {bytes}");
            assert_eq!(schedule, ring(bytes));
        }
        // A crossover override is an inter-island threshold — on a torus
        // it must not flip auto to the (provably slower) tree.
        let overridden = CollectiveSpec {
            schedule: SchedulePolicy::Auto,
            crossover_bytes: Some(f64::INFINITY),
        };
        let (algo, schedule) =
            ab.torus_all_reduce_schedule(shape, 1e6, TorusPaths::MultiPath, overridden);
        assert_eq!(algo, ScheduleAlgorithm::Ring);
        assert_eq!(schedule, ring(1e6));
        // A forced tree is expressible (and honestly worse).
        let (algo, forced) = ab.torus_all_reduce_schedule(
            shape,
            1e6,
            TorusPaths::MultiPath,
            CollectiveSpec {
                schedule: SchedulePolicy::Tree,
                ..CollectiveSpec::reference()
            },
        );
        assert_eq!(algo, ScheduleAlgorithm::Tree);
        assert!(forced.time() >= ring(1e6).time());
    }

    #[test]
    fn small_messages_are_latency_bound() {
        let shape = SliceShape::new(8, 8, 8).unwrap();
        for paths in [TorusPaths::Sequential, TorusPaths::MultiPath] {
            let (with_latency, bandwidth_only) = with_and_without_alpha(shape, 1024.0, paths);
            assert!(
                with_latency > 10.0 * bandwidth_only,
                "{with_latency} vs {bandwidth_only}"
            );
        }
    }

    #[test]
    fn latency_grows_with_node_count_at_tiny_payloads() {
        // A 1x1xk torus is one k-member ring.
        let ring = |k| {
            let shape = SliceShape::new(1, 1, k).unwrap();
            with_and_without_alpha(shape, 128.0, TorusPaths::Sequential).0
        };
        let (t_small, t_large) = (ring(8), ring(64));
        assert!(t_large > 7.0 * t_small, "{t_small} vs {t_large}");
    }

    #[test]
    fn diameters() {
        assert_eq!(torus_diameter_hops(SliceShape::new(8, 8, 8).unwrap()), 12);
        assert_eq!(torus_diameter_hops(SliceShape::new(2, 2, 2).unwrap()), 3);
        assert_eq!(torus_diameter_hops(SliceShape::new(1, 1, 1).unwrap()), 0);
    }
}
