//! Alpha-beta (latency + bandwidth) collective costs on tori.
//!
//! The models in [`crate::collectives`] are the pure-bandwidth asymptote;
//! they are exact for the large transfers of Figure 6 but underestimate
//! small-message collectives, where per-hop latency dominates — the same
//! fixed-overhead regime that §7.9 blames for MLPerf-DLRM's scaling wall.
//! [`AlphaBeta`] builds the *same* schedules through the IR of
//! [`crate::schedule`] with the alpha filled in, so latency-aware and
//! bandwidth-only numbers are always comparable (they converge as the
//! payload grows), and applies the spec's `ring`/`tree`/`auto` policy via
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

    /// Ring all-reduce of `bytes` over `nodes` members with `rings`
    /// parallel rings sharing the payload: the bandwidth term splits
    /// across rings, but every ring still serializes all `2(p−1)` steps,
    /// so each step pays alpha undivided.
    pub fn ring_all_reduce_time(&self, nodes: u64, bytes: f64, rings: u32) -> f64 {
        if nodes < 2 || rings == 0 {
            return 0.0;
        }
        let wire = 2.0 * self.rate.bytes_per_s() * f64::from(rings);
        schedule::ring_all_reduce(nodes, bytes, wire, self.alpha_s).time()
    }

    /// The pure-latency cost of a torus all-reduce on `shape`: every
    /// non-degenerate dimension's ring serializes `2(k−1)` alpha steps.
    ///
    /// This is schedule-independent: the multi-path schedule runs the
    /// dimension *orderings* concurrently (each ordering still traverses
    /// every dimension), and a tree pass still crosses every hop of the
    /// dimension it reduces, so ring, tree and both path policies share
    /// this critical path.
    pub fn torus_alpha_seconds(&self, shape: SliceShape) -> f64 {
        [shape.x(), shape.y(), shape.z()]
            .iter()
            .filter(|&&k| k > 1)
            .map(|&k| 2.0 * (f64::from(k) - 1.0) * self.alpha_s)
            .sum()
    }

    /// Builds the latency-aware ring all-reduce schedule of `bytes` on a
    /// torus of `shape` under the given path policy — the schedule
    /// [`AlphaBeta::torus_all_reduce_time`] prices.
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

    /// Torus all-reduce time with latency, on the ring schedule.
    ///
    /// The bandwidth term is exactly
    /// [`crate::collectives::torus_all_reduce_time`] for the same path
    /// policy (so the two models converge at large payloads — the
    /// backend costs tori with [`TorusPaths::MultiPath`], and this model
    /// must be comparable with it); the latency term adds the serialized
    /// alpha steps of [`AlphaBeta::torus_alpha_seconds`].
    pub fn torus_all_reduce_time(&self, shape: SliceShape, bytes: f64, paths: TorusPaths) -> f64 {
        self.torus_ring_schedule(shape, bytes, paths).time()
    }

    /// The payload size at which latency and bandwidth terms are equal
    /// for a ring of `nodes` (below this, the collective is
    /// latency-bound): `2·p·alpha·rate`.
    pub fn crossover_bytes(&self, nodes: u64) -> f64 {
        if nodes < 2 {
            return 0.0;
        }
        let p = nodes as f64;
        // steps·alpha == (p-1)/p · bytes / rate
        2.0 * (p - 1.0) * self.alpha_s * self.rate.bytes_per_s() * p / (p - 1.0)
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
    use crate::collectives::torus_all_reduce_time;
    use tpu_spec::{MachineSpec, SchedulePolicy};

    #[test]
    fn large_messages_converge_to_bandwidth_model() {
        let ab = AlphaBeta::for_spec(&MachineSpec::v4());
        let shape = SliceShape::new(8, 8, 8).unwrap();
        let bytes = 10e9;
        for paths in [TorusPaths::Sequential, TorusPaths::MultiPath] {
            let with_latency = ab.torus_all_reduce_time(shape, bytes, paths);
            let bandwidth_only = torus_all_reduce_time(shape, bytes, ab.rate, paths);
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
        let seq = ab.torus_all_reduce_time(shape, bytes, TorusPaths::Sequential);
        let par = ab.torus_all_reduce_time(shape, bytes, TorusPaths::MultiPath);
        assert!((seq / par - 3.0).abs() < 0.01, "{}", seq / par);
    }

    #[test]
    fn auto_selection_resolves_to_the_ring_on_tori() {
        // Per-hop alpha: the tree candidate saves no latency and pays a
        // bandwidth penalty, so auto == ring at every payload — which
        // also keeps every pre-IR torus number bit-identical.
        let ab = AlphaBeta::for_spec(&MachineSpec::v4());
        let shape = SliceShape::new(8, 8, 8).unwrap();
        for bytes in [1e3, 1e6, 1e9] {
            let (algo, schedule) = ab.torus_all_reduce_schedule(
                shape,
                bytes,
                TorusPaths::MultiPath,
                CollectiveSpec::reference(),
            );
            assert_eq!(algo, ScheduleAlgorithm::Ring, "at {bytes}");
            assert_eq!(
                schedule.time(),
                ab.torus_all_reduce_time(shape, bytes, TorusPaths::MultiPath)
            );
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
        assert_eq!(
            schedule.time(),
            ab.torus_all_reduce_time(shape, 1e6, TorusPaths::MultiPath)
        );
        // A forced tree is expressible (and honestly worse).
        let (algo, forced) = ab.torus_all_reduce_schedule(
            shape,
            1e6,
            TorusPaths::MultiPath,
            CollectiveSpec::forced(SchedulePolicy::Tree),
        );
        assert_eq!(algo, ScheduleAlgorithm::Tree);
        assert!(forced.time() >= ab.torus_all_reduce_time(shape, 1e6, TorusPaths::MultiPath));
    }

    #[test]
    fn small_messages_are_latency_bound() {
        let ab = AlphaBeta::for_spec(&MachineSpec::v4());
        let shape = SliceShape::new(8, 8, 8).unwrap();
        let bytes = 1024.0;
        for paths in [TorusPaths::Sequential, TorusPaths::MultiPath] {
            let with_latency = ab.torus_all_reduce_time(shape, bytes, paths);
            let bandwidth_only = torus_all_reduce_time(shape, bytes, ab.rate, paths);
            assert!(
                with_latency > 10.0 * bandwidth_only,
                "{with_latency} vs {bandwidth_only}"
            );
        }
    }

    #[test]
    fn rings_split_bandwidth_but_not_latency() {
        let ab = AlphaBeta::for_spec(&MachineSpec::v4());
        let one = ab.ring_all_reduce_time(64, 1e9, 1);
        let three = ab.ring_all_reduce_time(64, 1e9, 3);
        let alpha = 2.0 * 63.0 * ab.alpha_s;
        assert!(((one - alpha) / (three - alpha) - 3.0).abs() < 1e-9);
        // At tiny payloads the ring count is irrelevant.
        let t1 = ab.ring_all_reduce_time(64, 8.0, 1);
        let t3 = ab.ring_all_reduce_time(64, 8.0, 3);
        assert!((t1 - t3).abs() < alpha * 1e-6, "{t1} vs {t3}");
    }

    #[test]
    fn crossover_scales_with_ring_size() {
        let ab = AlphaBeta::for_spec(&MachineSpec::v4());
        // Crossover ≈ 2·p·alpha·rate: 100 KB for p=?? — check monotone.
        let small = ab.crossover_bytes(4);
        let large = ab.crossover_bytes(64);
        assert!(large > small);
        // At 1 µs x 50 GB/s, the per-hop product is 50 kB, so crossovers
        // sit in the 100 kB–10 MB range for realistic rings.
        assert!(small > 100e3 && large < 10e6, "{small} {large}");
    }

    #[test]
    fn latency_grows_with_node_count_at_tiny_payloads() {
        let ab = AlphaBeta::for_spec(&MachineSpec::v4());
        let t_small = ab.ring_all_reduce_time(8, 128.0, 1);
        let t_large = ab.ring_all_reduce_time(64, 128.0, 1);
        assert!(t_large > 7.0 * t_small, "{t_small} vs {t_large}");
    }

    #[test]
    fn single_node_is_free() {
        let ab = AlphaBeta::for_spec(&MachineSpec::v4());
        assert_eq!(ab.ring_all_reduce_time(1, 1e9, 1), 0.0);
        assert_eq!(ab.crossover_bytes(1), 0.0);
    }

    #[test]
    fn diameters() {
        assert_eq!(torus_diameter_hops(SliceShape::new(8, 8, 8).unwrap()), 12);
        assert_eq!(torus_diameter_hops(SliceShape::new(2, 2, 2).unwrap()), 3);
        assert_eq!(torus_diameter_hops(SliceShape::new(1, 1, 1).unwrap()), 0);
    }
}
