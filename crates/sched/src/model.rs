//! The immutable spec-derived planner model (DESIGN.md §14).
//!
//! Every simulator in this crate used to carry its own [`MachineSpec`]
//! clone and rebuild its fabric arms on demand — fine for one-shot
//! `repro` runs, wrong for a long-running query service where hundreds
//! of what-if questions hit the *same* machine. [`PlannerModel`] is the
//! split: everything derivable from the spec alone — scheduling-unit
//! geometry, the canonical identity hash, and the pristine fabric-arm
//! prototypes — lives here, immutable after construction and therefore
//! `Send + Sync`, shared across worker threads behind one `Arc`. The
//! per-query mutable state (RNG streams, health words, running jobs)
//! stays worker-local: Monte Carlo counts only read the cached
//! prototypes, and a fleet DES run admits jobs on its own *clone* of
//! the static arm or on its own occupancy words, so concurrent queries
//! can never observe each other.
//!
//! Determinism under concurrency follows from two facts: the prototypes
//! are only ever read (borrowed or cloned) after their `OnceLock` init, and every
//! Monte Carlo trial derives its RNG stream from `(seed, chunk)` alone
//! ([`crate::trials`]) — no shared mutable state exists for thread
//! interleaving to perturb.

use std::sync::OnceLock;
use tpu_core::{StaticCluster, Supercomputer};
use tpu_spec::MachineSpec;

/// Cached pristine fabric-arm prototypes: built on first use, never
/// mutated afterwards (static DES runs mutate their own clones), so
/// sharing them across threads is free.
#[derive(Debug, Default)]
pub(crate) struct ArmCache {
    fixed: OnceLock<StaticCluster>,
    reconfigurable: OnceLock<Supercomputer>,
    /// The machine on its *own* fabric (no counterfactual rewrite) —
    /// what collective-time quotes run against.
    native: OnceLock<Supercomputer>,
}

/// The immutable, `Send + Sync`, spec-derived half of every simulator:
/// one machine's scheduling geometry, canonical identity hash, and
/// lazily-built pristine fabric arms. Construct once per spec, share
/// via [`Arc`](std::sync::Arc) across as many concurrent queries as needed.
#[derive(Debug)]
pub struct PlannerModel {
    spec: MachineSpec,
    spec_hash: u64,
    blocks: u32,
    chips_per_block: u32,
    hosts_per_block: u32,
    arms: ArmCache,
}

impl PlannerModel {
    /// The model of the machine a spec describes. Cheap: no fabric is
    /// built here — arms materialize on first use and are cached.
    pub fn for_spec(spec: &MachineSpec) -> PlannerModel {
        let (blocks, chips_per_block, hosts_per_block) = spec.scheduling_units();
        PlannerModel {
            spec_hash: spec.canonical_hash(),
            spec: spec.clone(),
            blocks: blocks as u32,
            chips_per_block,
            hosts_per_block,
            arms: ArmCache::default(),
        }
    }

    /// The machine spec this model was derived from.
    pub fn spec(&self) -> &MachineSpec {
        &self.spec
    }

    /// The spec's canonical identity hash
    /// ([`MachineSpec::canonical_hash`]), computed once at construction
    /// — the cache key the planning service prefixes every query with.
    pub fn spec_hash(&self) -> u64 {
        self.spec_hash
    }

    /// Scheduling units (4³ blocks or switched islands) in the machine.
    pub fn blocks(&self) -> u32 {
        self.blocks
    }

    /// Chips per scheduling unit.
    pub fn chips_per_block(&self) -> u32 {
        self.chips_per_block
    }

    /// CPU hosts per scheduling unit.
    pub fn hosts_per_block(&self) -> u32 {
        self.hosts_per_block
    }

    /// Total chips in the machine (whole blocks/islands).
    pub fn total_chips(&self) -> u64 {
        u64::from(self.blocks) * u64::from(self.chips_per_block)
    }

    /// Total CPU hosts.
    pub fn total_hosts(&self) -> u64 {
        u64::from(self.blocks) * u64::from(self.hosts_per_block)
    }

    /// The pristine statically-cabled arm (the machine itself for static
    /// specs, the counterfactual grid otherwise). Built once, then
    /// borrowed by every goodput query and DES probe, and cloned by
    /// every static-arm DES run.
    pub fn static_arm(&self) -> &StaticCluster {
        self.arms
            .fixed
            .get_or_init(|| StaticCluster::for_spec(&self.spec))
    }

    /// The pristine reconfigurable arm: the OCS plugboard for torus
    /// specs (pre-OCS generations become their §2.7 counterfactual),
    /// the machine's own switched fabric for `torus_dims == 0` specs.
    pub fn reconfigurable_arm(&self) -> &Supercomputer {
        self.arms.reconfigurable.get_or_init(|| {
            Supercomputer::for_spec(&crate::goodput::reconfigurable_spec(&self.spec))
        })
    }

    /// The pristine machine on its *own* fabric, no counterfactual
    /// rewrite — collective-time quotes submit against a clone of this.
    pub fn native_machine(&self) -> &Supercomputer {
        self.arms
            .native
            .get_or_init(|| Supercomputer::for_spec(&self.spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tpu_spec::FabricKind;

    fn assert_send_sync<T: Send + Sync>() {}

    /// Whether the prototype for a fabric kind has been materialized.
    fn arm_materialized(model: &PlannerModel, fabric: FabricKind) -> bool {
        match fabric {
            FabricKind::Static => model.arms.fixed.get().is_some(),
            FabricKind::Ocs | FabricKind::Switched => model.arms.reconfigurable.get().is_some(),
        }
    }

    #[test]
    fn model_and_sims_are_send_sync() {
        // The whole point of the split: the spec-derived half crosses
        // threads freely. A compile-time fact, pinned here so a future
        // Rc/RefCell/raw-pointer regression fails loudly.
        assert_send_sync::<PlannerModel>();
        assert_send_sync::<Arc<PlannerModel>>();
        assert_send_sync::<StaticCluster>();
        assert_send_sync::<Supercomputer>();
        assert_send_sync::<crate::GoodputSim>();
        assert_send_sync::<crate::FleetSim>();
    }

    #[test]
    fn construction_builds_no_fabric() {
        // The constructor-cost pin: for_spec derives geometry and the
        // hash but materializes no arm — queries that never touch a
        // fabric kind never pay for it.
        let model = PlannerModel::for_spec(&MachineSpec::v4());
        assert!(!arm_materialized(&model, FabricKind::Static));
        assert!(!arm_materialized(&model, FabricKind::Ocs));
    }

    #[test]
    fn arms_materialize_once_and_are_shared() {
        // Two borrows, one construction: repeated queries reuse the
        // identical prototype (pointer equality), never a rebuild.
        let model = Arc::new(PlannerModel::for_spec(&MachineSpec::v4()));
        let a = model.static_arm() as *const StaticCluster;
        let b = model.static_arm() as *const StaticCluster;
        assert_eq!(a, b);
        assert!(arm_materialized(&model, FabricKind::Static));
        let r1 = model.reconfigurable_arm() as *const Supercomputer;
        let r2 = Arc::clone(&model).reconfigurable_arm() as *const Supercomputer;
        assert_eq!(r1, r2);
    }

    #[test]
    fn geometry_matches_scheduling_units() {
        for spec in [MachineSpec::v4(), MachineSpec::a100(), MachineSpec::v3()] {
            let model = PlannerModel::for_spec(&spec);
            let (units, chips, hosts) = spec.scheduling_units();
            assert_eq!(u64::from(model.blocks()), units);
            assert_eq!(model.chips_per_block(), chips);
            assert_eq!(model.hosts_per_block(), hosts);
            assert_eq!(model.total_chips(), units * u64::from(chips));
            assert_eq!(model.spec_hash(), spec.canonical_hash());
        }
    }

    #[test]
    fn native_machine_keeps_the_specs_own_fabric() {
        // v3 is statically cabled: its native machine must not be the
        // OCS counterfactual the reconfigurable arm swaps in.
        let model = PlannerModel::for_spec(&MachineSpec::v3());
        let native = model.native_machine();
        // A native static machine still answers collective quotes; the
        // reconfigurable arm exists alongside it.
        assert!(native.total_chips() > 0);
        assert!(model.reconfigurable_arm().total_chips() > 0);
    }
}
