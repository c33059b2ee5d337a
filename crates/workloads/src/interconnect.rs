//! Per-step interconnect demand of the production workload classes, timed
//! through the same [`CollectiveBackend`] the `Supercomputer` prices
//! every collective with — the code path behind the §7.2–§7.3
//! TPU-vs-A100 tables. Slices here are priced by shape, so an
//! all-to-all runs on the regular torus of that shape; a `Supercomputer`
//! OCS slice's all-to-all runs on its materialized wiring instead.
//!
//! Each workload class contributes a gradient all-reduce (data-parallel
//! weight sync) and, for embedding models, a uniform all-to-all (the
//! §3.3 embedding exchange). The payload sizes are model-scale
//! assumptions recorded in `DESIGN.md` §6.3, not paper data; what the
//! paper pins down is the *ratio* between the torus and switched fabrics,
//! which this module reproduces for any spec pair.

use crate::WorkloadKind;
use tpu_net::CollectiveBackend;
use tpu_spec::MachineSpec;
use tpu_topology::SliceShape;

/// One training step's collective payloads for a workload class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepCollectives {
    /// Gradient bytes all-reduced per step (bf16 parameters).
    pub all_reduce_bytes: f64,
    /// Embedding bytes exchanged per ordered chip pair per step (0 for
    /// dense models).
    pub all_to_all_bytes_per_pair: f64,
}

impl StepCollectives {
    /// The reference demand of a workload class (DESIGN.md §6.3): dense
    /// models all-reduce their bf16 gradients; DLRMs add the embedding
    /// all-to-all and keep only a small dense gradient.
    pub fn for_kind(kind: WorkloadKind) -> StepCollectives {
        let (params, a2a) = match kind {
            // ~25M-parameter CNN backbone.
            WorkloadKind::Cnn => (25e6, 0.0),
            // ~100M-parameter stacked LSTM.
            WorkloadKind::Rnn => (100e6, 0.0),
            // BERT-large class, 340M parameters.
            WorkloadKind::Bert => (340e6, 0.0),
            // Dense towers only (~20M); embeddings move via all-to-all.
            WorkloadKind::Dlrm => (20e6, 4096.0),
        };
        StepCollectives {
            all_reduce_bytes: params * 2.0,
            all_to_all_bytes_per_pair: a2a,
        }
    }

    /// Seconds per step spent in collectives on a slice of `shape` of the
    /// machine `spec` describes, via the backend its `fabric` selects.
    pub fn step_time(&self, spec: &MachineSpec, shape: SliceShape) -> f64 {
        let backend = CollectiveBackend::for_spec(spec);
        let mut t = backend.all_reduce_time(shape, self.all_reduce_bytes);
        if self.all_to_all_bytes_per_pair > 0.0 {
            t += backend.all_to_all_time(shape, self.all_to_all_bytes_per_pair);
        }
        t
    }

    /// How much slower the collectives of this class run on
    /// `alternative` than on `baseline` for the same slice shape (>1
    /// means `alternative` is slower) — the §7.3 question asked per
    /// workload class.
    pub fn slowdown_on(
        &self,
        baseline: &MachineSpec,
        alternative: &MachineSpec,
        shape: SliceShape,
    ) -> f64 {
        self.step_time(alternative, shape) / self.step_time(baseline, shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(x: u32, y: u32, z: u32) -> SliceShape {
        SliceShape::new(x, y, z).unwrap()
    }

    #[test]
    fn every_class_answers_on_every_builtin_machine() {
        for kind in [
            WorkloadKind::Cnn,
            WorkloadKind::Rnn,
            WorkloadKind::Bert,
            WorkloadKind::Dlrm,
        ] {
            let demand = StepCollectives::for_kind(kind);
            for spec in [
                MachineSpec::v2(),
                MachineSpec::v3(),
                MachineSpec::v4(),
                MachineSpec::a100(),
                MachineSpec::v4_ib_hybrid(),
            ] {
                let t = demand.step_time(&spec, shape(4, 4, 8));
                assert!(t > 0.0 && t.is_finite(), "{kind:?} on {}", spec.generation);
            }
        }
    }

    #[test]
    fn switched_fabrics_slow_every_class() {
        let v4 = MachineSpec::v4();
        let ib = MachineSpec::v4_ib_hybrid();
        for kind in [WorkloadKind::Bert, WorkloadKind::Dlrm] {
            let slow = StepCollectives::for_kind(kind).slowdown_on(&v4, &ib, shape(8, 8, 8));
            assert!(slow > 1.0, "{kind:?}: {slow}");
        }
        // BERT is pure all-reduce: its slowdown is exactly the §7.3
        // all-reduce band.
        let bert =
            StepCollectives::for_kind(WorkloadKind::Bert).slowdown_on(&v4, &ib, shape(8, 8, 8));
        assert!((1.8..=2.4).contains(&bert), "{bert}");
    }
}
