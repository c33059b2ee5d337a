//! Regenerators for the SparseCore figures (8, 9, 10).

use std::fmt::Write;
use tpu_embedding::DlrmConfig;
use tpu_parallel::PaNas;
use tpu_sparsecore::placement::{a2a_bw_2d, a2a_bw_3d};
use tpu_sparsecore::{EmbeddingSystem, Placement};
use tpu_spec::consts::{GIGA, KILO};
use tpu_spec::MachineSpec;

/// Figure 8: bisection-bandwidth ratio v4/v3 and DLRM sensitivity.
pub fn fig8() -> String {
    let mut out = String::new();
    let model = DlrmConfig::dlrm0();
    let _ = writeln!(
        out,
        "{:>7} {:>14} {:>14} {:>10} {:>12}",
        "chips", "v4 a2a GB/s", "v3 a2a GB/s", "bis ratio", "emb speedup"
    );
    let v4_spec = MachineSpec::v4();
    let v3_spec = MachineSpec::v3();
    for &chips in &[16u64, 32, 64, 128, 256, 512, 1024, 2048] {
        let v4_bw = a2a_bw_3d(chips, v4_spec.ici_bytes_per_s(), v4_spec.ici_links());
        let v3_bw = a2a_bw_2d(chips, v3_spec.ici_bytes_per_s(), v3_spec.ici_links());
        // Embedding speedup: step time with v4's bisection vs a v4 system
        // handicapped to v3-like bisection (isolating the Figure 8 right
        // axis: sensitivity to bisection alone). Batch scales with chips.
        let batch = 32 * chips;
        let v4 = EmbeddingSystem::for_spec(&v4_spec, chips).step_time(
            &model,
            batch,
            Placement::SparseCore,
        );
        let handicapped = {
            let mut b = v4;
            b.exchange_s *= v4_bw / v3_bw;
            b
        };
        let _ = writeln!(
            out,
            "{chips:>7} {:>14.1} {:>14.1} {:>9.2}x {:>11.2}x",
            v4_bw / GIGA,
            v3_bw / GIGA,
            v4_bw / v3_bw,
            handicapped.total_s() / v4.total_s()
        );
    }
    let _ = writeln!(
        out,
        "(paper: ratio 2-4x; embedding acceleration 1.1x-2.0x, fading >=1K chips)"
    );
    out
}

/// Figure 9: DLRM0 across CPUs, TPU v3, TPU v4 and non-SC placements.
pub fn fig9() -> String {
    let mut out = String::new();
    let model = DlrmConfig::dlrm0();
    let batch = 4096;
    let cpu = EmbeddingSystem::cpu_cluster()
        .step_time(&model, batch, Placement::SparseCore)
        .total_s();
    let rows: Vec<(String, f64)> = vec![
        ("CPU (576 sockets)".into(), cpu),
        (
            "TPU v3 x128".into(),
            EmbeddingSystem::for_spec(&MachineSpec::v3(), 128)
                .step_time(&model, batch, Placement::SparseCore)
                .total_s(),
        ),
        (
            "TPU v4 x128".into(),
            EmbeddingSystem::for_spec(&MachineSpec::v4(), 128)
                .step_time(&model, batch, Placement::SparseCore)
                .total_s(),
        ),
        (
            "TPU v4, emb on CPU".into(),
            EmbeddingSystem::for_spec(&MachineSpec::v4(), 128)
                .step_time(&model, batch, Placement::HostCpu)
                .total_s(),
        ),
        (
            "TPU v4, emb on var. server".into(),
            EmbeddingSystem::for_spec(&MachineSpec::v4(), 128)
                .step_time(&model, batch, Placement::VariableServer)
                .total_s(),
        ),
    ];
    let _ = writeln!(out, "{:<28} {:>12} {:>10}", "system", "ms/step", "vs CPU");
    for (name, t) in rows {
        let _ = writeln!(out, "{name:<28} {:>12.2} {:>9.1}x", t * KILO, cpu / t);
    }
    let _ = writeln!(out, "(paper: v3 = 9.8x, v4 = 30.1x, emb off SC = v4 / 5-7)");
    out
}

/// Figure 10: PA-NAS balancing of SC and TC pipelines.
pub fn fig10() -> String {
    let mut out = String::new();
    let (nas, model) = PaNas::figure10_reference();
    let result = nas.run(&model);
    let _ = writeln!(
        out,
        "{:<22} {:>12} {:>12} {:>10} {:>10}",
        "version", "sparse ms", "dense ms", "SC idle", "step ms"
    );
    let _ = writeln!(
        out,
        "{:<22} {:>12.2} {:>12.2} {:>9.1}% {:>10.2}",
        "original DLRM0",
        result.original.sparse_s() * KILO,
        result.original.dense_s * KILO,
        result.original_sc_idle() * 100.0,
        result.original.total_s() * KILO
    );
    let _ = writeln!(
        out,
        "{:<22} {:>12.2} {:>12.2} {:>9.1}% {:>10.2}",
        "PA-NAS optimized",
        result.optimized.sparse_s() * KILO,
        result.optimized.dense_s * KILO,
        result.optimized_sc_idle() * 100.0,
        result.optimized.total_s() * KILO
    );
    let _ = writeln!(
        out,
        "capacity shift: dense x{:.2}, embeddings x{:.2}; end-to-end speedup {:.2}x (paper: >1.10x)",
        result.dense_factor,
        result.embedding_factor,
        result.speedup()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_has_all_chip_counts() {
        let out = fig8();
        for chips in ["16", "128", "2048"] {
            assert!(out.contains(chips), "{out}");
        }
    }

    #[test]
    fn fig9_orders_systems_correctly() {
        let out = fig9();
        assert!(out.contains("TPU v4 x128"));
        assert!(out.contains("vs CPU"));
    }

    #[test]
    fn fig10_shows_idle_reduction() {
        let out = fig10();
        assert!(out.contains("original DLRM0"));
        assert!(out.contains("PA-NAS optimized"));
    }
}
