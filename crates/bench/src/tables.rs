//! Regenerators for the paper's tables.

use std::fmt::Write;
use tpu_energy::Table6;
use tpu_parallel::{LlmConfig, Partitioning, ShardingSpec, TopologySearch, TrainingCost};
use tpu_sched::{SliceMix, TopologyChoice};
use tpu_spec::ChipSpec;
use tpu_topology::SliceShape;
use tpu_workloads::{ModelFamily, WorkloadMix};

/// Table 1: workload mix by DNN model type across TPU generations.
pub fn table1() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:>14} {:>14} {:>14} {:>14}",
        "DNN model", "TPUv1 7/2016", "TPUv3 4/2019", "TPUv4L 2/2020", "TPUv4 10/2022"
    );
    let columns = WorkloadMix::table1();
    let label = |f: ModelFamily| match f {
        ModelFamily::MlpDlrm => "MLP/DLRM",
        ModelFamily::Rnn => "RNN",
        ModelFamily::Cnn => "CNN",
        ModelFamily::Transformer => "Transformer",
    };
    for family in ModelFamily::ALL {
        let _ = write!(out, "{:<12}", label(family));
        for c in &columns {
            let _ = write!(out, " {:>13.0}%", c.share(family) * 100.0);
        }
        let _ = writeln!(out);
    }
    let v4 = &columns[3];
    let _ = writeln!(
        out,
        "{:<12} {:>14} {:>14} {:>13.0}% {:>13.0}%",
        "(BERT)",
        "--",
        "--",
        columns[2].bert_share.unwrap_or(0.0) * 100.0,
        v4.bert_share.unwrap_or(0.0) * 100.0
    );
    let _ = writeln!(
        out,
        "{:<12} {:>14} {:>14} {:>14} {:>13.0}%",
        "(LLM)",
        "--",
        "--",
        "--",
        v4.llm_share.unwrap_or(0.0) * 100.0
    );
    out
}

/// Table 2: production slice popularity with twist classification.
pub fn table2() -> String {
    let mut out = String::new();
    let mix = SliceMix::table2();
    let _ = writeln!(
        out,
        "{:<12} {:>6} {:>9} {:>7} {:>10}",
        "shape", "chips", "topology", "share", "twistable"
    );
    for e in mix.entries() {
        let topo = match e.choice {
            TopologyChoice::Twisted => "twisted",
            TopologyChoice::Regular => "regular",
        };
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>9} {:>6.1}% {:>10}",
            e.shape.to_string(),
            e.shape.volume(),
            topo,
            e.share * 100.0,
            if e.shape.is_production_twistable() {
                "yes"
            } else {
                "no"
            }
        );
    }
    let _ = writeln!(out, "---");
    let _ = writeln!(
        out,
        "total sampled share: {:.1}%",
        mix.total_share() * 100.0
    );
    let _ = writeln!(
        out,
        "< 64 chips: {:.1}% (paper: 29%)",
        mix.share_below_64() * 100.0
    );
    let _ = writeln!(
        out,
        "twisted:    {:.1}% (paper: 28%)",
        mix.share_twisted() * 100.0
    );
    out
}

/// Table 3: topology and parallelism search for the LLM and GPT-3 cases.
pub fn table3() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:>12} {:>12} {:>10} {:>8} {:>7}",
        "case", "topology", "plan", "sharding", "seqs/s", "gain"
    );

    let case = |name: &str,
                llm: &LlmConfig,
                base_shape: (u32, u32, u32),
                base_plan: Partitioning,
                base_spec: ShardingSpec,
                out: &mut String| {
        let shape = SliceShape::new(base_shape.0, base_shape.1, base_shape.2).expect("shape"); // tpu-lint: allow(panic-policy) -- report generator over hard-coded paper configs; a bad config is a bug worth a crash
        let base =
            TrainingCost::evaluate(llm, shape, base_plan, base_spec).expect("baseline feasible"); // tpu-lint: allow(panic-policy) -- report generator over hard-coded paper configs; a bad config is a bug worth a crash
        let best = TopologySearch::new(512).best(llm);
        let _ = writeln!(
            out,
            "{:<22} {:>12} {:>12} {:>10} {:>8.1} {:>6.2}x",
            format!("{name} baseline"),
            format!("{}x{}x{}", base_shape.0, base_shape.1, base_shape.2),
            base_plan.to_string(),
            base_spec.to_string(),
            base.throughput_seqs_per_s(),
            1.0
        );
        let (x, y, z) = best.shape;
        let _ = writeln!(
            out,
            "{:<22} {:>12} {:>12} {:>10} {:>8.1} {:>6.2}x",
            format!("{name} search best"),
            format!("{x}x{y}x{z}"),
            best.plan.to_string(),
            best.sharding.to_string(),
            best.cost.throughput_seqs_per_s(),
            best.cost.throughput_seqs_per_s() / base.throughput_seqs_per_s()
        );
    };

    case(
        "LLM (novice)",
        &LlmConfig::table3_llm(),
        (4, 8, 16),
        Partitioning::new(1, 1, 16, 32),
        ShardingSpec::new(2, 2),
        &mut out,
    );
    case(
        "GPT-3 (expert)",
        &LlmConfig::gpt3(),
        (8, 8, 8),
        Partitioning::new(8, 1, 8, 8),
        ShardingSpec::new(2, 2),
        &mut out,
    );
    let _ = writeln!(out, "(paper gains: 2.3x novice, 1.2x expert)");
    out
}

fn spec_rows(spec: &ChipSpec) -> Vec<(String, String)> {
    vec![
        ("deployed".into(), spec.deployed.to_string()),
        (
            "peak bf16 TFLOPS".into(),
            format!("{:.0}", spec.peak_tflops),
        ),
        ("clock MHz".into(), format!("{:.0}", spec.clock_mhz)),
        ("process nm".into(), spec.tech_nm.to_string()),
        ("die mm^2".into(), format!("{:.0}", spec.die_mm2)),
        ("transistors B".into(), format!("{:.0}", spec.transistors_b)),
        ("chips/host".into(), spec.chips_per_host.to_string()),
        (
            "ICI".into(),
            format!(
                "{} links @ {:.0} GB/s",
                spec.ici_links, spec.ici_gbps_per_link
            ),
        ),
        ("largest config".into(), spec.largest_config.to_string()),
        ("processors".into(), spec.processors.to_string()),
        ("threads/core".into(), spec.threads_per_core.to_string()),
        ("SparseCores".into(), spec.sparse_cores.to_string()),
        ("on-chip MiB".into(), format!("{:.0}", spec.on_chip_mib)),
        ("regfile MiB".into(), format!("{:.2}", spec.regfile_mib)),
        (
            "HBM".into(),
            format!("{:.0} GiB @ {:.0} GB/s", spec.hbm_gib, spec.hbm_gbps),
        ),
    ]
}

fn feature_table(specs: &[ChipSpec]) -> String {
    let mut out = String::new();
    let _ = write!(out, "{:<18}", "feature");
    for s in specs {
        let _ = write!(out, " {:>24}", s.name);
    }
    let _ = writeln!(out);
    let rows: Vec<Vec<(String, String)>> = specs.iter().map(spec_rows).collect();
    for i in 0..rows[0].len() {
        let _ = write!(out, "{:<18}", rows[0][i].0);
        for r in &rows {
            let _ = write!(out, " {:>24}", r[i].1);
        }
        let _ = writeln!(out);
    }
    out
}

/// Table 4: TPU v4 and TPU v3 features.
pub fn table4() -> String {
    feature_table(&[ChipSpec::tpu_v4(), ChipSpec::tpu_v3()])
}

/// Table 5: A100 and IPU Bow features.
pub fn table5() -> String {
    feature_table(&[ChipSpec::a100(), ChipSpec::ipu_bow()])
}

/// Table 6: measured vs modelled MLPerf power.
pub fn table6() -> String {
    let mut out = String::new();
    let measured = Table6::measured();
    let modeled = Table6::modeled();
    let _ = writeln!(
        out,
        "{:<10} {:>11} {:>11} {:>7} | {:>11} {:>11}",
        "benchmark", "A100 (meas)", "TPUv4 (meas)", "ratio", "A100 (model)", "TPUv4 (model)"
    );
    for (m, md) in measured.rows().iter().zip(modeled.rows()) {
        let _ = writeln!(
            out,
            "{:<10} {:>10.0}W {:>10.0}W {:>6.2}x | {:>10.0}W {:>11.0}W",
            m.benchmark,
            m.a100_w,
            m.tpu_v4_w,
            m.ratio(),
            md.a100_w,
            md.tpu_v4_w
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_mentions_all_families() {
        let t = table1();
        for s in ["MLP/DLRM", "RNN", "CNN", "Transformer", "(BERT)", "(LLM)"] {
            assert!(t.contains(s), "{s} missing:\n{t}");
        }
    }

    #[test]
    fn table2_summary_lines() {
        let t = table2();
        assert!(t.contains("paper: 29%"));
        assert!(t.contains("paper: 28%"));
        assert!(t.contains("4x4x8"));
    }

    #[test]
    fn table4_and_5_have_headline_numbers() {
        let t4 = table4();
        assert!(t4.contains("275"));
        assert!(t4.contains("123"));
        let t5 = table5();
        assert!(t5.contains("312"));
        assert!(t5.contains("250"));
    }

    #[test]
    fn table6_shows_ratios() {
        let t = table6();
        assert!(t.contains("1.93x"));
        assert!(t.contains("1.33x"));
    }
}
