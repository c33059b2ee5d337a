//! The reproduction harness: one experiment per table and figure of the
//! paper's evaluation, each regenerating the published rows/series from
//! the simulator stack.
//!
//! Run everything with:
//!
//! ```sh
//! cargo run --release -p tpu-bench --bin repro
//! ```
//!
//! or a single experiment with `--only fig6` etc.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures_net;
pub mod figures_perf;
pub mod figures_sc;
pub mod sections;
pub mod tables;

/// One reproducible experiment.
pub struct Experiment {
    /// Short id (`table1`, `fig6`, `sec7_3`, …).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Regenerates the table/series as preformatted text.
    pub run: fn() -> String,
}

/// Every experiment, in paper order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "table1",
            title: "Table 1: workload mix by DNN model type",
            run: tables::table1,
        },
        Experiment {
            id: "fig1",
            title: "Figure 1: 4^3 block to OCS connectivity audit",
            run: figures_net::fig1,
        },
        Experiment {
            id: "fig4",
            title: "Figure 4: goodput vs availability, OCS vs static",
            run: figures_net::fig4,
        },
        Experiment {
            id: "fig4_fleet",
            title: "Figure 4 from fleet simulation: submit on OCS vs static fabrics",
            run: figures_net::fig4_fleet,
        },
        Experiment {
            id: "fleet_des",
            title: "Figure 4 from discrete-event fleet traces, plus the operational view",
            run: figures_net::fleet_des,
        },
        Experiment {
            id: "table2",
            title: "Table 2: production slice popularity",
            run: tables::table2,
        },
        Experiment {
            id: "fig5",
            title: "Figure 5: regular vs twisted wiring (link map)",
            run: figures_net::fig5,
        },
        Experiment {
            id: "fig6",
            title: "Figure 6: all-to-all, regular vs twisted tori",
            run: figures_net::fig6,
        },
        Experiment {
            id: "sec2_9",
            title: "Section 2.9: twist adoption statistics",
            run: sections::sec2_9,
        },
        Experiment {
            id: "sec2_10",
            title: "Section 2.10: optics share of system cost and power",
            run: sections::sec2_10,
        },
        Experiment {
            id: "fig8",
            title: "Figure 8: bisection ratio and DLRM sensitivity",
            run: figures_sc::fig8,
        },
        Experiment {
            id: "fig9",
            title: "Figure 9: DLRM0 across systems and placements",
            run: figures_sc::fig9,
        },
        Experiment {
            id: "fig10",
            title: "Figure 10: PA-NAS SC/TC load balance",
            run: figures_sc::fig10,
        },
        Experiment {
            id: "table3",
            title: "Table 3: topology & parallelism search",
            run: tables::table3,
        },
        Experiment {
            id: "fig11",
            title: "Figure 11: production workload scalability",
            run: figures_perf::fig11,
        },
        Experiment {
            id: "table4",
            title: "Table 4: TPU v4 and TPU v3 features",
            run: tables::table4,
        },
        Experiment {
            id: "fig12",
            title: "Figure 12: speedup of TPU v4 vs v3",
            run: figures_perf::fig12,
        },
        Experiment {
            id: "fig13",
            title: "Figure 13: CMEM ablation and perf/Watt",
            run: figures_perf::fig13,
        },
        Experiment {
            id: "table5",
            title: "Table 5: A100 and IPU Bow features",
            run: tables::table5,
        },
        Experiment {
            id: "fig14",
            title: "Figure 14: MLPerf 2.0 peak results",
            run: figures_perf::fig14,
        },
        Experiment {
            id: "fig15",
            title: "Figure 15: MLPerf BERT/ResNet scaling",
            run: figures_perf::fig15,
        },
        Experiment {
            id: "fig15_tail",
            title: "Figure 15 tail: derived from the latency-aware backend",
            run: figures_perf::fig15_tail,
        },
        Experiment {
            id: "table6",
            title: "Table 6: measured MLPerf power",
            run: tables::table6,
        },
        Experiment {
            id: "fig16",
            title: "Figure 16: rooflines",
            run: figures_perf::fig16,
        },
        Experiment {
            id: "fig17",
            title: "Figure 17: DLRM0 growth 2017-2022",
            run: figures_perf::fig17,
        },
        Experiment {
            id: "sec7_2",
            title: "Section 7.2: TPU v4 vs A100 (switched backend)",
            run: sections::sec7_2,
        },
        Experiment {
            id: "sec7_3",
            title: "Section 7.3: InfiniBand vs OCS/ICI",
            run: sections::sec7_3,
        },
        Experiment {
            id: "sweep",
            title: "Cross-generation collective sweep (V2/V3/V4/A100/v4-ib)",
            run: sections::sweep,
        },
        Experiment {
            id: "crossover",
            title: "Latency/bandwidth crossover payloads per machine (§7.9/§8)",
            run: sections::crossover,
        },
        Experiment {
            id: "schedule_crossover",
            title: "Ring/tree schedule crossover surface per machine spec",
            run: sections::schedule_crossover,
        },
        Experiment {
            id: "sec7_6",
            title: "Section 7.6: energy and CO2e (4Ms)",
            run: sections::sec7_6,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_table_and_figure() {
        let ids: Vec<&str> = all_experiments().iter().map(|e| e.id).collect();
        for want in [
            "table1",
            "table2",
            "table3",
            "table4",
            "table5",
            "table6",
            "fig1",
            "fig4",
            "fig4_fleet",
            "fleet_des",
            "fig5",
            "fig6",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig15_tail",
            "fig16",
            "fig17",
            "sec2_9",
            "sec2_10",
            "sec7_2",
            "sec7_3",
            "sec7_6",
            "sweep",
            "crossover",
            "schedule_crossover",
        ] {
            assert!(ids.contains(&want), "{want} missing from the registry");
        }
    }

    #[test]
    fn ids_are_unique() {
        let mut ids: Vec<&str> = all_experiments().iter().map(|e| e.id).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn every_experiment_produces_output() {
        for e in all_experiments() {
            // Skip the slowest Monte Carlos in debug test runs; they have
            // their own integration coverage.
            if (e.id == "fig4" || e.id == "fig4_fleet" || e.id == "fleet_des")
                && cfg!(debug_assertions)
            {
                continue;
            }
            let out = (e.run)();
            assert!(!out.trim().is_empty(), "{} produced no output", e.id);
        }
    }
}
