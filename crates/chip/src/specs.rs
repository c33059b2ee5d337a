//! The DSA feature database of Tables 4 and 5.
//!
//! The `ChipSpec` record and its constructors moved to `tpu-spec` (the
//! generation-parameterized machine-description layer); this module
//! re-exports them so `tpu_chip::ChipSpec` keeps working. The paper-ratio
//! tests stay here, exercising the specs through the re-export.

pub use tpu_spec::{ChipSpec, ProcessorStyle};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_headline_ratios() {
        let v4 = ChipSpec::tpu_v4();
        let v3 = ChipSpec::tpu_v3();
        // "2.2X gain in peak performance".
        let peak = v4.peak_tflops / v3.peak_tflops;
        assert!((2.2..2.3).contains(&peak), "{peak}");
        // "11% faster clock".
        let clock = v4.clock_mhz / v3.clock_mhz;
        assert!((1.11..1.12).contains(&clock), "{clock}");
        // "HBM memory bandwidth is 1.3x higher".
        let hbm = v4.hbm_gbps / v3.hbm_gbps;
        assert!((1.32..1.34).contains(&hbm), "{hbm}");
        // Largest configuration is 4x.
        assert_eq!(v4.largest_config, 4 * v3.largest_config);
        // Twice the SparseCores.
        assert_eq!(v4.sparse_cores, 2 * v3.sparse_cores);
    }

    #[test]
    fn table5_thread_counts() {
        let threads = |c: ChipSpec| c.processors * c.threads_per_core;
        assert_eq!(threads(ChipSpec::a100()), 3456);
        assert_eq!(threads(ChipSpec::ipu_bow()), 8832);
        assert_eq!(threads(ChipSpec::tpu_v4()), 2);
    }

    #[test]
    fn a100_peak_edge_over_v4() {
        // §7.1: "the A100 peak FLOPS/second rate is 1.13x TPU v4".
        let r = ChipSpec::a100().peak_tflops / ChipSpec::tpu_v4().peak_tflops;
        assert!((1.13..1.14).contains(&r), "{r}");
    }

    #[test]
    fn ipu_peak_ratio() {
        // §7.1: TPU v4 has "a 1.10x edge in peak FLOPS/second" over IPU.
        let r = ChipSpec::tpu_v4().peak_tflops / ChipSpec::ipu_bow().peak_tflops;
        assert!((1.09..1.11).contains(&r), "{r}");
    }

    #[test]
    fn register_file_ratio() {
        // §7.5: "100x larger register file (27 MiB versus 0.25 MiB)".
        let r = ChipSpec::a100().regfile_mib / ChipSpec::tpu_v4().regfile_mib;
        assert!((100.0..110.0).contains(&r), "{r}");
    }

    #[test]
    fn on_chip_sram_ratio() {
        // §7.5: "4x larger on-chip SRAM (160 MB versus 40 MB)" for v4 vs A100.
        let v4 = ChipSpec::tpu_v4();
        assert!((v4.on_chip_mib - 170.0).abs() < 0.5); // 128 + 32 + 10
        let usable = v4.cmem_mib + 32.0; // CMEM + VMEM as in §7.5's 160 MB
        assert!((usable / ChipSpec::a100().on_chip_mib - 4.0).abs() < 0.01);
    }

    #[test]
    fn ici_aggregate_bandwidth() {
        let total_gbps = |c: ChipSpec| f64::from(c.ici_links) * c.ici_gbps_per_link;
        assert_eq!(total_gbps(ChipSpec::tpu_v4()), 300.0);
        assert_eq!(total_gbps(ChipSpec::tpu_v3()), 280.0);
        assert_eq!(total_gbps(ChipSpec::a100()), 300.0);
        assert_eq!(total_gbps(ChipSpec::ipu_bow()), 192.0);
    }

    #[test]
    fn cmem_ablation() {
        let v4 = ChipSpec::tpu_v4();
        let off = v4.without_cmem();
        assert_eq!(off.cmem_mib, 0.0);
        assert_eq!(off.on_chip_mib, 42.0);
        assert!(off.name.contains("CMEM off"));
        // Everything else unchanged.
        assert_eq!(off.peak_tflops, v4.peak_tflops);
        assert_eq!(off.hbm_gbps, v4.hbm_gbps);
    }

    #[test]
    fn mean_power_fallbacks() {
        assert_eq!(ChipSpec::tpu_v4().mean_power_w(), 170.0);
        assert_eq!(ChipSpec::a100().mean_power_w(), 400.0);
        assert_eq!(ChipSpec::ipu_bow().mean_power_w(), 300.0);
    }

    #[test]
    fn die_sizes_full_reticle() {
        // §6: A100 and IPU dies are "~40% larger than the TPU v4 die".
        let v4 = ChipSpec::tpu_v4().die_mm2;
        for spec in [ChipSpec::a100(), ChipSpec::ipu_bow()] {
            let r = spec.die_mm2 / v4;
            assert!((1.3..1.45).contains(&r), "{}: {r}", spec.name);
        }
    }
}
