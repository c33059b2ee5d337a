//! The DSA feature database of Tables 4 and 5: the one copy of the
//! numbers that every crate reads, `tpu-chip`'s models included.

use crate::consts;

/// Processor organization styles compared in Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessorStyle {
    /// "Single Instruction 2D Data" — the TPU's systolic organization.
    SingleInstruction2dData,
    /// SIMT — the GPU organization.
    SingleInstructionMultipleThreads,
    /// MIMD — the IPU organization.
    MultipleInstructionMultipleData,
}

impl ProcessorStyle {
    /// Short machine-readable label, used by the JSON form.
    pub fn label(self) -> &'static str {
        match self {
            ProcessorStyle::SingleInstruction2dData => "si2d",
            ProcessorStyle::SingleInstructionMultipleThreads => "simt",
            ProcessorStyle::MultipleInstructionMultipleData => "mimd",
        }
    }

    /// Parses a label produced by [`ProcessorStyle::label`].
    pub fn from_label(label: &str) -> Option<ProcessorStyle> {
        match label {
            "si2d" => Some(ProcessorStyle::SingleInstruction2dData),
            "simt" => Some(ProcessorStyle::SingleInstructionMultipleThreads),
            "mimd" => Some(ProcessorStyle::MultipleInstructionMultipleData),
            _ => None,
        }
    }
}

/// One accelerator chip's published features (Tables 4 and 5).
///
/// All fields are public data — this type is a record, in the C-struct
/// spirit; the simulator never mutates specs after construction.
#[derive(Debug, Clone, PartialEq)]
pub struct ChipSpec {
    /// Marketing name.
    pub name: String,
    /// Year of production deployment.
    pub deployed: u32,
    /// Peak dense bf16 TFLOPS per chip.
    pub peak_tflops: f64,
    /// Peak int8 TOPS per chip (if different from bf16).
    pub peak_tops_int8: f64,
    /// Base clock, MHz.
    pub clock_mhz: f64,
    /// Boost clock, MHz (equals base when no boost exists).
    pub boost_clock_mhz: f64,
    /// Process node, nm.
    pub tech_nm: u32,
    /// Die size, mm² (upper bound where the paper says "<").
    pub die_mm2: f64,
    /// Transistor count, billions.
    pub transistors_b: f64,
    /// Accelerator chips per CPU host.
    pub chips_per_host: u32,
    /// Thermal design power, W (`None` where the paper lists "N.A.").
    pub tdp_w: Option<f64>,
    /// Idle power, W (measured; TPUs only).
    pub idle_w: Option<f64>,
    /// Min/mean/max power running production applications, W.
    pub power_min_mean_max_w: Option<(f64, f64, f64)>,
    /// Inter-chip interconnect: number of links.
    pub ici_links: u32,
    /// Inter-chip interconnect: GB/s per link.
    pub ici_gbps_per_link: f64,
    /// Largest deployed/benchmarked configuration, chips.
    pub largest_config: u32,
    /// Processor style.
    pub style: ProcessorStyle,
    /// Processors (cores) per chip.
    pub processors: u32,
    /// Threads per core.
    pub threads_per_core: u32,
    /// SparseCores per chip (TPUs only).
    pub sparse_cores: u32,
    /// On-chip scratchpad/cache memory, MiB (total).
    pub on_chip_mib: f64,
    /// CMEM common-memory portion of the on-chip memory, MiB (TPU v4).
    pub cmem_mib: f64,
    /// Register file size, MiB.
    pub regfile_mib: f64,
    /// HBM capacity, GiB (0 for the HBM-less IPU).
    pub hbm_gib: f64,
    /// HBM bandwidth, GB/s.
    pub hbm_gbps: f64,
}

impl ChipSpec {
    /// TPU v4 (Table 4).
    pub fn tpu_v4() -> ChipSpec {
        ChipSpec {
            name: "TPU v4".into(),
            deployed: 2020,
            peak_tflops: 275.0,
            peak_tops_int8: 275.0,
            clock_mhz: 1050.0,
            boost_clock_mhz: 1050.0,
            tech_nm: 7,
            die_mm2: 600.0,
            transistors_b: 22.0,
            chips_per_host: consts::V4_TPUS_PER_HOST,
            tdp_w: None,
            idle_w: Some(90.0),
            power_min_mean_max_w: Some((121.0, 170.0, 192.0)),
            ici_links: 6,
            ici_gbps_per_link: consts::V4_ICI_GBPS,
            largest_config: consts::V4_FLEET_CHIPS as u32,
            style: ProcessorStyle::SingleInstruction2dData,
            processors: 2,
            threads_per_core: 1,
            sparse_cores: 4,
            on_chip_mib: 128.0 + 32.0 + 10.0,
            cmem_mib: 128.0,
            regfile_mib: 0.25,
            hbm_gib: 32.0,
            hbm_gbps: 1200.0,
        }
    }

    /// TPU v3 (Table 4).
    pub fn tpu_v3() -> ChipSpec {
        ChipSpec {
            name: "TPU v3".into(),
            deployed: 2018,
            peak_tflops: 123.0,
            peak_tops_int8: 123.0,
            clock_mhz: 940.0,
            boost_clock_mhz: 940.0,
            tech_nm: 16,
            die_mm2: 700.0,
            transistors_b: 10.0,
            chips_per_host: 8,
            tdp_w: None,
            idle_w: Some(123.0),
            power_min_mean_max_w: Some((175.0, 220.0, 262.0)),
            ici_links: 4,
            ici_gbps_per_link: consts::V3_ICI_GBPS,
            largest_config: 1024,
            style: ProcessorStyle::SingleInstruction2dData,
            processors: 2,
            threads_per_core: 1,
            sparse_cores: 2,
            on_chip_mib: 32.0 + 5.0,
            cmem_mib: 0.0,
            regfile_mib: 0.25,
            hbm_gib: 32.0,
            hbm_gbps: 900.0,
        }
    }

    /// TPU v2 (per \[26\]/\[39\]; the SparseCore debuted here in 2017).
    pub fn tpu_v2() -> ChipSpec {
        ChipSpec {
            name: "TPU v2".into(),
            deployed: 2017,
            peak_tflops: 46.0,
            peak_tops_int8: 46.0,
            clock_mhz: 700.0,
            boost_clock_mhz: 700.0,
            tech_nm: 16,
            die_mm2: 600.0,
            transistors_b: 9.0,
            chips_per_host: 4,
            tdp_w: None,
            idle_w: Some(53.0),
            power_min_mean_max_w: Some((120.0, 145.0, 175.0)),
            ici_links: 4,
            ici_gbps_per_link: consts::V2_ICI_GBPS,
            largest_config: 256,
            style: ProcessorStyle::SingleInstruction2dData,
            processors: 2,
            threads_per_core: 1,
            sparse_cores: 1,
            on_chip_mib: 32.0,
            cmem_mib: 0.0,
            regfile_mib: 0.25,
            hbm_gib: 16.0,
            hbm_gbps: 700.0,
        }
    }

    /// NVIDIA A100 (Table 5).
    pub fn a100() -> ChipSpec {
        ChipSpec {
            name: "NVIDIA A100".into(),
            deployed: 2020,
            peak_tflops: 312.0,
            peak_tops_int8: 624.0,
            clock_mhz: 1095.0,
            boost_clock_mhz: 1410.0,
            tech_nm: 7,
            die_mm2: 826.0,
            transistors_b: 54.0,
            chips_per_host: 4,
            tdp_w: Some(400.0),
            idle_w: None,
            power_min_mean_max_w: None,
            ici_links: 12,
            ici_gbps_per_link: 25.0,
            largest_config: 4216,
            style: ProcessorStyle::SingleInstructionMultipleThreads,
            processors: 108,
            threads_per_core: 32,
            sparse_cores: 0,
            on_chip_mib: 40.0,
            cmem_mib: 0.0,
            regfile_mib: 27.0,
            hbm_gib: 80.0,
            hbm_gbps: 2039.0,
        }
    }

    /// NVIDIA H100 SXM5 (post-paper comparison point; datasheet values).
    ///
    /// The `ici_*` fields carry NVLink4: 18 links × 25 GB/s per
    /// direction = 450 GB/s per GPU, reachable across the whole
    /// NVLink-switch domain — which is why the H100 machine spec's
    /// glueless island spans *multiple* hosts (DESIGN.md §6.1).
    pub fn h100() -> ChipSpec {
        ChipSpec {
            name: "NVIDIA H100".into(),
            deployed: 2022,
            peak_tflops: 989.0,
            peak_tops_int8: 1979.0,
            clock_mhz: 1590.0,
            boost_clock_mhz: 1980.0,
            tech_nm: 4,
            die_mm2: 814.0,
            transistors_b: 80.0,
            chips_per_host: 8,
            tdp_w: Some(700.0),
            idle_w: None,
            power_min_mean_max_w: None,
            ici_links: 18,
            ici_gbps_per_link: 25.0,
            largest_config: 4096,
            style: ProcessorStyle::SingleInstructionMultipleThreads,
            processors: 132,
            threads_per_core: 32,
            sparse_cores: 0,
            on_chip_mib: 50.0,
            cmem_mib: 0.0,
            regfile_mib: 33.0,
            hbm_gib: 80.0,
            hbm_gbps: 3350.0,
        }
    }

    /// Graphcore MK2 IPU Bow (Table 5).
    pub fn ipu_bow() -> ChipSpec {
        ChipSpec {
            name: "Graphcore MK2 IPU Bow".into(),
            deployed: 2021,
            peak_tflops: 250.0,
            peak_tops_int8: 250.0,
            clock_mhz: 1850.0,
            boost_clock_mhz: 1850.0,
            tech_nm: 7,
            die_mm2: 832.0,
            transistors_b: 59.0,
            chips_per_host: 4,
            tdp_w: Some(300.0),
            idle_w: None,
            power_min_mean_max_w: None,
            ici_links: 3,
            ici_gbps_per_link: 64.0,
            largest_config: 256,
            style: ProcessorStyle::MultipleInstructionMultipleData,
            processors: 1472,
            threads_per_core: 6,
            sparse_cores: 0,
            on_chip_mib: 900.0,
            cmem_mib: 0.0,
            regfile_mib: 1.40,
            hbm_gib: 0.0,
            hbm_gbps: 0.0,
        }
    }

    /// Mean power per chip under production load, W.
    ///
    /// Uses the measured mean where available (TPUs), otherwise falls
    /// back to TDP.
    pub fn mean_power_w(&self) -> f64 {
        self.power_min_mean_max_w
            .map(|(_, mean, _)| mean)
            .or(self.tdp_w)
            .unwrap_or(0.0)
    }

    /// A TPU v4 without its CMEM (the Figure 13 ablation): same chip,
    /// 32 MiB of on-chip memory visible to the model.
    pub fn without_cmem(&self) -> ChipSpec {
        ChipSpec {
            name: format!("{} (CMEM off)", self.name),
            on_chip_mib: self.on_chip_mib - self.cmem_mib,
            cmem_mib: 0.0,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn style_label_roundtrip() {
        for style in [
            ProcessorStyle::SingleInstruction2dData,
            ProcessorStyle::SingleInstructionMultipleThreads,
            ProcessorStyle::MultipleInstructionMultipleData,
        ] {
            assert_eq!(ProcessorStyle::from_label(style.label()), Some(style));
        }
        assert_eq!(ProcessorStyle::from_label("vliw"), None);
    }

    #[test]
    fn generation_constants_flow_into_chips() {
        assert_eq!(
            ChipSpec::tpu_v4().ici_gbps_per_link,
            crate::consts::V4_ICI_GBPS
        );
        assert_eq!(
            ChipSpec::tpu_v3().ici_gbps_per_link,
            crate::consts::V3_ICI_GBPS
        );
        assert_eq!(
            ChipSpec::tpu_v2().ici_gbps_per_link,
            crate::consts::V2_ICI_GBPS
        );
        assert_eq!(
            u64::from(ChipSpec::tpu_v4().largest_config),
            crate::consts::V4_FLEET_CHIPS
        );
    }

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
