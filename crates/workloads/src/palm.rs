//! The §9 PaLM data point: "the 540B parameter PaLM model \[sustained\] a
//! remarkable 57.8% of the peak hardware floating point performance over
//! 50 days while training on TPU v4 supercomputers."
//!
//! PaLM trained on two 3072-chip pods (6144 chips). Hardware FLOPs
//! utilization (HFU) counts rematerialization; model FLOPs utilization
//! (MFU) counts only the 6·N·T useful FLOPs.

use tpu_spec::MachineSpec;

/// A large-model training campaign on TPU v4.
#[derive(Debug, Clone, PartialEq)]
pub struct LlmCampaign {
    /// Model parameters.
    pub params: f64,
    /// Chips used.
    pub chips: u64,
    /// Wall-clock days.
    pub days: f64,
    /// Hardware FLOPs utilization (fraction of peak, including
    /// rematerialized compute).
    pub hfu: f64,
    /// Rematerialization factor: hardware FLOPs per useful model FLOP.
    pub remat_factor: f64,
    /// The machine the campaign ran on.
    pub spec: MachineSpec,
}

impl LlmCampaign {
    /// The PaLM-540B run as described in §9 (6144 chips = two 3072-chip
    /// slices, 50 days, 57.8% HFU; remat factor ~1.26 per the PaLM paper's
    /// reported 46.2% MFU).
    pub fn palm_540b() -> LlmCampaign {
        LlmCampaign {
            params: 540e9,
            chips: 6144,
            days: 50.0,
            hfu: 0.578,
            remat_factor: 0.578 / 0.462,
            spec: MachineSpec::v4(),
        }
    }

    /// Aggregate peak of the slice, FLOP/s.
    pub fn peak_flops(&self) -> f64 {
        self.chips as f64 * self.spec.peak_flops()
    }

    /// Model FLOPs utilization.
    pub fn mfu(&self) -> f64 {
        self.hfu / self.remat_factor
    }

    /// Useful model FLOPs executed over the campaign.
    pub fn useful_flops(&self) -> f64 {
        self.peak_flops() * self.mfu() * self.days * 86_400.0
    }

    /// Tokens trained (useful FLOPs / 6·params).
    pub fn tokens_trained(&self) -> f64 {
        self.useful_flops() / (6.0 * self.params)
    }

    /// Mean IT-side energy of the accelerators over the campaign, kWh,
    /// at the Table 4 mean production power.
    pub fn accelerator_energy_kwh(&self) -> f64 {
        let mean_w = self.spec.chip.mean_power_w();
        self.chips as f64 * mean_w * self.days * 24.0 / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn palm_tokens_match_published_order() {
        // PaLM trained on 780B tokens; the §9 arithmetic should land in
        // that neighborhood.
        let c = LlmCampaign::palm_540b();
        let tokens = c.tokens_trained();
        assert!(
            (0.6e12..1.1e12).contains(&tokens),
            "tokens {tokens:.3e} (published: 7.8e11)"
        );
    }

    #[test]
    fn mfu_matches_palm_paper() {
        let c = LlmCampaign::palm_540b();
        assert!((c.mfu() - 0.462).abs() < 0.001, "{}", c.mfu());
    }

    #[test]
    fn peak_is_1_7_exaflops() {
        // 6144 x 275 TFLOPS ≈ 1.69 EFLOP/s.
        let c = LlmCampaign::palm_540b();
        assert!((c.peak_flops() / 1e18 - 1.69).abs() < 0.01);
    }

    #[test]
    fn energy_order_of_magnitude() {
        // 6144 chips x 170 W x 50 days ≈ 1.25 GWh accelerator-side.
        let c = LlmCampaign::palm_540b();
        let gwh = c.accelerator_energy_kwh() / 1e6;
        assert!((1.0..1.5).contains(&gwh), "{gwh} GWh");
    }

    #[test]
    fn hfu_above_mfu() {
        let c = LlmCampaign::palm_540b();
        assert!(c.hfu > c.mfu());
        assert!(c.remat_factor > 1.0);
    }
}
