//! Capital cost and power accounting for the optical fabric (§2.10).
//!
//! "Remarkably, given all the benefits of OCSes, their cost is <5% of the
//! total TPU v4 supercomputer capital costs and <3% of total power. The
//! power and cost accounting includes the entire optical fabric, including
//! the optics modules, fiber, and OCS infrastructure."
//!
//! Absolute dollar figures are not public; the defaults below are
//! plausible industry estimates chosen once and *checked* against the
//! paper's envelope (the tests fail if the modelled shares leave the
//! published bounds). The wavelength-multiplexing headroom of §7.2 is
//! the [`CostModel::wavelengths`] field.

use crate::block::OPTICAL_LINKS_PER_BLOCK;
use crate::switch::PALOMAR_PORTS;
use crate::wiring::OCS_COUNT;
use serde::{Deserialize, Serialize};

/// Cost and power parameters for one TPU v4 supercomputer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// All-in capital cost per deployed chip (chip, HBM, tray, host share,
    /// rack, cooling), USD.
    pub system_cost_per_chip: f64,
    /// Mean wall power per deployed chip including host/cooling share, W.
    pub system_power_per_chip: f64,
    /// Cost of one optical transceiver module, USD.
    pub transceiver_cost: f64,
    /// Power of one optical transceiver module, W.
    pub transceiver_power: f64,
    /// Cost of one installed fiber run (with circulator), USD.
    pub fiber_cost: f64,
    /// Cost of one OCS unit, USD.
    pub ocs_cost: f64,
    /// Power of one OCS unit, W (MEMS mirrors only need holding power).
    pub ocs_power: f64,
    /// Wavelengths multiplexed per fiber (1 = no WDM; >1 models the §7.2
    /// "multiple terabits/second per link" headroom: bandwidth scales,
    /// transceiver cost scales, OCS cost does not).
    pub wavelengths: u32,
}

impl CostModel {
    /// Default estimates for the 2020 TPU v4 deployment. This is not
    /// derived from a [`MachineSpec`](tpu_spec::MachineSpec) — the
    /// <5%-of-capex numbers of §2.10 are deployment estimates the paper
    /// publishes directly.
    pub fn tpu_v4_estimates() -> CostModel {
        CostModel {
            system_cost_per_chip: 25_000.0,
            system_power_per_chip: 450.0,
            transceiver_cost: 150.0,
            transceiver_power: 3.5,
            fiber_cost: 30.0,
            ocs_cost: 50_000.0,
            ocs_power: 100.0,
            wavelengths: 1,
        }
    }

    /// Evaluates the model for a machine of `blocks` 4³ blocks.
    pub fn evaluate(&self, blocks: u32) -> CostReport {
        let chips = u64::from(blocks) * 64;
        // Each block has 96 optical fibers; each fiber terminates in a
        // transceiver at both ends (tray side and, through the OCS mirror,
        // the far tray side). Circulators mean one fiber carries both
        // directions, so no doubling beyond the two ends.
        let fibers = u64::from(blocks) * u64::from(OPTICAL_LINKS_PER_BLOCK);
        let transceivers = fibers * 2 * u64::from(self.wavelengths);
        let ocses = u64::from(OCS_COUNT);

        let optics_cost = transceivers as f64 * self.transceiver_cost
            + fibers as f64 * self.fiber_cost
            + ocses as f64 * self.ocs_cost;
        let optics_power =
            transceivers as f64 * self.transceiver_power + ocses as f64 * self.ocs_power;
        let system_cost = chips as f64 * self.system_cost_per_chip;
        let system_power = chips as f64 * self.system_power_per_chip;

        CostReport {
            chips,
            fibers,
            transceivers,
            ocs_count: ocses,
            ocs_ports_total: ocses * u64::from(PALOMAR_PORTS),
            optics_cost_usd: optics_cost,
            optics_power_w: optics_power,
            system_cost_usd: system_cost + optics_cost,
            system_power_w: system_power + optics_power,
        }
    }
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel::tpu_v4_estimates()
    }
}

/// Evaluated cost/power shares of the optical fabric.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostReport {
    /// Chips in the machine.
    pub chips: u64,
    /// Optical fibers installed.
    pub fibers: u64,
    /// Transceiver modules installed.
    pub transceivers: u64,
    /// OCS units.
    pub ocs_count: u64,
    /// Total OCS ports across the fabric.
    pub ocs_ports_total: u64,
    /// Capital cost of the optical fabric, USD.
    pub optics_cost_usd: f64,
    /// Power of the optical fabric, W.
    pub optics_power_w: f64,
    /// Total system capital cost (compute + optics), USD.
    pub system_cost_usd: f64,
    /// Total system power (compute + optics), W.
    pub system_power_w: f64,
}

impl CostReport {
    /// Optics share of total capital cost (paper: < 5%).
    pub fn optics_cost_share(&self) -> f64 {
        self.optics_cost_usd / self.system_cost_usd
    }

    /// Optics share of total power (paper: < 3%).
    pub fn optics_power_share(&self) -> f64 {
        self.optics_power_w / self.system_power_w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_machine_counts() {
        let r = CostModel::default().evaluate(64);
        assert_eq!(r.chips, 4096);
        assert_eq!(r.fibers, 64 * 96);
        assert_eq!(r.transceivers, 64 * 96 * 2);
        assert_eq!(r.ocs_count, 48);
        assert_eq!(r.ocs_ports_total, 48 * 136);
    }

    #[test]
    fn paper_envelope_cost_below_5_percent() {
        let r = CostModel::default().evaluate(64);
        let share = r.optics_cost_share();
        assert!(share < 0.05, "optics cost share {share} >= 5%");
        assert!(share > 0.01, "optics cost share {share} implausibly low");
    }

    #[test]
    fn paper_envelope_power_below_3_percent() {
        let r = CostModel::default().evaluate(64);
        let share = r.optics_power_share();
        assert!(share < 0.03, "optics power share {share} >= 3%");
        assert!(share > 0.005, "optics power share {share} implausibly low");
    }

    #[test]
    fn wdm_scales_transceivers_not_ocs() {
        let base = CostModel::default().evaluate(64);
        let wdm = CostModel {
            wavelengths: 4,
            ..CostModel::default()
        }
        .evaluate(64);
        assert_eq!(wdm.transceivers, 4 * base.transceivers);
        assert_eq!(wdm.ocs_count, base.ocs_count);
        assert!(wdm.optics_cost_usd > base.optics_cost_usd);
    }

    #[test]
    fn smaller_machine_scales_down() {
        let small = CostModel::default().evaluate(8);
        let full = CostModel::default().evaluate(64);
        assert_eq!(small.chips, 512);
        assert!(small.optics_cost_usd < full.optics_cost_usd);
        // OCS count is fixed — small machines pay proportionally more for
        // switches, so the share rises.
        assert!(small.optics_cost_share() > full.optics_cost_share());
    }
}
