//! The §7.6 "4Ms" operational energy and CO₂e model.
//!
//! Energy ratio = Model × Machine × Mechanization; CO₂e additionally
//! multiplies by Map (grid carbon intensity). The paper's walkthrough:
//! same model (1.0) × 2× perf/W × (1.57 / 1.10) PUE ≈ 2.85× energy, and
//! 2.85 × (0.475 / 0.074) ≈ 18.3× CO₂e.

/// A datacenter hosting an ML system.
#[derive(Debug, Clone, PartialEq)]
pub struct Datacenter {
    /// Name.
    pub name: String,
    /// Power usage effectiveness (total facility power / IT power).
    pub pue: f64,
    /// Carbon-free energy fraction of the local supply.
    pub cfe_fraction: f64,
    /// Effective CO₂e intensity, kg per kWh consumed.
    pub kg_co2e_per_kwh: f64,
}

impl Datacenter {
    /// Google's Oklahoma datacenters hosting all Cloud TPU v4 machines:
    /// PUE 1.10, ~88–90% CFE, 0.074 kg CO₂e/kWh after hourly-matched
    /// renewable purchases.
    pub fn google_oklahoma() -> Datacenter {
        Datacenter {
            name: "Google Oklahoma WSC".into(),
            pue: 1.10,
            cfe_fraction: 0.88,
            kg_co2e_per_kwh: 0.074,
        }
    }

    /// The worldwide-average on-premise datacenter: PUE 1.57, US-average
    /// 40% CFE, global-average 0.475 kg CO₂e/kWh.
    pub fn average_on_premise() -> Datacenter {
        Datacenter {
            name: "Average on-premise DC".into(),
            pue: 1.57,
            cfe_fraction: 0.40,
            kg_co2e_per_kwh: 0.475,
        }
    }

    /// A 2008-vintage datacenter (PUE 2.50 per \[52\]) for historical
    /// comparisons.
    pub fn vintage_2008() -> Datacenter {
        Datacenter {
            name: "2008 datacenter".into(),
            pue: 2.50,
            cfe_fraction: 0.25,
            kg_co2e_per_kwh: 0.60,
        }
    }
}

/// The 4Ms comparison between a reference DSA and TPU v4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CarbonModel {
    /// Model factor (1.0 = both systems train the same model).
    pub model_factor: f64,
    /// Machine factor: the other DSA's perf/W deficit vs TPU v4
    /// (paper: "~2x-6x; to be conservative, we assume 2x").
    pub machine_factor: f64,
}

impl CarbonModel {
    /// The paper's conservative walkthrough values.
    pub fn paper_default() -> CarbonModel {
        CarbonModel {
            model_factor: 1.0,
            machine_factor: 2.0,
        }
    }

    /// Relative energy (kWh) of training on the reference DSA in
    /// `other` versus TPU v4 in `tpu` (paper: 2 × 1.57 / 1.10 ≈ 2.85×).
    pub fn energy_ratio(&self, other: &Datacenter, tpu: &Datacenter) -> f64 {
        self.model_factor * self.machine_factor * other.pue / tpu.pue
    }

    /// Relative operational CO₂e (paper: ≈18.3×; the summary rounds the
    /// whole-stack advantage to ~20×).
    pub fn co2e_ratio(&self, other: &Datacenter, tpu: &Datacenter) -> f64 {
        self.energy_ratio(other, tpu) * other.kg_co2e_per_kwh / tpu.kg_co2e_per_kwh
    }

    /// CO₂e emitted training a job of `it_energy_kwh` (IT-side energy)
    /// in a datacenter, kg.
    pub fn job_co2e_kg(&self, dc: &Datacenter, it_energy_kwh: f64) -> f64 {
        it_energy_kwh * dc.pue * dc.kg_co2e_per_kwh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_ratio_matches_section_7_6() {
        // "2 × 1.57 ÷ 1.10 or 2.85x more energy."
        let m = CarbonModel::paper_default();
        let r = m.energy_ratio(
            &Datacenter::average_on_premise(),
            &Datacenter::google_oklahoma(),
        );
        assert!((r - 2.854).abs() < 0.01, "{r}");
    }

    #[test]
    fn co2e_ratio_matches_section_7_6() {
        // "2.85 × 0.475 ÷ 0.074 or ~18.3x higher."
        let m = CarbonModel::paper_default();
        let r = m.co2e_ratio(
            &Datacenter::average_on_premise(),
            &Datacenter::google_oklahoma(),
        );
        assert!((17.5..19.5).contains(&r), "{r}");
    }

    #[test]
    fn summary_20x_with_machine_range() {
        // §9: "~20x reduction in carbon footprint"; the machine factor
        // ranges 2-6x, so the full range is ~18x-55x.
        let mut m = CarbonModel::paper_default();
        let other = Datacenter::average_on_premise();
        let tpu = Datacenter::google_oklahoma();
        let low = m.co2e_ratio(&other, &tpu);
        m.machine_factor = 6.0;
        let high = m.co2e_ratio(&other, &tpu);
        assert!(low > 15.0 && high > 50.0, "{low} {high}");
    }

    #[test]
    fn energy_range_one_sixth_to_one_half() {
        // §9: TPU v4 consumes "~1/6 - 1/2 of the energy" of a
        // contemporary DSA on premise.
        let tpu = Datacenter::google_oklahoma();
        let other = Datacenter::average_on_premise();
        for machine in [2.0, 6.0] {
            let m = CarbonModel {
                model_factor: 1.0,
                machine_factor: machine,
            };
            let inv = 1.0 / m.energy_ratio(&other, &tpu);
            assert!((0.10..=0.51).contains(&inv), "machine {machine}: {inv}");
        }
    }

    #[test]
    fn pue_history() {
        // Google halved its overhead from 21% (PUE 1.21, 2008) to 10%;
        // world average fell from 2.50 to 1.57.
        assert!(Datacenter::vintage_2008().pue > Datacenter::average_on_premise().pue);
        assert!((Datacenter::google_oklahoma().pue - 1.10).abs() < 1e-9);
    }

    #[test]
    fn job_co2e_accounting() {
        let m = CarbonModel::paper_default();
        let tpu = Datacenter::google_oklahoma();
        // 1 MWh IT-side in Oklahoma: 1000 x 1.1 x 0.074 = 81.4 kg.
        let kg = m.job_co2e_kg(&tpu, 1000.0);
        assert!((kg - 81.4).abs() < 0.1);
        // Same job on premise emits ~9x more per kWh even before the
        // machine factor.
        let onprem = m.job_co2e_kg(&Datacenter::average_on_premise(), 1000.0);
        assert!(onprem / kg > 8.0);
    }

    #[test]
    fn cfe_fractions_match_sources() {
        // US average 40%, Google Oklahoma 88%.
        assert_eq!(Datacenter::average_on_premise().cfe_fraction, 0.40);
        assert!(Datacenter::google_oklahoma().cfe_fraction >= 0.88);
    }
}
