//! Incremental deployment (§2.4).
//!
//! "TPU v3 systems were not usable until all 1024 chips and all cables
//! were installed and tested ... For TPU v4, OCSes made each rack
//! independent, so each 4³ block was put into production as soon as 64
//! chips and the necessary cables were installed and tested."

use serde::{Deserialize, Serialize};

/// A deployment timeline: block arrival days (possibly out of order,
/// modelling delivery delays).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentModel {
    arrival_days: Vec<f64>,
}

impl DeploymentModel {
    /// Creates a timeline from per-block arrival days.
    ///
    /// # Panics
    ///
    /// Panics if the timeline is empty or contains a negative day.
    pub fn new(arrival_days: Vec<f64>) -> DeploymentModel {
        assert!(
            !arrival_days.is_empty(),
            "deployment needs at least one block"
        );
        assert!(
            arrival_days.iter().all(|&d| d >= 0.0),
            "arrival days must be non-negative"
        );
        DeploymentModel { arrival_days }
    }

    /// A uniform rollout: `blocks` blocks, one every `interval_days`,
    /// with the `delayed` last block held up by `delay_days` extra (the
    /// §2.4 "delivery delays for any component" scenario).
    pub fn uniform_with_delay(blocks: u32, interval_days: f64, delay_days: f64) -> DeploymentModel {
        let mut days: Vec<f64> = (0..blocks).map(|i| f64::from(i) * interval_days).collect();
        if let Some(last) = days.last_mut() {
            *last += delay_days;
        }
        DeploymentModel::new(days)
    }

    /// Day the machine is complete.
    pub fn completion_day(&self) -> f64 {
        self.arrival_days.iter().copied().fold(0.0, f64::max)
    }

    /// Integrated capacity (block-days) from day 0 to `horizon` under
    /// incremental deployment.
    pub fn incremental_block_days(&self, horizon: f64) -> f64 {
        self.arrival_days
            .iter()
            .map(|&d| (horizon - d).max(0.0))
            .sum()
    }

    /// Integrated capacity under all-or-nothing (static) deployment: no
    /// capacity until the last block lands.
    pub fn static_block_days(&self, horizon: f64) -> f64 {
        let done = self.completion_day();
        (horizon - done).max(0.0) * self.arrival_days.len() as f64
    }

    /// Capacity advantage of incremental over static deployment up to
    /// `horizon` (≥ 1; ∞ when static has produced nothing yet).
    pub fn incremental_advantage(&self, horizon: f64) -> f64 {
        let st = self.static_block_days(horizon);
        let inc = self.incremental_block_days(horizon);
        if st == 0.0 {
            if inc == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            inc / st
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_rollout_counts() {
        let d = DeploymentModel::uniform_with_delay(64, 1.0, 0.0);
        assert_eq!(d.completion_day(), 63.0);
    }

    #[test]
    fn incremental_beats_static() {
        let d = DeploymentModel::uniform_with_delay(64, 1.0, 0.0);
        let horizon = 90.0;
        assert!(d.incremental_block_days(horizon) > d.static_block_days(horizon));
        assert!(d.incremental_advantage(horizon) > 1.0);
    }

    #[test]
    fn delivery_delay_cripples_static_only() {
        // One late block: the static machine waits for it, the OCS
        // machine keeps 63 blocks in production.
        let on_time = DeploymentModel::uniform_with_delay(64, 1.0, 0.0);
        let delayed = DeploymentModel::uniform_with_delay(64, 1.0, 60.0);
        let horizon = 130.0;
        let static_loss = on_time.static_block_days(horizon) - delayed.static_block_days(horizon);
        let inc_loss =
            on_time.incremental_block_days(horizon) - delayed.incremental_block_days(horizon);
        assert_eq!(inc_loss, 60.0); // one block x 60 days
        assert_eq!(static_loss, 60.0 * 64.0); // the whole machine x 60 days
    }

    #[test]
    fn before_completion_static_has_nothing() {
        let d = DeploymentModel::uniform_with_delay(8, 1.0, 0.0);
        assert_eq!(d.static_block_days(5.0), 0.0);
        assert!(d.incremental_block_days(5.0) > 0.0);
        assert_eq!(d.incremental_advantage(5.0), f64::INFINITY);
    }

    #[test]
    fn at_horizon_zero_nothing_anywhere() {
        let d = DeploymentModel::new(vec![1.0, 2.0]);
        assert_eq!(d.incremental_block_days(0.5), 0.0);
        assert_eq!(d.incremental_advantage(0.5), 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn empty_timeline_rejected() {
        let _ = DeploymentModel::new(vec![]);
    }
}
