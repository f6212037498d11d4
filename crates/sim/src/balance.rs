//! Cost-guided SDC load balancing: configuration, state and events.
//!
//! The paper leans on density uniformity to keep same-color subdomains
//! equally loaded; non-uniform workloads (a carved void, an impact-heated
//! cluster) skew the per-subdomain pair counts and every color barrier then
//! waits on its slowest task. The balancer closes the measure → act loop
//! around [`crate::ForceEngine`]:
//!
//! 1. **cost estimates** — per-subdomain stored-pair counts
//!    (`SdcPlan::pair_counts`), with the per-pair *cost* EWMA-blended from
//!    the measured per-thread busy times when metrics are enabled;
//! 2. **LPT ordering** — heavy subdomains start first within each color
//!    (`sdc_core::schedule::ColorSchedule`), bitwise result-neutral;
//! 3. **plan search** — decomposition dims × per-axis caps scored by the
//!    predicted makespan under `md_perfmodel::MachineParams`
//!    (`sdc_core::schedule::search_plans`);
//! 4. **mid-run re-planning** — at neighbor-list rebuild, when the observed
//!    thread imbalance exceeds what the active plan predicts by more than
//!    [`BalanceConfig::replan_threshold`], the search re-runs and an adopted
//!    change is recorded as a [`RebalanceEvent`] (the analogue of
//!    [`sdc_core::DowngradeEvent`]).

use md_perfmodel::MachineParams;
use sdc_core::schedule::PlanChoice;
use sdc_core::StrategyKind;

/// Tuning knobs for the cost-guided balancer (see the module docs).
#[derive(Debug, Clone)]
pub struct BalanceConfig {
    /// Machine cost constants used to score candidate plans. The per-pair
    /// cost inside is only the starting point — it is EWMA-recalibrated
    /// from measured busy times when metrics are on.
    pub machine: MachineParams,
    /// Mid-run re-plan trigger: re-search when the observed imbalance
    /// exceeds the plan's predicted imbalance by this factor
    /// (`ObservedImbalance::excess_over_plan`). Without metrics the
    /// *predicted* imbalance itself is compared against the threshold.
    pub replan_threshold: f64,
    /// EWMA blend weight for the measured per-pair cost (0 = never update,
    /// 1 = use only the latest measurement).
    pub ewma_alpha: f64,
    /// Search all dimensionalities (1-D/2-D/3-D). When `false` the search
    /// only varies per-axis caps at the strategy's configured dims — useful
    /// when a fixed color count is required (e.g. comparing metrics reports,
    /// whose barrier counters depend on `2^dims`).
    pub search_dims: bool,
}

impl Default for BalanceConfig {
    fn default() -> BalanceConfig {
        BalanceConfig {
            machine: MachineParams::default(),
            replan_threshold: 1.25,
            ewma_alpha: 0.3,
            search_dims: true,
        }
    }
}

impl BalanceConfig {
    /// A config that keeps the decomposition dims fixed (caps-only search).
    pub fn pinned_dims(mut self) -> BalanceConfig {
        self.search_dims = false;
        self
    }
}

/// A recorded mid-run plan change: the balancer's plan search found a
/// decomposition with a lower predicted makespan after the observed
/// imbalance crossed the re-plan threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceEvent {
    /// Rebuild index ([`crate::ForceEngine::rebuilds`]) that triggered it.
    pub rebuild: usize,
    /// The imbalance measurement that crossed the threshold (observed
    /// excess over plan when metrics are on, predicted otherwise).
    pub observed_imbalance: f64,
    /// Strategy before the change.
    pub from: StrategyKind,
    /// Strategy after the change (dims may differ).
    pub to: StrategyKind,
    /// Subdomain counts per axis before.
    pub from_counts: [usize; 3],
    /// Subdomain counts per axis after.
    pub to_counts: [usize; 3],
    /// Predicted wall seconds per step of the adopted plan.
    pub predicted_seconds: f64,
}

impl std::fmt::Display for RebalanceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "rebalanced at rebuild {}: {} {:?} -> {} {:?} (imbalance {:.3}, predicted {:.3e} s/step)",
            self.rebuild,
            self.from,
            self.from_counts,
            self.to,
            self.to_counts,
            self.observed_imbalance,
            self.predicted_seconds,
        )
    }
}

/// The balancer's live state, owned by the force engine.
#[derive(Debug, Clone)]
pub(crate) struct BalanceState {
    pub(crate) config: BalanceConfig,
    /// EWMA-calibrated per-pair cost, seconds (starts at the config's
    /// `machine.pair_cost`).
    pub(crate) pair_cost: f64,
    /// The plan search's current choice.
    pub(crate) choice: PlanChoice,
    /// Every adopted mid-run plan change.
    pub(crate) events: Vec<RebalanceEvent>,
    /// Cumulative Σ thread-busy ns at the last calibration.
    pub(crate) last_busy_ns: u64,
    /// Cumulative color barriers at the last calibration.
    pub(crate) last_barriers: u64,
    /// Cumulative task-graph task completions at the last calibration.
    pub(crate) last_tasks: u64,
}

impl BalanceState {
    /// The machine model with the calibrated per-pair cost folded in.
    pub(crate) fn machine(&self) -> MachineParams {
        MachineParams {
            pair_cost: self.pair_cost,
            ..self.config.machine
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_documented() {
        let c = BalanceConfig::default();
        assert!(c.search_dims);
        assert!(c.replan_threshold > 1.0);
        assert!(c.ewma_alpha > 0.0 && c.ewma_alpha < 1.0);
        assert!(!c.pinned_dims().search_dims);
    }

    #[test]
    fn rebalance_event_display_names_everything() {
        let ev = RebalanceEvent {
            rebuild: 3,
            observed_imbalance: 1.62,
            from: StrategyKind::Sdc { dims: 2 },
            to: StrategyKind::Sdc { dims: 3 },
            from_counts: [4, 4, 1],
            to_counts: [4, 4, 4],
            predicted_seconds: 1.23e-2,
        };
        let msg = ev.to_string();
        assert!(msg.contains("rebuild 3"), "{msg}");
        assert!(msg.contains("sdc2d") && msg.contains("sdc3d"), "{msg}");
        assert!(msg.contains("1.62"), "{msg}");
    }

    #[test]
    fn state_machine_folds_in_the_calibrated_pair_cost() {
        let state = BalanceState {
            config: BalanceConfig::default(),
            pair_cost: 99e-9,
            choice: PlanChoice {
                dims: 2,
                max_per_axis: None,
                counts: [4, 4, 1],
                predicted_seconds: 0.0,
                predicted_imbalance: 1.0,
            },
            events: Vec::new(),
            last_busy_ns: 0,
            last_barriers: 0,
            last_tasks: 0,
        };
        let m = state.machine();
        assert_eq!(m.pair_cost, 99e-9);
        assert_eq!(m.barrier_base, MachineParams::default().barrier_base);
    }
}
