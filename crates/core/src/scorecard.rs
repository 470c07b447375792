//! Oracle-gap scoring for online policies.
//!
//! A [`PolicyScorecard`] replays one governor (typically an online policy
//! adapted through `mcdvfs-policy`) over a characterized trace with the
//! ledger-verified accounting of
//! [`GovernedRun::execute_accounted`], then positions the result on the
//! fig08/fig11 axes relative to an *ideal oracle* reference run:
//!
//! * **energy vs. Emin gap** — total energy over the per-sample minimum
//!   ([`RunReport::total_inefficiency`]), the paper's inefficiency metric;
//! * **energy vs. oracle gap** — total energy over the reference run's,
//!   i.e. how much the policy pays for not knowing the future;
//! * **deadline misses** — intervals whose execution time at the chosen
//!   setting exceeded the interval deadline;
//! * **transition counts** — joint and per-domain hardware transitions
//!   (fig08's axis);
//! * **overhead-adjusted runtime** — total time *including* tuning and
//!   transition overheads, and its ratio to the reference (fig11's axis).
//!
//! The scorecard is governor-agnostic: it accepts any
//! [`Governor`](crate::governor::Governor), so oracles can be scored
//! against each other with the same code path.

use crate::governor::Governor;
use crate::runner::{GovernedRun, RunAccounting, RunReport};
use mcdvfs_sim::CharacterizationGrid;
use mcdvfs_types::Seconds;
use mcdvfs_workloads::SampleTrace;

/// One policy's replay, scored against an ideal-oracle reference run.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyScorecard {
    /// Name the governed run reported (the policy/governor name).
    pub policy: String,
    /// Scenario the policy was replayed under.
    pub scenario: String,
    /// Intervals replayed.
    pub intervals: u64,
    /// Total energy of the policy run, joules.
    pub energy_j: f64,
    /// Sum of per-sample minimum energies, joules.
    pub emin_j: f64,
    /// Energy-vs-Emin gap: total energy / Emin (≥ 1).
    pub energy_vs_emin: f64,
    /// Total energy of the reference run, joules.
    pub oracle_energy_j: f64,
    /// Energy-vs-oracle gap: policy energy / reference energy.
    pub energy_vs_oracle: f64,
    /// Overhead-adjusted runtime of the policy run, seconds.
    pub time_s: f64,
    /// Overhead-adjusted runtime of the reference run, seconds.
    pub oracle_time_s: f64,
    /// Runtime-vs-oracle ratio: policy time / reference time.
    pub time_vs_oracle: f64,
    /// Intervals whose execution time exceeded their deadline.
    pub deadline_misses: u64,
    /// Hardware transitions where either domain changed.
    pub transitions: u64,
    /// CPU-domain frequency changes.
    pub cpu_transitions: u64,
    /// Memory-domain frequency changes.
    pub mem_transitions: u64,
    /// Tuning searches the policy performed.
    pub searches: u64,
    /// Median wall-clock gap between hardware transitions, seconds
    /// (`None` with fewer than two transitions).
    pub median_transition_gap: Option<f64>,
    /// Tuning-plus-transition time as a fraction of total runtime.
    pub overhead_fraction: f64,
    /// The full run report of the scored policy.
    pub report: RunReport,
}

impl PolicyScorecard {
    /// Replays `governor` over `trace`/`data` under `runner`, verifies the
    /// ledger, and scores it against `reference` (typically an ideal-oracle
    /// run at the same budget). `deadlines` holds one absolute deadline per
    /// sample; `scenario` is recorded verbatim.
    ///
    /// # Panics
    ///
    /// Panics when `deadlines` does not align with the trace, when the
    /// governor returns an off-grid setting, or when ledger verification
    /// fails.
    #[must_use]
    pub fn score(
        runner: &GovernedRun,
        data: &CharacterizationGrid,
        trace: &SampleTrace,
        governor: &mut dyn Governor,
        deadlines: &[Seconds],
        scenario: &str,
        reference: &RunReport,
    ) -> Self {
        assert_eq!(
            deadlines.len(),
            data.n_samples(),
            "deadlines must align 1:1 with characterized samples"
        );
        let acc: RunAccounting = runner.execute_accounted(data, trace, governor);
        let deadline_misses = acc
            .report
            .sample_settings
            .iter()
            .enumerate()
            .filter(|(s, setting)| {
                let m = data
                    .measurement_at(*s, **setting)
                    .expect("executed setting is on the grid");
                m.time.value() > deadlines[*s].value()
            })
            .count() as u64;
        let energy = acc.report.total_energy().value();
        let time = acc.report.total_time().value();
        let oracle_energy = reference.total_energy().value();
        let oracle_time = reference.total_time().value();
        Self {
            policy: acc.report.governor.clone(),
            scenario: scenario.to_string(),
            intervals: data.n_samples() as u64,
            energy_j: energy,
            emin_j: acc.report.total_emin.value(),
            energy_vs_emin: acc.report.total_inefficiency(),
            oracle_energy_j: oracle_energy,
            energy_vs_oracle: energy / oracle_energy,
            time_s: time,
            oracle_time_s: oracle_time,
            time_vs_oracle: time / oracle_time,
            deadline_misses,
            transitions: acc.joint_transitions,
            cpu_transitions: acc.cpu_domain_transitions,
            mem_transitions: acc.mem_domain_transitions,
            searches: acc.report.searches,
            median_transition_gap: acc.median_transition_gap,
            overhead_fraction: acc.overhead_fraction,
            report: acc.report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::{FixedGovernor, OracleOptimalGovernor};
    use crate::inefficiency::InefficiencyBudget;
    use mcdvfs_sim::System;
    use mcdvfs_types::FrequencyGrid;
    use mcdvfs_workloads::Benchmark;
    use std::sync::Arc;

    fn setup() -> (Arc<CharacterizationGrid>, SampleTrace) {
        let trace = Benchmark::Gobmk.trace().window(0, 12);
        let data = CharacterizationGrid::characterize(
            &System::galaxy_nexus_class(),
            &trace,
            FrequencyGrid::coarse(),
        );
        (Arc::new(data), trace)
    }

    #[test]
    fn oracle_scored_against_itself_has_unit_gaps() {
        let (data, trace) = setup();
        let budget = InefficiencyBudget::bounded(1.3).unwrap();
        let runner = GovernedRun::without_overheads();
        let reference = runner.execute(
            &data,
            &trace,
            &mut OracleOptimalGovernor::new(Arc::clone(&data), budget),
        );
        let deadlines = vec![Seconds::new(1.0); trace.len()];
        let sc = PolicyScorecard::score(
            &runner,
            &data,
            &trace,
            &mut OracleOptimalGovernor::new(Arc::clone(&data), budget),
            &deadlines,
            "unit-test",
            &reference,
        );
        assert!((sc.energy_vs_oracle - 1.0).abs() < 1e-12);
        assert!((sc.time_vs_oracle - 1.0).abs() < 1e-12);
        assert!(sc.energy_vs_emin >= 1.0);
        assert_eq!(sc.deadline_misses, 0, "1 s deadlines are generous");
        assert_eq!(sc.intervals, trace.len() as u64);
        assert_eq!(sc.scenario, "unit-test");
    }

    #[test]
    fn impossible_deadlines_are_all_missed() {
        let (data, trace) = setup();
        let runner = GovernedRun::without_overheads();
        let reference = runner.execute(&data, &trace, &mut FixedGovernor::performance(data.grid()));
        let deadlines = vec![Seconds::new(0.0); trace.len()];
        let sc = PolicyScorecard::score(
            &runner,
            &data,
            &trace,
            &mut FixedGovernor::performance(data.grid()),
            &deadlines,
            "unit-test",
            &reference,
        );
        assert_eq!(sc.deadline_misses, trace.len() as u64);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn misaligned_deadlines_panic() {
        let (data, trace) = setup();
        let runner = GovernedRun::without_overheads();
        let reference = runner.execute(&data, &trace, &mut FixedGovernor::performance(data.grid()));
        let _ = PolicyScorecard::score(
            &runner,
            &data,
            &trace,
            &mut FixedGovernor::performance(data.grid()),
            &[Seconds::new(1.0)],
            "unit-test",
            &reference,
        );
    }
}
