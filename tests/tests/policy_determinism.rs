//! Bit-exact determinism of every shipped online policy.
//!
//! Policies are pure functions of (catalog, context, feedback), and
//! characterization is bit-identical at any thread count, so a policy
//! replay must produce the same setting sequence and the same energy and
//! time bits (`f64::to_bits`) on every run — across repeated runs of the
//! same process and across characterization thread counts. These loops
//! pin that for every shipped policy on every shipped scenario.
//!
//! Run-to-run agreement cannot catch a bit change that is the same on
//! every run, so a golden FNV-1a digest over fine-grid replays also pins
//! the absolute output bits of every policy, scenario and budget.

use mcdvfs_core::governor::OracleOptimalGovernor;
use mcdvfs_core::{GovernedRun, InefficiencyBudget, PolicyScorecard, RunReport};
use mcdvfs_policy::{build_policy, PolicyGovernor, SHIPPED_POLICIES};
use mcdvfs_sim::{CharacterizationGrid, System};
use mcdvfs_types::{Fnv1a64, FrequencyGrid};
use mcdvfs_workloads::{Benchmark, Scenario};
use std::sync::Arc;

const BUDGET: f64 = 1.3;

/// Digest of [`fine_grid_policy_digest`], recorded before the policy
/// search became allocation-free; any change to a decision, a float bit
/// or a counter of any replay moves it.
const GOLDEN_FINE_GRID_DIGEST: u64 = 0xe01b_ddca_715f_9d14;

/// The full observable outcome of one policy replay, with every float
/// reduced to its bit pattern.
#[derive(Debug, PartialEq, Eq)]
struct ReplayPin {
    settings: Vec<usize>,
    energy_bits: u64,
    time_bits: u64,
    transitions: u64,
    searches: u64,
}

fn replay(policy: &str, scenario: &Scenario, data: &CharacterizationGrid) -> ReplayPin {
    let budget = InefficiencyBudget::bounded(BUDGET).unwrap();
    let mut governor = PolicyGovernor::new(build_policy(policy).unwrap(), scenario, data, budget);
    let report = GovernedRun::with_paper_overheads().execute(data, scenario.trace(), &mut governor);
    ReplayPin {
        settings: report
            .sample_settings
            .iter()
            .map(|s| data.grid().index_of(*s).unwrap())
            .collect(),
        energy_bits: report.total_energy().value().to_bits(),
        time_bits: report.total_time().value().to_bits(),
        transitions: report.transitions,
        searches: report.searches,
    }
}

#[test]
fn policies_are_bit_identical_across_runs_and_thread_counts() {
    let system = System::galaxy_nexus_class();
    for scenario in Scenario::all() {
        let sequential =
            CharacterizationGrid::characterize(&system, scenario.trace(), FrequencyGrid::coarse());
        let threaded = CharacterizationGrid::characterize_parallel(
            &system,
            scenario.trace(),
            FrequencyGrid::coarse(),
            4,
        );
        assert_eq!(
            sequential.fingerprint(),
            threaded.fingerprint(),
            "characterization must not depend on thread count"
        );
        for policy in SHIPPED_POLICIES {
            let baseline = replay(policy, &scenario, &sequential);
            for run in 0..3 {
                let repeat = replay(policy, &scenario, &sequential);
                assert_eq!(
                    baseline,
                    repeat,
                    "{policy}@{} diverged on repeat run {run}",
                    scenario.name()
                );
            }
            let cross = replay(policy, &scenario, &threaded);
            assert_eq!(
                baseline,
                cross,
                "{policy}@{} diverged across characterization thread counts",
                scenario.name()
            );
        }
    }
}

/// Budgets the golden digest replays under, `Unconstrained` included.
fn golden_budgets() -> Vec<InefficiencyBudget> {
    let mut budgets: Vec<InefficiencyBudget> = [1.1, 1.3, 1.6]
        .iter()
        .map(|&b| InefficiencyBudget::bounded(b).unwrap())
        .collect();
    budgets.push(InefficiencyBudget::Unconstrained);
    budgets
}

/// Folds every float (by bits) and count of one run report.
fn fold_report(h: &mut Fnv1a64, report: &RunReport, grid: &FrequencyGrid) {
    h.write(report.governor.as_bytes());
    for s in &report.sample_settings {
        h.write_u64(grid.index_of(*s).unwrap() as u64);
    }
    for v in [
        report.work_time.value(),
        report.work_energy.value(),
        report.tuning_time.value(),
        report.tuning_energy.value(),
        report.transition_time.value(),
        report.transition_energy.value(),
        report.total_emin.value(),
    ] {
        h.write_f64(v);
    }
    for c in [
        report.transitions,
        report.cpu_transitions,
        report.mem_transitions,
        report.searches,
    ] {
        h.write_u64(c);
    }
}

/// Folds every float (by bits) and count of one scorecard, its report
/// included.
fn fold_scorecard(h: &mut Fnv1a64, sc: &PolicyScorecard, grid: &FrequencyGrid) {
    h.write(sc.policy.as_bytes());
    h.write(sc.scenario.as_bytes());
    for v in [
        sc.energy_j,
        sc.emin_j,
        sc.energy_vs_emin,
        sc.oracle_energy_j,
        sc.energy_vs_oracle,
        sc.time_s,
        sc.oracle_time_s,
        sc.time_vs_oracle,
        sc.median_transition_gap.unwrap_or(f64::NAN),
        sc.overhead_fraction,
    ] {
        h.write_f64(v);
    }
    for c in [
        sc.intervals,
        sc.deadline_misses,
        sc.transitions,
        sc.cpu_transitions,
        sc.mem_transitions,
        sc.searches,
    ] {
        h.write_u64(c);
    }
    fold_report(h, &sc.report, grid);
}

/// FNV-1a digest of every shipped policy × scenario × golden budget,
/// scored against the ideal oracle over two fine-grid tenants' own traces
/// (the shape of a served `policy_replay`).
fn fine_grid_policy_digest() -> u64 {
    let system = System::galaxy_nexus_class();
    let mut h = Fnv1a64::new();
    for bench in [Benchmark::Bzip2, Benchmark::Perlbench] {
        let trace = bench.trace();
        let data = Arc::new(CharacterizationGrid::characterize(
            &system,
            &trace,
            FrequencyGrid::fine(),
        ));
        let grid = data.grid();
        for budget in golden_budgets() {
            let reference = GovernedRun::without_overheads().execute(
                &data,
                &trace,
                &mut OracleOptimalGovernor::new(Arc::clone(&data), budget),
            );
            for scenario in Scenario::all() {
                for policy in SHIPPED_POLICIES {
                    let mut governor = PolicyGovernor::new(
                        build_policy(policy).unwrap(),
                        &scenario,
                        &data,
                        budget,
                    );
                    let deadlines = governor.deadlines();
                    let scorecard = PolicyScorecard::score(
                        &GovernedRun::with_paper_overheads(),
                        &data,
                        &trace,
                        &mut governor,
                        &deadlines,
                        scenario.name(),
                        &reference,
                    );
                    fold_scorecard(&mut h, &scorecard, &grid);
                    let counters = governor.counters();
                    h.write_u64(counters.decisions);
                    h.write_u64(counters.budget_exhaustions);
                }
            }
        }
    }
    h.finish()
}

#[test]
fn fine_grid_policy_replays_match_the_golden_digest() {
    let digest = fine_grid_policy_digest();
    assert_eq!(
        digest, GOLDEN_FINE_GRID_DIGEST,
        "policy replay bits changed: {digest:#018x}"
    );
}
