//! End-to-end governor behaviour across the full pipeline.

use mcdvfs_core::governor::{
    CoScaleGovernor, FixedGovernor, Governor, OracleClusterGovernor, OracleOptimalGovernor,
    RegionChoice,
};
use mcdvfs_core::{GovernedRun, InefficiencyBudget};
use mcdvfs_sim::{CharacterizationGrid, System};
use mcdvfs_types::{FreqSetting, FrequencyGrid, Seconds};
use mcdvfs_workloads::{Benchmark, SampleTrace};
use std::sync::Arc;

fn setup(b: Benchmark) -> (Arc<CharacterizationGrid>, SampleTrace) {
    let trace = b.trace();
    let data = Arc::new(CharacterizationGrid::characterize(
        &System::galaxy_nexus_class(),
        &trace,
        FrequencyGrid::coarse(),
    ));
    (data, trace)
}

fn budget(v: f64) -> InefficiencyBudget {
    InefficiencyBudget::bounded(v).unwrap()
}

#[test]
fn every_governor_produces_a_consistent_report() {
    let (data, trace) = setup(Benchmark::Gobmk);
    let grid = data.grid();
    let b = budget(1.3);

    let mut governors: Vec<Box<dyn Governor>> = vec![
        Box::new(FixedGovernor::new(FreqSetting::from_mhz(500, 400))),
        Box::new(FixedGovernor::performance(grid)),
        Box::new(FixedGovernor::powersave(grid)),
        Box::new(CoScaleGovernor::new(Arc::clone(&data), b)),
        Box::new(CoScaleGovernor::new(Arc::clone(&data), b).starting_from_previous()),
        Box::new(OracleOptimalGovernor::new(Arc::clone(&data), b)),
        Box::new(OracleClusterGovernor::new(Arc::clone(&data), b, 0.05).unwrap()),
        Box::new(
            OracleClusterGovernor::with_choice(
                Arc::clone(&data),
                b,
                0.05,
                RegionChoice::LowestEnergy,
            )
            .unwrap(),
        ),
    ];

    let runner = GovernedRun::with_paper_overheads();
    for governor in &mut governors {
        let report = runner.execute(&data, &trace, governor.as_mut());
        assert_eq!(
            report.sample_settings.len(),
            trace.len(),
            "{}",
            report.governor
        );
        assert!(report.work_time.value() > 0.0);
        assert!(report.work_energy.value() > 0.0);
        assert!(report.total_time() >= report.work_time);
        assert!(report.total_energy() >= report.work_energy);
        assert!(report.total_inefficiency() >= 1.0 - 1e-9);
        for &s in &report.sample_settings {
            assert!(grid.contains(s), "{} chose off-grid {s}", report.governor);
        }
    }
}

#[test]
fn oracle_governors_meet_their_budget_while_baselines_blow_it() {
    let (data, trace) = setup(Benchmark::Milc);
    let b = budget(1.2);
    let runner = GovernedRun::without_overheads();
    let bound = 1.2 * (1.0 + InefficiencyBudget::NOISE_TOLERANCE) + 1e-9;

    let mut oracle = OracleOptimalGovernor::new(Arc::clone(&data), b);
    let oracle_report = runner.execute(&data, &trace, &mut oracle);
    assert!(oracle_report.work_inefficiency() <= bound);

    let mut cluster = OracleClusterGovernor::new(Arc::clone(&data), b, 0.05).unwrap();
    let cluster_report = runner.execute(&data, &trace, &mut cluster);
    assert!(cluster_report.work_inefficiency() <= bound);

    let mut performance = FixedGovernor::performance(data.grid());
    let perf_report = runner.execute(&data, &trace, &mut performance);
    assert!(
        perf_report.work_inefficiency() > bound,
        "the performance governor has no energy constraint: {}",
        perf_report.work_inefficiency()
    );
}

#[test]
fn powersave_demonstrates_slow_is_not_efficient() {
    let (data, trace) = setup(Benchmark::Gobmk);
    let runner = GovernedRun::without_overheads();
    let mut powersave = FixedGovernor::powersave(data.grid());
    let report = runner.execute(&data, &trace, &mut powersave);
    assert!(
        report.work_inefficiency() > 1.25,
        "the slowest settings waste energy: {}",
        report.work_inefficiency()
    );
}

#[test]
fn warm_coscale_charges_less_tuning_than_cold() {
    let (data, trace) = setup(Benchmark::Lbm);
    let b = budget(1.2);
    let runner = GovernedRun::with_paper_overheads();
    let mut cold = CoScaleGovernor::new(Arc::clone(&data), b);
    let mut warm = CoScaleGovernor::new(Arc::clone(&data), b).starting_from_previous();
    let cold_report = runner.execute(&data, &trace, &mut cold);
    let warm_report = runner.execute(&data, &trace, &mut warm);
    assert!(
        warm_report.tuning_time < cold_report.tuning_time,
        "warm start {} vs cold {} tuning seconds",
        warm_report.tuning_time.value(),
        cold_report.tuning_time.value()
    );
}

/// The paper's case against CoScale: restarting the greedy search from the
/// maximum setting every interval charges more tuning time than searching
/// once per stable region. Single benchmarks can go the other way when
/// their stable regions are short (gobmk at 1.2/1.3, soplex at 1.2), so
/// that claim is pinned on the suite total. The warm-start variant beats
/// the restart on every benchmark whose maximum setting is over budget,
/// and ties it once the maximum fits (1.6).
#[test]
fn coscale_restart_search_costs_more_than_cluster_tuning() {
    const BUDGETS: [f64; 4] = [1.0, 1.2, 1.3, 1.6];
    let runner = GovernedRun::with_paper_overheads();
    let mut cold_total = [Seconds::ZERO; BUDGETS.len()];
    let mut cluster_total = [Seconds::ZERO; BUDGETS.len()];
    for benchmark in Benchmark::all() {
        let (data, trace) = setup(benchmark);
        for (i, &v) in BUDGETS.iter().enumerate() {
            let b = budget(v);
            let mut cold = CoScaleGovernor::new(Arc::clone(&data), b);
            let mut warm = CoScaleGovernor::new(Arc::clone(&data), b).starting_from_previous();
            let mut cluster = OracleClusterGovernor::new(Arc::clone(&data), b, 0.05).unwrap();
            let cold = runner.execute(&data, &trace, &mut cold).tuning_time;
            let warm = runner.execute(&data, &trace, &mut warm).tuning_time;
            let cluster = runner.execute(&data, &trace, &mut cluster).tuning_time;
            if v < 1.6 {
                assert!(
                    warm < cold,
                    "{benchmark:?} at {v}: warm {} s vs cold {} s of tuning",
                    warm.value(),
                    cold.value()
                );
            } else {
                assert_eq!(warm, cold, "{benchmark:?} at {v}: maximum in budget");
            }
            cold_total[i] += cold;
            cluster_total[i] += cluster;
        }
    }
    for (i, &v) in BUDGETS.iter().enumerate() {
        assert!(
            cold_total[i] > cluster_total[i],
            "budget {v}: CoScale {} s vs cluster {} s of tuning over the suite",
            cold_total[i].value(),
            cluster_total[i].value()
        );
    }
}

#[test]
fn efficient_region_choice_saves_energy_within_threshold() {
    let (data, trace) = setup(Benchmark::Gcc);
    let b = budget(1.3);
    let runner = GovernedRun::without_overheads();
    let mut fast = OracleClusterGovernor::new(Arc::clone(&data), b, 0.05).unwrap();
    let fast_report = runner.execute(&data, &trace, &mut fast);
    let mut efficient =
        OracleClusterGovernor::with_choice(Arc::clone(&data), b, 0.05, RegionChoice::LowestEnergy)
            .unwrap();
    let efficient_report = runner.execute(&data, &trace, &mut efficient);
    assert!(efficient_report.work_energy <= fast_report.work_energy);
    // The bounded loss: the efficient choice is within the 5% threshold of
    // the performance choice.
    let loss = efficient_report.work_time / fast_report.work_time - 1.0;
    assert!(loss <= 0.05 + 1e-9, "loss {loss}");
}
