//! Run-ledger observability across the full pipeline: for every governor
//! the core crate ships and every shipped online policy, a recorded run
//! must (a) leave the run report bit-identical to an unrecorded run, and
//! (b) produce a ledger that replays into the report's totals exactly.

use mcdvfs_core::governor::{
    CoScaleGovernor, FixedGovernor, Governor, OracleClusterGovernor, OracleOptimalGovernor,
    RegionChoice,
};
use mcdvfs_core::{GovernedRun, InefficiencyBudget};
use mcdvfs_obs::{Event, NullRecorder, Recorder, RunLedger};
use mcdvfs_policy::{build_policy, PolicyGovernor, SHIPPED_POLICIES};
use mcdvfs_sim::{CharacterizationGrid, System};
use mcdvfs_types::{FreqSetting, FrequencyGrid};
use mcdvfs_workloads::{Benchmark, SampleTrace, Scenario};
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

/// Two fresh instances of every governor (recorded and unrecorded runs
/// need independent, identically-configured governors): the core crate's
/// governors plus every shipped online policy under one shipped scenario.
fn governor_fleet(data: &Arc<CharacterizationGrid>) -> Vec<(Box<dyn Governor>, Box<dyn Governor>)> {
    let grid = data.grid();
    let b = InefficiencyBudget::bounded(1.3).unwrap();

    let mut make: Vec<Box<dyn Fn() -> Box<dyn Governor>>> = vec![
        Box::new(|| Box::new(FixedGovernor::new(FreqSetting::from_mhz(500, 400)))),
        Box::new(move || Box::new(FixedGovernor::performance(grid))),
        Box::new(move || Box::new(FixedGovernor::powersave(grid))),
        {
            let d = Arc::clone(data);
            Box::new(move || Box::new(CoScaleGovernor::new(Arc::clone(&d), b)))
        },
        {
            let d = Arc::clone(data);
            Box::new(move || {
                Box::new(CoScaleGovernor::new(Arc::clone(&d), b).starting_from_previous())
            })
        },
        {
            let d = Arc::clone(data);
            Box::new(move || Box::new(OracleOptimalGovernor::new(Arc::clone(&d), b)))
        },
        {
            let d = Arc::clone(data);
            Box::new(move || Box::new(OracleClusterGovernor::new(Arc::clone(&d), b, 0.05).unwrap()))
        },
        {
            let d = Arc::clone(data);
            Box::new(move || {
                Box::new(
                    OracleClusterGovernor::with_choice(
                        Arc::clone(&d),
                        b,
                        0.05,
                        RegionChoice::LowestEnergy,
                    )
                    .unwrap(),
                )
            })
        },
    ];
    let scenario = Scenario::load_burst();
    for name in SHIPPED_POLICIES {
        let d = Arc::clone(data);
        let scenario = scenario.clone();
        make.push(Box::new(move || {
            let policy = build_policy(name).expect("shipped policy");
            Box::new(PolicyGovernor::new(policy, &scenario, &d, b))
        }));
    }
    make.iter().map(|f| (f(), f())).collect()
}

/// The tentpole invariant, exhaustively: every governor, two benchmarks,
/// both overhead models. The recorded report equals the unrecorded one
/// field for field, and replaying the ledger reproduces the totals
/// bit-exactly (checked inside `verify_ledger` via `f64::to_bits`).
#[test]
fn every_governor_ledger_replays_into_its_report() {
    for benchmark in [Benchmark::Gobmk, Benchmark::Milc] {
        let (data, trace) = setup(benchmark);
        for runner in [
            GovernedRun::with_paper_overheads(),
            GovernedRun::without_overheads(),
        ] {
            for (mut plain_gov, mut recorded_gov) in governor_fleet(&data) {
                let plain = runner.execute(&data, &trace, plain_gov.as_mut());
                let mut ledger = RunLedger::unbounded();
                let recorded =
                    runner.execute_recorded(&data, &trace, recorded_gov.as_mut(), &mut ledger);
                assert_eq!(
                    plain, recorded,
                    "{benchmark:?}/{}: recording changed the run",
                    plain.governor
                );
                recorded
                    .verify_ledger(&ledger)
                    .unwrap_or_else(|e| panic!("{benchmark:?}/{}: {e}", recorded.governor));
            }
        }
    }
}

#[test]
fn ledger_counts_match_report_counts_per_event_kind() {
    let (data, trace) = setup(Benchmark::Gobmk);
    let b = InefficiencyBudget::bounded(1.3).unwrap();
    let mut governor = OracleClusterGovernor::new(Arc::clone(&data), b, 0.05).unwrap();
    let mut ledger = RunLedger::unbounded();
    let report = GovernedRun::with_paper_overheads().execute_recorded(
        &data,
        &trace,
        &mut governor,
        &mut ledger,
    );

    let kind_count = |k: &str| ledger.events().filter(|e| e.kind() == k).count() as u64;
    assert_eq!(kind_count("sample_executed"), trace.len() as u64);
    assert_eq!(kind_count("tuning_search"), report.searches);
    assert_eq!(kind_count("frequency_transition"), report.transitions);
    // The cluster tuner searches exactly once per stable region.
    assert_eq!(kind_count("region_boundary"), report.searches);
    assert_eq!(ledger.region_lengths().iter().sum::<usize>(), trace.len());
}

#[test]
fn bounded_ring_overflow_keeps_the_newest_events() {
    let (data, trace) = setup(Benchmark::Milc);
    let b = InefficiencyBudget::bounded(1.3).unwrap();

    let mut full = RunLedger::unbounded();
    let mut gov_a = OracleOptimalGovernor::new(Arc::clone(&data), b);
    let _ =
        GovernedRun::with_paper_overheads().execute_recorded(&data, &trace, &mut gov_a, &mut full);
    assert!(full.len() > 16, "need enough events to overflow");

    let mut ring = RunLedger::with_capacity(16);
    let mut gov_b = OracleOptimalGovernor::new(Arc::clone(&data), b);
    let report =
        GovernedRun::with_paper_overheads().execute_recorded(&data, &trace, &mut gov_b, &mut ring);

    assert_eq!(ring.len(), 16);
    assert_eq!(ring.dropped() as usize, full.len() - 16);
    // The surviving window is exactly the tail of the complete stream.
    let tail: Vec<Event> = full.events().skip(full.len() - 16).copied().collect();
    let kept: Vec<Event> = ring.events().copied().collect();
    assert_eq!(kept, tail);
    // And a lossy ledger refuses verification rather than lying.
    assert!(report.verify_ledger(&ring).is_err());
}

#[test]
fn null_recorder_reports_disabled_and_swallows_events() {
    let mut null = NullRecorder;
    assert!(!null.enabled());
    null.record(Event::RegionBoundary { sample: 0 });
    // The runner's recorded path with a NullRecorder IS the plain path:
    // `execute` delegates to `execute_recorded(.., &mut NullRecorder)`,
    // so disabled recording costs one branch and allocates nothing.
    let (data, trace) = setup(Benchmark::Gobmk);
    let b = InefficiencyBudget::bounded(1.3).unwrap();
    let mut gov_a = OracleClusterGovernor::new(Arc::clone(&data), b, 0.05).unwrap();
    let mut gov_b = OracleClusterGovernor::new(Arc::clone(&data), b, 0.05).unwrap();
    let runner = GovernedRun::with_paper_overheads();
    let plain = runner.execute(&data, &trace, &mut gov_a);
    let nulled = runner.execute_recorded(&data, &trace, &mut gov_b, &mut NullRecorder);
    assert_eq!(plain, nulled);
}

#[test]
fn budget_alerts_observe_without_perturbing() {
    let (data, trace) = setup(Benchmark::Gobmk);
    let mut gov_a = FixedGovernor::performance(data.grid());
    let mut gov_b = FixedGovernor::performance(data.grid());
    let runner = GovernedRun::with_paper_overheads();
    let alerting = runner.clone().with_budget_alert(1.05);

    let plain = runner.execute(&data, &trace, &mut gov_a);
    let mut ledger = RunLedger::unbounded();
    let watched = alerting.execute_recorded(&data, &trace, &mut gov_b, &mut ledger);

    assert_eq!(plain, watched, "alerting must not change the run");
    let alerts: Vec<&Event> = ledger
        .events()
        .filter(|e| e.kind() == "budget_exceeded")
        .collect();
    assert_eq!(alerts.len(), 1, "the alert fires once, at first breach");
    match alerts[0] {
        Event::BudgetExceeded {
            inefficiency,
            budget,
            ..
        } => {
            assert!(*inefficiency > *budget);
            assert_eq!(*budget, 1.05);
        }
        other => panic!("unexpected event {other:?}"),
    }
    // The ledger still replays exactly: alerts are observation-only.
    watched.verify_ledger(&ledger).unwrap();
}
