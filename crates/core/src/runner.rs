//! End-to-end governed execution.
//!
//! [`GovernedRun`] replays a characterized trace under a [`Governor`],
//! charging the two overheads the paper's Figure 11 separates:
//!
//! * **search cost** — per tuning event, proportional to the settings the
//!   governor evaluated ([`TuningCostModel`]);
//! * **hardware transition cost** — per actual frequency change, through
//!   the [`DvfsController`](mcdvfs_sim::DvfsController).
//!
//! The resulting [`RunReport`] exposes end-to-end time/energy with and
//! without the overheads, achieved inefficiency, and transition counts —
//! everything Figures 8, 10 and 11 summarize.
//!
//! Runs can additionally stream a structured ledger of typed events
//! ([`GovernedRun::execute_recorded`]): every search, hardware transition,
//! region boundary and executed sample, carrying the exact charged
//! quantities. [`RunReport::verify_ledger`] cross-checks that replaying
//! the ledger reproduces the report's totals bit-for-bit.

use crate::governor::{Governor, Observation};
use crate::tuning::{TuningCost, TuningCostModel};
use mcdvfs_obs::{Event, NullRecorder, Recorder, RunLedger};
use mcdvfs_sim::{CharacterizationGrid, DvfsController, TransitionModel};
use mcdvfs_types::{FreqSetting, Joules, Seconds};
use mcdvfs_workloads::SampleTrace;

/// The outcome of one governed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Governor name.
    pub governor: String,
    /// Setting each sample actually ran at.
    pub sample_settings: Vec<FreqSetting>,
    /// Sum of per-sample execution times (no overheads).
    pub work_time: Seconds,
    /// Sum of per-sample energies (no overheads).
    pub work_energy: Joules,
    /// Total search latency charged.
    pub tuning_time: Seconds,
    /// Total search energy charged.
    pub tuning_energy: Joules,
    /// Total hardware transition latency charged.
    pub transition_time: Seconds,
    /// Total hardware transition energy charged.
    pub transition_energy: Joules,
    /// Number of joint frequency transitions performed.
    pub transitions: u64,
    /// Number of CPU-domain changes.
    pub cpu_transitions: u64,
    /// Number of memory-domain changes.
    pub mem_transitions: u64,
    /// Number of tuning events that performed a search.
    pub searches: u64,
    /// Per-sample minimum energy total (denominator of inefficiency).
    pub total_emin: Joules,
}

impl RunReport {
    /// End-to-end execution time including all overheads.
    #[must_use]
    pub fn total_time(&self) -> Seconds {
        self.work_time + self.tuning_time + self.transition_time
    }

    /// End-to-end energy including all overheads.
    #[must_use]
    pub fn total_energy(&self) -> Joules {
        self.work_energy + self.tuning_energy + self.transition_energy
    }

    /// Achieved whole-run inefficiency (work energy basis, matching the
    /// paper's budget-compliance verification).
    #[must_use]
    pub fn work_inefficiency(&self) -> f64 {
        self.work_energy / self.total_emin
    }

    /// Achieved whole-run inefficiency including overhead energy.
    #[must_use]
    pub fn total_inefficiency(&self) -> f64 {
        self.total_energy() / self.total_emin
    }

    /// Relative performance degradation versus a reference run
    /// (`0.03` = 3% slower than the reference).
    #[must_use]
    pub fn perf_degradation_vs(&self, reference: &RunReport) -> f64 {
        self.total_time() / reference.total_time() - 1.0
    }

    /// Relative energy savings versus a reference run
    /// (`0.02` = 2% less energy).
    #[must_use]
    pub fn energy_savings_vs(&self, reference: &RunReport) -> f64 {
        1.0 - self.total_energy() / reference.total_energy()
    }

    /// Cross-checks this report against the ledger recorded alongside it:
    /// replaying the events must reproduce every total *exactly* —
    /// bit-identical times and energies, equal counts.
    ///
    /// This is the observability layer's integrity invariant: events carry
    /// the same `f64` quantities the runner accumulated, in the same
    /// order, so any disagreement means instrumentation drifted from the
    /// accounting it observes.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatch, or of dropped events
    /// (a lossy ledger cannot be replayed into full totals).
    pub fn verify_ledger(&self, ledger: &RunLedger) -> std::result::Result<(), String> {
        let t = ledger.replay().map_err(|e| e.to_string())?;
        let check = |name: &str, got: f64, want: f64| -> std::result::Result<(), String> {
            if got.to_bits() == want.to_bits() {
                Ok(())
            } else {
                Err(format!("{name}: replay {got:e} != report {want:e}"))
            }
        };
        check("work_time", t.work_time.value(), self.work_time.value())?;
        check(
            "work_energy",
            t.work_energy.value(),
            self.work_energy.value(),
        )?;
        check(
            "tuning_time",
            t.tuning_time.value(),
            self.tuning_time.value(),
        )?;
        check(
            "tuning_energy",
            t.tuning_energy.value(),
            self.tuning_energy.value(),
        )?;
        check(
            "transition_time",
            t.transition_time.value(),
            self.transition_time.value(),
        )?;
        check(
            "transition_energy",
            t.transition_energy.value(),
            self.transition_energy.value(),
        )?;
        let counts = [
            (
                "samples",
                t.samples as u64,
                self.sample_settings.len() as u64,
            ),
            ("searches", t.searches, self.searches),
            ("transitions", t.transitions, self.transitions),
            ("cpu_transitions", t.cpu_transitions, self.cpu_transitions),
            ("mem_transitions", t.mem_transitions, self.mem_transitions),
        ];
        for (name, got, want) in counts {
            if got != want {
                return Err(format!("{name}: replay {got} != report {want}"));
            }
        }
        Ok(())
    }
}

/// Replay engine charging tuning and transition overheads.
#[derive(Debug, Clone)]
pub struct GovernedRun {
    tuning: TuningCostModel,
    transitions: TransitionModel,
    budget_alert: Option<f64>,
}

impl GovernedRun {
    /// Creates a runner with the given overhead models.
    #[must_use]
    pub fn new(tuning: TuningCostModel, transitions: TransitionModel) -> Self {
        Self {
            tuning,
            transitions,
            budget_alert: None,
        }
    }

    /// Arms a budget alert: when the running work inefficiency first
    /// exceeds `budget`, a
    /// [`BudgetExceeded`](Event::BudgetExceeded) event is emitted to the
    /// recorder (at most once per run). The alert never changes the run's
    /// results — it only observes them.
    ///
    /// # Panics
    ///
    /// Panics when `budget < 1.0` (inefficiency is at least 1 by
    /// definition).
    #[must_use]
    pub fn with_budget_alert(mut self, budget: f64) -> Self {
        assert!(budget >= 1.0, "inefficiency budgets are at least 1");
        self.budget_alert = Some(budget);
        self
    }

    /// A runner with all overheads disabled (Figure 11's "no tuning
    /// overhead" arm).
    #[must_use]
    pub fn without_overheads() -> Self {
        Self::new(TuningCostModel::free(), TransitionModel::free())
    }

    /// A runner with the paper-calibrated overheads (Figure 11's "with
    /// tuning overhead" arm).
    #[must_use]
    pub fn with_paper_overheads() -> Self {
        Self::new(
            TuningCostModel::paper_calibrated(),
            TransitionModel::mobile_soc(),
        )
    }

    /// Replays `trace` (already characterized into `data`) under
    /// `governor`, booting the platform at the grid's maximum setting.
    ///
    /// # Panics
    ///
    /// Panics when `trace` and `data` disagree on sample count, or when the
    /// governor returns an off-grid setting.
    #[must_use]
    pub fn execute(
        &self,
        data: &CharacterizationGrid,
        trace: &SampleTrace,
        governor: &mut dyn Governor,
    ) -> RunReport {
        self.execute_recorded(data, trace, governor, &mut NullRecorder)
    }

    /// As [`execute`](Self::execute), additionally streaming typed
    /// [`Event`]s to `recorder` — region boundaries, tuning searches,
    /// hardware transitions, executed samples, and (when armed via
    /// [`with_budget_alert`](Self::with_budget_alert)) budget crossings.
    ///
    /// Recording never perturbs the run: `execute` is literally this
    /// method with a [`NullRecorder`], so results are bit-identical with
    /// recording on or off. Events carry the exact charged quantities in
    /// accumulation order, making
    /// [`RunReport::verify_ledger`] an exact cross-check.
    ///
    /// # Panics
    ///
    /// Panics when `trace` and `data` disagree on sample count, or when the
    /// governor returns an off-grid setting.
    #[must_use]
    pub fn execute_recorded(
        &self,
        data: &CharacterizationGrid,
        trace: &SampleTrace,
        governor: &mut dyn Governor,
        recorder: &mut dyn Recorder,
    ) -> RunReport {
        assert_eq!(
            trace.len(),
            data.n_samples(),
            "trace and characterization must describe the same samples"
        );
        let grid = data.grid();
        let mut controller = DvfsController::new(grid, grid.max_setting(), self.transitions);
        let mut report = RunReport {
            governor: governor.name().to_string(),
            sample_settings: Vec::with_capacity(trace.len()),
            work_time: Seconds::ZERO,
            work_energy: Joules::ZERO,
            tuning_time: Seconds::ZERO,
            tuning_energy: Joules::ZERO,
            transition_time: Seconds::ZERO,
            transition_energy: Joules::ZERO,
            transitions: 0,
            cpu_transitions: 0,
            mem_transitions: 0,
            searches: 0,
            total_emin: data.total_emin(),
        };

        let recording = recorder.enabled();
        let mut emin_so_far = Joules::ZERO;
        let mut budget_alerted = false;
        let mut prev: Option<Observation> = None;
        for s in 0..trace.len() {
            let decision = governor.decide(s, prev.as_ref());
            if recording && decision.region_start {
                recorder.record(Event::RegionBoundary { sample: s });
            }
            if decision.settings_evaluated > 0 {
                report.searches += 1;
                let TuningCost { latency, energy } =
                    self.tuning.search_cost(decision.settings_evaluated);
                report.tuning_time += latency;
                report.tuning_energy += energy;
                if recording {
                    recorder.record(Event::TuningSearch {
                        sample: s,
                        settings_evaluated: decision.settings_evaluated,
                        latency,
                        energy,
                    });
                }
            }
            let cost = controller
                .request_recorded(decision.setting, s, recorder)
                .expect("governor returned an off-grid setting");
            report.transition_time += cost.latency;
            report.transition_energy += cost.energy;

            let m = *data
                .measurement_at(s, decision.setting)
                .expect("setting validated by controller");
            report.work_time += m.time;
            report.work_energy += m.energy();
            report.sample_settings.push(decision.setting);
            if recording {
                recorder.record(Event::SampleExecuted {
                    sample: s,
                    setting: decision.setting,
                    time: m.time,
                    energy: m.energy(),
                });
            }
            if let Some(budget) = self.budget_alert {
                emin_so_far += data.sample_emin(s);
                let inefficiency = report.work_energy.value() / emin_so_far.value();
                if recording && !budget_alerted && inefficiency > budget {
                    recorder.record(Event::BudgetExceeded {
                        sample: s,
                        inefficiency,
                        budget,
                    });
                    budget_alerted = true;
                }
            }
            controller.advance(m.time);
            prev = Some(Observation {
                sample: s,
                setting: decision.setting,
                measurement: m,
            });
        }

        report.transitions = controller.transition_count();
        report.cpu_transitions = controller.cpu_transition_count();
        report.mem_transitions = controller.mem_transition_count();
        report
    }

    /// Replays `trace` under `governor` with a [`RunLedger`] attached,
    /// verifies the ledger replays into the report's totals exactly, and
    /// condenses the ledger into the accounting the figure binaries and
    /// policy scorecards share: per-domain transition counts, the median
    /// gap between hardware transitions, the mean settings evaluated per
    /// tuning search, and the overhead share of total runtime.
    ///
    /// # Panics
    ///
    /// Panics when `trace` and `data` disagree on sample count, when the
    /// governor returns an off-grid setting, or when the ledger fails to
    /// replay into the report (an accounting bug by construction).
    #[must_use]
    pub fn execute_accounted(
        &self,
        data: &CharacterizationGrid,
        trace: &SampleTrace,
        governor: &mut dyn Governor,
    ) -> RunAccounting {
        let mut ledger = RunLedger::unbounded();
        let report = self.execute_recorded(data, trace, governor, &mut ledger);
        report
            .verify_ledger(&ledger)
            .expect("ledger replay must match the report exactly");
        let counts = ledger.domain_transition_counts();
        let mut gaps = ledger.transition_interarrivals();
        gaps.sort_by(|a, b| a.partial_cmp(b).expect("finite gaps"));
        let median_transition_gap = gaps.get(gaps.len() / 2).copied();
        let mean_search_evaluated = ledger.search_breakdown().mean_evaluated();
        let overhead_fraction = (report.tuning_time.value() + report.transition_time.value())
            / report.total_time().value();
        RunAccounting {
            report,
            joint_transitions: counts.joint,
            cpu_domain_transitions: counts.cpu,
            mem_domain_transitions: counts.mem,
            median_transition_gap,
            mean_search_evaluated,
            overhead_fraction,
        }
    }
}

/// Ledger-verified accounting for one governed run: the [`RunReport`] plus
/// the transition/search statistics previously recomputed by hand in each
/// figure binary. Produced by [`GovernedRun::execute_accounted`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunAccounting {
    /// The run report the ledger was verified against.
    pub report: RunReport,
    /// Hardware transitions where either domain changed (each counted once).
    pub joint_transitions: u64,
    /// CPU-domain frequency changes.
    pub cpu_domain_transitions: u64,
    /// Memory-domain frequency changes.
    pub mem_domain_transitions: u64,
    /// Median wall-clock gap between consecutive hardware transitions, in
    /// seconds; `None` when fewer than two transitions occurred.
    pub median_transition_gap: Option<f64>,
    /// Mean candidate settings evaluated per tuning search.
    pub mean_search_evaluated: f64,
    /// Tuning-plus-transition time as a fraction of total runtime.
    pub overhead_fraction: f64,
}

impl RunAccounting {
    /// The median transition gap as the figures print it: milliseconds with
    /// three decimals, or `"-"` when undefined.
    #[must_use]
    pub fn median_gap_ms_label(&self) -> String {
        self.median_transition_gap
            .map_or_else(|| "-".to_string(), |g| crate::report::fmt(g * 1e3, 3))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::{FixedGovernor, OracleClusterGovernor, OracleOptimalGovernor};
    use crate::inefficiency::InefficiencyBudget;
    use mcdvfs_sim::System;
    use mcdvfs_types::FrequencyGrid;
    use mcdvfs_workloads::Benchmark;
    use std::sync::Arc;

    fn setup(b: Benchmark, n: usize) -> (Arc<CharacterizationGrid>, SampleTrace) {
        let trace = b.trace().window(0, n);
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
    fn fixed_governor_matches_grid_totals() {
        let (data, trace) = setup(Benchmark::Gobmk, 12);
        let setting = FreqSetting::from_mhz(500, 400);
        let mut g = FixedGovernor::new(setting);
        let report = GovernedRun::without_overheads().execute(&data, &trace, &mut g);
        let idx = data.grid().index_of(setting).unwrap();
        assert!((report.work_time.value() - data.total_time_at(idx).value()).abs() < 1e-12);
        assert!((report.work_energy.value() - data.total_energy_at(idx).value()).abs() < 1e-15);
        // Boot is at max; the fixed setting differs, so exactly one transition.
        assert_eq!(report.transitions, 1);
        assert_eq!(report.searches, 0);
        assert_eq!(report.total_time(), report.work_time);
    }

    #[test]
    fn oracle_governor_honours_the_budget_end_to_end() {
        let (data, trace) = setup(Benchmark::Milc, 30);
        for b in [1.0, 1.1, 1.3, 1.6] {
            let mut g = OracleOptimalGovernor::new(Arc::clone(&data), budget(b));
            let report = GovernedRun::without_overheads().execute(&data, &trace, &mut g);
            assert!(
                report.work_inefficiency() <= b * (1.0 + 1e-9),
                "budget {b}: achieved {}",
                report.work_inefficiency()
            );
        }
    }

    #[test]
    fn higher_budgets_run_faster() {
        // Figure 10: execution time falls as the budget loosens.
        let (data, trace) = setup(Benchmark::Gcc, 40);
        let mut prev = f64::INFINITY;
        for b in [1.0, 1.1, 1.2, 1.3, 1.6] {
            let mut g = OracleOptimalGovernor::new(Arc::clone(&data), budget(b));
            let report = GovernedRun::without_overheads().execute(&data, &trace, &mut g);
            let t = report.total_time().value();
            assert!(t <= prev * (1.0 + 0.006), "budget {b}: {t} > {prev}");
            prev = t;
        }
    }

    #[test]
    fn cluster_governor_degrades_at_most_threshold_without_overheads() {
        // Figure 11(a): degradation is bounded by the cluster threshold.
        let (data, trace) = setup(Benchmark::Gobmk, 40);
        let b = budget(1.3);
        let runner = GovernedRun::without_overheads();
        let mut opt = OracleOptimalGovernor::new(Arc::clone(&data), b);
        let reference = runner.execute(&data, &trace, &mut opt);
        for thr in [0.01, 0.03, 0.05] {
            let mut g = OracleClusterGovernor::new(Arc::clone(&data), b, thr).unwrap();
            let report = runner.execute(&data, &trace, &mut g);
            let degradation = report.perf_degradation_vs(&reference);
            assert!(
                degradation <= thr + 1e-9,
                "threshold {thr}: degradation {degradation}"
            );
            // And clusters save energy relative to exact tracking.
            assert!(report.energy_savings_vs(&reference) >= -1e-9);
        }
    }

    #[test]
    fn overheads_make_exact_tracking_pay() {
        // Figure 11(b) / Figure 9(b): with tuning overhead, the cluster
        // tuner beats exact tracking end to end. bzip2 at a loose budget is
        // the paper's showcase — exact tracking flaps among performance
        // near-ties while one cluster region covers the whole benchmark.
        let (data, trace) = setup(Benchmark::Bzip2, 40);
        let b = budget(1.6);
        let runner = GovernedRun::with_paper_overheads();
        let mut opt = OracleOptimalGovernor::new(Arc::clone(&data), b);
        let tracked = runner.execute(&data, &trace, &mut opt);
        let mut cluster = OracleClusterGovernor::new(Arc::clone(&data), b, 0.05).unwrap();
        let clustered = runner.execute(&data, &trace, &mut cluster);
        assert!(
            clustered.tuning_time < tracked.tuning_time,
            "cluster tuner searches less"
        );
        assert!(
            clustered.transitions < tracked.transitions,
            "clusters {} vs tracked {}",
            clustered.transitions,
            tracked.transitions
        );
        assert!(
            clustered.total_time() < tracked.total_time(),
            "avoided overhead outweighs the bounded performance loss"
        );
    }

    #[test]
    fn performance_governor_never_transitions_after_boot() {
        let (data, trace) = setup(Benchmark::Bzip2, 8);
        let mut g = FixedGovernor::performance(data.grid());
        let report = GovernedRun::with_paper_overheads().execute(&data, &trace, &mut g);
        assert_eq!(report.transitions, 0, "boot setting is already max");
        assert_eq!(report.transition_energy, Joules::ZERO);
    }

    #[test]
    fn report_totals_are_component_sums() {
        let (data, trace) = setup(Benchmark::Lbm, 10);
        let mut g = OracleOptimalGovernor::new(Arc::clone(&data), budget(1.3));
        let r = GovernedRun::with_paper_overheads().execute(&data, &trace, &mut g);
        assert!(
            (r.total_time().value()
                - (r.work_time.value() + r.tuning_time.value() + r.transition_time.value()))
            .abs()
                < 1e-15
        );
        assert!(r.total_inefficiency() >= r.work_inefficiency());
        assert_eq!(r.sample_settings.len(), 10);
        assert!(r.searches > 0);
    }

    #[test]
    fn recorded_run_matches_unrecorded_bit_for_bit() {
        let (data, trace) = setup(Benchmark::Milc, 20);
        let runner = GovernedRun::with_paper_overheads();
        let mut g1 = OracleOptimalGovernor::new(Arc::clone(&data), budget(1.3));
        let mut g2 = OracleOptimalGovernor::new(Arc::clone(&data), budget(1.3));
        let plain = runner.execute(&data, &trace, &mut g1);
        let mut ledger = RunLedger::unbounded();
        let recorded = runner.execute_recorded(&data, &trace, &mut g2, &mut ledger);
        assert_eq!(plain, recorded, "recording must not perturb the run");
        recorded
            .verify_ledger(&ledger)
            .expect("replay reproduces totals");
    }

    #[test]
    fn ledger_region_lengths_cover_the_trace() {
        let (data, trace) = setup(Benchmark::Gcc, 30);
        let mut g = OracleClusterGovernor::new(Arc::clone(&data), budget(1.3), 0.05).unwrap();
        let mut ledger = RunLedger::unbounded();
        let report =
            GovernedRun::without_overheads().execute_recorded(&data, &trace, &mut g, &mut ledger);
        let lengths = ledger.region_lengths();
        assert_eq!(lengths.iter().sum::<usize>(), 30);
        assert_eq!(
            lengths.len() as u64,
            report.searches,
            "one search per region"
        );
    }

    #[test]
    fn budget_alert_fires_once_and_changes_nothing() {
        let (data, trace) = setup(Benchmark::Milc, 20);
        // Performance pins both domains at max: energy-oblivious, so a
        // tight alert budget must trip.
        let plain = {
            let mut g = FixedGovernor::performance(data.grid());
            GovernedRun::without_overheads().execute(&data, &trace, &mut g)
        };
        let mut g = FixedGovernor::performance(data.grid());
        let mut ledger = RunLedger::unbounded();
        let alerting = GovernedRun::without_overheads()
            .with_budget_alert(1.01)
            .execute_recorded(&data, &trace, &mut g, &mut ledger);
        assert_eq!(plain, alerting, "the alert only observes");
        assert_eq!(
            ledger.replay().expect("complete ledger").budget_alerts,
            1,
            "emitted exactly once"
        );
        let fired = ledger.events().any(|e| {
            matches!(e, mcdvfs_obs::Event::BudgetExceeded { inefficiency, budget, .. }
                if *inefficiency > *budget)
        });
        assert!(fired);
    }

    #[test]
    fn lossy_ledger_fails_verification() {
        let (data, trace) = setup(Benchmark::Gobmk, 12);
        let mut g = OracleOptimalGovernor::new(Arc::clone(&data), budget(1.3));
        let mut ledger = RunLedger::with_capacity(4);
        let report = GovernedRun::with_paper_overheads().execute_recorded(
            &data,
            &trace,
            &mut g,
            &mut ledger,
        );
        let err = report.verify_ledger(&ledger).unwrap_err();
        assert!(err.contains("dropped"), "{err}");
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn sub_unity_budget_alert_panics() {
        let _ = GovernedRun::without_overheads().with_budget_alert(0.5);
    }

    #[test]
    #[should_panic(expected = "same samples")]
    fn mismatched_trace_panics() {
        let (data, _) = setup(Benchmark::Gobmk, 10);
        let other = Benchmark::Gobmk.trace().window(0, 5);
        let mut g = FixedGovernor::performance(data.grid());
        let _ = GovernedRun::without_overheads().execute(&data, &other, &mut g);
    }
}
