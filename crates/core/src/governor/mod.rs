//! Frequency governors.
//!
//! A [`Governor`] decides, at each sample boundary, which frequency setting
//! the next sample runs at — the decision interface of the paper's future
//! energy-management algorithms and of the Linux cpufreq/memfreq governors
//! its infrastructure extends.
//!
//! This module ships the governors the paper's figures and claims use:
//!
//! * [`FixedGovernor`] — pins one setting: the `userspace` governor the
//!   paper uses for its characterization runs, or the `performance` /
//!   `powersave` pins at the grid maximum/minimum;
//! * [`OracleOptimalGovernor`] — tracks the paper's per-sample optimal
//!   settings, searching the full grid every interval;
//! * [`OracleClusterGovernor`] — follows precomputed stable regions,
//!   searching only at region boundaries (the paper's offline-analysis
//!   proposal, Section VII);
//! * [`CoScaleGovernor`] — a CoScale-style greedy searcher that restarts
//!   from the maximum setting every interval (the strategy the paper
//!   argues is inefficient), with a warm-start variant.
//!
//! Online policies that decide from runtime feedback alone (deadline,
//! energy-budget and reactive) live in `mcdvfs-policy` and reach this
//! interface through its `PolicyGovernor` adapter.
//!
//! The oracle and CoScale governors consult the characterization grid as
//! their performance/energy model; what the paper studies — and what
//! distinguishes them — is *how often they search* and *from where*, which
//! is exactly what the tuning-overhead accounting in
//! [`GovernedRun`](crate::GovernedRun) charges for.

mod coscale;
mod oracle;

pub use coscale::CoScaleGovernor;
pub use oracle::{OracleClusterGovernor, OracleOptimalGovernor, RegionChoice};

use mcdvfs_types::{FreqSetting, FrequencyGrid, SampleMeasurement};

/// What a governor learns about the sample that just finished.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Index of the completed sample.
    pub sample: usize,
    /// Setting the sample ran at.
    pub setting: FreqSetting,
    /// Its measurement.
    pub measurement: SampleMeasurement,
}

/// A governor's decision for the upcoming sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Setting to run the next sample at.
    pub setting: FreqSetting,
    /// Number of candidate settings the governor evaluated to decide
    /// (drives the tuning-overhead charge; `0` = reused a prior decision).
    pub settings_evaluated: usize,
    /// `true` when this decision opens a new control region — the governor
    /// crossed a stable-region boundary, invalidated its previous plan, or
    /// otherwise started planning afresh. Drives the
    /// [`RegionBoundary`](mcdvfs_obs::Event::RegionBoundary) events the
    /// run ledger aggregates into region-length distributions.
    pub region_start: bool,
}

impl Decision {
    /// A decision that reuses the previous setting without searching.
    #[must_use]
    pub const fn reuse(setting: FreqSetting) -> Self {
        Self {
            setting,
            settings_evaluated: 0,
            region_start: false,
        }
    }

    /// A decision reached by a fresh search over `settings_evaluated`
    /// candidates, opening a new control region.
    #[must_use]
    pub const fn searched(setting: FreqSetting, settings_evaluated: usize) -> Self {
        Self {
            setting,
            settings_evaluated,
            region_start: true,
        }
    }
}

/// A frequency-selection policy.
pub trait Governor {
    /// Policy name for reports.
    fn name(&self) -> &str;

    /// Decides the setting for sample `next_sample`. `prev` is the
    /// observation of the immediately preceding sample, absent for the
    /// first.
    fn decide(&mut self, next_sample: usize, prev: Option<&Observation>) -> Decision;
}

/// Pins the platform at one setting for the whole run.
#[derive(Debug, Clone)]
pub struct FixedGovernor {
    name: &'static str,
    setting: FreqSetting,
}

impl FixedGovernor {
    /// The `userspace` governor: pins the platform at `setting`.
    #[must_use]
    pub fn new(setting: FreqSetting) -> Self {
        Self {
            name: "userspace",
            setting,
        }
    }

    /// The `performance` governor: pins both domains at the maximum of
    /// `grid`.
    #[must_use]
    pub fn performance(grid: FrequencyGrid) -> Self {
        Self {
            name: "performance",
            setting: grid.max_setting(),
        }
    }

    /// The `powersave` governor: pins both domains at the minimum of
    /// `grid`.
    #[must_use]
    pub fn powersave(grid: FrequencyGrid) -> Self {
        Self {
            name: "powersave",
            setting: grid.min_setting(),
        }
    }
}

impl Governor for FixedGovernor {
    fn name(&self) -> &str {
        self.name
    }

    fn decide(&mut self, _next_sample: usize, _prev: Option<&Observation>) -> Decision {
        Decision::reuse(self.setting)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_governor_never_moves() {
        let mut g = FixedGovernor::new(FreqSetting::from_mhz(500, 400));
        for s in 0..5 {
            let d = g.decide(s, None);
            assert_eq!(d.setting, FreqSetting::from_mhz(500, 400));
            assert_eq!(d.settings_evaluated, 0);
        }
        assert_eq!(g.name(), "userspace");
    }

    #[test]
    fn performance_and_powersave_pin_extremes() {
        let grid = FrequencyGrid::coarse();
        let mut hi = FixedGovernor::performance(grid);
        let mut lo = FixedGovernor::powersave(grid);
        assert_eq!(hi.decide(0, None).setting, grid.max_setting());
        assert_eq!(lo.decide(0, None).setting, grid.min_setting());
        assert_eq!(hi.name(), "performance");
        assert_eq!(lo.name(), "powersave");
    }
}
