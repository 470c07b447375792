//! Online adaptive governor policies for the `mcdvfs` workspace.
//!
//! Every governor in `mcdvfs-core` is an *oracle*: it replays a
//! characterization grid with perfect knowledge. This crate is the other
//! half of the paper's story — the runtime side, where an
//! energy-constrained device must pick `(cpu, mem)` settings **online**,
//! one interval at a time, from partial information:
//!
//! * the device's own frequency tables ([`SettingCatalog`], one axis per
//!   DVFS domain, addressed by flat index so N-domain devices work
//!   unchanged);
//! * the context it can sense ([`StepContext`]: battery, temperature,
//!   load, the interval deadline and energy allowance);
//! * what it measured about the *previous* interval ([`Feedback`]).
//!
//! Three policies ship behind the pluggable [`Policy`] trait:
//! [`DeadlineDriven`] (cheapest predicted-feasible setting, fastest as
//! fallback), [`EnergyBudgetDriven`] (fastest setting inside the remaining
//! energy envelope, with carry-over banking), and [`Reactive`]
//! (hysteresis-banded context adaptation with rate-limited one-step
//! transitions). [`PolicyGovernor`] adapts any policy to the
//! `mcdvfs-core` governor interface, so replays get the same
//! ledger-verified accounting — and the same oracle-gap scoring via
//! `PolicyScorecard` — as every oracle governor.
//!
//! # Examples
//!
//! ```
//! use mcdvfs_core::{GovernedRun, InefficiencyBudget};
//! use mcdvfs_policy::{build_policy, PolicyGovernor};
//! use mcdvfs_sim::{CharacterizationGrid, System};
//! use mcdvfs_types::FrequencyGrid;
//! use mcdvfs_workloads::Scenario;
//!
//! let scenario = Scenario::load_burst();
//! let data = CharacterizationGrid::characterize(
//!     &System::galaxy_nexus_class(),
//!     scenario.trace(),
//!     FrequencyGrid::coarse(),
//! );
//! let budget = InefficiencyBudget::bounded(1.3).unwrap();
//! let mut governor =
//!     PolicyGovernor::new(build_policy("reactive").unwrap(), &scenario, &data, budget);
//! let report = GovernedRun::with_paper_overheads().execute(&data, scenario.trace(), &mut governor);
//! assert_eq!(report.sample_settings.len(), scenario.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
mod governor;
mod policy;

pub use catalog::{Prediction, SettingCatalog};
pub use governor::{PolicyCounters, PolicyGovernor};
pub use policy::{
    build_policy, DeadlineDriven, EnergyBudgetDriven, Feedback, Policy, PolicyDecision, Reactive,
    StepContext, SHIPPED_POLICIES,
};
