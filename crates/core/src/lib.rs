//! The primary contribution of the `mcdvfs` reproduction: energy-constrained
//! multi-component DVFS algorithms from Begum et al. (IISWC 2015).
//!
//! Given a [`CharacterizationGrid`](mcdvfs_sim::CharacterizationGrid) — the
//! per-sample, per-setting measurement matrix a Gem5-class simulator
//! produces — this crate implements everything the paper builds on top:
//!
//! * the **inefficiency** metric `I = E / Emin` and budgets over it
//!   ([`Inefficiency`], [`InefficiencyBudget`]);
//! * per-sample **`Emin` estimation**: brute-force search, memoized lookup
//!   tables, and a learning predictor ([`emin`]);
//! * the **optimal-settings** finder under an inefficiency budget, with the
//!   paper's 0.5% noise tie-break ([`OptimalFinder`]);
//! * **performance clusters** — all in-budget settings within a performance
//!   threshold of optimal ([`PerformanceCluster`], [`cluster_series`]);
//! * **stable regions** — maximal runs of samples whose clusters share a
//!   common setting ([`StableRegion`], [`stable_regions`]);
//! * **transition statistics** (per-billion-instruction counts, Figure 8)
//!   and **tuning overhead** accounting (500 µs / 30 µJ per 70-setting
//!   search, Section VI-C) ([`transitions`], [`TuningCostModel`]);
//! * **governors** — the paper's oracle tuner, a cluster/stable-region
//!   tuner, a CoScale-style greedy searcher, and fixed-setting pins
//!   (`userspace`, `performance`, `powersave`) ([`governor`]); online
//!   runtime policies live in `mcdvfs-policy`;
//! * an end-to-end **governed runner** that charges search and hardware
//!   transition overheads and verifies budget compliance ([`GovernedRun`]);
//!   runs can stream a typed event ledger
//!   ([`GovernedRun::execute_recorded`] with a
//!   [`RunLedger`](mcdvfs_obs::RunLedger)) whose replay reproduces the
//!   [`RunReport`] totals exactly ([`RunReport::verify_ledger`]);
//! * analysis and report helpers used by the figure harness, including
//!   JSON-lines and CSV ledger export ([`analysis`], [`report`]).
//!
//! # Examples
//!
//! Find gobmk's optimal settings under a 1.3 inefficiency budget and shrink
//! the transition count with a 5% performance cluster, as in the paper's
//! Figures 3–8:
//!
//! ```
//! use mcdvfs_core::{cluster_series, stable_regions, InefficiencyBudget, OptimalFinder};
//! use mcdvfs_sim::{CharacterizationGrid, System};
//! use mcdvfs_types::FrequencyGrid;
//! use mcdvfs_workloads::Benchmark;
//!
//! let data = CharacterizationGrid::characterize(
//!     &System::galaxy_nexus_class(),
//!     &Benchmark::Gobmk.trace().window(0, 12),
//!     FrequencyGrid::coarse(),
//! );
//! let budget = InefficiencyBudget::bounded(1.3).unwrap();
//!
//! let optimal = OptimalFinder::new(budget).series(&data);
//! let clusters = cluster_series(&data, budget, 0.05).unwrap();
//! let regions = stable_regions(&clusters);
//!
//! // Staying inside clusters can only reduce transitions.
//! let opt_changes = optimal.windows(2).filter(|w| w[0].setting != w[1].setting).count();
//! assert!(regions.len().saturating_sub(1) <= opt_changes);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod clusters;
pub mod emin;
pub mod governor;
mod inefficiency;
pub mod legacy;
pub mod metrics;
mod optimal;
pub mod ratelimit;
pub mod report;
mod runner;
mod scorecard;
mod speedup;
mod stable;
pub mod sweep;
pub mod transitions;
mod tuning;

pub use clusters::{cluster_series, cluster_series_with_optimal, PerformanceCluster};
pub use inefficiency::{imax, Inefficiency, InefficiencyBudget};
pub use optimal::{OptimalChoice, OptimalFinder};
pub use runner::{GovernedRun, RunAccounting, RunReport};
pub use scorecard::PolicyScorecard;
pub use speedup::{speedup_of, Speedup};
pub use stable::{stable_regions, StableRegion};
pub use sweep::{SweepEngine, SweepOutcome, SweepPoint};
pub use tuning::{TuningCost, TuningCostModel};
