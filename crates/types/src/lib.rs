//! Shared vocabulary types for the `mcdvfs` workspace.
//!
//! This crate defines the unit-safe newtypes (frequencies, voltages, times,
//! energies, powers), the joint CPU/memory [`FreqSetting`], the
//! [`FrequencyGrid`] enumerating every operating point a platform exposes,
//! and the per-sample data records ([`SampleCharacteristics`],
//! [`SampleMeasurement`]) that flow between the simulator substrate and the
//! energy-management algorithms.
//!
//! The types mirror the system studied by Begum et al., *"Energy-Performance
//! Trade-offs on Energy-Constrained Devices with Multi-Component DVFS"*
//! (IISWC 2015): a mobile SoC whose CPU supports DVFS over 100–1000 MHz
//! (0.85–1.25 V) and whose LPDDR3 memory supports frequency-only scaling
//! over 200–800 MHz.
//!
//! # Examples
//!
//! Enumerate the paper's coarse 70-point grid and look up a setting:
//!
//! ```
//! use mcdvfs_types::{FrequencyGrid, CpuFreq, MemFreq};
//!
//! let grid = FrequencyGrid::coarse();
//! assert_eq!(grid.len(), 70);
//!
//! let setting = grid
//!     .settings()
//!     .find(|s| s.cpu == CpuFreq::from_mhz(1000) && s.mem == MemFreq::from_mhz(800))
//!     .expect("max setting is on the grid");
//! assert_eq!(grid.index_of(setting), Some(69));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod error;
mod freq;
mod grid;
mod hash;
mod json;
mod results;
mod rng;
mod sample;
mod units;

pub use bitset::{SettingSet, SettingSetIter};
pub use error::{Error, Result};
pub use freq::{CpuFreq, FreqSetting, MemFreq};
pub use grid::{FrequencyGrid, Settings};
pub use hash::{fnv1a64, hash_measurements, Fnv1a64};
pub use json::Json;
pub use results::results_dir;
pub use rng::SplitMix64;
pub use sample::{
    SampleCharacteristics, SampleMeasurement, BYTES_PER_DRAM_ACCESS, INSTRUCTIONS_PER_SAMPLE,
};
pub use units::{Joules, Seconds, Volts, Watts};
