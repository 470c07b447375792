//! Per-sample data records.
//!
//! The paper samples every workload at a fixed amount of *work* — 10 million
//! user-mode instructions — so that samples are comparable across frequency
//! settings. Two record types flow through the system:
//!
//! * [`SampleCharacteristics`] — frequency-*independent* properties of the
//!   work in a sample (instruction mix, miss rates, memory-level
//!   parallelism). Produced by the workload generator, consumed by the
//!   simulator.
//! * [`SampleMeasurement`] — frequency-*dependent* results of executing a
//!   sample at one [`crate::FreqSetting`] (time, CPU/memory energy, CPI).
//!   Produced by the simulator, consumed by every algorithm in
//!   `mcdvfs-core`.

use crate::units::{Joules, Seconds};

/// Fixed amount of work per sample: 10 million user-mode instructions,
/// matching the paper's sampling methodology.
pub const INSTRUCTIONS_PER_SAMPLE: u64 = 10_000_000;

/// Bytes transferred per DRAM access (one 64-byte cache line), used for
/// bandwidth accounting.
pub const BYTES_PER_DRAM_ACCESS: u64 = 64;

/// Frequency-independent characteristics of one fixed-work sample.
///
/// These are the knobs the synthetic workload generator scripts per phase.
/// All values describe the *work*, not any particular execution of it.
///
/// # Examples
///
/// ```
/// use mcdvfs_types::SampleCharacteristics;
///
/// let s = SampleCharacteristics::new(0.9, 0.5);
/// assert!((s.base_cpi - 0.9).abs() < 1e-12);
/// assert_eq!(s.dram_accesses(), 5_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleCharacteristics {
    /// Core-bound cycles per instruction: the CPI the sample would achieve
    /// with an infinitely fast memory system. Dimensionless, typically
    /// 0.4–2.5 for the modelled out-of-order core.
    pub base_cpi: f64,
    /// Last-level-cache misses (DRAM accesses) per thousand instructions.
    pub mpki: f64,
    /// Fraction of DRAM accesses that are writes, in `[0, 1]`.
    pub write_frac: f64,
    /// DRAM row-buffer hit rate under the open-page policy, in `[0, 1]`.
    pub row_hit_rate: f64,
    /// Average memory-level parallelism: how many DRAM accesses overlap.
    /// `1.0` means fully serialized misses; higher values hide latency.
    pub mlp: f64,
    /// Fraction of each miss's latency the core cannot hide behind
    /// independent work, in `[0, 1]`. CPU-bound phases with deep reorder
    /// buffers have low exposure.
    pub stall_exposure: f64,
    /// Switching-activity factor for the dynamic-power model, in `[0, 1]`.
    pub activity_factor: f64,
}

impl SampleCharacteristics {
    /// Creates characteristics from the two dominant knobs, with neutral
    /// defaults for the rest (30% writes, 60% row hits, MLP 2, 70% exposure,
    /// activity 0.7).
    #[must_use]
    pub fn new(base_cpi: f64, mpki: f64) -> Self {
        Self {
            base_cpi,
            mpki,
            write_frac: 0.3,
            row_hit_rate: 0.6,
            mlp: 2.0,
            stall_exposure: 0.7,
            activity_factor: 0.7,
        }
    }

    /// Number of DRAM accesses performed by the sample.
    #[must_use]
    pub fn dram_accesses(&self) -> u64 {
        (INSTRUCTIONS_PER_SAMPLE as f64 * self.mpki / 1000.0).round() as u64
    }

    /// Bytes moved to/from DRAM by the sample.
    #[must_use]
    pub fn dram_bytes(&self) -> u64 {
        self.dram_accesses() * BYTES_PER_DRAM_ACCESS
    }

    /// Returns `true` when every field is within its documented domain.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        let unit = |v: f64| (0.0..=1.0).contains(&v);
        self.base_cpi > 0.0
            && self.base_cpi.is_finite()
            && self.mpki >= 0.0
            && self.mpki.is_finite()
            && unit(self.write_frac)
            && unit(self.row_hit_rate)
            && self.mlp >= 1.0
            && self.mlp.is_finite()
            && unit(self.stall_exposure)
            && unit(self.activity_factor)
    }
}

/// The result of executing one sample at one frequency setting.
///
/// This is what the paper's Gem5 runs record every 10 M user-mode
/// instructions: execution time plus CPU and DRAM energy, from which every
/// downstream metric (inefficiency, speedup, clusters) is derived.
///
/// # Examples
///
/// ```
/// use mcdvfs_types::{Joules, SampleMeasurement, Seconds};
///
/// let m = SampleMeasurement {
///     time: Seconds::from_millis(12.0),
///     cpu_energy: Joules::from_millis(8.0),
///     mem_energy: Joules::from_millis(2.0),
///     cpi: 1.2,
/// };
/// assert_eq!(m.energy(), Joules::from_millis(10.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleMeasurement {
    /// Wall-clock execution time of the sample.
    pub time: Seconds,
    /// Energy consumed by the CPU (dynamic + background + leakage).
    pub cpu_energy: Joules,
    /// Energy consumed by the DRAM subsystem.
    pub mem_energy: Joules,
    /// Achieved cycles per instruction at this setting (core + stall).
    pub cpi: f64,
}

impl SampleMeasurement {
    /// An all-zero placeholder for preallocated rows that are overwritten
    /// before they are read (it is not [`Self::is_valid`]).
    pub const ZERO: Self = Self {
        time: Seconds::ZERO,
        cpu_energy: Joules::ZERO,
        mem_energy: Joules::ZERO,
        cpi: 0.0,
    };

    /// Total system energy for the sample.
    #[must_use]
    pub fn energy(&self) -> Joules {
        self.cpu_energy + self.mem_energy
    }

    /// Average system power over the sample.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the sample time is zero.
    #[must_use]
    pub fn power(&self) -> crate::Watts {
        debug_assert!(self.time.value() > 0.0, "sample time must be positive");
        self.energy() / self.time
    }

    /// Returns `true` when all fields are finite and non-negative.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.time.is_finite()
            && self.time.value() > 0.0
            && self.cpu_energy.is_finite()
            && self.cpu_energy.value() >= 0.0
            && self.mem_energy.is_finite()
            && self.mem_energy.value() >= 0.0
            && self.cpi.is_finite()
            && self.cpi > 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_access_count_follows_mpki() {
        let s = SampleCharacteristics::new(1.0, 2.0);
        assert_eq!(s.dram_accesses(), 20_000);
        assert_eq!(s.dram_bytes(), 20_000 * 64);
        let zero = SampleCharacteristics::new(1.0, 0.0);
        assert_eq!(zero.dram_accesses(), 0);
    }

    #[test]
    fn default_fields_are_valid() {
        assert!(SampleCharacteristics::new(0.8, 1.0).is_valid());
    }

    #[test]
    fn invalid_characteristics_detected() {
        let mut s = SampleCharacteristics::new(0.8, 1.0);
        s.base_cpi = 0.0;
        assert!(!s.is_valid());
        let mut s = SampleCharacteristics::new(0.8, 1.0);
        s.mpki = -1.0;
        assert!(!s.is_valid());
        let mut s = SampleCharacteristics::new(0.8, 1.0);
        s.row_hit_rate = 1.5;
        assert!(!s.is_valid());
        let mut s = SampleCharacteristics::new(0.8, 1.0);
        s.mlp = 0.5;
        assert!(!s.is_valid());
        let mut s = SampleCharacteristics::new(0.8, 1.0);
        s.base_cpi = f64::NAN;
        assert!(!s.is_valid());
    }

    #[test]
    fn measurement_energy_and_power() {
        let m = SampleMeasurement {
            time: Seconds::new(0.01),
            cpu_energy: Joules::new(0.004),
            mem_energy: Joules::new(0.001),
            cpi: 1.5,
        };
        assert_eq!(m.energy(), Joules::new(0.005));
        assert!((m.power().value() - 0.5).abs() < 1e-12);
        assert!(m.is_valid());
    }

    #[test]
    fn invalid_measurement_detected() {
        let good = SampleMeasurement {
            time: Seconds::new(0.01),
            cpu_energy: Joules::new(0.004),
            mem_energy: Joules::new(0.001),
            cpi: 1.5,
        };
        let mut m = good;
        m.time = Seconds::ZERO;
        assert!(!m.is_valid());
        let mut m = good;
        m.cpu_energy = Joules::new(-1.0);
        assert!(!m.is_valid());
        let mut m = good;
        m.cpi = f64::INFINITY;
        assert!(!m.is_valid());
    }
}
