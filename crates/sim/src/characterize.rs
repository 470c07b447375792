//! Grid characterization — the product of the paper's simulation campaign.
//!
//! The paper runs 70 Gem5 simulations per benchmark (one per coarse-grid
//! setting; 496 for the fine grid) and collects performance and energy
//! every 10 M user-mode instructions. [`CharacterizationGrid`] holds the
//! same data: a dense `(sample × setting)` matrix of
//! [`SampleMeasurement`]s, *measured* (simulated) rather than predicted,
//! exactly as the paper emphasizes.
//!
//! The matrix lives in one contiguous row-major arena (sample-major,
//! setting minor), so a sample row is a plain slice of the arena and a
//! full-matrix scan is a single linear pass. Per-sample `Emin` and
//! per-setting time/energy column totals are computed once at
//! construction; the repeated-sweep analyses (optimal series, clusters,
//! stable regions, Figures 2–12) hit cached values instead of rescanning
//! the matrix.

use crate::plan::EvalPlan;
use crate::system::System;
use mcdvfs_obs::{count_edges, MetricSet, Profiler};
use mcdvfs_types::{
    hash_measurements, Error, FreqSetting, FrequencyGrid, Joules, Result, SampleMeasurement,
    Seconds,
};
use mcdvfs_workloads::SampleTrace;
use std::time::Instant;

/// A complete measurement matrix for one workload on one platform grid.
///
/// Row `s` holds sample `s` measured at every grid setting, indexed by the
/// grid's flat setting index. Rows are stored back to back in one
/// contiguous arena.
///
/// # Examples
///
/// ```
/// use mcdvfs_sim::{CharacterizationGrid, System};
/// use mcdvfs_types::FrequencyGrid;
/// use mcdvfs_workloads::Benchmark;
///
/// let system = System::galaxy_nexus_class();
/// let grid = FrequencyGrid::coarse();
/// let data = CharacterizationGrid::characterize(
///     &system,
///     &Benchmark::Bzip2.trace().window(0, 4),
///     grid,
/// );
/// assert_eq!(data.n_samples(), 4);
/// assert_eq!(data.n_settings(), 70);
/// // Per-sample Emin is the row minimum.
/// let emin = data.sample_emin(0);
/// assert!(data.sample_row(0).iter().all(|m| m.energy() >= emin));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizationGrid {
    name: String,
    grid: FrequencyGrid,
    /// Number of settings per row (the arena's stride).
    n_settings: usize,
    /// Row-major arena: sample `s` at setting `idx` lives at
    /// `arena[s * n_settings + idx]`.
    arena: Vec<SampleMeasurement>,
    /// Cached per-sample minimum energy (row minimum).
    emin: Vec<Joules>,
    /// Cached per-setting total execution time (column sum).
    col_time: Vec<Seconds>,
    /// Cached per-setting total energy (column sum).
    col_energy: Vec<Joules>,
    /// Cached per-row content hash ([`hash_measurements`] of each row);
    /// [`Self::fingerprint`] folds these, so an incremental update only
    /// rehashes the rows it rewrote.
    row_hashes: Vec<u64>,
}

impl CharacterizationGrid {
    /// Runs the full campaign: every sample of `trace` at every setting of
    /// `grid` on `system`.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    #[must_use]
    pub fn characterize(system: &System, trace: &SampleTrace, grid: FrequencyGrid) -> Self {
        Self::characterize_parallel(system, trace, grid, 1)
    }

    /// As [`Self::characterize`], fanned out over `threads` OS threads
    /// (sample rows are independent, so the result is bit-identical to the
    /// sequential run).
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty or `threads` is zero.
    #[must_use]
    pub fn characterize_parallel(
        system: &System,
        trace: &SampleTrace,
        grid: FrequencyGrid,
        threads: usize,
    ) -> Self {
        Self::characterize_profiled(system, trace, grid, threads, Profiler::noop())
    }

    /// As [`Self::characterize_parallel`], with phase spans and per-worker
    /// metrics flowing into `profiler`.
    ///
    /// Workers evaluate disjoint row ranges of one preallocated arena in
    /// place and return each row's `Emin` and content hash; the joining
    /// thread only folds the column totals.
    ///
    /// The instrumentation is purely observational: each worker opens one
    /// `characterize/worker` span and builds a private [`MetricSet`]
    /// (rows simulated, busy nanoseconds) that the spawning thread merges
    /// after the scoped joins, so the measurement arena — and everything
    /// derived from it — is bit-identical with profiling on or off, at any
    /// thread count.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty or `threads` is zero.
    #[must_use]
    pub fn characterize_profiled(
        system: &System,
        trace: &SampleTrace,
        grid: FrequencyGrid,
        threads: usize,
        profiler: &Profiler,
    ) -> Self {
        assert!(!trace.is_empty(), "cannot characterize an empty trace");
        assert!(threads > 0, "need at least one thread");
        let phase = profiler.span("characterize");
        let phase_id = phase.id();
        let plan = EvalPlan::compile(system, grid);
        let samples = trace.samples();
        let chunk = samples.len().div_ceil(threads);
        let width = plan.n_settings();
        let mut arena = vec![SampleMeasurement::ZERO; samples.len() * width];
        let mut summaries = Vec::with_capacity(samples.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = samples
                .chunks(chunk)
                .zip(arena.chunks_mut(chunk * width))
                .map(|(part, cells)| {
                    let plan = &plan;
                    scope.spawn(move || {
                        let _worker = profiler.span_under(phase_id, "worker");
                        let started = profiler.is_enabled().then(Instant::now);
                        let mut rows = Vec::with_capacity(part.len());
                        for (chars, row) in part.iter().zip(cells.chunks_exact_mut(width)) {
                            plan.eval_row_slice(chars, row);
                            rows.push(row_summary(row));
                        }
                        let mut metrics = MetricSet::new();
                        if let Some(t0) = started {
                            metrics.incr("characterize.samples", part.len() as u64);
                            metrics.observe(
                                "characterize.worker_rows",
                                (part.len() * width) as f64,
                                count_edges,
                            );
                            metrics.observe_duration_ns(
                                "characterize.worker_busy_ns",
                                t0.elapsed().as_nanos() as f64,
                            );
                        }
                        (rows, metrics)
                    })
                })
                .collect();
            for handle in handles {
                let (rows, metrics) = handle.join().expect("worker thread panicked");
                summaries.extend(rows);
                profiler.absorb(metrics);
            }
        });
        drop(phase);
        Self::from_arena(trace.name(), grid, width, arena, summaries)
    }

    /// As [`Self::characterize_parallel`] with the thread count defaulted
    /// from [`Self::default_threads`] — the constructor the figure and
    /// sweep harnesses use.
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    #[must_use]
    pub fn characterize_auto(system: &System, trace: &SampleTrace, grid: FrequencyGrid) -> Self {
        Self::characterize_parallel(system, trace, grid, Self::default_threads())
    }

    /// Default worker-thread count: the machine's available parallelism,
    /// falling back to one thread when it cannot be queried.
    #[must_use]
    pub fn default_threads() -> usize {
        std::thread::available_parallelism().map_or(1, usize::from)
    }

    /// Builds a grid directly from a row-major measurement arena — the
    /// constructor reference implementations (see `mcdvfs_core::legacy`)
    /// use to produce a grid without going through the compiled
    /// [`EvalPlan`] path.
    ///
    /// # Panics
    ///
    /// Panics when `n_settings` is zero, `arena` is empty, its length is
    /// not a multiple of `n_settings`, or `n_settings` differs from the
    /// grid's size.
    #[must_use]
    pub fn from_measurements(
        name: &str,
        grid: FrequencyGrid,
        n_settings: usize,
        arena: Vec<SampleMeasurement>,
    ) -> Self {
        assert!(n_settings > 0, "need at least one setting");
        assert_eq!(n_settings, grid.len(), "arena stride must match the grid");
        assert!(
            !arena.is_empty() && arena.len().is_multiple_of(n_settings),
            "arena must hold whole rows"
        );
        let summaries = arena.chunks_exact(n_settings).map(row_summary).collect();
        Self::from_arena(name, grid, n_settings, arena, summaries)
    }

    /// Assembles a grid from its arena and each row's [`row_summary`],
    /// folding the column totals in sample order.
    fn from_arena(
        name: &str,
        grid: FrequencyGrid,
        n_settings: usize,
        arena: Vec<SampleMeasurement>,
        summaries: Vec<(Joules, u64)>,
    ) -> Self {
        debug_assert!(n_settings > 0 && arena.len() == summaries.len() * n_settings);
        let (emin, row_hashes) = summaries.into_iter().unzip();
        let (col_time, col_energy) = column_totals(&arena, n_settings);
        Self {
            name: name.to_string(),
            grid,
            n_settings,
            arena,
            emin,
            col_time,
            col_energy,
            row_hashes,
        }
    }

    /// Incrementally re-characterizes the samples listed in `dirty` after
    /// their characteristics changed, leaving every other row's
    /// measurements untouched.
    ///
    /// `trace` is the *updated* trace (same length and workload as the one
    /// originally characterized). Each dirty row is re-simulated through a
    /// freshly compiled [`EvalPlan`] — bit-identical to what a full
    /// recharacterization of the updated trace would produce for that row
    /// — and its cached `Emin` and content hash are refreshed. The
    /// per-setting column totals are then rebuilt in one linear pass in
    /// sample order: floating-point sums are order-sensitive, so
    /// re-accumulating (rather than delta-adjusting) is what keeps the
    /// cached totals bit-identical to a full recompute. That pass touches
    /// only already-materialized measurements, so its cost is microseconds
    /// against the milliseconds-per-row simulation it avoids.
    ///
    /// Duplicate indices in `dirty` are evaluated once.
    ///
    /// # Panics
    ///
    /// Panics when `trace` has a different number of samples than the
    /// grid, or when a dirty index is out of range.
    pub fn recharacterize(&mut self, system: &System, trace: &SampleTrace, dirty: &[usize]) {
        assert_eq!(
            trace.len(),
            self.n_samples(),
            "updated trace must match the characterized sample count"
        );
        if dirty.is_empty() {
            return;
        }
        let plan = EvalPlan::compile(system, self.grid);
        debug_assert_eq!(plan.n_settings(), self.n_settings);
        let mut seen = vec![false; self.n_samples()];
        for &s in dirty {
            assert!(s < seen.len(), "dirty sample index {s} out of range");
            if std::mem::replace(&mut seen[s], true) {
                continue;
            }
            let row = &mut self.arena[s * self.n_settings..(s + 1) * self.n_settings];
            plan.eval_row_slice(&trace.samples()[s], row);
            (self.emin[s], self.row_hashes[s]) = row_summary(row);
        }
        (self.col_time, self.col_energy) = column_totals(&self.arena, self.n_settings);
    }

    /// The workload's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The platform grid characterized.
    #[must_use]
    pub fn grid(&self) -> FrequencyGrid {
        self.grid
    }

    /// Number of samples (matrix rows).
    #[must_use]
    pub fn n_samples(&self) -> usize {
        self.emin.len()
    }

    /// Number of settings (matrix columns).
    #[must_use]
    pub fn n_settings(&self) -> usize {
        self.n_settings
    }

    /// Total instructions represented (samples × 10 M).
    #[must_use]
    pub fn total_instructions(&self) -> u64 {
        self.n_samples() as u64 * mcdvfs_types::INSTRUCTIONS_PER_SAMPLE
    }

    /// All measurements of sample `s`, indexed by setting — a contiguous
    /// slice of the arena.
    ///
    /// # Panics
    ///
    /// Panics when `s` is out of range.
    #[must_use]
    pub fn sample_row(&self, s: usize) -> &[SampleMeasurement] {
        &self.arena[s * self.n_settings..(s + 1) * self.n_settings]
    }

    /// Measurement of sample `s` at flat setting index `idx`.
    #[must_use]
    pub fn measurement(&self, s: usize, idx: usize) -> &SampleMeasurement {
        &self.sample_row(s)[idx]
    }

    /// Measurement of sample `s` at `setting`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::SettingOffGrid`] when `setting` is not on the grid.
    pub fn measurement_at(&self, s: usize, setting: FreqSetting) -> Result<&SampleMeasurement> {
        let idx = self.grid.index_of(setting).ok_or(Error::SettingOffGrid {
            setting: setting.to_string(),
        })?;
        Ok(self.measurement(s, idx))
    }

    /// Minimum energy any setting achieves for sample `s` — the paper's
    /// per-sample `Emin`, found by brute-force search over the grid.
    #[must_use]
    pub fn sample_emin(&self, s: usize) -> Joules {
        self.emin[s]
    }

    /// Sum of per-sample `Emin` over the whole trace: the least energy the
    /// workload could consume with free per-sample retuning.
    #[must_use]
    pub fn total_emin(&self) -> Joules {
        self.emin.iter().copied().sum()
    }

    /// Total execution time when the whole trace runs at one fixed setting
    /// (cached column sum).
    #[must_use]
    pub fn total_time_at(&self, idx: usize) -> Seconds {
        self.col_time[idx]
    }

    /// Total energy when the whole trace runs at one fixed setting (cached
    /// column sum).
    #[must_use]
    pub fn total_energy_at(&self, idx: usize) -> Joules {
        self.col_energy[idx]
    }

    /// The longest fixed-setting execution time — the paper's speedup
    /// baseline (speedup 1.0).
    #[must_use]
    pub fn longest_total_time(&self) -> Seconds {
        self.col_time
            .iter()
            .copied()
            .fold(Seconds::ZERO, Seconds::max)
    }

    /// Minimum fixed-setting total energy — the denominator of the paper's
    /// Figure 2 whole-run inefficiency.
    #[must_use]
    pub fn min_total_energy(&self) -> Joules {
        self.col_energy
            .iter()
            .copied()
            .fold(Joules::new(f64::INFINITY), Joules::min)
    }

    /// A stable 64-bit content fingerprint of the characterization:
    /// workload name, grid shape and settings, and every measurement's
    /// exact IEEE-754 bits.
    ///
    /// Two grids fingerprint equal iff they would answer every query
    /// identically, so the serving layer keys its response cache on this
    /// value. FNV-1a over raw bits (not rendered decimals) means values
    /// that print alike but differ in the last ulp still get distinct
    /// fingerprints.
    ///
    /// The fingerprint folds the cached per-row hashes rather than
    /// re-reading the arena, so after [`Self::recharacterize`] updates a
    /// few rows, refreshing it costs `O(rows)` hash folds instead of a
    /// full `O(rows × settings)` measurement scan.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let mut h = mcdvfs_types::Fnv1a64::new();
        h.write(self.name.as_bytes());
        h.write_u64(self.n_samples() as u64);
        h.write_u64(self.n_settings as u64);
        for setting in self.grid.settings() {
            h.write_u64(u64::from(setting.cpu.mhz()));
            h.write_u64(u64::from(setting.mem.mhz()));
        }
        for &row_hash in &self.row_hashes {
            h.write_u64(row_hash);
        }
        h.finish()
    }

    /// Freezes this characterization into a [`mcdvfs_store::Snapshot`] for
    /// persistence. The snapshot carries the raw measurement arena plus the
    /// current [`Self::fingerprint`]; [`Self::from_snapshot`] reconstructs a
    /// grid that compares equal (bit-identical floats, identical caches).
    #[must_use]
    pub fn to_snapshot(&self) -> mcdvfs_store::Snapshot {
        mcdvfs_store::Snapshot {
            name: self.name.clone(),
            grid: self.grid,
            n_settings: self.n_settings,
            fingerprint: self.fingerprint(),
            arena: self.arena.clone(),
        }
    }

    /// Reconstructs a characterization from a decoded snapshot.
    ///
    /// The arena is rehydrated through [`Self::from_measurements`], which
    /// derives the same caches fresh characterization does, so the result
    /// is `==` to the grid that produced the snapshot — every derived
    /// answer (optimal settings, clusters, governed schedules) is
    /// bit-identical. The rebuilt grid's fingerprint is re-derived and
    /// checked against the snapshot header, so a snapshot whose contents
    /// drifted from its key is rejected rather than silently served.
    ///
    /// # Errors
    ///
    /// Returns [`mcdvfs_store::SnapshotError::Malformed`] when the dims are
    /// inconsistent, or `FingerprintMismatch` when the rebuilt grid does not
    /// hash to the snapshot's advertised fingerprint.
    pub fn from_snapshot(
        snapshot: mcdvfs_store::Snapshot,
    ) -> std::result::Result<Self, mcdvfs_store::SnapshotError> {
        let malformed = |reason: &str| mcdvfs_store::SnapshotError::Malformed {
            reason: reason.to_string(),
        };
        if snapshot.n_settings == 0 || snapshot.n_settings != snapshot.grid.len() {
            return Err(malformed("snapshot stride does not match its grid"));
        }
        if snapshot.arena.is_empty() || !snapshot.arena.len().is_multiple_of(snapshot.n_settings) {
            return Err(malformed("snapshot arena does not hold whole rows"));
        }
        let fingerprint = snapshot.fingerprint;
        // The checks above are exactly `from_measurements`' preconditions.
        let grid = Self::from_measurements(
            &snapshot.name,
            snapshot.grid,
            snapshot.n_settings,
            snapshot.arena,
        );
        let computed = grid.fingerprint();
        if computed != fingerprint {
            return Err(mcdvfs_store::SnapshotError::FingerprintMismatch {
                stored: fingerprint,
                computed,
            });
        }
        Ok(grid)
    }
}

/// One row's cached summary: its minimum energy (the sample's `Emin`)
/// and its [`hash_measurements`] content hash.
fn row_summary(row: &[SampleMeasurement]) -> (Joules, u64) {
    let emin = row
        .iter()
        .map(SampleMeasurement::energy)
        .fold(Joules::new(f64::INFINITY), Joules::min);
    (emin, hash_measurements(row))
}

/// Per-setting time and energy totals, accumulated in sample order (so the
/// cached sums are bit-identical to summing rows on demand).
fn column_totals(arena: &[SampleMeasurement], n_settings: usize) -> (Vec<Seconds>, Vec<Joules>) {
    let mut col_time = vec![Seconds::ZERO; n_settings];
    let mut col_energy = vec![Joules::ZERO; n_settings];
    for row in arena.chunks_exact(n_settings) {
        for (idx, m) in row.iter().enumerate() {
            col_time[idx] += m.time;
            col_energy[idx] += m.energy();
        }
    }
    (col_time, col_energy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdvfs_workloads::Benchmark;

    fn small_grid() -> FrequencyGrid {
        FrequencyGrid::new(200, 1000, 200, 200, 800, 200).unwrap()
    }

    fn data() -> CharacterizationGrid {
        CharacterizationGrid::characterize(
            &System::galaxy_nexus_class(),
            &Benchmark::Gobmk.trace().window(0, 10),
            small_grid(),
        )
    }

    #[test]
    fn dimensions_match_inputs() {
        let d = data();
        assert_eq!(d.n_samples(), 10);
        assert_eq!(d.n_settings(), small_grid().len());
        assert_eq!(d.name(), "gobmk");
        assert_eq!(d.total_instructions(), 100_000_000);
    }

    #[test]
    fn every_measurement_is_valid() {
        let d = data();
        for s in 0..d.n_samples() {
            for m in d.sample_row(s) {
                assert!(m.is_valid());
            }
        }
    }

    #[test]
    fn emin_is_the_row_minimum() {
        let d = data();
        for s in 0..d.n_samples() {
            let emin = d.sample_emin(s);
            let actual = d
                .sample_row(s)
                .iter()
                .map(|m| m.energy())
                .fold(Joules::new(f64::INFINITY), Joules::min);
            assert_eq!(emin, actual);
            assert!(emin.value() > 0.0);
        }
    }

    #[test]
    fn fingerprint_is_stable_and_input_sensitive() {
        let d = data();
        // Deterministic: recharacterizing the same inputs reproduces it.
        assert_eq!(d.fingerprint(), data().fingerprint());
        // Sensitive to the trace window, the grid, and the workload.
        let other_window = CharacterizationGrid::characterize(
            &System::galaxy_nexus_class(),
            &Benchmark::Gobmk.trace().window(0, 11),
            small_grid(),
        );
        assert_ne!(d.fingerprint(), other_window.fingerprint());
        let other_grid = CharacterizationGrid::characterize(
            &System::galaxy_nexus_class(),
            &Benchmark::Gobmk.trace().window(0, 10),
            FrequencyGrid::coarse(),
        );
        assert_ne!(d.fingerprint(), other_grid.fingerprint());
        let other_workload = CharacterizationGrid::characterize(
            &System::galaxy_nexus_class(),
            &Benchmark::Mcf.trace().window(0, 10),
            small_grid(),
        );
        assert_ne!(d.fingerprint(), other_workload.fingerprint());
    }

    #[test]
    fn total_emin_sums_rows() {
        let d = data();
        let total: Joules = (0..d.n_samples()).map(|s| d.sample_emin(s)).sum();
        assert!((d.total_emin().value() - total.value()).abs() < 1e-15);
    }

    #[test]
    fn fixed_setting_totals_are_consistent() {
        let d = data();
        for idx in [0, d.n_settings() - 1] {
            let t: f64 = (0..d.n_samples())
                .map(|s| d.measurement(s, idx).time.value())
                .sum();
            assert!((d.total_time_at(idx).value() - t).abs() < 1e-12);
            // Any fixed setting's total energy is at least total Emin.
            assert!(d.total_energy_at(idx) >= d.total_emin());
        }
    }

    #[test]
    fn cached_column_totals_match_on_demand_sums_exactly() {
        // The caches must be bit-identical to summing each column in
        // sample order, which is what the pre-arena implementation did.
        let d = data();
        for idx in 0..d.n_settings() {
            let time: Seconds = (0..d.n_samples()).map(|s| d.measurement(s, idx).time).sum();
            let energy: Joules = (0..d.n_samples())
                .map(|s| d.measurement(s, idx).energy())
                .sum();
            assert_eq!(
                d.total_time_at(idx).value().to_bits(),
                time.value().to_bits()
            );
            assert_eq!(
                d.total_energy_at(idx).value().to_bits(),
                energy.value().to_bits()
            );
        }
    }

    #[test]
    fn longest_time_is_at_the_slowest_corner() {
        let d = data();
        let slowest_idx = small_grid().index_of(small_grid().min_setting()).unwrap();
        assert_eq!(d.longest_total_time(), d.total_time_at(slowest_idx));
    }

    #[test]
    fn measurement_at_validates_grid_membership() {
        let d = data();
        assert!(d.measurement_at(0, FreqSetting::from_mhz(400, 400)).is_ok());
        assert!(d
            .measurement_at(0, FreqSetting::from_mhz(450, 400))
            .is_err());
    }

    #[test]
    fn min_total_energy_is_positive_and_below_extremes() {
        let d = data();
        let min = d.min_total_energy();
        assert!(min.value() > 0.0);
        assert!(min <= d.total_energy_at(0));
        assert!(min <= d.total_energy_at(d.n_settings() - 1));
    }

    #[test]
    fn parallel_characterization_is_bit_identical() {
        let system = System::galaxy_nexus_class();
        let trace = Benchmark::Gobmk.trace().window(0, 13);
        let grid = small_grid();
        let sequential = CharacterizationGrid::characterize(&system, &trace, grid);
        for threads in [1, 2, 4, 7] {
            let parallel =
                CharacterizationGrid::characterize_parallel(&system, &trace, grid, threads);
            assert_eq!(parallel, sequential, "{threads} threads");
        }
        let auto = CharacterizationGrid::characterize_auto(&system, &trace, grid);
        assert_eq!(auto, sequential, "auto thread count");
    }

    #[test]
    fn worker_summaries_match_the_legacy_loop() {
        // Row minima and hashes computed in the workers, and column totals
        // folded on the joining thread, must equal the caches a grid built
        // from the per-cell reference loop derives itself.
        let system = System::galaxy_nexus_class();
        let trace = Benchmark::Milc.trace().window(0, 13);
        let grid = small_grid();
        let arena = trace
            .iter()
            .flat_map(|chars| grid.settings().map(|s| system.simulate_sample(chars, s)))
            .collect();
        let legacy = CharacterizationGrid::from_measurements(trace.name(), grid, grid.len(), arena);
        for threads in [1, 2, 3, 8] {
            let d = CharacterizationGrid::characterize_parallel(&system, &trace, grid, threads);
            for s in 0..d.n_samples() {
                assert_eq!(
                    d.sample_emin(s).value().to_bits(),
                    legacy.sample_emin(s).value().to_bits(),
                    "Emin of sample {s} at {threads} threads"
                );
            }
            assert_eq!(d.fingerprint(), legacy.fingerprint(), "{threads} threads");
            for idx in 0..d.n_settings() {
                assert_eq!(
                    d.total_time_at(idx).value().to_bits(),
                    legacy.total_time_at(idx).value().to_bits()
                );
                assert_eq!(
                    d.total_energy_at(idx).value().to_bits(),
                    legacy.total_energy_at(idx).value().to_bits()
                );
            }
            assert_eq!(d, legacy, "{threads} threads");
        }
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(CharacterizationGrid::default_threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_panics() {
        let _ = CharacterizationGrid::characterize_parallel(
            &System::galaxy_nexus_class(),
            &Benchmark::Bzip2.trace().window(0, 2),
            small_grid(),
            0,
        );
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_trace_panics() {
        let t = Benchmark::Bzip2.trace().window(0, 0);
        let _ = CharacterizationGrid::characterize(&System::galaxy_nexus_class(), &t, small_grid());
    }

    #[test]
    #[should_panic]
    fn out_of_range_sample_row_panics() {
        let d = data();
        let _ = d.sample_row(d.n_samples());
    }

    #[test]
    fn from_measurements_reproduces_characterize() {
        let system = System::galaxy_nexus_class();
        let trace = Benchmark::Gobmk.trace().window(0, 5);
        let grid = small_grid();
        let settings: Vec<FreqSetting> = grid.settings().collect();
        let mut arena = Vec::new();
        for chars in trace.iter() {
            for &s in &settings {
                arena.push(system.simulate_sample(chars, s));
            }
        }
        let raw =
            CharacterizationGrid::from_measurements(trace.name(), grid, settings.len(), arena);
        let planned = CharacterizationGrid::characterize(&system, &trace, grid);
        assert_eq!(raw, planned);
        assert_eq!(raw.fingerprint(), planned.fingerprint());
    }

    #[test]
    #[should_panic(expected = "stride must match")]
    fn from_measurements_rejects_wrong_stride() {
        let m = data().sample_row(0).to_vec();
        let _ = CharacterizationGrid::from_measurements("x", small_grid(), m.len() - 1, m);
    }

    #[test]
    fn recharacterize_matches_full_recompute_bitwise() {
        let system = System::galaxy_nexus_class();
        let trace = Benchmark::Gobmk.trace().window(0, 10);
        let grid = small_grid();
        let mut incremental = CharacterizationGrid::characterize(&system, &trace, grid);
        let mut samples = trace.samples().to_vec();
        samples[1].mpki *= 1.5;
        samples[4].base_cpi += 0.2;
        samples[7].row_hit_rate = 0.3;
        let updated = mcdvfs_workloads::SampleTrace::new(trace.name(), samples);
        // A duplicate dirty index must be harmless.
        incremental.recharacterize(&system, &updated, &[1, 4, 7, 4]);
        let full = CharacterizationGrid::characterize(&system, &updated, grid);
        assert_eq!(incremental, full);
        assert_eq!(incremental.fingerprint(), full.fingerprint());
        for s in 0..full.n_samples() {
            assert_eq!(
                incremental.sample_emin(s).value().to_bits(),
                full.sample_emin(s).value().to_bits()
            );
        }
        for idx in 0..full.n_settings() {
            assert_eq!(
                incremental.total_time_at(idx).value().to_bits(),
                full.total_time_at(idx).value().to_bits()
            );
            assert_eq!(
                incremental.total_energy_at(idx).value().to_bits(),
                full.total_energy_at(idx).value().to_bits()
            );
        }
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let fresh = data();
        let snap = fresh.to_snapshot();
        assert_eq!(snap.fingerprint, fresh.fingerprint());
        let bytes = snap.encode();
        let decoded = mcdvfs_store::Snapshot::decode(&bytes).unwrap();
        let rebuilt = CharacterizationGrid::from_snapshot(decoded).unwrap();
        assert_eq!(rebuilt, fresh);
        assert_eq!(rebuilt.fingerprint(), fresh.fingerprint());
        for s in 0..fresh.n_samples() {
            for idx in 0..fresh.n_settings() {
                let (a, b) = (rebuilt.measurement(s, idx), fresh.measurement(s, idx));
                assert_eq!(a.time.value().to_bits(), b.time.value().to_bits());
                assert_eq!(a.cpi.to_bits(), b.cpi.to_bits());
            }
        }
    }

    #[test]
    fn from_snapshot_rejects_drifted_fingerprint() {
        let mut snap = data().to_snapshot();
        snap.fingerprint ^= 1;
        assert!(matches!(
            CharacterizationGrid::from_snapshot(snap),
            Err(mcdvfs_store::SnapshotError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn from_snapshot_rejects_bad_dims_without_panicking() {
        let mut snap = data().to_snapshot();
        snap.arena.pop();
        assert!(matches!(
            CharacterizationGrid::from_snapshot(snap),
            Err(mcdvfs_store::SnapshotError::Malformed { .. })
        ));
        let mut snap = data().to_snapshot();
        snap.n_settings += 1;
        assert!(CharacterizationGrid::from_snapshot(snap).is_err());
    }

    #[test]
    fn recharacterize_with_no_dirty_rows_is_a_no_op() {
        let system = System::galaxy_nexus_class();
        let trace = Benchmark::Gobmk.trace().window(0, 6);
        let mut d = CharacterizationGrid::characterize(&system, &trace, small_grid());
        let before = d.fingerprint();
        d.recharacterize(&system, &trace, &[]);
        assert_eq!(d.fingerprint(), before);
        assert_eq!(
            d,
            CharacterizationGrid::characterize(&system, &trace, small_grid())
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn recharacterize_rejects_out_of_range_index() {
        let system = System::galaxy_nexus_class();
        let trace = Benchmark::Gobmk.trace().window(0, 4);
        let mut d = CharacterizationGrid::characterize(&system, &trace, small_grid());
        d.recharacterize(&system, &trace, &[4]);
    }

    #[test]
    #[should_panic(expected = "sample count")]
    fn recharacterize_rejects_mismatched_trace() {
        let system = System::galaxy_nexus_class();
        let trace = Benchmark::Gobmk.trace().window(0, 4);
        let mut d = CharacterizationGrid::characterize(&system, &trace, small_grid());
        let shorter = Benchmark::Gobmk.trace().window(0, 3);
        d.recharacterize(&system, &shorter, &[0]);
    }
}
