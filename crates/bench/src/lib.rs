//! Shared harness for the figure-regeneration binaries and the
//! wall-clock benches under `benches/` (see [`quickbench`]).
//!
//! Every figure and table of the paper's evaluation has a binary under
//! `src/bin/` that prints the same rows/series the paper reports and writes
//! a CSV copy under `results/` (override with the `MCDVFS_RESULTS`
//! environment variable):
//!
//! ```text
//! cargo run -p mcdvfs-bench --bin fig08_transition_counts
//! ```
//!
//! The helpers here centralize platform construction, grid
//! characterization, and output formatting so the binaries stay small and
//! identical in style.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod provenance;
pub mod quickbench;

pub use mcdvfs_types::results_dir;
pub use provenance::{
    checksum_string, fnv1a64, ArtifactEntry, Harness, Json, Manifest, PROFILE_ENV,
};

use mcdvfs_core::report::Table;
use mcdvfs_sim::{CharacterizationGrid, System};
use mcdvfs_types::FrequencyGrid;
use mcdvfs_workloads::{Benchmark, SampleTrace};
use std::sync::Arc;

/// The inefficiency budgets the paper's figures sweep.
pub const PAPER_BUDGETS: [f64; 3] = [1.0, 1.3, 1.6];

/// The cluster thresholds the paper's figures sweep.
pub const PAPER_THRESHOLDS: [f64; 3] = [0.01, 0.03, 0.05];

/// The simulated platform every experiment runs on.
#[must_use]
pub fn platform() -> System {
    System::galaxy_nexus_class()
}

/// Characterizes `benchmark`'s full trace on the coarse 70-setting grid —
/// the paper's "70 simulations per benchmark".
#[must_use]
pub fn characterize(benchmark: Benchmark) -> (Arc<CharacterizationGrid>, SampleTrace) {
    characterize_on(benchmark, FrequencyGrid::coarse())
}

/// Characterizes `benchmark` on an explicit grid (the fine 496-setting grid
/// for the Figure 12 sensitivity study).
#[must_use]
pub fn characterize_on(
    benchmark: Benchmark,
    grid: FrequencyGrid,
) -> (Arc<CharacterizationGrid>, SampleTrace) {
    let trace = benchmark.trace();
    let data = Arc::new(CharacterizationGrid::characterize_auto(
        &platform(),
        &trace,
        grid,
    ));
    (data, trace)
}

/// [`characterize`] with the harness profiler attached, so figure profiles
/// show the characterization phase alongside the sweep phases. The
/// characterization itself is bit-identical to the unprofiled one.
#[must_use]
pub fn characterize_for(
    harness: &Harness,
    benchmark: Benchmark,
) -> (Arc<CharacterizationGrid>, SampleTrace) {
    characterize_on_for(harness, benchmark, FrequencyGrid::coarse())
}

/// [`characterize_on`] with the harness profiler attached.
#[must_use]
pub fn characterize_on_for(
    harness: &Harness,
    benchmark: Benchmark,
    grid: FrequencyGrid,
) -> (Arc<CharacterizationGrid>, SampleTrace) {
    let trace = benchmark.trace();
    let data = Arc::new(CharacterizationGrid::characterize_profiled(
        &platform(),
        &trace,
        grid,
        CharacterizationGrid::default_threads(),
        harness.profiler(),
    ));
    (data, trace)
}

/// Prints the standard experiment banner.
pub fn banner(figure: &str, caption: &str) {
    println!("==============================================================");
    println!("{figure} — {caption}");
    println!("(reproduction of Begum et al., IISWC 2015)");
    println!("==============================================================");
}

/// Prints one table through `harness`, mirroring it to
/// `results/<name>.csv` and recording the artifact's provenance in
/// `results/MANIFEST.json` — see [`Harness::emit_artifact`]. This is how
/// every figure/ablation binary writes its outputs.
pub fn emit_artifact(harness: &Harness, table: &Table, name: &str) {
    harness.emit_artifact(table, name);
}

/// Prints a table and mirrors it to `results/<name>.csv`, reporting the
/// path written. Prefer [`emit_artifact`], which additionally records the
/// artifact in the provenance manifest.
pub fn emit(table: &Table, name: &str) {
    println!("{}", table.to_text());
    let path = results_dir().join(format!("{name}.csv"));
    match table.write_csv(&path) {
        Ok(()) => println!("[csv written to {}]", path.display()),
        Err(e) => eprintln!("[warning: could not write {}: {e}]", path.display()),
    }
    println!();
}

/// Shared driver for the Figure 4/5 cluster plots: per-sample cluster
/// frequency bands at budgets {1.0, 1.3} x thresholds {1%, 5%}, printed,
/// mirrored to CSV under `csv_prefix`, and recorded in the provenance
/// manifest through `harness`.
pub fn clusters_figure(harness: &mut Harness, benchmark: Benchmark, csv_prefix: &str) {
    use mcdvfs_core::{cluster_series, stable_regions, InefficiencyBudget};

    harness.note("benchmark", benchmark.name());
    harness.note("grid", "coarse-70");
    harness.note("budgets", "1.0,1.3");
    harness.note("thresholds", "0.01,0.05");
    let (data, _) = characterize_for(harness, benchmark);
    for (budget_v, thr) in [(1.0, 0.01), (1.0, 0.05), (1.3, 0.01), (1.3, 0.05)] {
        let budget = InefficiencyBudget::bounded(budget_v).expect("valid budget");
        let clusters = cluster_series(&data, budget, thr).expect("valid threshold");
        let regions = stable_regions(&clusters);

        let mut t = Table::new(vec![
            "sample", "opt_cpu", "opt_mem", "cpu_lo", "cpu_hi", "mem_lo", "mem_hi", "members",
        ]);
        for c in &clusters {
            let (cpu_lo, cpu_hi) = c.cpu_range_mhz(&data);
            let (mem_lo, mem_hi) = c.mem_range_mhz(&data);
            t.row(vec![
                c.sample.to_string(),
                c.optimal.setting.cpu.mhz().to_string(),
                c.optimal.setting.mem.mhz().to_string(),
                cpu_lo.to_string(),
                cpu_hi.to_string(),
                mem_lo.to_string(),
                mem_hi.to_string(),
                c.len().to_string(),
            ]);
        }
        println!(
            "--- {benchmark}: I={budget_v}, threshold={}% -> {} stable regions, mean cluster size {:.1}",
            thr * 100.0,
            regions.len(),
            clusters.iter().map(|c| c.len() as f64).sum::<f64>() / clusters.len() as f64,
        );
        emit_artifact(
            harness,
            &t,
            &format!(
                "{csv_prefix}_i{}_thr{}",
                budget_v.to_string().replace('.', "_"),
                (thr * 100.0) as u32
            ),
        );
    }
}

/// Renders a per-sample frequency series as a compact sparkline-style row:
/// one character per sample, binned across the domain's range.
#[must_use]
pub fn freq_sparkline(mhz: &[u32], lo: u32, hi: u32) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    mhz.iter()
        .map(|&f| {
            let t = f64::from(f.clamp(lo, hi) - lo) / f64::from((hi - lo).max(1));
            GLYPHS[((t * 7.0).round() as usize).min(7)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_spans_glyph_range() {
        let s = freq_sparkline(&[100, 550, 1000], 100, 1000);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
    }

    #[test]
    fn sparkline_clamps_out_of_range() {
        let s = freq_sparkline(&[50, 2000], 100, 1000);
        assert!(s.starts_with('▁'));
        assert!(s.ends_with('█'));
    }

    #[test]
    fn characterize_produces_full_grid() {
        let (data, trace) = characterize(Benchmark::Bzip2);
        assert_eq!(data.n_settings(), 70);
        assert_eq!(data.n_samples(), trace.len());
    }

    #[test]
    fn results_dir_is_nonempty_path() {
        assert!(!results_dir().as_os_str().is_empty());
    }
}
