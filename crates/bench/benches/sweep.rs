//! Before/after wall-clock benches for the flat-arena, bitset, sweep, and
//! compiled-characterization refactors of the analysis pipeline.
//!
//! Each kernel is timed in its legacy `Vec`-based reference form
//! ([`mcdvfs_core::legacy`]) and its current form on the coarse
//! (70-setting) and fine (496-setting) grids. Characterization compares
//! the legacy per-cell `simulate_sample` loop against the
//! `EvalPlan`-compiled path, `recharacterize/dirty-1%` compares a full
//! recompute against the dirty-row delta update, and the full budget ×
//! threshold grid is derived both the old way and through
//! [`SweepEngine`]. Timings and speedups land in
//! `results/BENCH_sweep.json` (schema `mcdvfs-bench/sweep-v3`), recorded
//! in the provenance manifest so the results-drift job cross-checks the
//! committed report.
//!
//! Set `MCDVFS_BENCH_SMOKE=1` for a seconds-long CI run (tiny windows):
//! instead of overwriting the committed report, it validates the report's
//! schema and kernel rows and **fails** if the measured
//! `characterize/fine` speedup regresses below 5x — half the ≈10x the
//! recorded baseline claims.

use mcdvfs_bench::quickbench::{BenchReport, QuickBench};
use mcdvfs_bench::{results_dir, Harness, Json, PAPER_BUDGETS, PAPER_THRESHOLDS};
use mcdvfs_core::legacy;
use mcdvfs_core::{cluster_series, stable_regions, InefficiencyBudget, OptimalFinder, SweepEngine};
use mcdvfs_sim::{CharacterizationGrid, System};
use mcdvfs_types::FrequencyGrid;
use mcdvfs_workloads::{Benchmark, SampleTrace};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// Schema tag of the report this bench writes.
const SCHEMA: &str = "mcdvfs-bench/sweep-v3";

/// Comparison rows the committed report must carry (smoke validates them).
const REQUIRED_ROWS: [&str; 3] = [
    "characterize/coarse",
    "characterize/fine",
    "recharacterize/dirty-1%",
];

/// Smoke floor on the measured `characterize/fine` speedup.
const SMOKE_FLOOR: f64 = 5.0;

fn main() {
    let smoke = std::env::var_os("MCDVFS_BENCH_SMOKE").is_some();
    let qb = if smoke {
        QuickBench::smoke()
    } else {
        QuickBench::new()
    };
    let system = System::galaxy_nexus_class();
    let trace = if smoke {
        Benchmark::Gobmk.trace().window(0, 10)
    } else {
        Benchmark::Gobmk.trace()
    };
    let grids: &[(&str, FrequencyGrid)] = &[
        ("coarse", FrequencyGrid::coarse()),
        ("fine", FrequencyGrid::fine()),
    ];

    let budget = InefficiencyBudget::bounded(1.3).expect("valid budget");
    let budgets: Vec<InefficiencyBudget> = PAPER_BUDGETS
        .iter()
        .map(|&v| InefficiencyBudget::bounded(v).expect("valid budget"))
        .collect();

    println!(
        "sweep bench: {} samples, {} worker threads{}",
        trace.len(),
        CharacterizationGrid::default_threads(),
        if smoke { ", SMOKE windows" } else { "" },
    );
    let mut report = BenchReport::new(SCHEMA);

    for &(label, grid) in grids {
        // Characterization: the legacy per-cell simulate_sample loop vs
        // the EvalPlan-compiled path (both sequential, so the comparison
        // measures the plan, not the machine's core count).
        let base = qb.bench(&format!("characterize/{label}/legacy_cell_loop"), || {
            black_box(legacy::characterize(&system, &trace, grid))
        });
        let opt = qb.bench(&format!("characterize/{label}/plan_compiled"), || {
            black_box(CharacterizationGrid::characterize(&system, &trace, grid))
        });
        report.compare(&format!("characterize/{label}"), base, opt);
        let par = qb.bench(&format!("characterize/{label}/parallel_auto"), || {
            black_box(CharacterizationGrid::characterize_auto(
                &system, &trace, grid,
            ))
        });
        report.entry(&format!("characterize/{label}/parallel_auto"), par);

        let data = Arc::new(CharacterizationGrid::characterize_auto(
            &system, &trace, grid,
        ));
        let finder = OptimalFinder::new(budget);

        let base = qb.bench(&format!("optimal_series/{label}/legacy_vec"), || {
            black_box(legacy::series(&finder, &data))
        });
        let opt = qb.bench(&format!("optimal_series/{label}/bitset"), || {
            black_box(finder.series(&data))
        });
        report.compare(&format!("optimal_series/{label}"), base, opt);

        let base = qb.bench(&format!("clusters/{label}/legacy_vec"), || {
            black_box(legacy::cluster_members(&data, budget, 0.05).expect("valid threshold"))
        });
        let opt = qb.bench(&format!("clusters/{label}/bitset"), || {
            black_box(cluster_series(&data, budget, 0.05).expect("valid threshold"))
        });
        report.compare(&format!("clusters/{label}"), base, opt);

        let members = legacy::cluster_members(&data, budget, 0.05).expect("valid threshold");
        let clusters = cluster_series(&data, budget, 0.05).expect("valid threshold");
        let base = qb.bench(&format!("stable_regions/{label}/legacy_vec"), || {
            black_box(legacy::stable_regions(&members))
        });
        let opt = qb.bench(&format!("stable_regions/{label}/bitset"), || {
            black_box(stable_regions(&clusters))
        });
        report.compare(&format!("stable_regions/{label}"), base, opt);

        // The full budget x threshold grid, the old way (every point
        // stands alone: its optimal series is derived for the figure AND
        // re-derived inside cluster_series) vs the engine (one series per
        // budget, points fanned over workers).
        let base = qb.bench(&format!("sweep_grid/{label}/per_point_sequential"), || {
            let mut out = Vec::new();
            for &b in &budgets {
                for &thr in &PAPER_THRESHOLDS {
                    let optimal = OptimalFinder::new(b).series(&data);
                    let clusters = cluster_series(&data, b, thr).expect("valid threshold");
                    let regions = stable_regions(&clusters);
                    out.push((optimal, clusters, regions));
                }
            }
            black_box(out)
        });
        let engine = SweepEngine::new(Arc::clone(&data));
        let opt = qb.bench(&format!("sweep_grid/{label}/engine"), || {
            black_box(
                engine
                    .sweep(&budgets, &PAPER_THRESHOLDS)
                    .expect("valid thresholds"),
            )
        });
        report.compare(&format!("sweep_grid/{label}"), base, opt);
    }

    // Incremental recharacterization on the fine grid: ~1% of samples go
    // dirty, and the delta update (re-simulate only those rows, refresh
    // cached Emin/row hashes, one linear column-total pass) races a full
    // plan-compiled recompute of the updated trace.
    let grid = FrequencyGrid::fine();
    let n = trace.len();
    let dirty: Vec<usize> = {
        let count = (n / 100).max(1);
        let stride = (n / count).max(1);
        (0..count).map(|i| i * stride).collect()
    };
    let mut samples = trace.samples().to_vec();
    for &s in &dirty {
        samples[s].base_cpi *= 1.05;
        samples[s].mpki *= 1.1;
    }
    let updated = SampleTrace::new(trace.name(), samples);
    println!(
        "recharacterize: {} of {} samples dirty on the fine grid",
        dirty.len(),
        n
    );
    let base = qb.bench("recharacterize/full_recompute", || {
        black_box(CharacterizationGrid::characterize(&system, &updated, grid))
    });
    let mut warm = CharacterizationGrid::characterize(&system, &trace, grid);
    let opt = qb.bench("recharacterize/dirty_rows", || {
        warm.recharacterize(&system, &updated, &dirty);
        black_box(warm.fingerprint())
    });
    report.compare("recharacterize/dirty-1%", base, opt);

    let path = results_dir().join("BENCH_sweep.json");
    if smoke {
        // Smoke windows would clobber the committed full-run timings;
        // validate the committed report and gate the fast path instead.
        enforce_smoke_gate(&report, &path);
    } else {
        report.write_json(&path).expect("write bench report");
        println!("[json written to {}]", path.display());
        let mut harness = Harness::new("sweep_bench");
        harness.note("schema", SCHEMA);
        harness.note("benchmark", "gobmk");
        harness.note("grids", "coarse-70,fine-496");
        harness.note(
            "kernels",
            "characterize,recharacterize,optimal_series,clusters,stable_regions,sweep_grid",
        );
        harness.record_file(&path);
        harness.finish();
    }
}

/// The CI smoke gate: the committed report must be `sweep-v3` and carry
/// every required kernel row, and the measured `characterize/fine`
/// speedup must not regress below [`SMOKE_FLOOR`] (half the ≈10x the
/// recorded baseline claims; smoke timings are noisy, the margin is not).
fn enforce_smoke_gate(report: &BenchReport, committed: &Path) {
    let mut failures: Vec<String> = Vec::new();

    match std::fs::read_to_string(committed)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text))
    {
        Ok(doc) => {
            match doc.get("schema").and_then(Json::as_str) {
                Some(SCHEMA) => {}
                other => failures.push(format!(
                    "{}: schema {other:?}, expected {SCHEMA:?}",
                    committed.display()
                )),
            }
            let rows = doc.get("comparisons").and_then(Json::as_arr).unwrap_or(&[]);
            for required in REQUIRED_ROWS {
                let row = rows
                    .iter()
                    .find(|r| r.get("name").and_then(Json::as_str) == Some(required));
                match row {
                    None => failures.push(format!("committed report lacks a {required:?} row")),
                    Some(row) => {
                        let speedup = row.get("speedup").and_then(Json::as_f64).unwrap_or(0.0);
                        println!("recorded {required:<24} {speedup:>6.2}x");
                    }
                }
            }
        }
        Err(e) => failures.push(format!("cannot read {}: {e}", committed.display())),
    }

    match report
        .comparisons()
        .iter()
        .find(|c| c.name == "characterize/fine")
    {
        None => failures.push("smoke run produced no characterize/fine row".to_string()),
        Some(c) => {
            let measured = c.speedup();
            println!("measured characterize/fine        {measured:>6.2}x (floor {SMOKE_FLOOR}x)");
            if measured < SMOKE_FLOOR {
                failures.push(format!(
                    "characterize/fine regressed: {measured:.2}x < {SMOKE_FLOOR}x floor"
                ));
            }
        }
    }

    if failures.is_empty() {
        println!("[smoke gate passed; committed report left untouched]");
    } else {
        for f in &failures {
            eprintln!("[smoke gate] {f}");
        }
        std::process::exit(1);
    }
}
