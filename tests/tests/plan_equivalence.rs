//! Bit-identity of the compiled [`EvalPlan`] against the per-cell reference
//! [`System::simulate_sample`] over the whole benchmark suite.
//!
//! Every sample of all 21 SPEC traces is checked at every coarse-grid
//! setting, and a seeded subset of fine-grid cells covers the 496-setting
//! rows. All four measured fields are compared through `to_bits`, so a
//! change in any operation order, or a bisection that stops one step too
//! early, shows up as a failure naming the benchmark, sample and setting.

use mcdvfs_sim::{EvalPlan, System};
use mcdvfs_types::{FrequencyGrid, SampleCharacteristics, SampleMeasurement, SplitMix64};
use mcdvfs_workloads::Benchmark;

/// Fine-grid rows drawn per benchmark, and cells checked per drawn row.
const FINE_ROWS_PER_BENCHMARK: usize = 3;
const FINE_CELLS_PER_ROW: usize = 24;

fn bits(m: &SampleMeasurement) -> [u64; 4] {
    [
        m.time.value().to_bits(),
        m.cpu_energy.value().to_bits(),
        m.mem_energy.value().to_bits(),
        m.cpi.to_bits(),
    ]
}

fn assert_cell(
    system: &System,
    plan: &EvalPlan,
    row: &[SampleMeasurement],
    chars: &SampleCharacteristics,
    j: usize,
    ctx: &str,
) {
    let setting = plan.settings()[j];
    let direct = system.simulate_sample(chars, setting);
    assert_eq!(bits(&row[j]), bits(&direct), "{ctx} at {setting}");
}

#[test]
fn every_coarse_cell_of_the_suite_matches_the_reference() {
    let system = System::galaxy_nexus_class();
    let plan = EvalPlan::compile(&system, FrequencyGrid::coarse());
    let mut row = Vec::new();
    let mut cells = 0;
    for benchmark in Benchmark::all() {
        let trace = benchmark.trace();
        for (s, chars) in trace.iter().enumerate() {
            row.clear();
            plan.eval_row_into(chars, &mut row);
            let ctx = format!("{benchmark} sample {s}");
            for j in 0..plan.n_settings() {
                assert_cell(&system, &plan, &row, chars, j, &ctx);
            }
            cells += row.len();
        }
    }
    assert!(cells > 100_000, "only {cells} coarse cells checked");
}

#[test]
fn seeded_fine_cells_match_the_reference() {
    let system = System::galaxy_nexus_class();
    let plan = EvalPlan::compile(&system, FrequencyGrid::fine());
    let mut rng = SplitMix64::new(0x5eed_f1e5);
    let mut row = Vec::new();
    for benchmark in Benchmark::all() {
        let trace = benchmark.trace();
        for _ in 0..FINE_ROWS_PER_BENCHMARK {
            let s = rng.range_usize(0, trace.len());
            let chars = &trace.samples()[s];
            row.clear();
            plan.eval_row_into(chars, &mut row);
            // Both corners of the grid, then seeded interior settings.
            let ctx = format!("{benchmark} sample {s}");
            assert_cell(&system, &plan, &row, chars, 0, &ctx);
            assert_cell(&system, &plan, &row, chars, row.len() - 1, &ctx);
            for _ in 0..FINE_CELLS_PER_ROW {
                let j = rng.range_usize(0, row.len());
                assert_cell(&system, &plan, &row, chars, j, &ctx);
            }
        }
    }
}
