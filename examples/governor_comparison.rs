//! Scenario: comparing frequency governors on one workload.
//!
//! Runs every governor the crate ships — the `performance`/`powersave`
//! pins, the paper's oracle tuners, and a CoScale-style greedy searcher
//! (cold and warm start) — over milc with paper-calibrated overheads, and
//! prints the end-to-end scoreboard.
//!
//! ```text
//! cargo run --example governor_comparison
//! ```

use mcdvfs_core::governor::{
    CoScaleGovernor, FixedGovernor, Governor, OracleClusterGovernor, OracleOptimalGovernor,
};
use mcdvfs_core::report::{fmt, Table};
use mcdvfs_core::{GovernedRun, InefficiencyBudget};
use mcdvfs_sim::{CharacterizationGrid, System};
use mcdvfs_types::FrequencyGrid;
use mcdvfs_workloads::Benchmark;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let system = System::galaxy_nexus_class();
    let trace = Benchmark::Milc.trace();
    let grid = FrequencyGrid::coarse();
    let data = Arc::new(CharacterizationGrid::characterize(&system, &trace, grid));
    let budget = InefficiencyBudget::bounded(1.3)?;
    let runner = GovernedRun::with_paper_overheads();

    let mut governors: Vec<Box<dyn Governor>> = vec![
        Box::new(FixedGovernor::performance(grid)),
        Box::new(FixedGovernor::powersave(grid)),
        Box::new(CoScaleGovernor::new(Arc::clone(&data), budget)),
        Box::new(CoScaleGovernor::new(Arc::clone(&data), budget).starting_from_previous()),
        Box::new(OracleOptimalGovernor::new(Arc::clone(&data), budget)),
        Box::new(OracleClusterGovernor::new(Arc::clone(&data), budget, 0.05)?),
    ];

    let mut table = Table::new(vec![
        "governor",
        "time_ms",
        "energy_mJ",
        "inefficiency",
        "searches",
        "transitions",
    ]);
    for governor in &mut governors {
        let report = runner.execute(&data, &trace, governor.as_mut());
        table.row(vec![
            report.governor.clone(),
            fmt(report.total_time().as_micros() / 1e3, 1),
            fmt(report.total_energy().as_millis(), 1),
            fmt(report.total_inefficiency(), 3),
            report.searches.to_string(),
            report.transitions.to_string(),
        ]);
    }
    println!(
        "milc, {} samples, budget {budget}, paper overheads:\n",
        trace.len()
    );
    println!("{}", table.to_text());
    println!(
        "notes: `performance` burns far past the budget; `powersave` is slow\n\
         AND inefficient (the paper's \"running slower isn't running\n\
         efficiently\"); the warm-start CoScale variant matches the cold one with\n\
         fewer evaluated settings; the cluster tuner meets the budget like the\n\
         oracle while searching only at stable-region boundaries."
    );
    Ok(())
}
