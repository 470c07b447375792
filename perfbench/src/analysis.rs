//! `analysis_batch`: the paper's figure path, offline.
//!
//! One pass characterizes every SPEC trace on the fine grid, sweeps it
//! over the fig10 budgets × cluster thresholds, replays the governed
//! oracle with the paper's overheads at each budget, and ends with the
//! oracle-gap scorecards of every shipped policy on every scenario. No
//! sockets are involved, so a serving change should not move it.
//!
//! The seed orders the traces and scenarios within each pass. Every
//! output `f64` (and index) folds into a per-item digest that must match
//! the digest recorded in [`EXPECTED`], so a speed-only change cannot
//! alter a simulated statistic unnoticed.

use crate::report::{peak_rss_mb, Outcome};
use crate::spans::Tracer;
use crate::stats::{median, quantile};
use crate::{seeded_order, Args};
use mcdvfs_core::{
    GovernedRun, InefficiencyBudget, PolicyScorecard, RunReport, SweepEngine, SweepOutcome,
};
use mcdvfs_policy::{build_policy, PolicyGovernor, SHIPPED_POLICIES};
use mcdvfs_sim::{CharacterizationGrid, System};
use mcdvfs_types::{Fnv1a64, FrequencyGrid};
use mcdvfs_workloads::{Benchmark, SampleTrace, Scenario};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// fig10's inefficiency budgets.
const BUDGETS: [f64; 5] = [1.0, 1.1, 1.2, 1.3, 1.6];
/// Cluster thresholds swept at each budget.
const THRESHOLDS: [f64; 3] = [0.01, 0.03, 0.05];
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Budget the policy scorecards run at.
const SCORECARD_BUDGET: f64 = 1.3;

/// Digest of every output of one item (a trace's sweep and governed
/// replays, or one policy's scorecard on one scenario), as recorded with
/// the benchmark. Regenerate with `--print-digests` only when a change is
/// meant to alter simulated results.
const EXPECTED: [(&str, u64); 30] = include!("expected_digests.in");

fn budgets() -> Vec<InefficiencyBudget> {
    BUDGETS
        .iter()
        .map(|&b| InefficiencyBudget::bounded(b).expect("valid budget"))
        .collect()
}

/// The generated inputs of one pass.
struct Inputs {
    system: System,
    traces: Vec<SampleTrace>,
    scenarios: Vec<Scenario>,
}

impl Inputs {
    fn generate() -> Self {
        Self {
            system: System::galaxy_nexus_class(),
            traces: Benchmark::all().iter().map(Benchmark::trace).collect(),
            scenarios: Scenario::all(),
        }
    }
}

/// What one pass produced.
struct Pass {
    /// Timed work, excluding digesting.
    work: Duration,
    /// Per-item latencies in milliseconds (each trace, each scenario).
    latencies_ms: Vec<f64>,
    /// `(item name, digest)` for every checked item.
    digests: Vec<(String, u64)>,
    cells: u64,
    decisions: u64,
    transitions: u64,
}

/// Runs the workload into `out`.
pub fn run(args: &Args, out: &mut Outcome) {
    let threads = crate::nproc();
    let budgets = budgets();
    // Set-up generates the inputs and runs one untimed warm-up pass, so
    // lazy initialization and allocator growth land here, not in the
    // first timed pass.
    let mut setups = Vec::new();
    let mut inputs = None;
    for round in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let fresh = Inputs::generate();
        let order = seeded_order(args.seed ^ 0x5e7, round as u64, fresh.traces.len());
        let scenarios: Vec<usize> = (0..fresh.scenarios.len()).collect();
        let warm = pass(
            &fresh,
            &budgets,
            threads,
            &order,
            &scenarios,
            &mut Tracer::new(false),
        );
        setups.push(t0.elapsed().as_secs_f64());
        check(out, &warm.digests);
        inputs = Some(fresh);
    }
    let inputs = inputs.expect("at least one set-up");
    out.e2e("setup_s", median(&setups).expect("set-ups ran"));
    out.note("setup_repeats", setups.len());
    out.note("threads", threads);

    let window = Duration::from_secs_f64(args.seconds);
    let halves: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let mut batch_by_mode = Vec::new();
    for &traced in halves {
        let share = window / halves.len() as u32;
        let mut tracer = Tracer::new(traced);
        let started = Instant::now();
        let mut passes = Vec::new();
        while passes.is_empty() || started.elapsed() < share {
            let order = seeded_order(args.seed, passes.len() as u64, inputs.traces.len());
            let scenario_order = seeded_order(
                args.seed ^ 0x5ce0,
                passes.len() as u64,
                inputs.scenarios.len(),
            );
            passes.push(pass(
                &inputs,
                &budgets,
                threads,
                &order,
                &scenario_order,
                &mut tracer,
            ));
        }
        let batch: Vec<f64> = passes.iter().map(|p| p.work.as_secs_f64()).collect();
        batch_by_mode.push(median(&batch).expect("one pass ran"));
        if traced {
            layers(out, &tracer, &passes, threads);
        } else {
            end_to_end(out, &passes);
        }
        for p in &passes {
            check(out, &p.digests);
        }
    }
    if let [untraced, traced] = batch_by_mode[..] {
        out.layer("bench.trace_overhead_ratio", traced / untraced);
    }
    out.e2e("peak_rss_mb", peak_rss_mb());
}

fn end_to_end(out: &mut Outcome, passes: &[Pass]) {
    let batch: Vec<f64> = passes.iter().map(|p| p.work.as_secs_f64()).collect();
    let latencies: Vec<f64> = passes.iter().flat_map(|p| p.latencies_ms.clone()).collect();
    let work: f64 = batch.iter().sum();
    let p50 = quantile(&latencies, 0.5).expect("latencies recorded");
    let p99 = quantile(&latencies, 0.99).expect("latencies recorded");
    out.e2e("batch_s", median(&batch).expect("one pass ran"));
    out.e2e("throughput_rps", latencies.len() as f64 / work);
    out.e2e("latency_p50_ms", p50.value);
    out.e2e("latency_p99_ms", p99.value);
    out.note("passes", passes.len());
    out.note("latency_samples", p50.n);
    out.note("latency_p99_beyond", p99.beyond);
}

fn layers(out: &mut Outcome, tracer: &Tracer, passes: &[Pass], threads: usize) {
    let n = passes.len() as f64;
    let cells: u64 = passes.iter().map(|p| p.cells).sum();
    out.layer("sim.characterize_s", tracer.total_s("sim.characterize") / n);
    out.layer("sim.cells", cells as f64 / n);
    out.layer(
        "sim.ns_per_cell",
        tracer.total_s("sim.characterize") * 1e9 / cells as f64,
    );
    out.layer("core.sweep_s", tracer.total_s("core.sweep") / n);
    out.layer(
        "core.sweep_points",
        (Benchmark::all().len() * BUDGETS.len() * THRESHOLDS.len()) as f64,
    );
    out.layer("core.governed_s", tracer.total_s("core.governed") / n);
    out.layer("core.scorecard_s", tracer.total_s("core.scorecard") / n);
    out.layer(
        "policy.decisions",
        passes.iter().map(|p| p.decisions).sum::<u64>() as f64 / n,
    );
    out.layer(
        "policy.transitions",
        passes.iter().map(|p| p.transitions).sum::<u64>() as f64 / n,
    );
    out.note("traced_passes", passes.len());
    out.note("traced_threads", threads);
}

/// Counts every digested item and every mismatch against [`EXPECTED`].
fn check(out: &mut Outcome, digests: &[(String, u64)]) {
    for (name, digest) in digests {
        out.attempted += 1;
        let expected = EXPECTED.iter().find(|(n, _)| n == name).map(|(_, d)| *d);
        if expected != Some(*digest) {
            if out.failed < 5 {
                eprintln!("analysis_batch: {name} digest {digest:#018x}, expected {expected:#x?}");
            }
            out.failed += 1;
        }
    }
}

/// Prints the digests of one pass in [`EXPECTED`]'s form.
pub fn print_digests() {
    let inputs = Inputs::generate();
    let budgets = budgets();
    let traces: Vec<usize> = (0..inputs.traces.len()).collect();
    let scenarios: Vec<usize> = (0..inputs.scenarios.len()).collect();
    let p = pass(
        &inputs,
        &budgets,
        crate::nproc(),
        &traces,
        &scenarios,
        &mut Tracer::new(false),
    );
    println!("[");
    for (name, digest) in &p.digests {
        println!("    ({name:?}, {digest:#018x}),");
    }
    println!("]");
}

fn pass(
    inputs: &Inputs,
    budgets: &[InefficiencyBudget],
    threads: usize,
    trace_order: &[usize],
    scenario_order: &[usize],
    tracer: &mut Tracer,
) -> Pass {
    let grid = FrequencyGrid::fine();
    let paper = GovernedRun::with_paper_overheads();
    let mut p = Pass {
        work: Duration::ZERO,
        latencies_ms: Vec::new(),
        digests: Vec::new(),
        cells: 0,
        decisions: 0,
        transitions: 0,
    };
    for &ti in trace_order {
        let trace = &inputs.traces[ti];
        let t0 = Instant::now();
        let engine = characterize(&inputs.system, trace, grid, threads, tracer);
        let outcomes = tracer
            .span("core.sweep", || engine.sweep(budgets, &THRESHOLDS))
            .expect("thresholds are in range");
        let reports = tracer.span("core.governed", || {
            engine.governed_reports(&paper, trace, budgets)
        });
        let took = t0.elapsed();
        p.work += took;
        p.latencies_ms.push(took.as_secs_f64() * 1e3);
        p.cells += (engine.data().n_samples() * engine.data().n_settings()) as u64;
        let mut h = Fnv1a64::new();
        digest_outcomes(&mut h, &outcomes);
        for r in &reports {
            digest_report(&mut h, r);
        }
        p.digests.push((trace.name().to_string(), h.finish()));
    }
    let budget = InefficiencyBudget::bounded(SCORECARD_BUDGET).expect("valid budget");
    for &si in scenario_order {
        let scenario = &inputs.scenarios[si];
        let trace = scenario.trace();
        let t0 = Instant::now();
        let engine = characterize(&inputs.system, trace, grid, threads, tracer);
        let data = engine.data();
        let reference = tracer
            .span("core.governed", || {
                engine.governed_reports(&GovernedRun::without_overheads(), trace, &[budget])
            })
            .pop()
            .expect("one budget yields one report");
        let mut cards = Vec::new();
        for name in SHIPPED_POLICIES {
            let mut governor = PolicyGovernor::new(
                build_policy(name).expect("shipped policy"),
                scenario,
                data,
                budget,
            );
            let deadlines = governor.deadlines();
            let card = tracer.span("core.scorecard", || {
                PolicyScorecard::score(
                    &paper,
                    data,
                    trace,
                    &mut governor,
                    &deadlines,
                    scenario.name(),
                    &reference,
                )
            });
            p.decisions += governor.counters().decisions;
            p.transitions += card.transitions;
            cards.push((name, card));
        }
        let took = t0.elapsed();
        p.work += took;
        p.latencies_ms.push(took.as_secs_f64() * 1e3);
        p.cells += (data.n_samples() * data.n_settings()) as u64;
        for (name, card) in cards {
            let mut h = Fnv1a64::new();
            digest_scorecard(&mut h, &card);
            p.digests
                .push((format!("{name}@{}", scenario.name()), h.finish()));
        }
    }
    p
}

fn characterize(
    system: &System,
    trace: &SampleTrace,
    grid: FrequencyGrid,
    threads: usize,
    tracer: &mut Tracer,
) -> SweepEngine {
    let data = tracer.span("sim.characterize", || {
        CharacterizationGrid::characterize_parallel(system, trace, grid, threads)
    });
    SweepEngine::with_threads(Arc::new(data), threads)
}

fn digest_outcomes(h: &mut Fnv1a64, outcomes: &[SweepOutcome]) {
    for o in outcomes {
        h.write_u64(o.point.budget.bound().map_or(u64::MAX, f64::to_bits));
        h.write_u64(o.point.threshold.to_bits());
        for c in o.optimal.iter() {
            h.write_u64(c.sample as u64);
            h.write_u64(c.index as u64);
            h.write_u64(c.time.value().to_bits());
            h.write_u64(c.energy.value().to_bits());
            h.write_u64(c.inefficiency.value().to_bits());
        }
        for c in &o.clusters {
            h.write_u64(c.sample as u64);
            h.write_u64(c.optimal.index as u64);
            for &m in c.member_indices() {
                h.write_u64(m as u64);
            }
        }
        for r in &o.regions {
            h.write_u64(r.start as u64);
            h.write_u64(r.end as u64);
            h.write_u64(r.chosen_index as u64);
            for &a in r.available_indices() {
                h.write_u64(a as u64);
            }
        }
    }
}

fn digest_report(h: &mut Fnv1a64, r: &RunReport) {
    h.write(r.governor.as_bytes());
    for s in &r.sample_settings {
        h.write_u64(u64::from(s.cpu.mhz()));
        h.write_u64(u64::from(s.mem.mhz()));
    }
    for x in [
        r.work_time.value(),
        r.work_energy.value(),
        r.tuning_time.value(),
        r.tuning_energy.value(),
        r.transition_time.value(),
        r.transition_energy.value(),
        r.total_emin.value(),
    ] {
        h.write_u64(x.to_bits());
    }
    for n in [
        r.transitions,
        r.cpu_transitions,
        r.mem_transitions,
        r.searches,
    ] {
        h.write_u64(n);
    }
}

fn digest_scorecard(h: &mut Fnv1a64, c: &PolicyScorecard) {
    h.write(c.policy.as_bytes());
    h.write(c.scenario.as_bytes());
    for x in [
        c.energy_j,
        c.emin_j,
        c.energy_vs_emin,
        c.oracle_energy_j,
        c.energy_vs_oracle,
        c.time_s,
        c.oracle_time_s,
        c.time_vs_oracle,
        c.median_transition_gap.unwrap_or(f64::NAN),
        c.overhead_fraction,
    ] {
        h.write_u64(x.to_bits());
    }
    for n in [
        c.intervals,
        c.deadline_misses,
        c.transitions,
        c.cpu_transitions,
        c.mem_transitions,
        c.searches,
    ] {
        h.write_u64(n);
    }
    digest_report(h, &c.report);
}
