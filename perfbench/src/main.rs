//! The repository's benchmark: one command, four workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <analysis_batch|serve_hit|serve_miss|tenant_churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it carries run metadata. See
//! `perfbench/README.md` for what each workload and metric means.

mod analysis;
mod churn;
mod openloop;
mod report;
mod serve;
mod spans;
mod stats;

use mcdvfs_types::SplitMix64;
use report::Outcome;
use std::process::ExitCode;

/// Parsed command line.
#[derive(Debug, Clone)]
pub(crate) struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const WORKLOADS: [&str; 4] = ["analysis_batch", "serve_hit", "serve_miss", "tenant_churn"];

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(seconds.is_finite() && (0.5..=120.0).contains(&seconds)) {
        return Err(format!("--seconds must be in [0.5, 120], got {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Logical CPUs available to this process.
pub(crate) fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A permutation of `0..n` drawn from `seed` and `round`.
pub(crate) fn seeded_order(seed: u64, round: u64, n: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.range_usize(0, i + 1));
    }
    order
}

/// The commit the checkout was taken from, when it is a git checkout.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let resolved = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match resolved.trim() {
        "" => "unknown".to_string(),
        id => id.chars().take(12).collect(),
    }
}

fn main() -> ExitCode {
    if std::env::args().any(|a| a == "--print-digests") {
        analysis::print_digests();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = Outcome::default();
    let result = match args.workload.as_str() {
        "analysis_batch" => {
            analysis::run(&args, &mut outcome);
            Ok(())
        }
        "serve_hit" => serve::run(&args, serve::Mix::Hit, &mut outcome),
        "serve_miss" => serve::run(&args, serve::Mix::Miss, &mut outcome),
        "tenant_churn" => churn::run(&args, &mut outcome),
        _ => unreachable!("workload validated by parse_args"),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    let common = [
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc().to_string()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        ("commit", commit()),
        (
            "failed_ratio",
            (outcome.failed as f64 / outcome.attempted.max(1) as f64).to_string(),
        ),
    ];
    for (name, unit) in report::END_TO_END {
        if let Some(v) = outcome.end_to_end.get(name) {
            eprintln!(
                "{:<28} {v:>14.6} {unit}",
                format!("{}.{name}", args.workload)
            );
        }
    }
    println!("{}", report::meta_line(&outcome, &common));
    match report::result_line(&outcome, args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_order_is_a_permutation_that_depends_on_the_seed() {
        let a = seeded_order(1, 0, 21);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..21).collect::<Vec<_>>());
        assert_eq!(a, seeded_order(1, 0, 21));
        assert_ne!(a, seeded_order(2, 0, 21));
        assert_ne!(a, seeded_order(1, 1, 21));
    }
}
