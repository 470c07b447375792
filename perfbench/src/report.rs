//! Metric names, the result line, and run metadata.
//!
//! The names below are the benchmark's contract with `BENCHMARK.json`: an
//! untraced run prints every [`END_TO_END`] metric and a traced run every
//! [`PER_LAYER`] metric, on every workload.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("batch_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`. A layer a workload does not reach
/// reports 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("sim.characterize_s", "s"),
    ("sim.cells", "count"),
    ("sim.ns_per_cell", "ns"),
    ("core.sweep_s", "s"),
    ("core.sweep_points", "count"),
    ("core.governed_s", "s"),
    ("core.scorecard_s", "s"),
    ("shard.compute_us", "us"),
    ("shard.queue_us", "us"),
    ("shard.queue_depth_max", "count"),
    ("shard.evictions", "count"),
    ("policy.decisions", "count"),
    ("policy.transitions", "count"),
    ("cache.hit_ratio", "ratio"),
    ("reactor.decode_us", "us"),
    ("reactor.tick_us", "us"),
    ("reactor.ticks_per_request", "ratio"),
    ("reactor.slots_per_tick", "ratio"),
    ("protocol.server_encode_us", "us"),
    ("protocol.client_encode_us", "us"),
    ("protocol.client_decode_us", "us"),
    ("protocol.reply_bytes", "bytes"),
    ("wire.roundtrip_p50_ms", "ms"),
    ("wire.unattributed_ratio", "ratio"),
    ("store.hits", "count"),
    ("store.misses", "count"),
    ("store.bytes_read", "bytes"),
    ("store.persist_ms", "ms"),
    ("store.load_ms", "ms"),
    ("store.warm_start_ms", "ms"),
    ("loadgen.send_lag_p99_ms", "ms"),
    ("loadgen.backlog_end", "count"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Errors, sheds, timeouts, closes and output mismatches.
    pub failed: u64,
    /// End-to-end values by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (traced runs only).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Run metadata: connection counts, rates, sample counts.
    pub meta: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Records an end-to-end value.
    ///
    /// # Panics
    ///
    /// Panics on a name outside [`END_TO_END`].
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|(n, _)| *n == name),
            "undeclared end-to-end metric {name}"
        );
        self.end_to_end.insert(name, value);
    }

    /// Records a per-layer value.
    ///
    /// # Panics
    ///
    /// Panics on a name outside [`PER_LAYER`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared per-layer metric {name}"
        );
        self.per_layer.insert(name, value);
    }

    /// Adds a metadata entry (rendered as a JSON string unless it parses
    /// as a number).
    pub fn note(&mut self, key: &'static str, value: impl ToString) {
        self.meta.push((key, value.to_string()));
    }
}

/// Renders the result line: `correct`, `attempted`, `failed` and the
/// metrics of the run's mode, each with its unit.
///
/// # Errors
///
/// Names an end-to-end metric the workload did not record, or a value
/// that is not a finite number.
pub fn result_line(outcome: &Outcome, traced: bool) -> Result<String, String> {
    let mut metrics = String::new();
    let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = if traced {
            outcome.per_layer.get(name).copied().unwrap_or(0.0)
        } else {
            *outcome
                .end_to_end
                .get(name)
                .ok_or_else(|| format!("workload did not record {name}"))?
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite: {value}"));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(value)
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed
    ))
}

/// Renders the metadata line printed just before the result line.
#[must_use]
pub fn meta_line(outcome: &Outcome, common: &[(&'static str, String)]) -> String {
    let mut out = String::from("{\"meta\": {");
    for (i, (k, v)) in common.iter().chain(&outcome.meta).enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let rendered = match v.parse::<f64>() {
            Ok(x) if x.is_finite() && x.fract() == 0.0 && x.abs() < 1e15 => format!("{x:.0}"),
            Ok(x) if x.is_finite() => number(x),
            _ => format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")),
        };
        let _ = write!(out, "{sep}\"{k}\": {rendered}");
    }
    out.push_str("}}");
    out
}

/// A finite `f64` as a JSON number with every digit of its shortest
/// round-trip form (`Debug` writes `3.0` and `1e-7`, both valid JSON).
fn number(x: f64) -> String {
    format!("{x:?}")
}

/// The process's peak resident set (`VmHWM`) in MiB, 0 where `/proc` is
/// unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcdvfs_types::Json;

    /// `BENCHMARK.json` names exactly the metrics this program prints,
    /// with the same units.
    #[test]
    fn benchmark_json_names_match_the_printed_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        for (key, declared) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_string(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_string(),
                    )
                })
                .collect();
            let printed: Vec<(String, String)> = declared
                .iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect();
            assert_eq!(
                listed, printed,
                "{key} differs from what the command prints"
            );
        }
    }

    #[test]
    fn result_line_prints_every_metric_of_its_mode() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.e2e(name, 1.25);
        }
        o.layer("cache.hit_ratio", 0.5);
        for traced in [false, true] {
            let line = result_line(&o, traced).unwrap();
            let doc = Json::parse(&line).expect("result line is JSON");
            let metrics = doc.get("metrics").unwrap();
            let names: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
            for (name, unit) in names {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{name} missing"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
                assert!(m.get("value").and_then(Json::as_f64).is_some());
            }
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        }
    }

    #[test]
    fn missing_end_to_end_metric_is_an_error() {
        let o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        assert!(result_line(&o, false).is_err());
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        assert_eq!(number(1.203_456_789_012_3), "1.2034567890123");
        assert!(Json::parse(&number(1e-9)).is_ok());
        assert!(Json::parse(&number(3.0)).is_ok());
    }
}
