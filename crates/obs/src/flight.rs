//! Request-level flight recorder: per-request stage timestamps in a
//! bounded ring.
//!
//! A [`RequestTrace`] is one request's journey through the serving
//! pipeline — eight monotonic stage timestamps (accepted →
//! frame-complete → decoded → enqueued → dequeued → computed → encoded
//! → write-flushed), the tenant fingerprint, the request kind and its
//! [`Outcome`]. The trace is a plain owned value: the stage that holds
//! the request holds its trace, stamps the stages it witnesses, and
//! moves the trace along with the request — no shared state, no
//! atomics on the hot path. Only the final
//! [`commit`](FlightRecorder::commit) takes a lock, and it runs on the
//! single reactor thread.
//!
//! The [`FlightRecorder`] follows the same gating contract as
//! [`Recorder`](crate::Recorder) and [`Profiler`](crate::Profiler): a
//! [`disabled`](FlightRecorder::disabled) recorder reports
//! [`is_enabled`](FlightRecorder::is_enabled)` == false` so callers
//! skip trace construction entirely, and `commit` is a no-op — the
//! instrumented pipeline produces bit-identical replies with the
//! recorder on or off. An enabled recorder keeps the newest
//! `capacity` traces (dropping the oldest, counted), plus a separate
//! slow-request ring of traces whose end-to-end time exceeded a
//! configurable threshold.
//!
//! # Examples
//!
//! ```
//! use mcdvfs_obs::{FlightRecorder, Outcome, Stage};
//! use std::time::Duration;
//!
//! let rec = FlightRecorder::enabled(8, Duration::from_millis(250));
//! let mut t = rec.begin("optimal_setting");
//! t.stamp(Stage::Accepted, 100);
//! t.stamp(Stage::WriteFlushed, 900);
//! t.outcome = Outcome::Ok;
//! rec.commit(t);
//! assert_eq!(rec.counts().recorded, 1);
//! assert!(rec.recent(8, false)[0].is_monotone());
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The pipeline stages a request's flight record can stamp, in
/// pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// First byte of the frame arrived on the connection.
    Accepted,
    /// The length-prefixed frame was complete in the read buffer.
    FrameComplete,
    /// The payload parsed into a typed request (serve's `Request`).
    Decoded,
    /// The job entered a shard's bounded queue.
    Enqueued,
    /// A worker pulled the job off the queue.
    Dequeued,
    /// The engine finished computing the reply.
    Computed,
    /// The reply was rendered to its wire frame.
    Encoded,
    /// The reply's last byte left the server's write buffer.
    WriteFlushed,
}

impl Stage {
    /// Number of stages (the trace's timestamp-slot count).
    pub const COUNT: usize = 8;

    /// Every stage, in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Accepted,
        Stage::FrameComplete,
        Stage::Decoded,
        Stage::Enqueued,
        Stage::Dequeued,
        Stage::Computed,
        Stage::Encoded,
        Stage::WriteFlushed,
    ];

    /// Position of this stage in pipeline order.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Wire-stable snake_case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Accepted => "accepted",
            Stage::FrameComplete => "frame_complete",
            Stage::Decoded => "decoded",
            Stage::Enqueued => "enqueued",
            Stage::Dequeued => "dequeued",
            Stage::Computed => "computed",
            Stage::Encoded => "encoded",
            Stage::WriteFlushed => "write_flushed",
        }
    }
}

/// How a request's flight ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Served successfully through the compute path or inline.
    Ok,
    /// Served from the reply cache without touching a worker.
    CacheHit,
    /// Answered with a typed error reply.
    Error,
    /// Rejected by queue backpressure.
    Shed,
    /// The reply deadline expired before the worker finished; the late
    /// completion was discarded.
    TimedOut,
}

impl Outcome {
    /// Wire-stable snake_case name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Outcome::Ok => "ok",
            Outcome::CacheHit => "cache_hit",
            Outcome::Error => "error",
            Outcome::Shed => "shed",
            Outcome::TimedOut => "timed_out",
        }
    }
}

/// One request's flight record: identity plus per-stage timestamps in
/// nanoseconds since the recorder's epoch.
///
/// Stages a request never reaches stay unset — an inline `stats` reply
/// has no enqueued/dequeued/computed stamps, a shed request stops at
/// decoded, a timed-out one never stamps write-flushed.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    /// Recorder-unique id, allocated at [`FlightRecorder::begin`].
    pub id: u64,
    /// Request kind label (e.g. `"optimal_setting"`).
    pub kind: &'static str,
    /// Owning tenant's characterization-grid fingerprint (`0` for
    /// global requests that never resolve a shard).
    pub fingerprint: u64,
    /// How the flight ended.
    pub outcome: Outcome,
    stages: [Option<u64>; Stage::COUNT],
}

impl RequestTrace {
    /// Records the timestamp for `stage` (nanoseconds since the
    /// recorder's epoch). Last stamp wins if a stage is stamped twice.
    pub fn stamp(&mut self, stage: Stage, t_ns: u64) {
        self.stages[stage.index()] = Some(t_ns);
    }

    /// The timestamp for `stage`, if it was reached.
    #[must_use]
    pub fn stage_ns(&self, stage: Stage) -> Option<u64> {
        self.stages[stage.index()]
    }

    /// Stamped stages in pipeline order.
    pub fn stages(&self) -> impl Iterator<Item = (Stage, u64)> + '_ {
        Stage::ALL
            .iter()
            .filter_map(|&s| self.stages[s.index()].map(|t| (s, t)))
    }

    /// End-to-end time: last stamped stage minus first stamped stage
    /// (`0` with fewer than two stamps).
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        let mut it = self.stages().map(|(_, t)| t);
        let Some(first) = it.next() else { return 0 };
        it.last().map_or(0, |last| last.saturating_sub(first))
    }

    /// `true` when the stamped stages are non-decreasing in pipeline
    /// order — the invariant the e2e suite pins over a real socket.
    #[must_use]
    pub fn is_monotone(&self) -> bool {
        let mut prev = 0u64;
        for (_, t) in self.stages() {
            if t < prev {
                return false;
            }
            prev = t;
        }
        true
    }
}

/// Lifetime counters for a recorder, from [`FlightRecorder::counts`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlightCounts {
    /// Traces committed since the recorder was created.
    pub recorded: u64,
    /// Traces evicted from the recent ring to make room.
    pub dropped: u64,
    /// Traces whose [`RequestTrace::total_ns`] exceeded the slow
    /// threshold.
    pub slow: u64,
}

#[derive(Debug, Default)]
struct Rings {
    recent: VecDeque<RequestTrace>,
    slow: VecDeque<RequestTrace>,
    counts: FlightCounts,
}

/// Bounded ring of completed [`RequestTrace`]s plus a slow-request
/// log, gated like [`Recorder`](crate::Recorder): disabled costs
/// nothing and records nothing.
#[derive(Debug)]
pub struct FlightRecorder {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    slow_threshold_ns: u64,
    capacity: usize,
    rings: Mutex<Rings>,
}

impl FlightRecorder {
    /// An enabled recorder keeping the newest `capacity` traces, with
    /// flights slower than `slow_threshold` also logged to a slow ring
    /// of the same capacity.
    #[must_use]
    pub fn enabled(capacity: usize, slow_threshold: std::time::Duration) -> Self {
        Self {
            on: true,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            slow_threshold_ns: u64::try_from(slow_threshold.as_nanos()).unwrap_or(u64::MAX),
            capacity: capacity.max(1),
            rings: Mutex::new(Rings::default()),
        }
    }

    /// A recorder that reports itself disabled and ignores commits —
    /// install this to guarantee the pipeline's zero-overhead path.
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            on: false,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            slow_threshold_ns: u64::MAX,
            capacity: 1,
            rings: Mutex::new(Rings::default()),
        }
    }

    /// `true` when traces should be constructed and stamped at all.
    /// Instrumented code checks this once per request and skips every
    /// trace allocation when it is `false`.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.on
    }

    /// Nanoseconds elapsed since the recorder's epoch — the timestamp
    /// base every stamp shares.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Converts an [`Instant`] captured elsewhere (e.g. a connection's
    /// first-byte arrival) to the recorder's timestamp base.
    #[must_use]
    pub fn ns_of(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// The slow-log threshold in nanoseconds.
    #[must_use]
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns
    }

    /// Starts a trace for a request of `kind` with a fresh id. Callers
    /// should gate on [`is_enabled`](Self::is_enabled) first; `begin`
    /// on a disabled recorder still returns a trace, but committing it
    /// is a no-op.
    #[must_use]
    pub fn begin(&self, kind: &'static str) -> RequestTrace {
        RequestTrace {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            kind,
            fingerprint: 0,
            outcome: Outcome::Ok,
            stages: [None; Stage::COUNT],
        }
    }

    /// Commits a finished trace to the recent ring (and the slow ring
    /// when over threshold). No-op on a disabled recorder.
    pub fn commit(&self, trace: RequestTrace) {
        if !self.on {
            return;
        }
        let slow = trace.total_ns() > self.slow_threshold_ns;
        let mut rings = self.rings.lock().expect("flight ring lock");
        if slow {
            rings.counts.slow += 1;
            if rings.slow.len() == self.capacity {
                rings.slow.pop_front();
            }
            rings.slow.push_back(trace.clone());
        }
        rings.counts.recorded += 1;
        if rings.recent.len() == self.capacity {
            rings.recent.pop_front();
            rings.counts.dropped += 1;
        }
        rings.recent.push_back(trace);
    }

    /// The newest `limit` traces in commit order (oldest first), from
    /// the slow ring when `slow_only` is set.
    #[must_use]
    pub fn recent(&self, limit: usize, slow_only: bool) -> Vec<RequestTrace> {
        let rings = self.rings.lock().expect("flight ring lock");
        let ring = if slow_only {
            &rings.slow
        } else {
            &rings.recent
        };
        let skip = ring.len().saturating_sub(limit);
        ring.iter().skip(skip).cloned().collect()
    }

    /// Lifetime recorded/dropped/slow counters.
    #[must_use]
    pub fn counts(&self) -> FlightCounts {
        self.rings.lock().expect("flight ring lock").counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn committed(rec: &FlightRecorder, kind: &'static str, start: u64, end: u64) {
        let mut t = rec.begin(kind);
        t.stamp(Stage::Accepted, start);
        t.stamp(Stage::WriteFlushed, end);
        rec.commit(t);
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let rec = FlightRecorder::enabled(3, Duration::from_secs(1));
        for i in 0..5u64 {
            committed(&rec, "health", i * 10, i * 10 + 1);
        }
        let counts = rec.counts();
        assert_eq!(counts.recorded, 5);
        assert_eq!(counts.dropped, 2);
        let recent = rec.recent(10, false);
        assert_eq!(recent.len(), 3);
        // Oldest two evicted: the survivors started at 20, 30, 40.
        assert_eq!(
            recent
                .iter()
                .map(|t| t.stage_ns(Stage::Accepted).unwrap())
                .collect::<Vec<_>>(),
            vec![20, 30, 40]
        );
        assert_eq!(rec.recent(2, false).len(), 2);
    }

    #[test]
    fn slow_log_captures_only_over_threshold_flights() {
        let rec = FlightRecorder::enabled(8, Duration::from_micros(1));
        committed(&rec, "fast", 0, 500); // 500 ns: under threshold
        committed(&rec, "slow", 0, 5_000); // 5 µs: over
        assert_eq!(rec.counts().slow, 1);
        let slow = rec.recent(8, true);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].kind, "slow");
        assert_eq!(rec.recent(8, false).len(), 2);
    }

    #[test]
    fn trace_ids_are_unique_and_stages_iterate_in_order() {
        let rec = FlightRecorder::enabled(4, Duration::from_secs(1));
        let a = rec.begin("stats");
        let b = rec.begin("stats");
        assert_ne!(a.id, b.id);

        let mut t = rec.begin("optimal_setting");
        t.stamp(Stage::Decoded, 30);
        t.stamp(Stage::Accepted, 10);
        t.stamp(Stage::Encoded, 40);
        let seen: Vec<_> = t.stages().collect();
        assert_eq!(
            seen,
            vec![
                (Stage::Accepted, 10),
                (Stage::Decoded, 30),
                (Stage::Encoded, 40)
            ]
        );
        assert_eq!(t.total_ns(), 30);
        assert!(t.is_monotone());
        t.stamp(Stage::WriteFlushed, 5);
        assert!(!t.is_monotone());
    }

    #[test]
    fn disabled_recorder_commits_nothing() {
        let rec = FlightRecorder::disabled();
        assert!(!rec.is_enabled());
        committed(&rec, "health", 0, 10);
        assert_eq!(rec.counts(), FlightCounts::default());
        assert!(rec.recent(8, false).is_empty());
    }

    #[test]
    fn timestamp_base_is_shared_and_monotone() {
        let rec = FlightRecorder::enabled(1, Duration::from_secs(1));
        let a = rec.now_ns();
        let at = Instant::now();
        let b = rec.ns_of(at);
        assert!(b >= a);
        // An instant before the epoch saturates to zero instead of
        // wrapping.
        assert_eq!(rec.ns_of(rec.epoch), 0);
    }
}
