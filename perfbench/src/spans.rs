//! In-memory spans the benchmark records around its calls into each
//! layer's public functions.
//!
//! A [`Tracer`] belongs to one thread. Each span keeps its name, start,
//! duration, the span open around it (its cause) and the request it
//! served.
//! Tracers of several threads [`merge`](Tracer::merge) at the end of a
//! run. A disabled tracer records nothing and costs one branch per call,
//! which is how end-to-end runs use it.

use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `sim.characterize`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Request this span served, when it served one.
    pub request: Option<u64>,
}

/// Span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: Option<u64>,
}

impl Tracer {
    /// A tracer that records when `enabled`, and is a no-op otherwise.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: None,
        }
    }

    /// Tags the spans that follow with a request id (`None` clears it).
    pub fn set_request(&mut self, request: Option<u64>) {
        self.request = request;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    /// Opens a span named `name`; spans opened before the matching
    /// [`exit`](Self::exit) become its children.
    pub fn enter(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            dur_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes a span [`enter`](Self::enter) opened.
    pub fn exit(&mut self, open: Option<usize>) {
        if let Some(idx) = open {
            let end = self.epoch.elapsed().as_nanos() as u64;
            self.spans[idx].dur_ns = end - self.spans[idx].start_ns;
            self.open.pop();
        }
    }

    /// Appends `other`'s spans, re-basing their parent links.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span, in start order per thread.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span named `name`.
    #[must_use]
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64)
            .collect()
    }

    /// Summed duration of every span named `name`, in seconds.
    #[must_use]
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum::<f64>() / 1e9
    }

    /// Mean duration of spans named `name` in microseconds (0 with none).
    #[must_use]
    pub fn mean_us(&self, name: &str) -> f64 {
        let d = self.durations_ns(name);
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<f64>() / d.len() as f64 / 1e3
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("a", || 3), 3);
        assert!(t.spans().is_empty());
        assert_eq!(t.mean_us("a"), 0.0);
    }

    #[test]
    fn nested_spans_link_parents_and_requests() {
        let mut t = Tracer::new(true);
        t.set_request(Some(7));
        let outer = t.enter("outer");
        t.span("inner", t_sleep);
        t.exit(outer);
        let mut inner = Tracer::new(true);
        inner.span("outer", || ());
        t.merge(inner);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].request, Some(7));
        assert_eq!(t.spans()[2].parent, None);
        assert_eq!(t.spans()[2].request, None);
        assert_eq!(t.durations_ns("outer").len(), 2);
    }

    fn t_sleep() {
        std::thread::sleep(std::time::Duration::from_micros(10));
    }
}
