//! Open-loop load: requests leave on a fixed schedule, whatever the
//! server is doing, and each is timed from when it was **due**.
//!
//! A closed loop hides a server stall: its clients simply stop sending.
//! Here a stall delays every reply that came due during it, and the delay
//! lands in those requests' latencies. The generator's own lateness (how
//! long after its due time a request actually left) and the requests
//! still unanswered when the run ends are reported alongside, so a run
//! whose generator could not keep up is visible as such.
//!
//! The driver is generic over a [`Transport`] and a [`Clock`] so tests can
//! inject a stall deterministically.

use crate::stats::quantile;
use std::io;

/// Sends requests and collects replies without blocking.
pub trait Transport {
    /// Number of connections requests are spread over (at least 1).
    fn connections(&self) -> usize;
    /// Sends request `index` on connection `conn`.
    ///
    /// # Errors
    ///
    /// Propagates transport failures; the run stops.
    fn send(&mut self, conn: usize, index: usize) -> io::Result<()>;
    /// Appends to `done` the indices of requests on `conn` whose replies
    /// have fully arrived, in arrival order. Never blocks.
    ///
    /// # Errors
    ///
    /// Propagates transport failures; the run stops.
    fn poll(&mut self, conn: usize, done: &mut Vec<usize>) -> io::Result<()>;
}

/// Monotonic nanoseconds since the run started, and a way to wait.
pub trait Clock {
    /// Nanoseconds since the run started.
    fn now_ns(&self) -> u64;
    /// Waits until `deadline_ns` (or returns at once if it has passed).
    fn sleep_until(&self, deadline_ns: u64);
}

/// The schedule: `n` requests at a fixed rate.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// Requests per second.
    pub rate_rps: f64,
    /// Requests in the run.
    pub n: usize,
    /// How long after the last due time to keep collecting replies.
    pub grace_ns: u64,
    /// Longest the driver waits between reply polls.
    pub poll_ns: u64,
}

impl Schedule {
    /// When request `i` is due, in nanoseconds since the run started.
    #[must_use]
    pub fn due_ns(&self, i: usize) -> u64 {
        (i as f64 * 1e9 / self.rate_rps) as u64
    }
}

/// Per-request times of one open-loop run.
#[derive(Debug, Clone)]
pub struct Log {
    /// Due time of each request.
    pub due_ns: Vec<u64>,
    /// When each request was sent, if it was.
    pub sent_ns: Vec<Option<u64>>,
    /// When each reply arrived, if it did.
    pub replied_ns: Vec<Option<u64>>,
    /// When the driver stopped.
    pub end_ns: u64,
}

impl Log {
    /// Latency of every answered request, timed from its due time, in
    /// milliseconds, in request order.
    #[must_use]
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.due_ns
            .iter()
            .zip(&self.replied_ns)
            .filter_map(|(due, r)| r.map(|r| r.saturating_sub(*due) as f64 / 1e6))
            .collect()
    }

    /// 99th percentile of how late requests left, in milliseconds.
    #[must_use]
    pub fn send_lag_p99_ms(&self) -> f64 {
        let lags: Vec<f64> = self
            .due_ns
            .iter()
            .zip(&self.sent_ns)
            .filter_map(|(due, s)| s.map(|s| s.saturating_sub(*due) as f64 / 1e6))
            .collect();
        quantile(&lags, 0.99).map_or(0.0, |q| q.value)
    }

    /// Requests that came due before the driver stopped and were not
    /// answered.
    #[must_use]
    pub fn backlog_end(&self) -> usize {
        self.due_ns
            .iter()
            .zip(&self.replied_ns)
            .filter(|(due, r)| **due <= self.end_ns && r.is_none())
            .count()
    }
}

/// Runs the schedule: sends each request when it is due (round-robin
/// over the transport's connections) and stamps replies as they arrive,
/// until every request is answered or the grace period after the last
/// due time runs out.
///
/// # Errors
///
/// Propagates the first transport failure.
pub fn drive(
    schedule: &Schedule,
    transport: &mut impl Transport,
    clock: &impl Clock,
) -> io::Result<Log> {
    let n = schedule.n;
    let mut log = Log {
        due_ns: (0..n).map(|i| schedule.due_ns(i)).collect(),
        sent_ns: vec![None; n],
        replied_ns: vec![None; n],
        end_ns: 0,
    };
    let conns = transport.connections().max(1);
    let last_due = n.checked_sub(1).map_or(0, |i| schedule.due_ns(i));
    let mut next = 0;
    let mut answered = 0;
    let mut done = Vec::new();
    loop {
        while next < n && log.due_ns[next] <= clock.now_ns() {
            transport.send(next % conns, next)?;
            log.sent_ns[next] = Some(clock.now_ns());
            next += 1;
        }
        for conn in 0..conns {
            transport.poll(conn, &mut done)?;
            let now = clock.now_ns();
            for i in done.drain(..) {
                if log.replied_ns[i].is_none() {
                    log.replied_ns[i] = Some(now);
                    answered += 1;
                }
            }
        }
        let now = clock.now_ns();
        if answered == n || (next == n && now > last_due + schedule.grace_ns) {
            log.end_ns = now;
            return Ok(log);
        }
        let wake = if next < n { log.due_ns[next] } else { u64::MAX };
        clock.sleep_until(wake.min(now + schedule.poll_ns));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::collections::VecDeque;

    /// A clock that only moves when the driver sleeps or the transport
    /// says time passed.
    struct FakeClock(Cell<u64>);

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.0.get()
        }
        fn sleep_until(&self, deadline_ns: u64) {
            self.0.set(self.0.get().max(deadline_ns));
        }
    }

    /// A server that answers each request `service_ns` after it arrives,
    /// one at a time per connection, except that nothing is answered
    /// while the server is stalled.
    struct StallingServer<'a> {
        clock: &'a FakeClock,
        service_ns: u64,
        stall: (u64, u64),
        queues: Vec<VecDeque<(usize, u64)>>,
        /// Time the server becomes free, per connection.
        free_at: Vec<u64>,
    }

    impl StallingServer<'_> {
        fn finish_time(&mut self, conn: usize, arrived: u64) -> u64 {
            let mut start = arrived.max(self.free_at[conn]);
            if start >= self.stall.0 && start < self.stall.1 {
                start = self.stall.1;
            }
            self.free_at[conn] = start + self.service_ns;
            self.free_at[conn]
        }
    }

    impl Transport for StallingServer<'_> {
        fn connections(&self) -> usize {
            self.queues.len()
        }
        fn send(&mut self, conn: usize, index: usize) -> io::Result<()> {
            let at = self.finish_time(conn, self.clock.now_ns());
            self.queues[conn].push_back((index, at));
            Ok(())
        }
        fn poll(&mut self, conn: usize, done: &mut Vec<usize>) -> io::Result<()> {
            let now = self.clock.now_ns();
            while let Some(&(i, at)) = self.queues[conn].front() {
                if at > now {
                    break;
                }
                done.push(i);
                self.queues[conn].pop_front();
            }
            Ok(())
        }
    }

    fn run(stall: (u64, u64)) -> Log {
        let clock = FakeClock(Cell::new(0));
        let mut server = StallingServer {
            clock: &clock,
            service_ns: 100_000,
            stall,
            queues: vec![VecDeque::new(), VecDeque::new()],
            free_at: vec![0, 0],
        };
        let schedule = Schedule {
            rate_rps: 1000.0,
            n: 1000,
            grace_ns: 1_000_000_000,
            poll_ns: 10_000,
        };
        drive(&schedule, &mut server, &clock).unwrap()
    }

    #[test]
    fn without_a_stall_latency_is_the_service_time() {
        let log = run((0, 0));
        let lat = log.latencies_ms();
        assert_eq!(lat.len(), 1000);
        assert!(lat.iter().all(|&l| (0.1..=0.11).contains(&l)), "{lat:?}");
        assert_eq!(log.backlog_end(), 0);
        assert_eq!(log.send_lag_p99_ms(), 0.0);
    }

    #[test]
    fn a_stall_is_charged_to_every_request_due_during_it() {
        // The server answers nothing between 200 ms and 250 ms.
        let log = run((200_000_000, 250_000_000));
        let lat = log.latencies_ms();
        assert_eq!(lat.len(), 1000);
        // Request 200 was due at 200 ms and waits out the whole stall.
        assert!(lat[200] >= 50.0, "request 200 waited {} ms", lat[200]);
        // Requests due mid-stall wait until it ends, measured from their
        // due time: request 225 waits at least 25 ms.
        assert!(lat[225] >= 25.0, "request 225 waited {} ms", lat[225]);
        // About 50 requests came due during the stall, so at 1000
        // samples the p99 sits inside the stall's shadow.
        let p99 = quantile(&lat, 0.99).unwrap();
        assert!(p99.value >= 10.0, "p99 {} ms", p99.value);
        // The generator itself was never late: the stall was the server's.
        assert_eq!(log.send_lag_p99_ms(), 0.0);
        assert_eq!(log.backlog_end(), 0);
        // Timed from when each request was sent, request 225 would have
        // looked just as slow here, but a closed loop would never have
        // sent it during the stall at all.
        let sent_225 = log.sent_ns[225].unwrap();
        assert_eq!(sent_225, log.due_ns[225]);
    }

    #[test]
    fn a_stall_past_the_grace_period_leaves_a_backlog() {
        let clock = FakeClock(Cell::new(0));
        let mut server = StallingServer {
            clock: &clock,
            service_ns: 100_000,
            stall: (50_000_000, u64::MAX / 2),
            queues: vec![VecDeque::new()],
            free_at: vec![0],
        };
        let schedule = Schedule {
            rate_rps: 1000.0,
            n: 100,
            grace_ns: 10_000_000,
            poll_ns: 10_000,
        };
        let log = drive(&schedule, &mut server, &clock).unwrap();
        assert_eq!(log.latencies_ms().len(), 50);
        assert_eq!(log.backlog_end(), 50);
    }

    /// A generator that could not send on time shows up as send lag.
    #[test]
    fn a_late_generator_shows_as_send_lag() {
        struct SlowSender<'a> {
            inner: StallingServer<'a>,
        }
        impl Transport for SlowSender<'_> {
            fn connections(&self) -> usize {
                1
            }
            fn send(&mut self, conn: usize, index: usize) -> io::Result<()> {
                // Each send costs 2 ms of generator time: at 1000 rps the
                // generator falls behind by 1 ms per request.
                let c = self.inner.clock;
                c.0.set(c.0.get() + 2_000_000);
                self.inner.send(conn, index)
            }
            fn poll(&mut self, conn: usize, done: &mut Vec<usize>) -> io::Result<()> {
                self.inner.poll(conn, done)
            }
        }
        let clock = FakeClock(Cell::new(0));
        let mut t = SlowSender {
            inner: StallingServer {
                clock: &clock,
                service_ns: 100_000,
                stall: (0, 0),
                queues: vec![VecDeque::new()],
                free_at: vec![0],
            },
        };
        let schedule = Schedule {
            rate_rps: 1000.0,
            n: 100,
            grace_ns: 1_000_000_000,
            poll_ns: 10_000,
        };
        let log = drive(&schedule, &mut t, &clock).unwrap();
        assert!(log.send_lag_p99_ms() >= 90.0, "{}", log.send_lag_p99_ms());
        // Latency from the due time includes the generator's lateness.
        assert!(log.latencies_ms()[99] >= 99.0);
    }
}
