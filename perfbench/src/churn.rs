//! `tenant_churn`: an open loop over more tenants than the server keeps
//! resident, with a snapshot store.
//!
//! Three fine-grid tenants are registered against a `max_shards` of three
//! (the pinned default engine plus two tenants), with a fresh, empty
//! `snapshot_dir` per run. Requests leave at a fixed rate from one thread
//! over `nproc` connections, pipelined, and address the tenants in
//! phases of [`PHASE_REQUESTS`] that cycle through all of them, so every phase
//! switch evicts a shard and rebuilds another. A tenant's first build
//! characterizes it cold and persists a snapshot (store writes); every
//! later rebuild warm-starts from that snapshot (store reads). Both run
//! on the reactor thread, and the open loop charges each stall to every
//! request that came due during it.

use crate::openloop::{self, Clock, Schedule, Transport};
use crate::report::{peak_rss_mb, Outcome};
use crate::serve::{self, Addressed, References, Sampled, ServerView};
use crate::spans::Tracer;
use crate::stats::{median, quantile};
use crate::Args;
use mcdvfs_core::{InefficiencyBudget, SweepEngine};
use mcdvfs_serve::{
    read_frame, write_frame, Request, Response, Server, ServerConfig, ServerHandle,
};
use mcdvfs_store::SnapshotStore;
use mcdvfs_types::SplitMix64;
use mcdvfs_workloads::Benchmark;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The churning tenants, visited in this cyclic order. With two tenant
/// slots a cycle of three already evicts on every phase switch. Short
/// traces keep the three cold first touches a small share of the run, so
/// the p99 rests on the many warm rebuilds rather than on a few cold ones.
const TENANTS: [Benchmark; 3] = [Benchmark::Bzip2, Benchmark::Hmmer, Benchmark::Sjeng];
/// Resident shard ceiling: the default engine and two tenants.
const MAX_SHARDS: usize = 3;
/// Offered load, requests per second.
const RATE_RPS: f64 = 400.0;
/// Consecutive requests addressed to one tenant before the next.
const PHASE_REQUESTS: usize = 40;
/// Replies are collected for this long after the last request is due.
const GRACE: Duration = Duration::from_millis(500);
/// Longest the driver sleeps between reply polls.
const POLL: Duration = Duration::from_micros(100);
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;
/// About one reply in this many is kept for the output check.
const SAMPLE_EVERY: usize = 16;

/// Where this run's snapshot stores live (inside the working directory,
/// removed at the end of the run).
fn run_dir() -> PathBuf {
    PathBuf::from(".perfbench_run").join(format!("churn-{}", std::process::id()))
}

/// The seeded request list of one window.
fn requests(seed: u64, n: usize) -> Vec<Addressed> {
    let mut rng = SplitMix64::new(seed ^ 0xc4u64);
    let offset = rng.range_usize(0, TENANTS.len());
    (0..n)
        .map(|i| {
            let tenant = TENANTS[(offset + i / PHASE_REQUESTS) % TENANTS.len()].name();
            let b = |v: f64| InefficiencyBudget::bounded(v).expect("valid budget");
            let request = match rng.range_usize(0, 3) {
                0 => Request::OptimalSetting { budget: b(1.1) },
                1 => Request::OptimalSetting { budget: b(1.3) },
                _ => Request::Cluster {
                    budget: b(1.3),
                    threshold: 0.05,
                },
            };
            Addressed { tenant, request }
        })
        .collect()
}

/// Nonblocking connections carrying pipelined frames.
struct Pipelined<'a> {
    conns: Vec<TcpStream>,
    inbox: Vec<Vec<u8>>,
    pending: Vec<VecDeque<usize>>,
    calls: &'a [Addressed],
    pick: SplitMix64,
    samples: Vec<Sampled>,
    failed: u64,
    bytes: u64,
    tracer: Tracer,
}

impl<'a> Pipelined<'a> {
    fn connect(
        addr: SocketAddr,
        n: usize,
        calls: &'a [Addressed],
        seed: u64,
        traced: bool,
    ) -> io::Result<Self> {
        let conns = (0..n)
            .map(|_| {
                let s = TcpStream::connect(addr)?;
                s.set_nodelay(true)?;
                s.set_nonblocking(true)?;
                Ok(s)
            })
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Self {
            inbox: vec![Vec::new(); n],
            pending: vec![VecDeque::new(); n],
            conns,
            calls,
            pick: SplitMix64::new(seed ^ 0x9a),
            samples: Vec::new(),
            failed: 0,
            bytes: 0,
            tracer: Tracer::new(traced),
        })
    }

    /// Splits one complete frame off the front of `buf`, if there is one.
    fn take_frame(buf: &mut Vec<u8>) -> io::Result<Option<String>> {
        let Some(nl) = buf.iter().position(|&b| b == b'\n') else {
            return Ok(None);
        };
        let len: usize = std::str::from_utf8(&buf[..nl])
            .ok()
            .and_then(|h| h.trim().parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad frame header"))?;
        let total = nl + 1 + len + 1;
        if buf.len() < total {
            return Ok(None);
        }
        let frame = read_frame(&mut &buf[..total])?;
        buf.drain(..total);
        Ok(frame)
    }
}

impl Transport for Pipelined<'_> {
    fn connections(&self) -> usize {
        self.conns.len()
    }

    fn send(&mut self, conn: usize, index: usize) -> io::Result<()> {
        let call = &self.calls[index];
        let tracer = &mut self.tracer;
        tracer.set_request(Some(index as u64));
        let payload = tracer.span("protocol.client_encode", || {
            call.request.encode_for(Some(call.tenant))
        });
        let mut frame = Vec::with_capacity(payload.len() + 16);
        write_frame(&mut frame, &payload)?;
        let mut rest = &frame[..];
        while !rest.is_empty() {
            match self.conns[conn].write(rest) {
                Ok(n) => rest = &rest[n..],
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::yield_now(),
                Err(e) => return Err(e),
            }
        }
        self.pending[conn].push_back(index);
        Ok(())
    }

    fn poll(&mut self, conn: usize, done: &mut Vec<usize>) -> io::Result<()> {
        let mut chunk = [0u8; 64 * 1024];
        loop {
            match self.conns[conn].read(&mut chunk) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed",
                    ))
                }
                Ok(n) => self.inbox[conn].extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        while let Some(raw) = Self::take_frame(&mut self.inbox[conn])? {
            let index = self.pending[conn]
                .pop_front()
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unsolicited reply"))?;
            let call = &self.calls[index];
            // Full decoding of a large reply would make the generator
            // late; the reply tag is classified here and the sampled
            // replies are decoded and compared after the window.
            if !raw.starts_with(&format!("{{\"reply\":\"{}\"", call.request.kind())) {
                self.failed += 1;
            }
            self.bytes += raw.len() as u64;
            if self.pick.range_usize(0, SAMPLE_EVERY) == 0 {
                self.samples.push(Sampled {
                    call: call.clone(),
                    raw,
                });
            }
            done.push(index);
        }
        Ok(())
    }
}

/// Wall-clock time since the window started.
struct Wall(Instant);

impl Clock for Wall {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
    fn sleep_until(&self, deadline_ns: u64) {
        let now = self.now_ns();
        if deadline_ns > now {
            std::thread::sleep(Duration::from_nanos(deadline_ns - now));
        }
    }
}

fn set_up(store_dir: &Path) -> io::Result<ServerHandle> {
    // A fresh, empty store: every tenant's first touch is a cold build.
    let _ = std::fs::remove_dir_all(store_dir);
    std::fs::create_dir_all(store_dir)?;
    let config = ServerConfig {
        max_shards: MAX_SHARDS,
        snapshot_dir: Some(store_dir.to_path_buf()),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", serve::tenant_state(&TENANTS), config)?;
    // Liveness only: no tenant is touched before the window.
    ServerView::take(server.addr())?;
    Ok(server)
}

/// Runs `tenant_churn` into `out`.
///
/// # Errors
///
/// Propagates socket and store-directory failures.
pub fn run(args: &Args, out: &mut Outcome) -> io::Result<()> {
    let dir = run_dir();
    let result = run_in(args, out, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    if std::fs::read_dir(".perfbench_run").is_ok_and(|mut d| d.next().is_none()) {
        let _ = std::fs::remove_dir(".perfbench_run");
    }
    result
}

fn run_in(args: &Args, out: &mut Outcome, dir: &Path) -> io::Result<()> {
    let connections = crate::nproc();
    let mut setups = Vec::new();
    let mut server = None;
    for k in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let fresh = set_up(&dir.join(format!("store-{k}")))?;
        setups.push(t0.elapsed().as_secs_f64());
        if let Some(old) = server.replace(fresh) {
            let _ = old.shutdown();
        }
    }
    let server = server.expect("at least one set-up");
    out.e2e("setup_s", median(&setups).expect("set-ups ran"));
    out.note("setup_repeats", setups.len());
    out.note("connections", connections);
    out.note("client_threads", 1);
    out.note("rate_rps", RATE_RPS);
    out.note("tenants", TENANTS.len());
    out.note("max_shards", MAX_SHARDS);
    out.note("phase_requests", PHASE_REQUESTS);
    let addr = server.addr();

    let halves: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let mut p50_by_mode = Vec::new();
    let mut samples = Vec::new();
    for (half, &traced) in halves.iter().enumerate() {
        let share = args.seconds / halves.len() as f64;
        let n = ((share - GRACE.as_secs_f64()).max(0.5) * RATE_RPS) as usize;
        let calls = requests(args.seed.wrapping_add(half as u64), n);
        let schedule = Schedule {
            rate_rps: RATE_RPS,
            n,
            grace_ns: GRACE.as_nanos() as u64,
            poll_ns: POLL.as_nanos() as u64,
        };
        let before = ServerView::take(addr)?;
        let mut transport = Pipelined::connect(addr, connections, &calls, args.seed, traced)?;
        let log = openloop::drive(&schedule, &mut transport, &Wall(Instant::now()))?;
        let after = ServerView::take(addr)?;
        let latencies = log.latencies_ms();
        out.attempted += n as u64;
        out.failed += transport.failed + (n - latencies.len()) as u64;
        p50_by_mode.push(quantile(&latencies, 0.5).map_or(0.0, |q| q.value));
        if traced {
            let roundtrips: Vec<f64> = log
                .sent_ns
                .iter()
                .zip(&log.replied_ns)
                .filter_map(|(s, r)| Some(r.as_ref()?.saturating_sub(*s.as_ref()?) as f64))
                .collect();
            for s in &transport.samples {
                let _ = transport
                    .tracer
                    .span("protocol.client_decode", || Response::decode(&s.raw));
            }
            serve::server_layers(out, &before, &after, &transport.tracer, &roundtrips);
            out.layer(
                "protocol.reply_bytes",
                transport.bytes as f64 / latencies.len().max(1) as f64,
            );
            out.layer("loadgen.send_lag_p99_ms", log.send_lag_p99_ms());
            out.layer("loadgen.backlog_end", log.backlog_end() as f64);
        } else {
            let completions: Vec<f64> = log
                .replied_ns
                .iter()
                .flatten()
                .map(|&t| t as f64 / 1e9)
                .collect();
            let elapsed = log.end_ns as f64 / 1e9;
            serve::end_to_end(out, &latencies, completions, elapsed);
            out.note("send_lag_p99_ms", log.send_lag_p99_ms());
            out.note("backlog_end", log.backlog_end());
            out.note("evictions", after.stats.evictions - before.stats.evictions);
            out.note(
                "store_hits",
                after.stats.store.hits - before.stats.store.hits,
            );
        }
        samples.append(&mut transport.samples);
    }
    if let [untraced, traced] = p50_by_mode[..] {
        out.layer("bench.trace_overhead_ratio", traced / untraced);
    }
    // Before the output check, whose reference builds are not the
    // workload's.
    out.e2e("peak_rss_mb", peak_rss_mb());
    let _ = server.shutdown();

    let mut tracer = Tracer::new(args.trace);
    let reference = References::build(&TENANTS, &mut tracer);
    reference.sim_layers(out, &tracer);
    if args.trace {
        store_layers(out, &reference, &dir.join("bench-store"), &mut tracer)?;
    }
    let mismatches = reference.check(&samples);
    out.failed += mismatches;
    out.note("checked_replies", samples.len());
    out.note("mismatched_replies", mismatches);
    Ok(())
}

/// Times the store directly: persist, load and warm-start per tenant.
fn store_layers(
    out: &mut Outcome,
    reference: &References,
    dir: &Path,
    tracer: &mut Tracer,
) -> io::Result<()> {
    let store = SnapshotStore::open(dir)?;
    for b in TENANTS {
        let (engine, _) = reference.engine(b.name());
        let snapshot = engine.data().to_snapshot();
        let fp = snapshot.fingerprint;
        tracer
            .span("store.persist", || store.persist(&snapshot))
            .map_err(io::Error::other)?;
        tracer
            .span("store.load", || store.load(fp))
            .map_err(io::Error::other)?
            .ok_or_else(|| io::Error::other("persisted snapshot is missing"))?;
        let warm = tracer
            .span("store.warm_start", || {
                SweepEngine::warm_start(&store, fp, 1)
            })
            .map_err(io::Error::other)?
            .ok_or_else(|| io::Error::other("persisted snapshot is missing"))?;
        if warm.0.data().fingerprint() != fp {
            out.failed += 1;
        }
    }
    out.layer("store.persist_ms", tracer.mean_us("store.persist") / 1e3);
    out.layer("store.load_ms", tracer.mean_us("store.load") / 1e3);
    out.layer(
        "store.warm_start_ms",
        tracer.mean_us("store.warm_start") / 1e3,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_cycle_through_every_tenant() {
        let calls = requests(3, PHASE_REQUESTS * TENANTS.len() * 2);
        let phase_tenants: Vec<&str> = calls
            .chunks(PHASE_REQUESTS)
            .map(|c| {
                assert!(c.iter().all(|a| a.tenant == c[0].tenant));
                c[0].tenant
            })
            .collect();
        // Consecutive phases never share a tenant, and a tenant comes back
        // only after all the others: with two tenant slots, every phase
        // switch is an eviction and a rebuild.
        for w in phase_tenants.windows(TENANTS.len()) {
            let distinct: std::collections::HashSet<_> = w.iter().collect();
            assert_eq!(distinct.len(), TENANTS.len());
        }
    }

    #[test]
    fn take_frame_waits_for_a_whole_frame() {
        let mut frame = Vec::new();
        write_frame(&mut frame, "{\"a\":1}").unwrap();
        write_frame(&mut frame, "{}").unwrap();
        let mut buf = frame[..5].to_vec();
        assert_eq!(Pipelined::take_frame(&mut buf).unwrap(), None);
        buf.extend_from_slice(&frame[5..]);
        assert_eq!(
            Pipelined::take_frame(&mut buf).unwrap().as_deref(),
            Some("{\"a\":1}")
        );
        assert_eq!(
            Pipelined::take_frame(&mut buf).unwrap().as_deref(),
            Some("{}")
        );
        assert!(buf.is_empty());
    }
}
