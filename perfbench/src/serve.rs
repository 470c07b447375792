//! `serve_hit` and `serve_miss`: closed loops against `mcdvfs-serve`, and
//! the parts `tenant_churn` shares with them.
//!
//! Both workloads run `nproc` connections on `nproc` threads against four
//! resident fine-grid tenants with [`ServerConfig::default`]. `serve_hit`
//! draws from a small fixed set of cacheable queries, so after warm-up
//! nearly every reply is a cache hit answered on the reactor thread.
//! `serve_miss` gives every request a budget no other request uses, so
//! every reply is computed by a shard worker and inserted into the cache.
//!
//! Outputs are checked after the measured window: a seeded sample of raw
//! replies must match, byte for byte and `f64::to_bits` for
//! `f64::to_bits`, the reply a direct `SweepEngine` / `PolicyScorecard`
//! call produces. Server-side layer numbers come from the server's own
//! `stats` and `telemetry` replies, read before and after the window.

use crate::report::{peak_rss_mb, Outcome};
use crate::spans::Tracer;
use crate::stats::{median, quantile};
use crate::Args;
use mcdvfs_core::{GovernedRun, InefficiencyBudget, PolicyScorecard, RunReport, SweepEngine};
use mcdvfs_policy::{build_policy, PolicyGovernor, SHIPPED_POLICIES};
use mcdvfs_serve::{
    read_frame, write_frame, Request, Response, ServeState, Server, ServerConfig, ServerHandle,
    TenantSpec, WireChoice, WireCluster, WirePolicyReport, WireRegion, WireReport, WireStats,
    WireTelemetry,
};
use mcdvfs_sim::{CharacterizationGrid, System};
use mcdvfs_types::{FrequencyGrid, SplitMix64};
use mcdvfs_workloads::{Benchmark, SampleTrace, Scenario};
use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The resident tenants of the closed-loop workloads.
const TENANTS: [Benchmark; 4] = [
    Benchmark::Bzip2,
    Benchmark::Gcc,
    Benchmark::Perlbench,
    Benchmark::Mcf,
];
/// Budgets and thresholds of `serve_hit`'s fixed query set.
const HIT_BUDGETS: [f64; 3] = [1.1, 1.3, 1.6];
const HIT_THRESHOLDS: [f64; 2] = [0.03, 0.05];
/// Set-ups per run; `setup_s` is their median. Each set-up characterizes
/// four fine-grid tenants, so a few suffice.
const SETUP_REPEATS: usize = 3;
/// Replies per `batch_s` batch on the serve workloads.
pub(crate) const BATCH_REPLIES: usize = 200;
/// About one request in this many is kept for the output check.
const SAMPLE_EVERY: u64 = 32;
/// Most replies one run keeps for the output check.
const MAX_SAMPLES: usize = 256;

/// Which closed-loop mix to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Repeated cacheable queries.
    Hit,
    /// Compute-heavy queries with unique budgets.
    Miss,
}

/// One request addressed to a tenant.
#[derive(Debug, Clone)]
pub(crate) struct Addressed {
    pub tenant: &'static str,
    pub request: Request,
}

/// A raw reply kept for the output check.
#[derive(Debug, Clone)]
pub(crate) struct Sampled {
    pub call: Addressed,
    pub raw: String,
}

fn budget(b: f64) -> InefficiencyBudget {
    InefficiencyBudget::bounded(b).expect("valid budget")
}

/// Seeded request stream of one connection.
struct Generator {
    mix: Mix,
    rng: SplitMix64,
}

impl Generator {
    fn new(mix: Mix, seed: u64, conn: usize) -> Self {
        Self {
            mix,
            rng: SplitMix64::new(seed ^ (conn as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)),
        }
    }

    fn next(&mut self) -> Addressed {
        let tenant = TENANTS[self.rng.range_usize(0, TENANTS.len())].name();
        let request = match self.mix {
            Mix::Hit => {
                let b = budget(HIT_BUDGETS[self.rng.range_usize(0, HIT_BUDGETS.len())]);
                let threshold = HIT_THRESHOLDS[self.rng.range_usize(0, HIT_THRESHOLDS.len())];
                match self.rng.range_usize(0, 3) {
                    0 => Request::OptimalSetting { budget: b },
                    1 => Request::Cluster {
                        budget: b,
                        threshold,
                    },
                    _ => Request::StableRegions {
                        budget: b,
                        threshold,
                    },
                }
            }
            // Budgets drawn from a continuum in [1.1, 1.6): no two
            // requests of a run share a cache key.
            Mix::Miss => miss_request(&mut self.rng, 1.1),
        };
        Addressed { tenant, request }
    }
}

/// One compute-heavy request with a budget drawn from `[lo, lo + 0.5)`.
fn miss_request(rng: &mut SplitMix64, lo: f64) -> Request {
    let b = budget(rng.range_f64(lo, lo + 0.5));
    let threshold = HIT_THRESHOLDS[rng.range_usize(0, HIT_THRESHOLDS.len())];
    match rng.range_usize(0, 4) {
        0 => Request::Cluster {
            budget: b,
            threshold,
        },
        1 => Request::StableRegions {
            budget: b,
            threshold,
        },
        2 => Request::GovernedReplay {
            governor: if rng.chance(0.5) { "paper" } else { "ideal" }.to_string(),
            budget: b,
        },
        _ => Request::PolicyReplay {
            policy: SHIPPED_POLICIES[rng.range_usize(0, SHIPPED_POLICIES.len())].to_string(),
            budget: b,
            scenario: Scenario::NAMES[rng.range_usize(0, Scenario::NAMES.len())].to_string(),
        },
    }
}

/// Every query of `serve_hit`'s fixed set, for cache warm-up.
fn hit_keys() -> Vec<Addressed> {
    let mut keys = Vec::new();
    for t in TENANTS {
        for &b in &HIT_BUDGETS {
            keys.push(Addressed {
                tenant: t.name(),
                request: Request::OptimalSetting { budget: budget(b) },
            });
            for &threshold in &HIT_THRESHOLDS {
                for cluster in [true, false] {
                    let request = if cluster {
                        Request::Cluster {
                            budget: budget(b),
                            threshold,
                        }
                    } else {
                        Request::StableRegions {
                            budget: budget(b),
                            threshold,
                        }
                    };
                    keys.push(Addressed {
                        tenant: t.name(),
                        request,
                    });
                }
            }
        }
    }
    keys
}

/// The platform every tenant is characterized on.
pub(crate) fn platform() -> System {
    System::galaxy_nexus_class()
}

/// A server state with a small default engine (a coarse-grid `gobmk`
/// window, which no tenant list may name) and `tenants` registered as
/// lazily built fine-grid shards over their full traces.
pub(crate) fn tenant_state(tenants: &[Benchmark]) -> ServeState {
    let system = platform();
    let default_trace = Benchmark::Gobmk.trace().window(0, 8);
    let engine =
        SweepEngine::characterize_with_threads(&system, &default_trace, FrequencyGrid::coarse(), 1);
    tenants
        .iter()
        .fold(ServeState::new(engine, default_trace), |state, b| {
            state.with_tenant(
                b.name(),
                TenantSpec::new(system.clone(), b.trace(), FrequencyGrid::fine()),
            )
        })
}

/// A blocking client connection that exposes the raw reply.
pub(crate) struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub(crate) fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// One exchange, with spans around encode, the wire round trip and
    /// decode. Returns the raw reply and its decoding.
    pub(crate) fn call(
        &mut self,
        call: &Addressed,
        tracer: &mut Tracer,
    ) -> io::Result<(String, Result<Response, String>)> {
        let payload = tracer.span("protocol.client_encode", || {
            call.request.encode_for(Some(call.tenant))
        });
        let raw = tracer.span("wire.roundtrip", || {
            write_frame(&mut self.writer, &payload)?;
            read_frame(&mut self.reader)
        })?;
        let raw =
            raw.ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        let decoded = tracer.span("protocol.client_decode", || Response::decode(&raw));
        Ok((raw, decoded))
    }

    fn request(&mut self, request: &Request) -> io::Result<Response> {
        write_frame(&mut self.writer, &request.encode())?;
        let raw = read_frame(&mut self.reader)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
        Response::decode(&raw).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// Whether `reply` answers `request` (not an error, shed or other kind).
fn answers(request: &Request, reply: &Response) -> bool {
    reply.kind() == request.kind()
}

/// The server's `stats` and `telemetry` at one moment.
pub(crate) struct ServerView {
    pub stats: WireStats,
    pub telemetry: WireTelemetry,
}

impl ServerView {
    pub(crate) fn take(addr: SocketAddr) -> io::Result<Self> {
        let mut c = Conn::connect(addr)?;
        let bad = |r: Response| io::Error::new(io::ErrorKind::InvalidData, r.kind());
        let stats = match c.request(&Request::Stats)? {
            Response::Stats(s) => s,
            other => return Err(bad(other)),
        };
        let telemetry = match c.request(&Request::Telemetry)? {
            Response::Telemetry(t) => t,
            other => return Err(bad(other)),
        };
        Ok(Self { stats, telemetry })
    }

    /// `(count, sum_ns)` over histograms whose name matches `pred`.
    fn hist(&self, pred: impl Fn(&str) -> bool) -> (f64, f64) {
        self.telemetry
            .histograms
            .iter()
            .filter(|h| pred(&h.name))
            .fold((0.0, 0.0), |(c, s), h| {
                (c + h.count as f64, s + h.count as f64 * h.mean_ns)
            })
    }

    /// A counter from the rendered metric snapshot (0 when absent).
    fn counter(&self, name: &str) -> f64 {
        self.stats
            .rendered
            .lines()
            .find_map(|l| {
                let mut parts = l.split_whitespace();
                (parts.next() == Some("counter") && parts.next() == Some(name))
                    .then(|| parts.next().and_then(|v| v.parse().ok()))
                    .flatten()
            })
            .unwrap_or(0.0)
    }
}

/// Exact count-weighted mean, in microseconds, of histograms matching
/// `pred` over the interval between two views.
fn delta_mean_us(a: &ServerView, b: &ServerView, pred: impl Fn(&str) -> bool + Copy) -> f64 {
    let (c0, s0) = a.hist(pred);
    let (c1, s1) = b.hist(pred);
    let n = c1 - c0;
    if n > 0.0 {
        (s1 - s0) / n / 1e3
    } else {
        0.0
    }
}

fn stage(kind: &'static str) -> impl Fn(&str) -> bool + Copy {
    move |name: &str| name.starts_with("stage.") && name.ends_with(kind)
}

/// Per-layer numbers the server reports about the interval between two
/// views, plus the client's spans and round trips (write start to reply
/// read, in nanoseconds) over the same interval.
pub(crate) fn server_layers(
    out: &mut Outcome,
    a: &ServerView,
    b: &ServerView,
    tracer: &Tracer,
    roundtrips: &[f64],
) {
    let (sa, sb) = (&a.stats, &b.stats);
    let hits = (sb.cache_hits - sa.cache_hits) as f64;
    let misses = (sb.cache_misses - sa.cache_misses) as f64;
    let requests = (sb.requests - sa.requests) as f64;
    out.layer(
        "shard.compute_us",
        delta_mean_us(a, b, stage(".compute_ns")),
    );
    out.layer("shard.queue_us", delta_mean_us(a, b, stage(".queue_ns")));
    out.layer("shard.queue_depth_max", sb.queue_depth_max as f64);
    out.layer("shard.evictions", (sb.evictions - sa.evictions) as f64);
    out.layer(
        "policy.decisions",
        (sb.policy.decisions - sa.policy.decisions) as f64,
    );
    out.layer(
        "policy.transitions",
        (sb.policy.transitions - sa.policy.transitions) as f64,
    );
    out.layer(
        "cache.hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    out.layer(
        "reactor.decode_us",
        delta_mean_us(a, b, stage(".decode_ns")),
    );
    out.layer(
        "reactor.tick_us",
        delta_mean_us(a, b, |n| n == "reactor.tick_ns"),
    );
    let ticks = b.counter("reactor.ticks") - a.counter("reactor.ticks");
    let slots = b.counter("reactor.slots_scanned") - a.counter("reactor.slots_scanned");
    if requests > 0.0 {
        out.layer("reactor.ticks_per_request", ticks / requests);
    }
    if ticks > 0.0 {
        out.layer("reactor.slots_per_tick", slots / ticks);
    }
    out.layer(
        "protocol.server_encode_us",
        delta_mean_us(a, b, stage(".encode_ns")),
    );
    out.layer("store.hits", (sb.store.hits - sa.store.hits) as f64);
    out.layer("store.misses", (sb.store.misses - sa.store.misses) as f64);
    out.layer(
        "store.bytes_read",
        (sb.store.bytes_read - sa.store.bytes_read) as f64,
    );
    out.layer(
        "protocol.client_encode_us",
        tracer.mean_us("protocol.client_encode"),
    );
    out.layer(
        "protocol.client_decode_us",
        tracer.mean_us("protocol.client_decode"),
    );
    if let Some(p50) = quantile(roundtrips, 0.5) {
        out.layer("wire.roundtrip_p50_ms", p50.value / 1e6);
        // Mean server time per request across every stage the server
        // stamps, against the client's mean round trip.
        let stage_sum_ns: f64 = [".decode_ns", ".queue_ns", ".compute_ns", ".encode_ns"]
            .iter()
            .map(|&s| b.hist(stage(s)).1 - a.hist(stage(s)).1)
            .sum();
        let decoded = b.hist(stage(".decode_ns")).0 - a.hist(stage(".decode_ns")).0;
        let roundtrip_mean_ns = roundtrips.iter().sum::<f64>() / roundtrips.len() as f64;
        if decoded > 0.0 && roundtrip_mean_ns > 0.0 {
            out.layer(
                "wire.unattributed_ratio",
                1.0 - (stage_sum_ns / decoded) / roundtrip_mean_ns,
            );
        }
    }
}

/// Latency and batch numbers of one window: replies' completion times
/// and latencies.
pub(crate) fn end_to_end(
    out: &mut Outcome,
    latencies_ms: &[f64],
    mut completions_s: Vec<f64>,
    elapsed_s: f64,
) {
    completions_s.sort_by(f64::total_cmp);
    let batches: Vec<f64> = completions_s
        .chunks_exact(BATCH_REPLIES)
        .zip(completions_s.iter().step_by(BATCH_REPLIES).skip(1))
        .map(|(chunk, next_start)| next_start - chunk[0])
        .collect();
    let p50 = quantile(latencies_ms, 0.5).expect("replies recorded");
    let p99 = quantile(latencies_ms, 0.99).expect("replies recorded");
    out.e2e(
        "batch_s",
        median(&batches).unwrap_or(elapsed_s * BATCH_REPLIES as f64 / p50.n as f64),
    );
    out.e2e("throughput_rps", latencies_ms.len() as f64 / elapsed_s);
    out.e2e("latency_p50_ms", p50.value);
    out.e2e("latency_p99_ms", p99.value);
    out.note("latency_samples", p50.n);
    out.note("latency_p99_beyond", p99.beyond);
    out.note("batch_replies", BATCH_REPLIES);
    out.note("batches", batches.len());
}

/// What one closed-loop connection thread measured.
#[derive(Default)]
struct ConnResult {
    latencies_ms: Vec<f64>,
    completions_s: Vec<f64>,
    failed: u64,
    bytes: u64,
    samples: Vec<Sampled>,
    tracer: Option<Tracer>,
}

fn closed_loop(
    addr: SocketAddr,
    mix: Mix,
    seed: u64,
    conn_idx: usize,
    start: Instant,
    until: Instant,
    traced: bool,
) -> io::Result<ConnResult> {
    let mut conn = Conn::connect(addr)?;
    let mut gen = Generator::new(mix, seed, conn_idx);
    let mut pick = SplitMix64::new(seed ^ 0x5a5a ^ conn_idx as u64);
    let mut tracer = Tracer::new(traced);
    let mut r = ConnResult::default();
    let mut id = (conn_idx as u64) << 40;
    while Instant::now() < until {
        let call = gen.next();
        tracer.set_request(Some(id));
        id += 1;
        let t0 = Instant::now();
        let (raw, decoded) = conn.call(&call, &mut tracer)?;
        let done = Instant::now();
        r.latencies_ms.push((done - t0).as_secs_f64() * 1e3);
        r.completions_s.push((done - start).as_secs_f64());
        r.bytes += raw.len() as u64;
        if !decoded.is_ok_and(|reply| answers(&call.request, &reply)) {
            r.failed += 1;
        }
        if pick.range_usize(0, SAMPLE_EVERY as usize) == 0 && r.samples.len() < MAX_SAMPLES {
            r.samples.push(Sampled { call, raw });
        }
    }
    r.tracer = Some(tracer);
    Ok(r)
}

/// Starts a server over [`TENANTS`], makes every tenant resident and
/// warms it for `mix`.
fn set_up(mix: Mix, seed: u64) -> io::Result<ServerHandle> {
    let server = Server::start(
        "127.0.0.1:0",
        tenant_state(&TENANTS),
        ServerConfig::default(),
    )?;
    let mut c = Conn::connect(server.addr())?;
    let mut quiet = Tracer::new(false);
    let warm: Vec<Addressed> = match mix {
        Mix::Hit => hit_keys(),
        // Warm-up budgets come from [2.0, 2.5), disjoint from the
        // measured stream's, so the measured window stays all-miss.
        Mix::Miss => {
            let mut rng = SplitMix64::new(seed ^ 0xbeef);
            TENANTS
                .iter()
                .flat_map(|t| {
                    (0..4)
                        .map(|_| Addressed {
                            tenant: t.name(),
                            request: miss_request(&mut rng, 2.0),
                        })
                        .collect::<Vec<_>>()
                })
                .collect()
        }
    };
    for call in &warm {
        let (_, reply) = c.call(call, &mut quiet)?;
        if !reply.as_ref().is_ok_and(|r| answers(&call.request, r)) {
            return Err(io::Error::other(format!(
                "warm-up {} on {} failed: {reply:?}",
                call.request.kind(),
                call.tenant
            )));
        }
    }
    Ok(server)
}

/// Runs `serve_hit` or `serve_miss` into `out`.
///
/// # Errors
///
/// Propagates socket failures.
pub fn run(args: &Args, mix: Mix, out: &mut Outcome) -> io::Result<()> {
    let threads = crate::nproc();
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let fresh = set_up(mix, args.seed)?;
        setups.push(t0.elapsed().as_secs_f64());
        if let Some(old) = server.replace(fresh) {
            let _ = old.shutdown();
        }
    }
    let server = server.expect("at least one set-up");
    out.e2e("setup_s", median(&setups).expect("set-ups ran"));
    out.note("setup_repeats", setups.len());
    out.note("connections", threads);
    out.note("client_threads", threads);
    out.note("tenants", TENANTS.len());
    let addr = server.addr();

    let halves: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let mut p50_by_mode = Vec::new();
    let mut samples = Vec::new();
    for (half, &traced) in halves.iter().enumerate() {
        let share = Duration::from_secs_f64(args.seconds / halves.len() as f64);
        let before = ServerView::take(addr)?;
        let start = Instant::now();
        let until = start + share;
        let seed = args.seed.wrapping_add(half as u64 * 0x1000);
        let results: Vec<io::Result<ConnResult>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|i| s.spawn(move || closed_loop(addr, mix, seed, i, start, until, traced)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let elapsed = start.elapsed().as_secs_f64();
        let after = ServerView::take(addr)?;
        let mut latencies = Vec::new();
        let mut completions = Vec::new();
        let mut tracer = Tracer::new(traced);
        let mut bytes = 0u64;
        for r in results {
            let r = r?;
            out.attempted += r.latencies_ms.len() as u64;
            out.failed += r.failed;
            latencies.extend(r.latencies_ms);
            completions.extend(r.completions_s);
            bytes += r.bytes;
            samples.extend(r.samples);
            tracer.merge(r.tracer.expect("tracer returned"));
        }
        p50_by_mode.push(quantile(&latencies, 0.5).expect("replies recorded").value);
        if traced {
            server_layers(
                out,
                &before,
                &after,
                &tracer,
                &tracer.durations_ns("wire.roundtrip"),
            );
            out.layer(
                "protocol.reply_bytes",
                bytes as f64 / latencies.len() as f64,
            );
        } else {
            end_to_end(out, &latencies, completions, elapsed);
            out.note(
                "overloaded",
                after.stats.overloaded - before.stats.overloaded,
            );
            out.note(
                "cache_hit_ratio",
                (after.stats.cache_hits - before.stats.cache_hits) as f64
                    / ((after.stats.requests - before.stats.requests) as f64).max(1.0),
            );
        }
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
    let mismatches = reference.check(&samples);
    out.failed += mismatches;
    out.note("checked_replies", samples.len());
    out.note("mismatched_replies", mismatches);
    Ok(())
}

/// Direct engines for every tenant: what the server's replies must equal.
pub(crate) struct References {
    engines: HashMap<&'static str, (SweepEngine, SampleTrace)>,
    cells: u64,
}

impl References {
    /// Characterizes every tenant directly, in `sim.characterize` spans.
    pub(crate) fn build(tenants: &[Benchmark], tracer: &mut Tracer) -> Self {
        let system = platform();
        let threads = crate::nproc();
        let mut engines = HashMap::new();
        let mut cells = 0;
        for b in tenants {
            let trace = b.trace();
            let data = tracer.span("sim.characterize", || {
                CharacterizationGrid::characterize_parallel(
                    &system,
                    &trace,
                    FrequencyGrid::fine(),
                    threads,
                )
            });
            cells += (data.n_samples() * data.n_settings()) as u64;
            engines.insert(
                b.name(),
                (SweepEngine::with_threads(Arc::new(data), 1), trace),
            );
        }
        Self { engines, cells }
    }

    /// The direct engine and trace of `tenant`.
    pub(crate) fn engine(&self, tenant: &str) -> &(SweepEngine, SampleTrace) {
        &self.engines[tenant]
    }

    /// `sim.*` per-layer numbers from the reference characterizations.
    pub(crate) fn sim_layers(&self, out: &mut Outcome, tracer: &Tracer) {
        let total = tracer.total_s("sim.characterize");
        out.layer("sim.characterize_s", total);
        out.layer("sim.cells", self.cells as f64);
        out.layer("sim.ns_per_cell", total * 1e9 / self.cells as f64);
    }

    /// Counts sampled replies that differ from the direct call's reply.
    /// Identical queries are checked once.
    pub(crate) fn check(&self, samples: &[Sampled]) -> u64 {
        let mut expected_by_query: HashMap<String, String> = HashMap::new();
        let mut mismatches = 0;
        for s in samples {
            let query = s.call.request.encode_for(Some(s.call.tenant));
            let expected = expected_by_query.entry(query).or_insert_with(|| {
                let (engine, trace) = self.engine(s.call.tenant);
                expected_reply(engine, trace, &s.call.request).encode()
            });
            if !same_reply(expected, &s.raw) {
                eprintln!(
                    "reply mismatch: {} on {}",
                    s.call.request.kind(),
                    s.call.tenant
                );
                mismatches += 1;
            }
        }
        mismatches
    }
}

/// Byte-identical payloads whose every `f64` also agrees bit for bit.
fn same_reply(expected: &str, raw: &str) -> bool {
    let (Ok(e), Ok(r)) = (Response::decode(expected), Response::decode(raw)) else {
        return false;
    };
    expected == raw && float_bits(&e) == float_bits(&r)
}

/// Every `f64` of a compute reply, as bits, in order.
fn float_bits(r: &Response) -> Vec<u64> {
    let report = |w: &WireReport| {
        vec![
            w.work_time_s,
            w.work_energy_j,
            w.tuning_time_s,
            w.tuning_energy_j,
            w.transition_time_s,
            w.transition_energy_j,
            w.total_emin_j,
        ]
    };
    let floats: Vec<f64> = match r {
        Response::OptimalSetting(choices) => choices
            .iter()
            .flat_map(|c| [c.time_s, c.energy_j, c.inefficiency])
            .collect(),
        Response::GovernedReplay(w) => report(w),
        Response::PolicyReplay(p) => {
            let mut v = vec![p.energy_vs_emin, p.energy_vs_oracle, p.time_vs_oracle];
            v.extend(report(&p.report));
            v
        }
        _ => Vec::new(),
    };
    floats.into_iter().map(f64::to_bits).collect()
}

/// The reply a server computes for `request`, by direct engine calls.
pub(crate) fn expected_reply(
    engine: &SweepEngine,
    trace: &SampleTrace,
    request: &Request,
) -> Response {
    let data = engine.data();
    match request {
        Request::OptimalSetting { budget } => Response::OptimalSetting(
            engine
                .optimal_series(*budget)
                .iter()
                .map(|c| WireChoice {
                    sample: c.sample,
                    index: c.index,
                    cpu_mhz: c.setting.cpu.mhz(),
                    mem_mhz: c.setting.mem.mhz(),
                    time_s: c.time.value(),
                    energy_j: c.energy.value(),
                    inefficiency: c.inefficiency.value(),
                })
                .collect(),
        ),
        Request::Cluster { budget, threshold } => Response::Cluster(
            engine
                .cluster_detail(*budget, *threshold)
                .expect("valid threshold")
                .iter()
                .map(|c| WireCluster {
                    sample: c.sample,
                    optimal_index: c.optimal.index,
                    members: c.member_indices().to_vec(),
                    cpu_mhz: c.cpu_range_mhz(data),
                    mem_mhz: c.mem_range_mhz(data),
                })
                .collect(),
        ),
        Request::StableRegions { budget, threshold } => Response::StableRegions(
            engine
                .stable_detail(*budget, *threshold)
                .expect("valid threshold")
                .iter()
                .map(|r| {
                    let chosen = r.chosen_setting(data);
                    WireRegion {
                        start: r.start,
                        end: r.end,
                        chosen_index: r.chosen_index,
                        cpu_mhz: chosen.cpu.mhz(),
                        mem_mhz: chosen.mem.mhz(),
                        available: r.available_indices().to_vec(),
                    }
                })
                .collect(),
        ),
        Request::GovernedReplay { governor, budget } => {
            let runner = if governor == "paper" {
                GovernedRun::with_paper_overheads()
            } else {
                GovernedRun::without_overheads()
            };
            Response::GovernedReplay(wire_report(
                &engine
                    .governed_reports(&runner, trace, &[*budget])
                    .pop()
                    .expect("one budget yields one report"),
            ))
        }
        Request::PolicyReplay {
            policy,
            budget,
            scenario,
        } => {
            let scenario = Scenario::by_name(scenario).expect("shipped scenario");
            let reference = engine
                .governed_reports(&GovernedRun::without_overheads(), trace, &[*budget])
                .pop()
                .expect("one budget yields one report");
            let mut governor = PolicyGovernor::new(
                build_policy(policy).expect("shipped policy"),
                &scenario,
                data,
                *budget,
            );
            let deadlines = governor.deadlines();
            let card = PolicyScorecard::score(
                &GovernedRun::with_paper_overheads(),
                data,
                trace,
                &mut governor,
                &deadlines,
                scenario.name(),
                &reference,
            );
            let counters = governor.counters();
            Response::PolicyReplay(WirePolicyReport {
                policy: policy.clone(),
                scenario: card.scenario.clone(),
                decisions: counters.decisions,
                deadline_misses: card.deadline_misses,
                budget_exhaustions: counters.budget_exhaustions,
                energy_vs_emin: card.energy_vs_emin,
                energy_vs_oracle: card.energy_vs_oracle,
                time_vs_oracle: card.time_vs_oracle,
                report: wire_report(&card.report),
            })
        }
        other => Response::Error(format!("{} is not a compute query", other.kind())),
    }
}

fn wire_report(r: &RunReport) -> WireReport {
    WireReport {
        governor: r.governor.clone(),
        work_time_s: r.work_time.value(),
        work_energy_j: r.work_energy.value(),
        tuning_time_s: r.tuning_time.value(),
        tuning_energy_j: r.tuning_energy.value(),
        transition_time_s: r.transition_time.value(),
        transition_energy_j: r.transition_energy.value(),
        transitions: r.transitions,
        cpu_transitions: r.cpu_transitions,
        mem_transitions: r.mem_transitions,
        searches: r.searches,
        total_emin_j: r.total_emin.value(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_stream_never_repeats_a_query() {
        let mut seen = std::collections::HashSet::new();
        for conn in 0..2 {
            let mut g = Generator::new(Mix::Miss, 42, conn);
            for _ in 0..5000 {
                let c = g.next();
                assert!(seen.insert(c.request.encode_for(Some(c.tenant))));
            }
        }
    }

    #[test]
    fn hit_stream_stays_inside_the_warmed_key_set() {
        let keys: std::collections::HashSet<String> = hit_keys()
            .iter()
            .map(|c| c.request.encode_for(Some(c.tenant)))
            .collect();
        assert_eq!(keys.len(), TENANTS.len() * HIT_BUDGETS.len() * 5);
        let mut g = Generator::new(Mix::Hit, 7, 0);
        for _ in 0..1000 {
            let c = g.next();
            assert!(keys.contains(&c.request.encode_for(Some(c.tenant))));
        }
    }

    #[test]
    fn batches_are_spans_between_every_fixed_count_of_replies() {
        let mut out = Outcome::default();
        let completions: Vec<f64> = (0..1000).map(|i| f64::from(i) * 0.001).collect();
        let lat = vec![1.0; 1000];
        end_to_end(&mut out, &lat, completions, 1.0);
        let b = out.end_to_end["batch_s"];
        assert!((b - BATCH_REPLIES as f64 * 0.001).abs() < 1e-9, "{b}");
        assert_eq!(out.end_to_end["throughput_rps"], 1000.0);
    }
}
