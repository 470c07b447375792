//! End-to-end pinning of the serving layer against direct engine calls.
//!
//! The serving contract is that a reply read off the socket is
//! bit-identical to what the same `SweepEngine` query returns in-process
//! — regardless of worker count and regardless of whether the reply came
//! from a compute worker or the response cache. These tests hold that
//! contract at 1 and 4 workers, exercise the cached second hit of every
//! query, and check the overload path sheds instead of stalling.

use mcdvfs_core::{GovernedRun, InefficiencyBudget, PolicyScorecard, SweepEngine};
use mcdvfs_obs::{duration_edges_ns, Histogram};
use mcdvfs_policy::{build_policy, PolicyGovernor};
use mcdvfs_serve::{
    cross_check, Client, ClientPool, Request, Response, ServeState, Server, ServerConfig,
    TenantSpec,
};
use mcdvfs_sim::System;
use mcdvfs_types::FrequencyGrid;
use mcdvfs_workloads::{Benchmark, SampleTrace, Scenario};

const BUDGET: f64 = 1.3;
const THRESHOLD: f64 = 0.05;

fn trace() -> SampleTrace {
    Benchmark::Gobmk.trace().window(0, 10)
}

fn engine() -> SweepEngine {
    SweepEngine::characterize(
        &System::galaxy_nexus_class(),
        &trace(),
        FrequencyGrid::coarse(),
    )
}

fn config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        ..ServerConfig::default()
    }
}

/// Sends `request` twice and asserts both replies decode equal — the
/// first answer comes from a compute worker, the second from the cache.
fn ask_twice(client: &mut Client, request: &Request) -> Response {
    let first = client.request(request).expect("first reply");
    let second = client.request(request).expect("cached reply");
    assert_eq!(first, second, "cached reply diverged for {request:?}");
    first
}

#[test]
fn socket_replies_are_bit_identical_to_direct_engine_calls() {
    let budget = InefficiencyBudget::bounded(BUDGET).unwrap();
    let reference = engine();
    let expect_choices = reference.optimal_series(budget);
    let expect_clusters = reference.cluster_detail(budget, THRESHOLD).unwrap();
    let expect_regions = reference.stable_detail(budget, THRESHOLD).unwrap();
    let expect_report = reference
        .governed_reports(&GovernedRun::with_paper_overheads(), &trace(), &[budget])
        .pop()
        .unwrap();
    let data = reference.data();
    // Direct-engine-path policy replay, mirroring the shard's compute arm.
    let expect_policy = {
        let ideal = reference
            .governed_reports(&GovernedRun::without_overheads(), &trace(), &[budget])
            .pop()
            .unwrap();
        let scenario = Scenario::by_name("load_burst").unwrap();
        let mut governor =
            PolicyGovernor::new(build_policy("reactive").unwrap(), &scenario, data, budget);
        let deadlines = governor.deadlines();
        PolicyScorecard::score(
            &GovernedRun::with_paper_overheads(),
            data,
            &trace(),
            &mut governor,
            &deadlines,
            scenario.name(),
            &ideal,
        )
    };

    for workers in [1usize, 4] {
        let server = Server::start(
            "127.0.0.1:0",
            ServeState::new(engine(), trace()),
            config(workers),
        )
        .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();

        let reply = ask_twice(&mut client, &Request::OptimalSetting { budget });
        let Response::OptimalSetting(choices) = reply else {
            panic!("wrong reply kind at {workers} workers");
        };
        assert_eq!(choices.len(), expect_choices.len());
        for (wire, direct) in choices.iter().zip(&expect_choices) {
            assert_eq!(wire.sample, direct.sample);
            assert_eq!(wire.index, direct.index);
            assert_eq!(wire.cpu_mhz, direct.setting.cpu.mhz());
            assert_eq!(wire.mem_mhz, direct.setting.mem.mhz());
            assert_eq!(wire.time_s.to_bits(), direct.time.value().to_bits());
            assert_eq!(wire.energy_j.to_bits(), direct.energy.value().to_bits());
            assert_eq!(
                wire.inefficiency.to_bits(),
                direct.inefficiency.value().to_bits()
            );
        }

        let reply = ask_twice(
            &mut client,
            &Request::Cluster {
                budget,
                threshold: THRESHOLD,
            },
        );
        let Response::Cluster(clusters) = reply else {
            panic!("wrong reply kind at {workers} workers");
        };
        assert_eq!(clusters.len(), expect_clusters.len());
        for (wire, direct) in clusters.iter().zip(&expect_clusters) {
            assert_eq!(wire.sample, direct.sample);
            assert_eq!(wire.optimal_index, direct.optimal.index);
            assert_eq!(wire.members, direct.member_indices().to_vec());
            assert_eq!(wire.cpu_mhz, direct.cpu_range_mhz(data));
            assert_eq!(wire.mem_mhz, direct.mem_range_mhz(data));
        }

        let reply = ask_twice(
            &mut client,
            &Request::StableRegions {
                budget,
                threshold: THRESHOLD,
            },
        );
        let Response::StableRegions(regions) = reply else {
            panic!("wrong reply kind at {workers} workers");
        };
        assert_eq!(regions.len(), expect_regions.len());
        for (wire, direct) in regions.iter().zip(&expect_regions) {
            assert_eq!(wire.start, direct.start);
            assert_eq!(wire.end, direct.end);
            assert_eq!(wire.chosen_index, direct.chosen_index);
            assert_eq!(wire.available, direct.available_indices().to_vec());
            let chosen = direct.chosen_setting(data);
            assert_eq!(wire.cpu_mhz, chosen.cpu.mhz());
            assert_eq!(wire.mem_mhz, chosen.mem.mhz());
        }

        let reply = ask_twice(
            &mut client,
            &Request::GovernedReplay {
                governor: "paper".to_string(),
                budget,
            },
        );
        let Response::GovernedReplay(report) = reply else {
            panic!("wrong reply kind at {workers} workers");
        };
        assert_eq!(report.governor, expect_report.governor);
        assert_eq!(
            report.work_time_s.to_bits(),
            expect_report.work_time.value().to_bits()
        );
        assert_eq!(
            report.work_energy_j.to_bits(),
            expect_report.work_energy.value().to_bits()
        );
        assert_eq!(
            report.tuning_energy_j.to_bits(),
            expect_report.tuning_energy.value().to_bits()
        );
        assert_eq!(
            report.transition_energy_j.to_bits(),
            expect_report.transition_energy.value().to_bits()
        );
        assert_eq!(report.transitions, expect_report.transitions);
        assert_eq!(report.searches, expect_report.searches);
        assert_eq!(
            report.total_emin_j.to_bits(),
            expect_report.total_emin.value().to_bits()
        );

        let reply = ask_twice(
            &mut client,
            &Request::PolicyReplay {
                policy: "reactive".to_string(),
                budget,
                scenario: "load_burst".to_string(),
            },
        );
        let Response::PolicyReplay(p) = reply else {
            panic!("wrong reply kind at {workers} workers");
        };
        assert_eq!(p.policy, "reactive");
        assert_eq!(p.scenario, "load_burst");
        assert_eq!(p.decisions, trace().len() as u64);
        assert_eq!(p.deadline_misses, expect_policy.deadline_misses);
        assert_eq!(p.budget_exhaustions, 0);
        assert_eq!(
            p.energy_vs_emin.to_bits(),
            expect_policy.energy_vs_emin.to_bits()
        );
        assert_eq!(
            p.energy_vs_oracle.to_bits(),
            expect_policy.energy_vs_oracle.to_bits()
        );
        assert_eq!(
            p.time_vs_oracle.to_bits(),
            expect_policy.time_vs_oracle.to_bits()
        );
        assert_eq!(p.report.governor, expect_policy.report.governor);
        assert_eq!(
            p.report.work_energy_j.to_bits(),
            expect_policy.report.work_energy.value().to_bits()
        );
        assert_eq!(p.report.transitions, expect_policy.transitions);
        assert_eq!(p.report.searches, expect_policy.searches);

        let metrics = server.shutdown();
        // 10 compute requests: 5 distinct queries, each answered once by
        // a worker and once from the cache.
        assert_eq!(metrics.counter("requests.total"), 10);
        assert_eq!(metrics.counter("cache.miss"), 5);
        assert_eq!(metrics.counter("cache.hit"), 5);
        assert_eq!(metrics.counter("overloaded"), 0);
        assert_eq!(metrics.counter("protocol.errors"), 0);
    }
}

#[test]
fn policy_counters_surface_in_stats_and_telemetry() {
    let budget = InefficiencyBudget::bounded(BUDGET).unwrap();
    let server =
        Server::start("127.0.0.1:0", ServeState::new(engine(), trace()), config(2)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let request = Request::PolicyReplay {
        policy: "reactive".to_string(),
        budget,
        scenario: "load_burst".to_string(),
    };
    // Second (cached) hit replays nothing, so counters reflect exactly
    // one compute.
    let Response::PolicyReplay(p) = ask_twice(&mut client, &request) else {
        panic!("wrong reply kind");
    };
    let Response::Stats(stats) = client.request(&Request::Stats).unwrap() else {
        panic!("wrong reply kind");
    };
    assert_eq!(stats.policy.decisions, p.decisions);
    assert_eq!(stats.policy.transitions, p.report.transitions);
    assert_eq!(stats.policy.deadline_misses, p.deadline_misses);
    assert_eq!(stats.policy.budget_exhaustions, p.budget_exhaustions);
    assert!(stats.policy.decisions > 0, "a replay made decisions");

    let Response::Telemetry(telemetry) = client.request(&Request::Telemetry).unwrap() else {
        panic!("wrong reply kind");
    };
    assert_eq!(telemetry.policy, stats.policy);

    // Unknown policy / scenario names are typed errors (never cached,
    // never counted).
    let Response::Error(e) = client
        .request(&Request::PolicyReplay {
            policy: "nope".to_string(),
            budget,
            scenario: "load_burst".to_string(),
        })
        .unwrap()
    else {
        panic!("unknown policy must be a typed error");
    };
    assert!(e.contains("unknown policy"), "{e}");
    let Response::Error(e) = client
        .request(&Request::PolicyReplay {
            policy: "reactive".to_string(),
            budget,
            scenario: "nope".to_string(),
        })
        .unwrap()
    else {
        panic!("unknown scenario must be a typed error");
    };
    assert!(e.contains("unknown scenario"), "{e}");
    let Response::Stats(after) = client.request(&Request::Stats).unwrap() else {
        panic!("wrong reply kind");
    };
    assert_eq!(after.policy, stats.policy, "errors must not count");

    let _ = server.shutdown();
}

#[test]
fn health_reports_the_served_characterization() {
    let reference = engine();
    let fingerprint = format!("{:016x}", reference.data().fingerprint());
    let server =
        Server::start("127.0.0.1:0", ServeState::new(engine(), trace()), config(2)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let Response::Health(health) = client.request(&Request::Health).unwrap() else {
        panic!("wrong reply kind");
    };
    assert_eq!(health.status, "ok");
    assert_eq!(health.workload, reference.data().name());
    assert_eq!(health.samples, reference.data().n_samples());
    assert_eq!(health.settings, reference.data().n_settings());
    assert_eq!(health.fingerprint, fingerprint);
    assert_eq!(health.workers, 2);
    let _ = server.shutdown();
}

#[test]
fn recharacterized_state_serves_updated_data_under_a_fresh_fingerprint() {
    let system = System::galaxy_nexus_class();
    let base = trace();
    let mut samples = base.samples().to_vec();
    samples[2].mpki *= 1.5;
    samples[7].base_cpi += 0.25;
    let updated = SampleTrace::new(base.name(), samples);

    // Delta-update a warm state: only rows 2 and 7 are re-simulated, and
    // the fingerprint refresh folds cached row hashes.
    let mut state = ServeState::new(engine(), base);
    let stale = state.fingerprint();
    state.recharacterize(&system, updated.clone(), &[2, 7]);
    assert_ne!(state.fingerprint(), stale, "served identity must change");

    // The delta-updated state is indistinguishable from a from-scratch
    // characterization of the updated trace — fingerprint and replies.
    let fresh = SweepEngine::characterize(&system, &updated, FrequencyGrid::coarse());
    assert_eq!(state.fingerprint(), fresh.data().fingerprint());
    let budget = InefficiencyBudget::bounded(BUDGET).unwrap();
    let expect = fresh.optimal_series(budget);

    let server = Server::start("127.0.0.1:0", state, config(2)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let Response::Health(health) = client.request(&Request::Health).unwrap() else {
        panic!("wrong reply kind");
    };
    assert_eq!(
        health.fingerprint,
        format!("{:016x}", fresh.data().fingerprint())
    );
    let reply = ask_twice(&mut client, &Request::OptimalSetting { budget });
    let Response::OptimalSetting(choices) = reply else {
        panic!("wrong reply kind");
    };
    assert_eq!(choices.len(), expect.len());
    for (wire, direct) in choices.iter().zip(&expect) {
        assert_eq!(wire.index, direct.index);
        assert_eq!(wire.time_s.to_bits(), direct.time.value().to_bits());
        assert_eq!(wire.energy_j.to_bits(), direct.energy.value().to_bits());
    }
    let _ = server.shutdown();
}

#[test]
fn inline_kinds_never_reach_the_compute_path() {
    // Stats and Health answer in the reader thread: no cache traffic, no
    // queueing, and in particular no trip through the keyless-dispatch
    // fallback (the `internal.errors` counter stays untouched — it only
    // moves when a compute request reaches dispatch without a cache key,
    // which used to panic the serving thread instead of replying).
    let server =
        Server::start("127.0.0.1:0", ServeState::new(engine(), trace()), config(1)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for _ in 0..3 {
        assert!(matches!(
            client.request(&Request::Health).unwrap(),
            Response::Health(_)
        ));
        assert!(matches!(
            client.request(&Request::Stats).unwrap(),
            Response::Stats(_)
        ));
    }
    let budget = InefficiencyBudget::bounded(BUDGET).unwrap();
    assert!(matches!(
        client.request(&Request::OptimalSetting { budget }).unwrap(),
        Response::OptimalSetting(_)
    ));
    let metrics = server.shutdown();
    assert_eq!(metrics.counter("requests.total"), 7);
    assert_eq!(metrics.counter("internal.errors"), 0);
    assert_eq!(metrics.counter("cache.miss"), 1, "only the compute query");
    assert_eq!(metrics.counter("cache.hit"), 0);
}

#[test]
fn malformed_requests_answer_typed_errors_and_count() {
    let server =
        Server::start("127.0.0.1:0", ServeState::new(engine(), trace()), config(1)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // An unknown governor is decodable but uncomputable: typed error.
    let reply = client
        .request(&Request::GovernedReplay {
            governor: "ondemand".to_string(),
            budget: InefficiencyBudget::Unconstrained,
        })
        .unwrap();
    assert!(matches!(reply, Response::Error(_)), "got {reply:?}");
    // The server stays healthy afterwards.
    let reply = client.request(&Request::Health).unwrap();
    assert!(matches!(reply, Response::Health(_)));
    let metrics = server.shutdown();
    assert_eq!(metrics.counter("requests.total"), 2);
    // Errors are never cached.
    assert_eq!(metrics.counter("cache.hit"), 0);
}

#[test]
fn hostile_deep_nesting_frame_gets_an_error_not_a_crash() {
    // Regression: a single frame of ~100k open brackets used to overflow
    // the reader thread's stack via unbounded parser recursion and abort
    // the whole process. It must come back as a typed error with the
    // server still serving.
    use mcdvfs_serve::{read_frame, write_frame};
    let server =
        Server::start("127.0.0.1:0", ServeState::new(engine(), trace()), config(1)).unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let hostile = "[".repeat(100_000);
    write_frame(&mut stream, &hostile).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let reply = read_frame(&mut reader).unwrap().expect("a reply frame");
    assert!(
        reply.contains("error") && reply.contains("nesting"),
        "expected a nesting error, got: {reply}"
    );
    drop(reader);
    drop(stream);
    // The process survived and new connections still work.
    let mut client = Client::connect(server.addr()).unwrap();
    let reply = client.request(&Request::Health).unwrap();
    assert!(matches!(reply, Response::Health(_)));
    let metrics = server.shutdown();
    assert!(metrics.counter("protocol.errors") >= 1);
}

#[test]
fn max_size_string_frame_does_not_stall_the_reactor() {
    // Regression: the JSON parser used to re-validate the rest of the
    // frame for every string character, so one frame near the size cap
    // pinned the single reactor thread, and every other connection with
    // it, for tens of seconds. It must get exactly one reply while a
    // health check on a second connection answers promptly.
    use mcdvfs_serve::{read_frame, write_frame, MAX_FRAME_BYTES};
    use std::time::{Duration, Instant};
    let server =
        Server::start("127.0.0.1:0", ServeState::new(engine(), trace()), config(1)).unwrap();
    let mut big = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut probe = Client::connect(server.addr()).unwrap();
    let head = r#"{"query":"health","pad":""#;
    let frame = format!(
        "{head}{}\"}}",
        "a".repeat(MAX_FRAME_BYTES - head.len() - 16)
    );
    assert!(frame.len() < MAX_FRAME_BYTES);
    write_frame(&mut big, &frame).unwrap();
    let started = Instant::now();
    assert!(matches!(
        probe.request(&Request::Health).unwrap(),
        Response::Health(_)
    ));
    let waited = started.elapsed();
    assert!(waited < Duration::from_secs(2), "health took {waited:?}");
    big.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut reader = std::io::BufReader::new(big.try_clone().unwrap());
    let reply = read_frame(&mut reader).unwrap().expect("a reply frame");
    assert!(
        matches!(
            Response::decode(&reply),
            Ok(Response::Health(_) | Response::Error(_))
        ),
        "unexpected reply: {reply}"
    );
    // Exactly one: nothing else arrives on that connection.
    big.set_read_timeout(Some(Duration::from_millis(300)))
        .unwrap();
    match read_frame(&mut reader) {
        Err(e)
            if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ) => {}
        other => panic!("expected no second reply, got {other:?}"),
    }
    drop(reader);
    drop(big);
    drop(probe);
    let _ = server.shutdown();
}

#[test]
fn full_queue_sheds_with_overloaded_instead_of_stalling() {
    // One slow worker and a two-slot queue: concurrent clients with
    // distinct budgets (the cache cannot absorb them) must overflow it.
    let server = Server::start(
        "127.0.0.1:0",
        ServeState::new(engine(), trace()),
        ServerConfig {
            workers: 1,
            queue_bound: 2,
            compute_delay: std::time::Duration::from_millis(25),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();
    let counts: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6u64)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let mut answered = 0u64;
                    let mut shed = 0u64;
                    for i in 0..10u64 {
                        let budget = 1.0 + (c * 1000 + i + 1) as f64 * 1e-6;
                        let reply = client
                            .request(&Request::OptimalSetting {
                                budget: InefficiencyBudget::bounded(budget).unwrap(),
                            })
                            .unwrap();
                        match reply {
                            Response::OptimalSetting(_) => answered += 1,
                            Response::Overloaded => shed += 1,
                            other => panic!("unexpected reply {other:?}"),
                        }
                    }
                    (answered, shed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let answered: u64 = counts.iter().map(|(a, _)| a).sum();
    let shed: u64 = counts.iter().map(|(_, s)| s).sum();
    assert_eq!(answered + shed, 60, "every request got exactly one reply");
    assert!(shed > 0, "load never overflowed the two-slot queue");
    let metrics = server.shutdown();
    assert_eq!(metrics.counter("overloaded"), shed);
}

#[test]
fn stats_expose_per_shard_rows_with_cache_and_queue_detail() {
    let bzip2 = Benchmark::Bzip2.trace().window(0, 10);
    let spec = TenantSpec::new(
        System::galaxy_nexus_class(),
        bzip2.clone(),
        FrequencyGrid::coarse(),
    );
    let server = Server::start(
        "127.0.0.1:0",
        ServeState::new(engine(), trace()).with_tenant("bzip2", spec),
        config(2),
    )
    .unwrap();
    // The pool spreads requests across connections; per-shard totals are
    // connection-independent.
    let mut pool = ClientPool::connect(server.addr(), 4).unwrap();
    assert_eq!(pool.len(), 4);
    let budget = InefficiencyBudget::bounded(BUDGET).unwrap();
    for workload in [None, None, Some("bzip2"), Some("bzip2")] {
        let reply = pool
            .request_for(workload, &Request::OptimalSetting { budget })
            .unwrap();
        assert!(
            matches!(reply, Response::OptimalSetting(_)),
            "got {reply:?}"
        );
    }
    let Response::Stats(stats) = pool.request(&Request::Stats).unwrap() else {
        panic!("wrong reply kind");
    };
    assert_eq!(stats.engines, 2, "default shard plus one lazy tenant");
    assert_eq!(stats.evictions, 0);
    assert_eq!(stats.shards.len(), 2);
    let default_name = engine().data().name().to_string();
    let by_name = |name: &str| {
        stats
            .shards
            .iter()
            .find(|s| s.workload == name)
            .unwrap_or_else(|| panic!("no shard row for {name}"))
    };
    let default_row = by_name(&default_name);
    let tenant_row = by_name("bzip2");
    for (row, pinned) in [(default_row, true), (tenant_row, false)] {
        assert_eq!(row.requests, 2, "{}: two routed queries", row.workload);
        assert_eq!(
            row.cache_misses, 1,
            "{}: first query computes",
            row.workload
        );
        assert_eq!(row.cache_hits, 1, "{}: second query hits", row.workload);
        assert_eq!(row.queue_depth, 0, "{}: drained at rest", row.workload);
        assert_eq!(row.pinned, pinned, "{}: pinning", row.workload);
    }
    assert_ne!(
        default_row.fingerprint, tenant_row.fingerprint,
        "distinct characterizations must shard separately"
    );
    let _ = server.shutdown();
}

#[test]
fn slow_loris_connections_are_reaped_by_the_reactor_tick() {
    use std::io::Read;
    let server = Server::start(
        "127.0.0.1:0",
        ServeState::new(engine(), trace()),
        ServerConfig {
            workers: 1,
            idle_timeout: std::time::Duration::from_millis(200),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    // One connection never sends a byte; the other trickles a partial
    // frame header and stalls. Neither costs a server thread, and both
    // must be reaped by the idle deadline — enforced from the reactor
    // tick, not from inside a blocking read.
    let mut silent = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut stalled = std::net::TcpStream::connect(server.addr()).unwrap();
    std::io::Write::write_all(&mut stalled, b"12").unwrap();
    for stream in [&silent, &stalled] {
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
    }
    std::thread::sleep(std::time::Duration::from_millis(600));
    // The server closed both: reads see EOF, not a reply frame.
    let mut scratch = [0u8; 16];
    assert_eq!(silent.read(&mut scratch).unwrap(), 0, "silent conn EOF");
    assert_eq!(stalled.read(&mut scratch).unwrap(), 0, "stalled conn EOF");
    // And it still serves new clients afterwards.
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(matches!(
        client.request(&Request::Health).unwrap(),
        Response::Health(_)
    ));
    drop(client);
    let metrics = server.shutdown();
    assert_eq!(metrics.counter("connections.idle_closed"), 2);
    assert_eq!(metrics.counter("protocol.errors"), 0);
}

#[test]
fn telemetry_gating_leaves_compute_replies_bit_identical() {
    // The flight recorder's zero-overhead contract: with telemetry off,
    // no trace is allocated and no window is observed, and either way
    // every f64 that crosses the wire is bit-for-bit the same.
    let budget = InefficiencyBudget::bounded(BUDGET).unwrap();
    let query = Request::OptimalSetting { budget };
    let replay = Request::GovernedReplay {
        governor: "paper".to_string(),
        budget,
    };
    let mut replies = Vec::new();
    for telemetry in [true, false] {
        let server = Server::start(
            "127.0.0.1:0",
            ServeState::new(engine(), trace()),
            ServerConfig {
                workers: 2,
                telemetry,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut client = Client::connect(server.addr()).unwrap();
        let Response::OptimalSetting(choices) = client.request(&query).unwrap() else {
            panic!("wrong reply kind (telemetry={telemetry})");
        };
        let Response::GovernedReplay(report) = client.request(&replay).unwrap() else {
            panic!("wrong reply kind (telemetry={telemetry})");
        };
        let Response::Telemetry(tel) = client.request(&Request::Telemetry).unwrap() else {
            panic!("wrong reply kind (telemetry={telemetry})");
        };
        assert_eq!(tel.enabled, telemetry);
        let metrics = server.shutdown();
        if telemetry {
            assert!(tel.flight_recorded > 0, "recorder saw the requests");
            assert!(metrics.counter("reactor.ticks") > 0, "tick metrics on");
        } else {
            assert_eq!(tel.flight_recorded, 0, "disabled recorder stays empty");
            assert_eq!(tel.slow_threshold_ns, 0);
            assert_eq!(metrics.counter("reactor.ticks"), 0, "tick metrics off");
        }
        replies.push((choices, report));
    }
    let (on_choices, on_report) = &replies[0];
    let (off_choices, off_report) = &replies[1];
    assert_eq!(on_choices.len(), off_choices.len());
    for (on, off) in on_choices.iter().zip(off_choices) {
        assert_eq!(on.sample, off.sample);
        assert_eq!(on.index, off.index);
        assert_eq!(on.time_s.to_bits(), off.time_s.to_bits());
        assert_eq!(on.energy_j.to_bits(), off.energy_j.to_bits());
        assert_eq!(on.inefficiency.to_bits(), off.inefficiency.to_bits());
    }
    assert_eq!(
        on_report.work_time_s.to_bits(),
        off_report.work_time_s.to_bits()
    );
    assert_eq!(
        on_report.work_energy_j.to_bits(),
        off_report.work_energy_j.to_bits()
    );
    assert_eq!(
        on_report.total_emin_j.to_bits(),
        off_report.total_emin_j.to_bits()
    );
    assert_eq!(on_report.transitions, off_report.transitions);
}

#[test]
fn trace_dump_returns_monotone_stage_timelines_over_the_socket() {
    let budget = InefficiencyBudget::bounded(BUDGET).unwrap();
    let server =
        Server::start("127.0.0.1:0", ServeState::new(engine(), trace()), config(2)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(matches!(
        client.request(&Request::OptimalSetting { budget }).unwrap(),
        Response::OptimalSetting(_)
    ));
    let Response::TraceDump(traces) = client
        .request(&Request::TraceDump {
            limit: 16,
            slow_only: false,
        })
        .unwrap()
    else {
        panic!("wrong reply kind");
    };
    // The compute request took the full pipeline: all eight stages, in
    // order, with non-decreasing timestamps.
    let compute = traces
        .iter()
        .find(|t| t.kind == "optimal_setting")
        .expect("a compute flight record");
    assert_eq!(compute.outcome, "ok");
    assert!(compute.total_ns > 0);
    assert_eq!(
        compute
            .stages
            .iter()
            .map(|s| s.stage.as_str())
            .collect::<Vec<_>>(),
        vec![
            "accepted",
            "frame_complete",
            "decoded",
            "enqueued",
            "dequeued",
            "computed",
            "encoded",
            "write_flushed",
        ]
    );
    for pair in compute.stages.windows(2) {
        assert!(
            pair[0].t_ns <= pair[1].t_ns,
            "stage {} at {} ns regressed to {} at {} ns",
            pair[0].stage,
            pair[0].t_ns,
            pair[1].stage,
            pair[1].t_ns
        );
    }
    let _ = server.shutdown();
}

#[test]
fn steady_phase_cross_check_has_zero_count_drift() {
    // The same validation pass loadgen runs: the server's decoded total
    // equals the client's issued total exactly, and the server-side p95
    // (no network, no client stack) sits at or under the client-side
    // p95.
    let server =
        Server::start("127.0.0.1:0", ServeState::new(engine(), trace()), config(2)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let mut hist = Histogram::new(duration_edges_ns());
    let mut issued = 0u64;
    for i in 0..20u64 {
        let budget = InefficiencyBudget::bounded(1.0 + (i + 1) as f64 * 1e-3).unwrap();
        let t0 = std::time::Instant::now();
        assert!(matches!(
            client.request(&Request::OptimalSetting { budget }).unwrap(),
            Response::OptimalSetting(_)
        ));
        hist.add(t0.elapsed().as_nanos() as f64);
        issued += 1;
    }
    let Response::Telemetry(tel) = client.request(&Request::Telemetry).unwrap() else {
        panic!("wrong reply kind");
    };
    issued += 1;
    std::thread::sleep(std::time::Duration::from_millis(10));
    // Stats last: its own decode is the final increment of the counter
    // the cross-check reads.
    let Response::Stats(stats) = client.request(&Request::Stats).unwrap() else {
        panic!("wrong reply kind");
    };
    issued += 1;
    let client_p95 = hist.percentile(0.95).expect("client samples");
    let check = cross_check(&stats, &tel, issued, client_p95).expect("cross-check holds");
    assert_eq!(check.server_total, issued, "zero count drift");
    assert!(check.server_p95_ns <= check.client_p95_ns);
    assert_eq!(stats.requests_in_flight, 0, "drained at rest");
    assert!(
        stats.uptime_ms > tel.uptime_ms,
        "uptime advances between queries ({} -> {})",
        tel.uptime_ms,
        stats.uptime_ms
    );
    let _ = server.shutdown();
}

#[test]
fn mixed_tenant_replies_stay_bit_identical_across_eviction_and_rebuild() {
    let system = System::galaxy_nexus_class();
    let bzip2_trace = Benchmark::Bzip2.trace().window(0, 10);
    let gcc_trace = Benchmark::Gcc.trace().window(0, 10);
    let budget = InefficiencyBudget::bounded(BUDGET).unwrap();

    // Direct per-grid references the served replies must match bit for
    // bit, at any worker count and across shard eviction/rebuild.
    let direct_bzip2 = SweepEngine::characterize(&system, &bzip2_trace, FrequencyGrid::coarse());
    let direct_gcc = SweepEngine::characterize(&system, &gcc_trace, FrequencyGrid::coarse());
    assert_ne!(
        direct_bzip2.data().fingerprint(),
        direct_gcc.data().fingerprint()
    );

    // max_shards = 2 with the pinned default resident means bzip2 and
    // gcc can never be resident together: each resolve of the other
    // evicts the one loaded before it.
    let state = ServeState::new(engine(), trace())
        .with_tenant(
            "bzip2",
            TenantSpec::new(system.clone(), bzip2_trace, FrequencyGrid::coarse()),
        )
        .with_tenant(
            "gcc",
            TenantSpec::new(system.clone(), gcc_trace, FrequencyGrid::coarse()),
        );
    let server = Server::start(
        "127.0.0.1:0",
        state,
        ServerConfig {
            workers: 2,
            max_shards: 2,
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let pin = |reply: Response, reference: &SweepEngine, label: &str| {
        let Response::OptimalSetting(choices) = reply else {
            panic!("{label}: wrong reply kind");
        };
        let expect = reference.optimal_series(budget);
        assert_eq!(choices.len(), expect.len(), "{label}: length");
        for (wire, direct) in choices.iter().zip(&expect) {
            assert_eq!(wire.sample, direct.sample, "{label}");
            assert_eq!(wire.index, direct.index, "{label}");
            assert_eq!(
                wire.time_s.to_bits(),
                direct.time.value().to_bits(),
                "{label}: time bits"
            );
            assert_eq!(
                wire.energy_j.to_bits(),
                direct.energy.value().to_bits(),
                "{label}: energy bits"
            );
            assert_eq!(
                wire.inefficiency.to_bits(),
                direct.inefficiency.value().to_bits(),
                "{label}: inefficiency bits"
            );
        }
    };

    let query = Request::OptimalSetting { budget };
    let reply = client.request_for(Some("bzip2"), &query).unwrap();
    pin(reply, &direct_bzip2, "bzip2 first build");
    // Resolving gcc exceeds max_shards and evicts bzip2 (gobmk is
    // pinned).
    let reply = client.request_for(Some("gcc"), &query).unwrap();
    pin(reply, &direct_gcc, "gcc build evicting bzip2");
    // bzip2 again: rebuilt from its spec (evicting gcc) with the same
    // fingerprint and the same bits.
    let reply = client.request_for(Some("bzip2"), &query).unwrap();
    pin(reply, &direct_bzip2, "bzip2 rebuilt after eviction");

    let Response::Stats(stats) = client.request(&Request::Stats).unwrap() else {
        panic!("wrong reply kind");
    };
    assert_eq!(stats.engines, 2, "pinned default + one tenant resident");
    assert_eq!(stats.evictions, 2, "bzip2 evicted by gcc, gcc by bzip2");
    let resident: Vec<&str> = stats.shards.iter().map(|s| s.workload.as_str()).collect();
    assert!(resident.contains(&"bzip2"), "resident: {resident:?}");
    assert!(!resident.contains(&"gcc"), "resident: {resident:?}");

    // The default tenant was never disturbed.
    let reply = client.request(&Request::Health).unwrap();
    let Response::Health(health) = reply else {
        panic!("wrong reply kind");
    };
    assert_eq!(health.workload, engine().data().name());
    let _ = server.shutdown();
}
