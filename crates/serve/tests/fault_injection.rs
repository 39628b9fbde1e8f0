//! Deterministic fault-injection tests: a coordinator talking to one
//! `emdd` backend through a [`FaultProxy`]. Every fault class must
//! produce a typed partial with the `SHARD_UNAVAILABLE` note — never a
//! panic or an opaque error — and a healthy proxy must be invisible
//! (exact parity with querying the daemon directly).

use earthmover_core::ground::BinGrid;
use earthmover_core::HistogramDb;
use earthmover_imaging::corpus::{CorpusConfig, SyntheticCorpus};
use earthmover_obs::names;
use earthmover_serve::{
    BreakerConfig, Client, ClusterConfig, ClusterShared, Coordinator, FaultClass, FaultProxy,
    FaultProxyConfig, FaultSchedule, GroupSpec, Outcome, RetryPolicy, Server, ServerConfig,
    SHARD_UNAVAILABLE_NOTE,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn corpus_db(count: usize) -> (BinGrid, HistogramDb) {
    let grid = BinGrid::new(vec![4, 4, 4]);
    let corpus = SyntheticCorpus::new(CorpusConfig::default().with_seed(7));
    let db = corpus.build_database(&grid, count);
    (grid, db)
}

/// One-group cluster config pointed at the proxy: short timeouts, one
/// retry, no hedging, and a breaker that effectively never closes once
/// open (so breaker tests are deterministic).
fn proxy_cfg(proxy: &FaultProxy, max_retries: u32) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(vec![GroupSpec {
        primary: proxy.addr(),
        replica: None,
    }]);
    // Generous: debug-mode exact EMD takes hundreds of milliseconds,
    // and deadline-driven tests clamp the per-attempt socket timeout
    // to the remaining budget anyway.
    cfg.io_timeout = Duration::from_secs(2);
    cfg.retry = RetryPolicy {
        max_retries,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(5),
        jitter_seed: 7,
    };
    cfg.breaker = BreakerConfig {
        failure_threshold: 3,
        open_cooldown: Duration::from_secs(30),
        half_open_probes: 1,
    };
    cfg.hedge = None;
    cfg.discover_timeout = Duration::from_secs(5);
    cfg
}

/// A schedule whose first connection (the discovery probe) is healthy
/// and whose next 20 connections inject `fault`.
fn after_discovery(fault: FaultClass) -> FaultSchedule {
    let mut seq = vec![FaultClass::Healthy];
    seq.extend(std::iter::repeat_n(fault, 20));
    FaultSchedule::cycle(seq)
}

/// Runs `body` against a coordinator whose single shard group sits
/// behind a fault proxy with the given schedule.
fn with_faulty_cluster(
    schedule: FaultSchedule,
    max_retries: u32,
    body: impl FnOnce(&mut Coordinator, &Arc<ClusterShared>, &FaultProxy, &HistogramDb),
) {
    let (grid, db) = corpus_db(120);
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind backend");
    let backend = server.local_addr().expect("addr");
    std::thread::scope(|scope| {
        let server = &server;
        let db_ref = &db;
        let grid_ref = &grid;
        scope.spawn(move || server.run(db_ref, grid_ref, None));
        let proxy_cfg_net = FaultProxyConfig {
            stall: Duration::from_secs(1),
            io_timeout: Duration::from_secs(5),
            ..FaultProxyConfig::default()
        };
        // A failed assertion must still stop the daemon, or the scope
        // join hangs and masks the panic message.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let proxy = FaultProxy::spawn(backend, schedule, proxy_cfg_net).expect("spawn proxy");
            let shared = Arc::new(
                ClusterShared::discover(proxy_cfg(&proxy, max_retries))
                    .expect("discovery rides the schedule's healthy first connection"),
            );
            let mut coordinator = Coordinator::new(Arc::clone(&shared));
            body(&mut coordinator, &shared, &proxy, &db);
            proxy.stop();
        }));
        server.stop_handle().stop();
        if let Err(panic) = result {
            std::panic::resume_unwind(panic);
        }
    });
}

#[test]
fn every_fault_class_yields_typed_partial_with_note() {
    for fault in [
        FaultClass::Refuse,
        FaultClass::CutMidFrame,
        FaultClass::Stall,
        FaultClass::Garbage,
    ] {
        with_faulty_cluster(
            after_discovery(fault),
            1,
            |coordinator, _shared, proxy, db| {
                let q = db.get(5).to_histogram();
                // 250 ms budget: long enough for a healthy answer, short
                // enough that a stalled connection blows it.
                let outcome = coordinator.knn(&q, 5, 250_000).expect("never a hard error");
                let Outcome::Partial { items, stats } = outcome else {
                    panic!("{fault:?} must downgrade to Partial, got a different outcome");
                };
                assert!(items.is_empty(), "{fault:?}: the only group was faulty");
                assert!(
                    stats
                        .degradations
                        .iter()
                        .any(|n| n.starts_with(SHARD_UNAVAILABLE_NOTE)),
                    "{fault:?} must record the SHARD_UNAVAILABLE note: {:?}",
                    stats.degradations
                );
                assert!(
                    proxy.injected(fault) > 0,
                    "{fault:?} was never actually injected"
                );
            },
        );
    }
}

#[test]
fn healthy_proxy_is_invisible() {
    with_faulty_cluster(
        FaultSchedule::always(FaultClass::Healthy),
        1,
        |coordinator, _shared, _proxy, db| {
            let q = db.get(9).to_histogram();
            let outcome = coordinator.knn(&q, 10, 0).expect("knn");
            let Outcome::Complete { items, stats } = outcome else {
                panic!("healthy proxy must answer Complete, got {outcome:?}");
            };
            // One shard group: local ids are global ids. Parity with a
            // direct connection to the daemon itself.
            assert_eq!(items.first().map(|(id, _)| *id), Some(9));
            assert_eq!(stats.db_size, db.len());
            assert!(stats.degradations.is_empty(), "{:?}", stats.degradations);
        },
    );
}

#[test]
fn transient_fault_recovers_via_retry() {
    // Connections: discovery, then Refuse / Healthy alternating — every
    // first attempt fails, every retry lands.
    let schedule = FaultSchedule::cycle(vec![
        FaultClass::Healthy, // discovery probe
        FaultClass::Refuse,
        FaultClass::Healthy,
    ]);
    with_faulty_cluster(schedule, 2, |coordinator, shared, proxy, db| {
        let q = db.get(2).to_histogram();
        let outcome = coordinator.knn(&q, 5, 0).expect("knn");
        let Outcome::Complete { items, .. } = outcome else {
            panic!("the retry must recover the answer, got {outcome:?}");
        };
        assert_eq!(items.first().map(|(id, _)| *id), Some(2));
        assert!(
            shared.registry().counter(&names::SHARD_RETRIES_TOTAL).get() > 0,
            "recovery must have gone through the retry path"
        );
        assert!(proxy.injected(FaultClass::Refuse) > 0);
    });
}

#[test]
fn repeated_failures_open_the_breaker_and_reject_fast() {
    with_faulty_cluster(
        after_discovery(FaultClass::Refuse),
        3,
        |coordinator, shared, proxy, db| {
            let q = db.get(0).to_histogram();
            // 4 attempts, all refused: failures 1..3 trip the breaker,
            // attempt 4 is rejected without touching the network.
            let outcome = coordinator.knn(&q, 5, 0).expect("typed partial");
            assert!(matches!(outcome, Outcome::Partial { .. }));
            assert_eq!(
                shared
                    .registry()
                    .counter(&names::SHARD_BREAKER_OPEN_TOTAL)
                    .get(),
                1,
                "the third consecutive failure must open the breaker"
            );
            assert!(
                shared
                    .registry()
                    .counter(&names::SHARD_BREAKER_REJECTIONS_TOTAL)
                    .get()
                    > 0
            );

            // While open, queries fail fast: no new connections reach
            // the proxy and the answer is immediate.
            let refused_before = proxy.injected(FaultClass::Refuse);
            let started = Instant::now();
            let outcome = coordinator.knn(&q, 5, 0).expect("typed partial");
            assert!(matches!(outcome, Outcome::Partial { .. }));
            assert!(
                started.elapsed() < Duration::from_millis(200),
                "an open breaker must short-circuit, took {:?}",
                started.elapsed()
            );
            assert_eq!(
                proxy.injected(FaultClass::Refuse),
                refused_before,
                "an open breaker must not dial the endpoint"
            );
        },
    );
}

#[test]
fn seeded_schedules_replay_identically_through_the_proxy() {
    // Two proxies over the same backend with the same seed must inject
    // the same class sequence for the same connection count.
    let (grid, db) = corpus_db(60);
    let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind backend");
    let backend = server.local_addr().expect("addr");
    std::thread::scope(|scope| {
        let server = &server;
        let db_ref = &db;
        let grid_ref = &grid;
        scope.spawn(move || server.run(db_ref, grid_ref, None));
        let result = std::panic::catch_unwind(|| {
            let menu = [FaultClass::Healthy, FaultClass::Refuse, FaultClass::Garbage];
            let schedule = |seed| FaultSchedule::seeded(seed, &menu, 16);
            let a = FaultProxy::spawn(backend, schedule(99), FaultProxyConfig::default())
                .expect("proxy a");
            let b = FaultProxy::spawn(backend, schedule(99), FaultProxyConfig::default())
                .expect("proxy b");
            for proxy in [&a, &b] {
                for _ in 0..12 {
                    // Each connect consumes one schedule slot; outcomes
                    // vary by class but the distribution must match.
                    if let Ok(mut c) = Client::connect(proxy.addr(), Duration::from_millis(500)) {
                        let _ = c.health();
                    }
                }
            }
            for class in menu {
                assert_eq!(
                    a.injected(class),
                    b.injected(class),
                    "{class:?} counts diverge for the same seed"
                );
            }
            a.stop();
            b.stop();
        });
        server.stop_handle().stop();
        if let Err(panic) = result {
            std::panic::resume_unwind(panic);
        }
    });
}
