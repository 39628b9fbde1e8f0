//! End-to-end tests against a real daemon on an ephemeral loopback
//! port: result parity with the in-process engine, keep-alive, health
//! and Prometheus stats, deadline budgets, admission-control shedding,
//! malformed-bytes hardening, and drain-then-shutdown. The admission
//! and oversized-`k` tests run against both front ends of the shared
//! daemon runtime.

use earthmover_core::deadline::DEADLINE_NOTE;
use earthmover_core::ground::BinGrid;
use earthmover_core::pipeline::QueryEngine;
use earthmover_core::{Deadline, HistogramDb, QueryPlan, RetrievalInfo, RetrievalMode, SketchTier};
use earthmover_imaging::corpus::{CorpusConfig, SyntheticCorpus};
use earthmover_obs::names;
use earthmover_serve::protocol::OVERLOAD_NOTE;
use earthmover_serve::{
    Client, ClusterConfig, ClusterShared, CoordServer, CoordServerConfig, GroupSpec, Outcome,
    Server, ServerConfig,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn corpus_db(count: usize) -> (BinGrid, HistogramDb) {
    let grid = BinGrid::new(vec![4, 4, 4]);
    let corpus = SyntheticCorpus::new(CorpusConfig::default().with_seed(7));
    let db = corpus.build_database(&grid, count);
    (grid, db)
}

/// Polls until the daemon answers a health probe (it binds before the
/// spawn, so this converges immediately in practice).
fn wait_healthy(addr: SocketAddr) {
    for _ in 0..200 {
        if let Ok(mut c) = Client::connect(addr, Duration::from_secs(1)) {
            if c.health().is_ok() {
                return;
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("daemon on {addr} never became healthy");
}

/// Runs `body` against a live daemon (sketch tier attached), then stops
/// it and joins the server thread (which is itself the drain-shutdown
/// assertion: a hang here means drain is broken).
fn with_daemon(db: &HistogramDb, grid: &BinGrid, cfg: ServerConfig, body: impl FnOnce(SocketAddr)) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr");
    let stop = server.stop_handle();
    std::thread::scope(|scope| {
        let server = &server;
        let tier = SketchTier::build(db, grid, 7).expect("sketch tier");
        let handle = scope.spawn(move || server.run_with(db, grid, None, Some(tier)));
        body(addr);
        stop.stop();
        handle.join().expect("server thread").expect("server run");
    });
}

/// Which daemon a test talks to: the single node, or a coordinator
/// front end over that node as its only shard. Both run the same
/// accept → queue → shed → worker runtime, so the admission tests take
/// each in turn.
#[derive(Debug, Clone, Copy)]
enum FrontEnd {
    Node,
    Coordinator,
}

const FRONT_ENDS: [FrontEnd; 2] = [FrontEnd::Node, FrontEnd::Coordinator];

/// [`with_daemon`] for either front end; `cfg`'s pool and queue sizes
/// apply to the daemon the body talks to (behind a coordinator the
/// shard runs the defaults).
fn with_front_end(
    front: FrontEnd,
    db: &HistogramDb,
    grid: &BinGrid,
    cfg: ServerConfig,
    body: impl FnOnce(SocketAddr),
) {
    match front {
        FrontEnd::Node => with_daemon(db, grid, cfg, body),
        FrontEnd::Coordinator => with_daemon(db, grid, ServerConfig::default(), |shard| {
            let mut cluster = ClusterConfig::new(vec![GroupSpec {
                primary: shard,
                replica: None,
            }]);
            // Debug-mode exact EMD is slow; a timeout mid-computation
            // would turn a healthy answer into a flaky partial.
            cluster.io_timeout = Duration::from_secs(10);
            cluster.hedge = None;
            let cluster = ClusterShared::discover(cluster).expect("the shard is healthy");
            let coord_cfg = CoordServerConfig {
                workers: cfg.workers,
                queue_depth: cfg.queue_depth,
                fleet_scrape_interval: None,
                ..CoordServerConfig::default()
            };
            let server = CoordServer::bind("127.0.0.1:0", coord_cfg, Arc::new(cluster))
                .expect("bind ephemeral port");
            let addr = server.local_addr().expect("local addr");
            let stop = server.stop_handle();
            std::thread::scope(|scope| {
                let server = &server;
                let handle = scope.spawn(move || server.run(None));
                body(addr);
                stop.stop();
                handle.join().expect("coord thread").expect("coord run");
            });
        }),
    }
}

#[test]
fn daemon_knn_matches_local_engine_and_serves_keepalive() {
    let (grid, db) = corpus_db(400);
    with_daemon(&db, &grid, ServerConfig::default(), |addr| {
        wait_healthy(addr);
        let mut client = Client::connect(addr, Duration::from_secs(10)).unwrap();

        let q = db.get(7).to_histogram();
        let Outcome::Complete { items, stats } = client.knn(&q, 10, 0).unwrap() else {
            panic!("expected a complete answer");
        };

        // Parity with the in-process engine. The wire codec re-normalizes
        // the query, which can perturb bins by an ulp, so distances get a
        // tolerance while ids must match exactly.
        let engine = QueryEngine::builder(&db, &grid).build();
        let local = engine.knn(&q, 10).unwrap();
        let local_ids: Vec<u64> = local.items.iter().map(|(id, _)| *id as u64).collect();
        let got_ids: Vec<u64> = items.iter().map(|(id, _)| *id).collect();
        assert_eq!(got_ids, local_ids);
        for ((_, got), (_, want)) in items.iter().zip(&local.items) {
            assert!((got - want).abs() <= 1e-9, "distance {got} vs {want}");
        }

        // The stats breakdown crossed the wire intact.
        assert_eq!(stats.db_size, local.stats.db_size);
        assert_eq!(stats.exact_evaluations, local.stats.exact_evaluations);
        assert!(!stats.deadline_expired);
        assert!(!stats.stage_elapsed.is_empty(), "per-stage timings present");

        // Keep-alive: more requests on the same connection.
        let health = client.health().unwrap();
        assert!(!health.draining);
        assert_eq!(health.db_size, db.len() as u64);
        assert_eq!(health.dims, db.dims() as u32);

        let Outcome::Complete { items, .. } = client.range(&q, 0.15, 0).unwrap() else {
            panic!("expected a complete range answer");
        };
        let local_range = engine.range(&q, 0.15).unwrap();
        assert_eq!(items.len(), local_range.items.len());

        let prom = client.stats().unwrap();
        assert!(
            prom.contains(names::SERVE_REQUESTS_TOTAL.as_str()),
            "stats response must carry the serve metrics:\n{prom}"
        );
        assert!(prom.contains(names::SERVE_KNN_SECONDS.as_str()));

        // Drain via the wire protocol.
        client.shutdown().unwrap();
    });
}

/// `k` is read off the wire unchecked. Asking for more neighbours than
/// the database holds returns every row on every tier — `k` must not
/// size an allocation (`u32::MAX` used to abort the process) — and the
/// daemon keeps serving.
#[test]
fn k_beyond_the_database_returns_every_row() {
    let (grid, db) = corpus_db(60);
    let q = db.get(3).to_histogram();
    let modes = [
        None,
        Some(RetrievalMode::Approximate { epsilon: 0.25 }),
        Some(RetrievalMode::SketchOnly),
    ];
    for front in FRONT_ENDS {
        with_front_end(front, &db, &grid, ServerConfig::default(), |addr| {
            wait_healthy(addr);
            let mut client = Client::connect(addr, Duration::from_secs(30)).unwrap();
            for mode in modes {
                // `k` saturates to the wire's `u32::MAX`.
                let plan = QueryPlan::Knn {
                    k: usize::MAX,
                    mode,
                };
                let Outcome::Complete { items, .. } = client.query(&q, plan, 0).unwrap() else {
                    panic!("{front:?} {mode:?}: expected a complete answer");
                };
                assert_eq!(items.len(), db.len(), "{front:?} {mode:?}");
            }
            assert_eq!(client.health().unwrap().db_size, db.len() as u64);
        });
    }
}

/// Every plan crosses the wire, and the coordinator's merge, with its
/// retrieval tier intact: each front end's answer matches a local
/// [`QueryEngine::query`] on the same plan, and `stats.retrieval` says
/// which tier answered — `None` for a mode-less plan, not `Some(Exact)`.
#[test]
fn retrieval_mode_travels_end_to_end() {
    let (grid, db) = corpus_db(400);
    let q = db.get(7).to_histogram();
    let engine = QueryEngine::builder(&db, &grid).build();
    let knn = |mode| QueryPlan::Knn { k: 10, mode };
    let info = |mode, recall| Some(RetrievalInfo { mode, recall });
    let kth = engine.query(&q, knn(None), Deadline::none()).unwrap().items[9].1;
    let (exact, approximate) = (
        RetrievalMode::Exact,
        RetrievalMode::Approximate { epsilon: 0.25 },
    );
    let plans = [
        (knn(None), None),
        (knn(Some(exact)), info(exact, 1.0)),
        (knn(Some(approximate)), info(approximate, 1.0 / 1.25)),
        (QueryPlan::Range { epsilon: 0.15 }, None),
    ];
    for front in FRONT_ENDS {
        with_front_end(front, &db, &grid, ServerConfig::default(), |addr| {
            wait_healthy(addr);
            let mut client = Client::connect(addr, Duration::from_secs(30)).unwrap();
            for (plan, retrieval) in plans {
                let Outcome::Complete { items, stats } = client.query(&q, plan, 0).unwrap() else {
                    panic!("{front:?} {plan:?}: expected a complete answer");
                };
                let local = engine.query(&q, plan, Deadline::none()).unwrap();
                assert_eq!(stats.retrieval, retrieval, "{front:?} {plan:?}");
                assert_eq!(local.stats.retrieval, retrieval, "local {plan:?}");
                assert_eq!(items.len(), local.items.len(), "{front:?} {plan:?}");
                if retrieval.is_some_and(|info| info.mode == approximate) {
                    for (_, d) in &items {
                        assert!(*d <= 1.25 * kth + 1e-9, "{front:?}: {d} vs kth {kth}");
                    }
                    continue;
                }
                for ((got_id, got), (want_id, want)) in items.iter().zip(&local.items) {
                    assert_eq!(*got_id, *want_id as u64, "{front:?} {plan:?}");
                    assert!((got - want).abs() <= 1e-9, "{front:?} {plan:?}");
                }
            }
        });
    }
}

#[test]
fn tight_deadline_yields_typed_partial_within_budget() {
    let (grid, db) = corpus_db(2000);
    with_daemon(&db, &grid, ServerConfig::default(), |addr| {
        wait_healthy(addr);
        let mut client = Client::connect(addr, Duration::from_secs(10)).unwrap();
        let q = db.get(3).to_histogram();
        let started = std::time::Instant::now();
        let outcome = client.knn(&q, 20, 1).unwrap(); // 1 µs budget
        let elapsed = started.elapsed();
        let Outcome::Partial { items, stats } = outcome else {
            panic!("a 1µs budget must yield the typed partial, got {outcome:?}");
        };
        assert!(stats.deadline_expired);
        assert!(
            stats.degradations.iter().any(|n| n == DEADLINE_NOTE),
            "degradations must record the cutoff: {:?}",
            stats.degradations
        );
        assert!(items.len() <= 20);
        // "Within budget" at wire scale: the cutoff fired long before a
        // full 2000-object refinement could finish.
        assert!(
            elapsed < Duration::from_secs(5),
            "partial answer took {elapsed:?}"
        );
    });
}

#[test]
fn full_queue_sheds_with_typed_overloaded_response() {
    let (grid, db) = corpus_db(200);
    for front in FRONT_ENDS {
        let cfg = ServerConfig {
            workers: 1,
            queue_depth: 0, // every request sheds — deterministic overload
            ..ServerConfig::default()
        };
        with_front_end(front, &db, &grid, cfg, |addr| {
            let mut client = Client::connect(addr, Duration::from_secs(10)).unwrap();
            let q = db.get(0).to_histogram();
            let outcome = client.knn(&q, 5, 0).unwrap();
            let Outcome::Overloaded { queue_depth, stats } = outcome else {
                panic!("{front:?}: queue depth 0 must shed, got {outcome:?}");
            };
            assert_eq!(queue_depth, 0);
            assert_eq!(stats.db_size, db.len(), "{front:?}");
            assert!(
                stats.degradations.iter().any(|n| n == OVERLOAD_NOTE),
                "shed must be recorded in QueryStats::degradations: {:?}",
                stats.degradations
            );
        });
    }
}

#[test]
fn malformed_bytes_get_typed_error_and_daemon_survives() {
    let (grid, db) = corpus_db(100);
    for front in FRONT_ENDS {
        with_front_end(front, &db, &grid, ServerConfig::default(), |addr| {
            wait_healthy(addr);

            // Raw socket speaking HTTP at the daemon.
            let mut raw = TcpStream::connect(addr).unwrap();
            raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            raw.write_all(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
            let mut buf = Vec::new();
            let _ = raw.read_to_end(&mut buf); // server answers Error, closes
            assert!(
                buf.starts_with(b"EMDQ"),
                "{front:?} should answer with a protocol frame, got {buf:?}"
            );

            // The daemon is still healthy for well-behaved clients.
            let mut client = Client::connect(addr, Duration::from_secs(5)).unwrap();
            assert!(client.health().is_ok());
        });
    }
}

#[test]
fn drain_leaves_queued_work_answered() {
    let (grid, db) = corpus_db(150);
    for front in FRONT_ENDS {
        let cfg = ServerConfig {
            workers: 2,
            queue_depth: 8,
            ..ServerConfig::default()
        };
        with_front_end(front, &db, &grid, cfg, |addr| {
            wait_healthy(addr);
            let q = db.get(1).to_histogram();
            // A request in flight while the stop flag flips must still be
            // answered (drain, not abort).
            let mut client = Client::connect(addr, Duration::from_secs(10)).unwrap();
            let outcome = client.knn(&q, 5, 0).unwrap();
            assert!(matches!(outcome, Outcome::Complete { .. }), "{front:?}");
        });
    }
}
