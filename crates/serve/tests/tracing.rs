//! Distributed-tracing acceptance tests on a loopback cluster: one knn
//! query must produce one linked trace (the coordinator's
//! `coord_request`, its per-group `shard_call` legs, and every shard
//! daemon's `serve_request` share a trace id and chain parent → child
//! span ids), merged stats must attribute latency per shard, and the
//! coordinator front end must head-sample traces, log slow queries,
//! and serve the per-shard-labeled fleet metrics view.

use earthmover_core::ground::BinGrid;
use earthmover_core::{HistogramDb, QueryPlan};
use earthmover_imaging::corpus::{CorpusConfig, SyntheticCorpus};
use earthmover_obs::{self as obs, names};
use earthmover_serve::coord_server::{CoordServer, CoordServerConfig};
use earthmover_serve::{
    parse_fleet, shard_of, Client, ClusterConfig, ClusterShared, Coordinator, GroupSpec, Outcome,
    RetryPolicy, Server, ServerConfig,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn knn(k: usize) -> QueryPlan {
    QueryPlan::Knn { k, mode: None }
}

const SHARDS: usize = 3;

fn corpus_db(count: usize) -> (BinGrid, HistogramDb) {
    let grid = BinGrid::new(vec![4, 4, 4]);
    let corpus = SyntheticCorpus::new(CorpusConfig::default().with_seed(11));
    let db = corpus.build_database(&grid, count);
    (grid, db)
}

fn split(db: &HistogramDb, shards: usize) -> Vec<HistogramDb> {
    let mut parts: Vec<HistogramDb> = (0..shards).map(|_| HistogramDb::new(db.dims())).collect();
    for id in 0..db.len() {
        parts[shard_of(id as u64, shards)].push(db.get(id).to_histogram());
    }
    parts
}

fn test_cfg(groups: Vec<GroupSpec>) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(groups);
    cfg.io_timeout = Duration::from_secs(3);
    cfg.retry = RetryPolicy {
        max_retries: 1,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(5),
        jitter_seed: 42,
    };
    cfg.hedge = None;
    cfg.discover_timeout = Duration::from_secs(5);
    cfg
}

/// Binds one `emdd` per shard db, runs each with `recorder` installed
/// as its subscriber (so shard-side spans land in the same ring the
/// test inspects), and stops everything even when the body panics.
fn with_traced_cluster(
    dbs: &[HistogramDb],
    grid: &BinGrid,
    recorder: &Arc<obs::RingRecorder>,
    body: impl FnOnce(Vec<GroupSpec>, &[Server]),
) {
    let mut servers: Vec<Server> = Vec::new();
    let mut specs: Vec<GroupSpec> = Vec::new();
    for db in dbs {
        assert!(!db.is_empty(), "every shard must hold data");
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind shard");
        specs.push(GroupSpec {
            primary: server.local_addr().expect("addr"),
            replica: None,
        });
        servers.push(server);
    }
    std::thread::scope(|scope| {
        for (i, server) in servers.iter().enumerate() {
            let db = &dbs[i];
            let subscriber: Arc<dyn obs::Subscriber> = Arc::clone(recorder) as _;
            scope.spawn(move || server.run(db, grid, Some(subscriber)));
        }
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(specs, &servers)));
        for server in &servers {
            server.stop_handle().stop();
        }
        if let Err(panic) = result {
            std::panic::resume_unwind(panic);
        }
    });
}

/// Spans land in the ring when they *close*, which on the shard side
/// happens after the response bytes are already on the wire — so the
/// coordinator can observe the answer before the last record arrives.
fn wait_for_records(
    recorder: &obs::RingRecorder,
    deadline: Duration,
    pred: impl Fn(&[obs::SpanRecord]) -> bool,
) -> Vec<obs::SpanRecord> {
    let start = Instant::now();
    loop {
        let records = recorder.snapshot();
        if pred(&records) || start.elapsed() > deadline {
            return records;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn one_knn_query_produces_one_linked_trace_across_the_cluster() {
    let (grid, db) = corpus_db(150);
    let dbs = split(&db, SHARDS);
    let recorder = Arc::new(obs::RingRecorder::new(4096));
    with_traced_cluster(&dbs, &grid, &recorder, |specs, _servers| {
        let shard_addrs: Vec<String> = specs.iter().map(|s| s.primary.to_string()).collect();
        let shared =
            Arc::new(ClusterShared::discover(test_cfg(specs)).expect("healthy cluster discovers"));
        let mut coordinator = Coordinator::new(Arc::clone(&shared));

        // Install the ring on the *calling* thread and root a sampled
        // trace; ambient propagation must carry both into the scoped
        // fan-out threads and across the wire into every shard daemon.
        let _sub = obs::install(Arc::clone(&recorder) as Arc<dyn obs::Subscriber>);
        let context = obs::TraceContext::root(true);
        let trace_id = context.trace_id;
        let _trace = obs::set_trace(Some(context));

        let q = db.get(5).to_histogram();
        let outcome = coordinator.query(&q, knn(10), 0).expect("knn");
        let Outcome::Complete { items, stats } = outcome else {
            panic!("healthy cluster must answer Complete");
        };
        assert_eq!(items.len(), 10);

        // --- merged stats expose per-shard provenance and timing.
        assert_eq!(stats.provenance.len(), SHARDS, "one entry per shard group");
        for (i, p) in stats.provenance.iter().enumerate() {
            assert_eq!(p.shard, i as u32, "provenance sorted by shard");
            assert_eq!(p.endpoint, shard_addrs[i], "endpoint names the answerer");
            assert!(!p.from_replica);
            assert!(!p.hedge_fired);
            assert!(p.latency > Duration::ZERO, "coordinator-observed latency");
            assert!(
                !p.stats.stage_elapsed.is_empty(),
                "per-shard stats carry per-stage timing"
            );
            assert!(
                p.stats.provenance.is_empty(),
                "attribution nests exactly one level"
            );
        }
        let straggler = stats.straggler().expect("straggler attribution");
        let worst = stats.provenance.iter().map(|p| p.latency).max().unwrap();
        assert_eq!(straggler.latency, worst);

        // --- every span of the query shares one trace id and chains.
        let records = wait_for_records(&recorder, Duration::from_secs(5), |records| {
            records
                .iter()
                .filter(|r| {
                    r.name == names::SERVE_REQUEST.as_str()
                        && r.trace.as_ref().is_some_and(|t| t.trace_id == trace_id)
                })
                .count()
                >= SHARDS
        });
        let in_trace = |name: &str| -> Vec<&obs::SpanRecord> {
            records
                .iter()
                .filter(|r| {
                    r.name == name && r.trace.as_ref().is_some_and(|t| t.trace_id == trace_id)
                })
                .collect()
        };

        let coord_spans = in_trace(&names::COORD_REQUEST);
        assert_eq!(coord_spans.len(), 1, "exactly one coordinator root span");
        let coord_ids = coord_spans[0].trace.as_ref().expect("trace ids");
        assert_eq!(
            coord_ids.parent_span_id, 0,
            "the client-rooted context has no parent span"
        );

        let shard_calls = in_trace(&names::SHARD_CALL);
        assert_eq!(
            shard_calls.len(),
            SHARDS,
            "fan-out threads must inherit the installed subscriber"
        );
        let mut groups_seen: Vec<u32> = Vec::new();
        for call in &shard_calls {
            let ids = call.trace.as_ref().expect("trace ids");
            assert_eq!(
                ids.parent_span_id, coord_ids.span_id,
                "shard_call chains under coord_request"
            );
            groups_seen.push(call.attr("group").expect("group attr") as u32);
        }
        groups_seen.sort_unstable();
        assert_eq!(groups_seen, vec![0, 1, 2]);

        let serves: Vec<&obs::SpanRecord> = in_trace(&names::SERVE_REQUEST)
            .into_iter()
            .take(SHARDS)
            .collect();
        assert_eq!(serves.len(), SHARDS, "every shard daemon joined the trace");
        let call_span_ids: Vec<u64> = shard_calls
            .iter()
            .map(|c| c.trace.as_ref().unwrap().span_id)
            .collect();
        for serve in &serves {
            let ids = serve.trace.as_ref().expect("trace ids");
            assert!(
                call_span_ids.contains(&ids.parent_span_id),
                "serve_request's parent {:016x} must be one of the coordinator's \
                 shard_call spans",
                ids.parent_span_id
            );
        }
    });
}

#[test]
fn untraced_queries_leave_shard_spans_unlinked() {
    let (grid, db) = corpus_db(90);
    let dbs = split(&db, SHARDS);
    let recorder = Arc::new(obs::RingRecorder::new(2048));
    with_traced_cluster(&dbs, &grid, &recorder, |specs, _servers| {
        let shared = Arc::new(ClusterShared::discover(test_cfg(specs)).expect("discovers"));
        let mut coordinator = Coordinator::new(Arc::clone(&shared));
        let _sub = obs::install(Arc::clone(&recorder) as Arc<dyn obs::Subscriber>);
        // No trace context set: frames stay version-1 on the wire and
        // nothing downstream invents linkage.
        let q = db.get(2).to_histogram();
        coordinator.query(&q, knn(5), 0).expect("knn");
        let records = wait_for_records(&recorder, Duration::from_secs(5), |records| {
            records
                .iter()
                .filter(|r| r.name == names::SERVE_REQUEST.as_str())
                .count()
                >= SHARDS
        });
        assert!(
            records
                .iter()
                .filter(|r| r.name == names::SERVE_REQUEST.as_str()
                    || r.name == names::COORD_REQUEST.as_str())
                .all(|r| r.trace.is_none()),
            "spans must carry no trace ids when no context was set"
        );
    });
}

#[test]
fn coord_server_samples_slow_queries_and_serves_the_fleet_view() {
    let (grid, db) = corpus_db(120);
    let dbs = split(&db, SHARDS);
    let recorder = Arc::new(obs::RingRecorder::new(4096));
    with_traced_cluster(&dbs, &grid, &recorder, |specs, _servers| {
        let shard_addrs: Vec<String> = specs.iter().map(|s| s.primary.to_string()).collect();
        let shared = Arc::new(ClusterShared::discover(test_cfg(specs)).expect("discovers"));
        let cfg = CoordServerConfig {
            workers: 2,
            // Threshold zero: every query is "slow", so one knn call is
            // guaranteed to hit the slow-query log.
            slow_query: Some(Duration::ZERO),
            // Head-sample every uncontexted query into a rooted trace.
            trace_sample_every: 1,
            fleet_scrape_interval: Some(Duration::from_millis(100)),
            ..CoordServerConfig::default()
        };
        let server =
            CoordServer::bind("127.0.0.1:0", cfg, Arc::clone(&shared)).expect("bind coord");
        let addr = server.local_addr().expect("addr");
        std::thread::scope(|scope| {
            let subscriber: Arc<dyn obs::Subscriber> = Arc::clone(&recorder) as _;
            let handle = {
                let server = &server;
                scope.spawn(move || server.run(Some(subscriber)))
            };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut client =
                    Client::connect(addr, Duration::from_secs(3)).expect("connect coord");
                let q = db.get(1).to_histogram();
                let outcome = client.knn(&q, 5, 0).expect("knn through coord server");
                assert!(matches!(outcome, Outcome::Complete { .. }));

                // The head sampler rooted a trace and the zero slow-query
                // threshold logged it.
                let registry = shared.registry();
                assert!(registry.counter(&names::COORD_TRACES_SAMPLED_TOTAL).get() >= 1);
                assert!(registry.counter(&names::COORD_SLOW_QUERIES_TOTAL).get() >= 1);
                let records = wait_for_records(&recorder, Duration::from_secs(5), |records| {
                    records
                        .iter()
                        .any(|r| r.name == names::COORD_SLOW_QUERY.as_str())
                });
                let slow = records
                    .iter()
                    .find(|r| r.name == names::COORD_SLOW_QUERY.as_str())
                    .expect("slow-query event recorded");
                let slow_trace = slow.trace.as_ref().expect("slow-query event is traced");
                assert!(
                    records.iter().any(|r| {
                        r.name == names::SERVE_REQUEST.as_str()
                            && r.trace
                                .as_ref()
                                .is_some_and(|t| t.trace_id == slow_trace.trace_id)
                    }),
                    "the sampled trace must link the coordinator's slow-query \
                     event to at least one shard daemon's serve_request"
                );

                // The fleet scraper (first pull is immediate) labels every
                // shard's series in the coordinator's stats response; a
                // scrape after the query carries its latency.
                let deadline = Instant::now() + Duration::from_secs(5);
                let rows = loop {
                    let merged = client.stats().expect("stats through coord server");
                    let rows = parse_fleet(&merged);
                    let complete = rows.len() >= SHARDS && rows.iter().all(|r| r.p50_ms.is_some());
                    if complete || Instant::now() > deadline {
                        assert!(
                            merged.contains("shard=\"0\""),
                            "fleet export must label per-shard series: {merged}"
                        );
                        break rows;
                    }
                    std::thread::sleep(Duration::from_millis(50));
                };
                assert_eq!(rows.len(), SHARDS, "one fleet row per shard group");
                for (i, row) in rows.iter().enumerate() {
                    assert_eq!(row.shard, i as u32);
                    assert_eq!(row.endpoint, shard_addrs[i]);
                    assert!(row.requests > 0, "shards served discovery + the query");
                    // The view reads the series the shard daemons write.
                    assert!(row.p50_ms.is_some(), "shard {i}: knn latency");
                    assert!(row.queue_depth.is_some(), "shard {i}: queue depth");
                    assert!(row.filter_cache_entries.is_some(), "shard {i}: cache");
                    assert!(row.pool_hit_rate.is_none(), "shard {i} is resident");
                }
            }));
            server.stop_handle().stop();
            let _ = handle.join();
            if let Err(panic) = result {
                std::panic::resume_unwind(panic);
            }
        });
    });
}
