//! Scatter-gather coordinator integration tests against real `emdd`
//! daemons on loopback: healthy-cluster parity with a single node,
//! typed partials with `SHARD_UNAVAILABLE` notes when a group dies,
//! replica failover, and merged-stats aggregation.

use earthmover_core::ground::BinGrid;
use earthmover_core::pipeline::QueryEngine;
use earthmover_core::HistogramDb;
use earthmover_imaging::corpus::{CorpusConfig, SyntheticCorpus};
use earthmover_obs::names;
use earthmover_serve::{
    shard_of, ClusterConfig, ClusterShared, Coordinator, GroupSpec, Outcome, RetryPolicy, Server,
    ServerConfig, SHARD_UNAVAILABLE_NOTE,
};
use std::sync::Arc;
use std::time::Duration;

const SHARDS: usize = 3;

fn corpus_db(count: usize) -> (BinGrid, HistogramDb) {
    let grid = BinGrid::new(vec![4, 4, 4]);
    let corpus = SyntheticCorpus::new(CorpusConfig::default().with_seed(7));
    let db = corpus.build_database(&grid, count);
    (grid, db)
}

/// Splits by the coordinator's own hash placement, global ids ascending.
fn split(db: &HistogramDb, shards: usize) -> Vec<HistogramDb> {
    let mut parts: Vec<HistogramDb> = (0..shards).map(|_| HistogramDb::new(db.dims())).collect();
    for id in 0..db.len() {
        parts[shard_of(id as u64, shards)].push(db.get(id).to_histogram());
    }
    parts
}

/// A cluster config for tests: one retry, no hedging (deterministic
/// single in-flight call per group). The io timeout is generous —
/// debug-mode exact EMD easily takes hundreds of milliseconds per
/// shard, and a timeout mid-computation downgrades a healthy answer
/// to a flaky Partial. Dead-endpoint detection stays fast because a
/// closed daemon fails the first attempt with a wire error.
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

/// Binds one server per shard db (plus an optional replica for shard
/// group 0), runs them all, and hands the body the group specs and the
/// server handles (`servers[i]` = group i primary, last = replica if
/// requested).
fn with_cluster(
    dbs: &[HistogramDb],
    grid: &BinGrid,
    replica_for_group0: bool,
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
    if replica_for_group0 {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).expect("bind replica");
        specs[0].replica = Some(server.local_addr().expect("addr"));
        servers.push(server);
    }
    std::thread::scope(|scope| {
        for (i, server) in servers.iter().enumerate() {
            // The replica (if any) serves shard 0's data.
            let db = if i < dbs.len() { &dbs[i] } else { &dbs[0] };
            scope.spawn(move || server.run(db, grid, None));
        }
        // A failed assertion in the body must still stop the servers —
        // otherwise the scope join waits forever on the accept loops
        // and the panic message never surfaces.
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

#[test]
fn healthy_cluster_matches_single_node_bit_for_bit() {
    let (grid, db) = corpus_db(300);
    let dbs = split(&db, SHARDS);
    with_cluster(&dbs, &grid, false, |specs, _servers| {
        let shared =
            Arc::new(ClusterShared::discover(test_cfg(specs)).expect("healthy cluster discovers"));
        assert_eq!(shared.topology().total, db.len() as u64);
        let mut coordinator = Coordinator::new(Arc::clone(&shared));

        let engine = QueryEngine::builder(&db, &grid).build();
        for qid in [0usize, 7, 131] {
            let q = db.get(qid).to_histogram();

            let outcome = coordinator.knn(&q, 10, 0).expect("knn");
            let Outcome::Complete { items, stats } = outcome else {
                panic!("healthy cluster must answer Complete, got {outcome:?}");
            };
            let local = engine.knn(&q, 10).expect("local knn");
            let got: Vec<u64> = items.iter().map(|(id, _)| *id).collect();
            let want: Vec<u64> = local.items.iter().map(|(id, _)| *id as u64).collect();
            assert_eq!(got, want, "global ids must match the single-node answer");
            for ((_, g), (_, w)) in items.iter().zip(&local.items) {
                assert!((g - w).abs() <= 1e-9, "distance {g} vs {w}");
            }
            // Merged stats speak for the whole cluster, not one shard.
            assert_eq!(stats.db_size, db.len());
            assert_eq!(stats.results, 10);
            assert!(!stats.deadline_expired);

            let outcome = coordinator.range(&q, 0.15, 0).expect("range");
            let Outcome::Complete { items, .. } = outcome else {
                panic!("healthy cluster must answer range Complete, got {outcome:?}");
            };
            let local_range = engine.range(&q, 0.15).expect("local range");
            let got: Vec<u64> = items.iter().map(|(id, _)| *id).collect();
            let want: Vec<u64> = local_range.items.iter().map(|(id, _)| *id as u64).collect();
            assert_eq!(got, want, "range answers must match the single-node answer");
        }
    });
}

#[test]
fn dead_group_downgrades_to_typed_partial_with_note() {
    let (grid, db) = corpus_db(240);
    let dbs = split(&db, SHARDS);
    with_cluster(&dbs, &grid, false, |specs, servers| {
        // Discover while everything is up; then group 1 goes dark.
        let shared =
            Arc::new(ClusterShared::discover(test_cfg(specs)).expect("healthy cluster discovers"));
        servers[1].stop_handle().stop();
        // Give the daemon a moment to release the port.
        std::thread::sleep(Duration::from_millis(50));

        let mut coordinator = Coordinator::new(Arc::clone(&shared));
        let q = db.get(3).to_histogram();
        let Outcome::Partial { items, stats } = coordinator.knn(&q, 10, 0).expect("knn") else {
            panic!("a dead shard group must downgrade to Partial, not error");
        };
        assert!(
            !items.is_empty(),
            "surviving shards still contribute answers"
        );
        let note = stats
            .degradations
            .iter()
            .find(|n| n.starts_with(SHARD_UNAVAILABLE_NOTE))
            .expect("degradations must carry the SHARD_UNAVAILABLE note");
        assert!(
            note.contains("shard group 1"),
            "note must name the dead group: {note}"
        );
        // Every returned id belongs to a surviving group.
        for (id, _) in &items {
            assert_ne!(
                shard_of(*id, SHARDS),
                1,
                "id {id} is placed on the dead group"
            );
        }
        assert_eq!(
            shared
                .registry()
                .counter(&names::COORD_SHARD_UNAVAILABLE_TOTAL)
                .get(),
            1
        );
    });
}

#[test]
fn replica_failover_keeps_answers_complete() {
    let (grid, db) = corpus_db(240);
    let dbs = split(&db, SHARDS);
    with_cluster(&dbs, &grid, true, |specs, servers| {
        let shared =
            Arc::new(ClusterShared::discover(test_cfg(specs)).expect("healthy cluster discovers"));
        // Kill group 0's primary; its replica serves the same shard.
        servers[0].stop_handle().stop();
        std::thread::sleep(Duration::from_millis(50));

        let mut coordinator = Coordinator::new(Arc::clone(&shared));
        let engine = QueryEngine::builder(&db, &grid).build();
        let q = db.get(11).to_histogram();
        let outcome = coordinator.knn(&q, 10, 0).expect("knn");
        let Outcome::Complete { items, .. } = outcome else {
            panic!("failover to the replica must keep the answer Complete, got {outcome:?}");
        };
        let local = engine.knn(&q, 10).expect("local knn");
        let got: Vec<u64> = items.iter().map(|(id, _)| *id).collect();
        let want: Vec<u64> = local.items.iter().map(|(id, _)| *id as u64).collect();
        assert_eq!(got, want, "failover answer must still match single-node");
        assert!(
            shared
                .registry()
                .counter(&names::SHARD_FAILOVERS_TOTAL)
                .get()
                > 0,
            "the failover must be counted"
        );
    });
}

#[test]
fn coordinator_health_reports_cluster_totals() {
    let (grid, db) = corpus_db(150);
    let dbs = split(&db, SHARDS);
    with_cluster(&dbs, &grid, false, |specs, _servers| {
        let coordinator = Coordinator::connect(test_cfg(specs)).expect("connect");
        let health = coordinator.health();
        assert_eq!(health.db_size, db.len() as u64);
        assert_eq!(health.dims, db.dims() as u32);
        assert!(!health.draining);
    });
}
