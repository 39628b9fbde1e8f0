//! Serving EMD queries over the network: an in-process `emdd` daemon,
//! a client issuing k-NN / health / stats requests, and a graceful
//! drain — all on an ephemeral loopback port.
//!
//! ```sh
//! cargo run --example network_service
//! ```

use earthmover::imaging::corpus::{CorpusConfig, SyntheticCorpus};
use earthmover::obs::names;
use earthmover::serve::{Client, Outcome, Server, ServerConfig};
use earthmover::BinGrid;
use std::time::Duration;

fn main() {
    // A 64-bin synthetic image database and the paper's 4x4x4 grid.
    let grid = BinGrid::new(vec![4, 4, 4]);
    let corpus = SyntheticCorpus::new(CorpusConfig::default().with_seed(7));
    let db = corpus.build_database(&grid, 500);

    // Bind on an ephemeral port; `run` blocks, so it gets its own
    // scoped thread (the engine borrows `db` and `grid`, no Arc
    // gymnastics required).
    let cfg = ServerConfig {
        workers: 2,
        queue_depth: 16,
        default_deadline: Some(Duration::from_millis(250)),
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind");
    let addr = server.local_addr().expect("local addr");
    println!("emdd serving {} histograms on {addr}", db.len());

    std::thread::scope(|scope| {
        let server = &server;
        let db = &db;
        let grid = &grid;
        scope.spawn(move || server.run(db, grid, None).expect("server run"));

        let mut client = Client::connect(addr, Duration::from_secs(5)).expect("connect");

        let health = client.health().expect("health");
        println!(
            "health: {} objects, {} bins, up {} ms",
            health.db_size, health.dims, health.uptime_ms
        );

        // 5-NN of object 42's histogram, server default deadline.
        let q = db.get(42).to_histogram();
        match client.knn(&q, 5, 0).expect("knn") {
            Outcome::Complete { items, stats } => {
                println!(
                    "5-NN of object 42 ({} exact EMDs over {} objects):",
                    stats.exact_evaluations, stats.db_size
                );
                for (rank, (id, dist)) in items.iter().enumerate() {
                    println!("  {rank}. object {id}  emd {dist:.6}");
                }
            }
            Outcome::Partial { items, .. } => {
                println!("deadline hit; best-effort prefix of {} items", items.len())
            }
            Outcome::Overloaded { queue_depth, .. } => {
                println!("shed at queue depth {queue_depth}")
            }
        }

        // Prometheus snapshot over the wire, then a graceful drain.
        let prom = client.stats().expect("stats");
        let serve_lines = prom
            .lines()
            .filter(|l| l.starts_with(names::SERVE_REQUESTS_TOTAL.as_str()))
            .collect::<Vec<_>>()
            .join("\n");
        println!("{serve_lines}");
        client.shutdown().expect("shutdown");
        println!("drain acknowledged");
    });
    println!("server stopped cleanly");
}
