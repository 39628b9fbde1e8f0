//! Stands the shipped serving path up in-process, the way the `emdd`
//! and `emdd-coord` binaries do from on-disk files, and times a first
//! start.
//!
//! Every step mirrors `crates/serve/src/bin/emdd.rs` /
//! `emdd_coord.rs`: `storage::load` (or the one-time `.emdc` conversion
//! and `open_paged`), `SketchTier::build` + `save`, `Server::bind` with
//! `ServerConfig { workers, ..default }`, `run_with` (which builds the
//! engine and its index), `ClusterShared::discover`, `CoordServer::bind`
//! and `run`. Flags the workloads use: `--workers 2`, `--sketch on` only
//! for `wire_sketch_d16`, `--max-resident-mb` replaced by the 256 KiB
//! byte budget, and `--scrape-interval-ms 0` on the coordinator (with
//! both workers of each shard owned by the coordinator's keep-alive
//! legs, a scraper connection could only queue).

use crate::inputs::Inputs;
use crate::spec::{Kind, POOL_BYTES, WORKERS};
use earthmover_core::{storage, HistogramDb, SketchTier};
use earthmover_obs::Subscriber;
use earthmover_serve::client::Client;
use earthmover_serve::coord::{ClusterConfig, ClusterShared, GroupSpec};
use earthmover_serve::coord_server::{CoordServer, CoordServerConfig};
use earthmover_serve::server::{Server, ServerConfig, StopHandle};
use earthmover_storage::Vfs;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed of the sketch sidecar's grid shift: `emdd --sketch-seed`'s
/// default.
pub const SKETCH_SEED: u64 = 42;

/// Client socket timeout; generous, since a timeout is a failed run.
pub const IO_TIMEOUT: Duration = Duration::from_secs(20);

/// What a first start cost, by part.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupCost {
    /// Load → healthy, everything included.
    pub total_s: f64,
    /// `.emdb` → `.emdc` conversion (paged workload).
    pub convert_s: f64,
    /// `SketchTier::build` + `save` (sketch workload).
    pub sketch_build_s: f64,
    /// Bytes set-up left on disk: `.emdb` files plus sidecars.
    pub disk_bytes: u64,
    /// Bytes of the `.emds` sidecar alone.
    pub sidecar_bytes: u64,
    /// Certified distortion of the sketch tier, when one was built.
    pub sketch_distortion: f64,
}

/// A started serving stack, alive for the duration of the body passed to
/// [`with_first_start`].
pub struct Running<'a> {
    /// Where clients connect: the server, or the coordinator.
    pub addr: SocketAddr,
    /// The shard servers behind the coordinator (cluster only).
    pub shard_addrs: Vec<SocketAddr>,
    /// The served databases, for their pool and filter-cache counters.
    pub dbs: &'a [HistogramDb],
    /// The coordinator's shared state (cluster only).
    pub cluster: Option<Arc<ClusterShared>>,
    /// Stops the coordinator alone, freeing the shards' workers for
    /// direct calls (cluster only).
    pub front_stop: Option<StopHandle>,
    /// What this start cost.
    pub setup: SetupCost,
}

/// Knobs the traced run turns; the timed run uses the defaults.
#[derive(Default, Clone)]
pub struct StartOptions<'v> {
    /// Open the paged store through this VFS instead of `StdVfs`.
    pub vfs: Option<&'v dyn Vfs>,
    /// Subscriber handed to `Server::run_with`.
    pub subscriber: Option<Arc<dyn Subscriber>>,
}

/// `<path>.<ext>`: where `emdd` keeps a database's sidecars.
pub fn sidecar(path: &Path, ext: &str) -> PathBuf {
    PathBuf::from(format!("{}.{ext}", path.display()))
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn server_config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    }
}

/// Blocks until a health probe on `addr` answers.
fn wait_healthy(addr: SocketAddr) -> Result<(), String> {
    let give_up = Instant::now() + IO_TIMEOUT;
    loop {
        match Client::connect(addr, IO_TIMEOUT).and_then(|mut c| c.health()) {
            Ok(_) => return Ok(()),
            Err(e) if Instant::now() >= give_up => {
                return Err(format!("{addr} never became healthy: {e}"))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Performs a first start of `inputs`' workload from its `.emdb` files
/// alone (sidecars of earlier starts are deleted first), runs `body`
/// against it, then drains and stops everything it started.
pub fn with_first_start<R>(
    inputs: &Inputs,
    options: &StartOptions<'_>,
    body: impl FnOnce(&Running<'_>) -> Result<R, String>,
) -> Result<R, String> {
    let kind = inputs.workload.kind;
    let files: Vec<&Path> = if kind == Kind::Cluster {
        inputs.shard_files.iter().map(PathBuf::as_path).collect()
    } else {
        vec![inputs.emdb.as_path()]
    };
    for file in &files {
        for ext in ["emdc", "emds"] {
            let _ = std::fs::remove_file(sidecar(file, ext));
        }
    }

    let started = Instant::now();
    let mut setup = SetupCost::default();
    let mut dbs = Vec::new();
    for file in &files {
        let err = |e: storage::StorageError| format!("{}: {e}", file.display());
        dbs.push(if kind == Kind::ScanPaged {
            let t = Instant::now();
            let resident = storage::load(file).map_err(err)?;
            let emdc = sidecar(file, "emdc");
            storage::save_paged(&resident, &emdc).map_err(err)?;
            drop(resident);
            setup.convert_s = t.elapsed().as_secs_f64();
            match options.vfs {
                Some(vfs) => storage::open_paged_with(vfs, &emdc, POOL_BYTES),
                None => storage::open_paged(&emdc, POOL_BYTES),
            }
            .map_err(err)?
        } else {
            storage::load(file).map_err(err)?
        });
    }
    let sketch = if kind == Kind::WireSketch {
        let t = Instant::now();
        let tier = SketchTier::build(&dbs[0], &inputs.grid, SKETCH_SEED)
            .map_err(|e| format!("sketch build: {e}"))?;
        let path = sidecar(files[0], "emds");
        tier.save(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        setup.sketch_build_s = t.elapsed().as_secs_f64();
        setup.sidecar_bytes = file_len(&path);
        setup.sketch_distortion = tier.distortion();
        Some(tier)
    } else {
        None
    };
    setup.disk_bytes = files
        .iter()
        .map(|f| file_len(f) + file_len(&sidecar(f, "emdc")) + file_len(&sidecar(f, "emds")))
        .sum();

    let servers = dbs
        .iter()
        .map(|_| Server::bind("127.0.0.1:0", server_config()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("bind: {e}"))?;
    let server_addrs = servers
        .iter()
        .map(Server::local_addr)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("local_addr: {e}"))?;

    std::thread::scope(|scope| {
        let mut sketch = sketch;
        for (server, db) in servers.iter().zip(&dbs) {
            let (grid, subscriber, sketch) =
                (&inputs.grid, options.subscriber.clone(), sketch.take());
            scope.spawn(move || {
                if let Err(e) = server.run_with(db, grid, subscriber, sketch) {
                    eprintln!("e2e: server failed: {e}");
                }
            });
        }
        let stop_servers = || servers.iter().for_each(|s| s.stop_handle().stop());
        // Waits for `addr` to answer, then hands the started stack to
        // `body`: the end of set-up.
        let serve = |addr, front: Option<&CoordServer>| {
            wait_healthy(addr).and_then(|()| {
                setup.total_s = started.elapsed().as_secs_f64();
                body(&Running {
                    addr,
                    shard_addrs: front.map_or_else(Vec::new, |_| server_addrs.clone()),
                    dbs: &dbs,
                    cluster: front.map(|coord| Arc::clone(coord.cluster())),
                    front_stop: front.map(CoordServer::stop_handle),
                    setup,
                })
            })
        };

        if kind != Kind::Cluster {
            let result = serve(server_addrs[0], None);
            stop_servers();
            return result;
        }

        let groups = server_addrs
            .iter()
            .map(|&primary| GroupSpec {
                primary,
                replica: None,
            })
            .collect();
        let coord = ClusterShared::discover(ClusterConfig::new(groups))
            .map_err(|e| format!("discover: {e}"))
            .and_then(|shared| {
                let cfg = CoordServerConfig {
                    workers: WORKERS,
                    fleet_scrape_interval: None,
                    ..CoordServerConfig::default()
                };
                CoordServer::bind("127.0.0.1:0", cfg, Arc::new(shared))
                    .map_err(|e| format!("bind coordinator: {e}"))
            });
        let result = coord.and_then(|coord| {
            std::thread::scope(|front| {
                let coord = &coord;
                front.spawn(move || {
                    if let Err(e) = coord.run(None) {
                        eprintln!("e2e: coordinator failed: {e}");
                    }
                });
                let result = coord
                    .local_addr()
                    .map_err(|e| format!("local_addr: {e}"))
                    .and_then(|addr| serve(addr, Some(coord)));
                coord.stop_handle().stop();
                result
            })
        });
        stop_servers();
        result
    })
}
