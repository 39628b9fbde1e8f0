//! `emdd` — the Earth Mover's Distance query daemon.
//!
//! ```sh
//! # Serve a histogram database (generate one with `emdtool generate`):
//! emdd --db photos.emdb --addr 127.0.0.1:4406 --workers 4 --queue 64
//!
//! # With a default per-request deadline budget and a JSON-lines trace:
//! emdd --db photos.emdb --default-deadline-ms 50 --trace-json emdd.trace
//! ```
//!
//! The daemon drains and exits on SIGINT/SIGTERM or on a client
//! `shutdown` frame; either way in-flight requests finish and telemetry
//! is flushed before the process returns.

use earthmover_core::ground::BinGrid;
use earthmover_core::storage;
use earthmover_core::{RetrievalMode, SketchTier};
use earthmover_obs as obs;
use earthmover_serve::server::{Server, ServerConfig, StopHandle};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(flags) = parse(&args) else {
        eprintln!(
            "usage: emdd --db FILE [--addr HOST:PORT] [--workers N] [--queue N]\n  \
             [--read-timeout-ms MS] [--default-deadline-ms MS] [--trace-json PATH]\n  \
             [--max-resident-mb N]   serve through a paged column store with an\n  \
                                     N-MiB buffer pool (converts FILE to FILE.emdc\n  \
                                     when missing or stale) instead of loading\n  \
                                     into RAM\n  \
             [--sketch on|off]       build/load the FILE.emds sketch sidecar so\n  \
                                     sketch-only retrieval is served (default on)\n  \
             [--sketch-seed N]       grid-shift seed for a fresh sidecar (default 42)\n  \
             [--default-mode MODE]   retrieval tier for mode-less requests:\n  \
                                     exact | sketch | approx:EPS"
        );
        return ExitCode::from(2);
    };
    match serve(&flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Splits `--flag value` pairs into a map.
fn parse(args: &[String]) -> Option<HashMap<String, String>> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag.strip_prefix("--")?;
        flags.insert(name.to_string(), it.next()?.clone());
    }
    Some(flags)
}

fn get_num<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    name: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} {v} is not a number")),
    }
}

/// The paper's 3-D reduced feature grids, keyed by histogram arity.
fn grid_for(dims: usize) -> Result<BinGrid, String> {
    Ok(match dims {
        16 => BinGrid::new(vec![4, 2, 2]),
        32 => BinGrid::new(vec![4, 4, 2]),
        64 => BinGrid::new(vec![4, 4, 4]),
        other => return Err(format!("unsupported database dimensionality {other}")),
    })
}

fn serve(flags: &HashMap<String, String>) -> Result<(), String> {
    let db_path = flags
        .get("db")
        .ok_or_else(|| "missing required flag --db".to_string())?;
    let max_resident_mb: usize = get_num(flags, "max-resident-mb", 0)?;
    let db = if max_resident_mb > 0 {
        let budget = max_resident_mb.saturating_mul(1024 * 1024);
        storage::open_paged_or_convert(db_path, budget, &mut |msg| eprintln!("emdd: {msg}"))
            .map_err(|e| format!("{db_path}: {e}"))?
            .0
    } else {
        storage::load(db_path).map_err(|e| format!("{db_path}: {e}"))?
    };
    let grid = grid_for(db.dims())?;
    let addr = flags
        .get("addr")
        .map(|s| s.as_str())
        .unwrap_or("127.0.0.1:4406");

    let default_deadline_ms: u64 = get_num(flags, "default-deadline-ms", 0)?;
    let default_mode = match flags.get("default-mode") {
        None => None,
        Some(spec) => Some(RetrievalMode::parse(spec).ok_or_else(|| {
            format!("--default-mode {spec}: expected exact, sketch, or approx:EPS")
        })?),
    };
    let cfg = ServerConfig {
        workers: get_num(flags, "workers", 4)?,
        queue_depth: get_num(flags, "queue", 64)?,
        read_timeout: Duration::from_millis(get_num(flags, "read-timeout-ms", 30_000)?),
        default_deadline: (default_deadline_ms > 0)
            .then(|| Duration::from_millis(default_deadline_ms)),
        default_mode,
        ..ServerConfig::default()
    };
    let sketch = sketch_tier(flags, db_path, &db, &grid)?;

    let subscriber: Option<Arc<dyn obs::Subscriber>> = match flags.get("trace-json") {
        None => None,
        Some(path) if path == "-" || path == "stderr" => {
            Some(Arc::new(obs::JsonLinesEmitter::stderr()))
        }
        Some(path) => {
            let file =
                std::fs::File::create(path).map_err(|e| format!("--trace-json {path}: {e}"))?;
            Some(Arc::new(obs::JsonLinesEmitter::new(Box::new(file))))
        }
    };

    let server = Server::bind(addr, cfg).map_err(|e| format!("bind {addr}: {e}"))?;
    let local = server.local_addr().map_err(|e| e.to_string())?;
    eprintln!(
        "emdd: serving {} histograms ({} bins) on {local}{}",
        db.len(),
        db.dims(),
        if db.is_paged() {
            format!(" (paged, pool capacity {} blocks)", db.pool_capacity())
        } else {
            String::new()
        }
    );
    watch_signals(server.stop_handle());
    server
        .run_with(&db, &grid, subscriber, sketch)
        .map_err(|e| e.to_string())?;
    eprintln!("emdd: drained, bye");
    Ok(())
}

/// Loads the `<db>.emds` sketch sidecar, or builds and persists one on
/// first start. `--sketch off` skips the tier entirely (sketch-only
/// requests then degrade to exact with a `SKETCH_UNAVAILABLE` note); a
/// stale or mismatched sidecar is rebuilt from the store, not trusted.
fn sketch_tier(
    flags: &HashMap<String, String>,
    db_path: &str,
    db: &earthmover_core::HistogramDb,
    grid: &BinGrid,
) -> Result<Option<SketchTier>, String> {
    match flags.get("sketch").map(|s| s.as_str()) {
        Some("off") => return Ok(None),
        Some("on") | None => {}
        Some(other) => return Err(format!("--sketch {other}: expected on or off")),
    }
    let seed: u64 = get_num(flags, "sketch-seed", 42)?;
    let sidecar = std::path::PathBuf::from(format!("{db_path}.emds"));
    if sidecar.exists() {
        match SketchTier::load(&sidecar, grid) {
            Ok(tier) if tier.rows() == db.len() && tier.seed() == seed => {
                eprintln!(
                    "emdd: loaded sketch sidecar {} ({} rows, distortion {:.2})",
                    sidecar.display(),
                    tier.rows(),
                    tier.distortion()
                );
                return Ok(Some(tier));
            }
            Ok(_) => eprintln!(
                "emdd: sketch sidecar {} is stale, rebuilding",
                sidecar.display()
            ),
            Err(e) => eprintln!(
                "emdd: sketch sidecar {}: {e}; rebuilding",
                sidecar.display()
            ),
        }
    }
    let tier = SketchTier::build(db, grid, seed).map_err(|e| format!("sketch build: {e}"))?;
    match tier.save(&sidecar) {
        Ok(()) => eprintln!(
            "emdd: built sketch sidecar {} ({} rows, distortion {:.2})",
            sidecar.display(),
            tier.rows(),
            tier.distortion()
        ),
        // A read-only data directory is not fatal: serve from memory.
        Err(e) => eprintln!(
            "emdd: could not persist sketch sidecar {}: {e} (serving from memory)",
            sidecar.display()
        ),
    }
    Ok(Some(tier))
}

/// Set by the async-signal handler; bridged to the server's stop flag
/// by a watcher thread (signal handlers may only touch statics).
static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SIGNALLED.store(true, Ordering::SeqCst);
}

/// Registers SIGINT/SIGTERM handlers and spawns the bridge thread that
/// forwards the flag into `stop`.
fn watch_signals(stop: StopHandle) {
    #[cfg(unix)]
    {
        type Handler = extern "C" fn(i32);
        extern "C" {
            fn signal(signum: i32, handler: Handler) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `signal(2)` with a handler that only performs an
        // atomic store is async-signal-safe; both arguments are valid
        // for the lifetime of the process.
        #[allow(unsafe_code)]
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }
    std::thread::Builder::new()
        .name("emdd-signal-bridge".into())
        .spawn(move || loop {
            if SIGNALLED.load(Ordering::SeqCst) {
                eprintln!("emdd: signal received, draining");
                stop.stop();
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        })
        .map(drop)
        .unwrap_or_else(|e| eprintln!("emdd: signal bridge unavailable: {e}"));
}
