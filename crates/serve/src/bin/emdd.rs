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

#![deny(clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

use earthmover_core::ground::BinGrid;
use earthmover_core::storage;
use earthmover_core::SketchTier;
use earthmover_serve::daemon::{self, Flags};
use earthmover_serve::server::{Server, ServerConfig};
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: emdd --db FILE [--addr HOST:PORT] [--workers N] [--queue N]
  [--read-timeout-ms MS] [--default-deadline-ms MS] [--trace-json PATH]
  [--max-resident-mb N]   serve through a paged column store with an
                          N-MiB buffer pool (converts FILE to FILE.emdc
                          when missing or stale) instead of loading
                          into RAM
  [--sketch on|off]       build/load the FILE.emds sketch sidecar so
                          sketch-only retrieval is served (default on)
  [--sketch-seed N]       grid-shift seed for a fresh sidecar (default 42)
  [--default-mode MODE]   retrieval tier for mode-less requests:
                          exact | sketch | approx:EPS
unknown flags are errors";

fn main() -> ExitCode {
    daemon::main(USAGE, serve)
}

fn serve(flags: &Flags) -> Result<(), String> {
    let db_path = flags
        .get("db")
        .ok_or_else(|| "missing required flag --db".to_string())?;
    let max_resident_mb: usize = flags.num("max-resident-mb", 0)?;
    let db = if max_resident_mb > 0 {
        let budget = max_resident_mb.saturating_mul(1024 * 1024);
        storage::open_paged_or_convert(db_path, budget, &mut |msg| eprintln!("emdd: {msg}"))
            .map_err(|e| format!("{db_path}: {e}"))?
            .0
    } else {
        storage::load(db_path).map_err(|e| format!("{db_path}: {e}"))?
    };
    let grid = BinGrid::for_bins(db.dims())
        .ok_or_else(|| format!("unsupported database dimensionality {}", db.dims()))?;
    let addr = flags.get("addr").unwrap_or("127.0.0.1:4406");

    let default_deadline_ms: u64 = flags.num("default-deadline-ms", 0)?;
    let cfg = ServerConfig {
        workers: flags.num("workers", 4)?,
        queue_depth: flags.num("queue", 64)?,
        read_timeout: Duration::from_millis(flags.num("read-timeout-ms", 30_000)?),
        default_deadline: (default_deadline_ms > 0)
            .then(|| Duration::from_millis(default_deadline_ms)),
        default_mode: flags.default_mode()?,
        ..ServerConfig::default()
    };
    let sketch = sketch_tier(flags, db_path, &db, &grid)?;
    let subscriber = flags.subscriber()?;

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
    daemon::watch_signals("emdd", server.stop_handle());
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
    flags: &Flags,
    db_path: &str,
    db: &earthmover_core::HistogramDb,
    grid: &BinGrid,
) -> Result<Option<SketchTier>, String> {
    match flags.get("sketch") {
        Some("off") => return Ok(None),
        Some("on") | None => {}
        Some(other) => return Err(format!("--sketch {other}: expected on or off")),
    }
    let seed: u64 = flags.num("sketch-seed", 42)?;
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
