//! Process scaffolding shared by the `emdd` and `emdd-coord` binaries:
//! the `--flag value` parser, the flags both daemons read the same way
//! (`--trace-json`, `--default-mode`), exit-code policy, and the
//! SIGINT/SIGTERM → [`StopHandle`] bridge.

use crate::server::StopHandle;
use earthmover_core::RetrievalMode;
use earthmover_obs::{JsonLinesEmitter, Subscriber};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A daemon's parsed `--flag value` command line.
#[derive(Debug)]
pub struct Flags(HashMap<String, String>);

impl Flags {
    /// Splits `--flag value` pairs into a map. The accepted flags are
    /// the `--name` words of `usage`, so the usage text cannot omit one;
    /// any other flag, a flag without a value, or a bare word is an
    /// error naming the offender — a typo must not silently serve with
    /// the default.
    pub fn parse(args: &[String], usage: &str) -> Result<Flags, String> {
        let accepted = |name: &str| {
            let mut words = usage.split_whitespace();
            words.any(|w| w.trim_start_matches('[').strip_prefix("--") == Some(name))
        };
        let mut flags = HashMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {flag}"))?;
            if !accepted(name) {
                return Err(format!("unknown flag --{name}"));
            }
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            flags.insert(name.to_string(), value.clone());
        }
        Ok(Flags(flags))
    }

    /// The value given for `--name`, if any.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    /// The numeric value of `--name`, or `default` when absent.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} {v} is not a number")),
        }
    }

    /// `--default-mode`: the retrieval tier for mode-less k-NN requests.
    pub fn default_mode(&self) -> Result<Option<RetrievalMode>, String> {
        self.get("default-mode")
            .map(|spec| {
                RetrievalMode::parse(spec).ok_or_else(|| {
                    format!("--default-mode {spec}: expected exact, sketch, or approx:EPS")
                })
            })
            .transpose()
    }

    /// `--trace-json PATH`: a JSON-lines span subscriber writing to the
    /// file, or to stderr for `-` / `stderr`.
    pub fn subscriber(&self) -> Result<Option<Arc<dyn Subscriber>>, String> {
        Ok(match self.get("trace-json") {
            None => None,
            Some("-" | "stderr") => Some(Arc::new(JsonLinesEmitter::stderr())),
            Some(path) => {
                let file =
                    std::fs::File::create(path).map_err(|e| format!("--trace-json {path}: {e}"))?;
                Some(Arc::new(JsonLinesEmitter::new(Box::new(file))))
            }
        })
    }
}

/// A daemon's `main`: parses the process arguments against `usage`
/// and runs `serve`. A command-line error prints it with `usage` and
/// exits 2 before anything is bound; a `serve` error exits 1.
pub fn main(usage: &str, serve: impl FnOnce(&Flags) -> Result<(), String>) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = match Flags::parse(&args, usage) {
        Ok(flags) => flags,
        Err(msg) => {
            eprintln!("error: {msg}\n{usage}");
            return ExitCode::from(2);
        }
    };
    match serve(&flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Set by the async-signal handler; bridged to the server's stop flag
/// by a watcher thread (signal handlers may only touch statics).
static SIGNALLED: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    SIGNALLED.store(true, Ordering::SeqCst);
}

/// Registers SIGINT/SIGTERM handlers and spawns the `<daemon>-signal-bridge`
/// thread that forwards the flag into `stop`.
pub fn watch_signals(daemon: &'static str, stop: StopHandle) {
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
        .name(format!("{daemon}-signal-bridge"))
        .spawn(move || loop {
            if SIGNALLED.load(Ordering::SeqCst) {
                eprintln!("{daemon}: signal received, draining");
                stop.stop();
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        })
        .map(drop)
        .unwrap_or_else(|e| eprintln!("{daemon}: signal bridge unavailable: {e}"));
}
