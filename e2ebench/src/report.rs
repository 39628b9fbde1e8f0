//! Rendering: the one-line JSON result the driver reads, the table a
//! person reads, and the result files `e2e all` writes for `e2e compare`.

use crate::json::{self, Value};
use crate::run::{RunArgs, RunResult};
use earthmover_obs::json_f64;
use std::fmt::Write;

/// The contract's result object: exactly `correct`, `attempted`,
/// `failed` and `metrics`, on one line.
pub fn result_line(result: &RunResult) -> String {
    let metrics: Vec<String> = result
        .metrics
        .iter()
        .map(|(m, value)| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_f64(*value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted.max(1),
        result.failed,
        metrics.join(", ")
    )
}

/// Every metric by name with its unit, plus the run's bookkeeping.
pub fn table(args: &RunArgs, result: &RunResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== {} seed {} {} ({} s) ==",
        args.workload.name,
        args.seed,
        if args.trace {
            "traced run: per-layer metrics"
        } else {
            "timed run: end-to-end metrics, tracing off"
        },
        args.seconds
    );
    for (m, value) in &result.metrics {
        let _ = writeln!(out, "  {:<42} {:>16.6} {}", m.name, value, m.unit);
    }
    for (key, value) in &result.info {
        let _ = writeln!(out, "  # {key}: {value}");
    }
    for problem in &result.problems {
        let _ = writeln!(out, "  ! {problem}");
    }
    let _ = writeln!(
        out,
        "  => {} ({} attempted, {} failed)",
        if result.correct { "correct" } else { "WRONG" },
        result.attempted,
        result.failed
    );
    out
}

/// One run as an entry of a result file: the result line's object plus
/// what was run.
pub fn file_entry(workload: &str, seed: u64, trace: bool, line: &str) -> String {
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \"result\": {line}}}",
        u8::from(trace)
    )
}

/// A run read back from a result file.
#[derive(Debug, Clone)]
pub struct FileRun {
    /// Workload name.
    pub workload: String,
    /// Seed it ran with.
    pub seed: u64,
    /// Whether it was the traced run.
    pub trace: bool,
    /// Metric name → value.
    pub metrics: Vec<(String, f64)>,
}

/// Parses a result file written by `e2e all`.
pub fn read_file(text: &str) -> Result<Vec<FileRun>, String> {
    let doc = json::parse(text)?;
    let runs = doc.get("runs").ok_or("result file has no \"runs\"")?;
    runs.items()
        .iter()
        .map(|run| {
            let field = |key: &str| run.get(key).ok_or(format!("run without \"{key}\""));
            let metrics = match field("result")?.get("metrics") {
                Some(Value::Obj(map)) => map
                    .iter()
                    .filter_map(|(name, m)| {
                        m.get("value")
                            .and_then(Value::as_f64)
                            .map(|v| (name.clone(), v))
                    })
                    .collect(),
                _ => return Err("run without metrics".to_string()),
            };
            Ok(FileRun {
                workload: field("workload")?
                    .as_str()
                    .ok_or("workload is not a string")?
                    .to_string(),
                seed: field("seed")?.as_f64().ok_or("seed is not a number")? as u64,
                trace: field("trace")?.as_f64() == Some(1.0),
                metrics,
            })
        })
        .collect()
}
