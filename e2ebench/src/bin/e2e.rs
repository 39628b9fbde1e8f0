//! `e2e` — the served-query benchmark's command line.
//!
//! ```sh
//! # One run, as the driver invokes it (last stdout line is the result):
//! e2e --workload refine_mixed_d32 --seed 2006 --seconds 24 --trace 0
//!
//! # Every workload, timed and traced, for people and for `compare`:
//! e2e all --seeds 2006,7 --runs 3 --out A.json
//! e2e compare A.json B.json          # exit 1 on any `worse` row
//! ```

use earthmover_e2e::run::{RunArgs, RunResult};
use earthmover_e2e::spec::{self, WORKLOADS};
use earthmover_e2e::{compare, layers, report, run};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage:
  e2e --workload NAME --seed N --seconds S --trace 0|1 [--rows N] [--queries N]
  e2e all [--seeds N,N,..] [--runs N] [--seconds S] [--out FILE]
  e2e compare A.json B.json [--bench BENCHMARK.json]
workloads: refine_mixed_d32 scan_paged_d16 wire_sketch_d16 cluster_d32";

/// Splits `--flag value` pairs (after any positional words) into a map.
fn flags(args: &[String]) -> Result<(Vec<&str>, HashMap<&str, &str>), String> {
    let mut positional = Vec::new();
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.strip_prefix("--") {
            Some(name) => {
                let value = it.next().ok_or(format!("flag --{name} needs a value"))?;
                map.insert(name, value.as_str());
            }
            None => positional.push(arg.as_str()),
        }
    }
    Ok((positional, map))
}

fn number<T: std::str::FromStr>(
    map: &HashMap<&str, &str>,
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match (map.get(name), default) {
        (Some(v), _) => v
            .parse()
            .map_err(|_| format!("--{name} {v} is not a number")),
        (None, Some(d)) => Ok(d),
        (None, None) => Err(format!("missing --{name}")),
    }
}

/// The build's target directory: this executable lives in
/// `<target>/<profile>/`. Everything the benchmark writes goes under
/// `<target>/e2e/`, inside the checkout and ignored by git.
fn scratch_root() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(|target| target.join("e2e"))
        .ok_or_else(|| format!("{} has no target directory", exe.display()))
}

fn one_run(map: &HashMap<&str, &str>) -> Result<(RunArgs, RunResult), String> {
    let name = map.get("workload").ok_or("missing --workload")?;
    let mut workload = spec::workload(name).ok_or(format!("unknown workload {name}"))?;
    // The smoke test's tiny scale; never used for reported numbers.
    workload.rows = number(map, "rows", Some(workload.rows))?;
    workload.queries = number(map, "queries", Some(workload.queries))?;
    let seed: u64 = number(map, "seed", None)?;
    let seconds: f64 = number(map, "seconds", None)?;
    if !(seconds > 0.0 && seconds <= 600.0) || workload.rows < 64 || workload.queries < 10 {
        return Err("need 0 < --seconds <= 600, --rows >= 64, --queries >= 10".to_string());
    }
    let root = scratch_root()?.join(seed.to_string());
    let args = RunArgs {
        workload,
        seed,
        seconds,
        trace: match *map.get("trace").ok_or("missing --trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace {other}: expected 0 or 1")),
        },
        dir: root.join(format!("{}-{}", workload.name, std::process::id())),
        trace_file: root.join(format!("{}.trace.jsonl", workload.name)),
    };
    let result = if args.trace {
        layers::traced(&args)
    } else {
        run::timed(&args)
    };
    let _ = std::fs::remove_dir_all(&args.dir);
    let _ = std::fs::remove_dir(&root); // gone only if no trace dump lives there
    result.map(|r| (args, r))
}

/// Runs every workload, timed and traced, each in a process of its own
/// so that `peak_rss_mb` and caches do not leak between workloads.
fn all(map: &HashMap<&str, &str>) -> Result<bool, String> {
    let seeds: Vec<u64> = map
        .get("seeds")
        .unwrap_or(&"2006")
        .split(',')
        .map(|s| s.parse().map_err(|_| format!("bad seed {s}")))
        .collect::<Result<_, _>>()?;
    let runs: usize = number(map, "runs", Some(1))?;
    let seconds: f64 = number(map, "seconds", Some(24.0))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut entries = Vec::new();
    let mut all_correct = true;
    for workload in WORKLOADS {
        for &seed in &seeds {
            for (trace, repeats) in [(false, runs), (true, 1)] {
                for _ in 0..repeats {
                    let output = Command::new(&exe)
                        .args(["--workload", workload.name])
                        .args(["--seed", &seed.to_string()])
                        .args(["--seconds", &seconds.to_string()])
                        .args(["--trace", if trace { "1" } else { "0" }])
                        .stderr(Stdio::inherit())
                        .output()
                        .map_err(|e| format!("{}: {e}", exe.display()))?;
                    let stdout = String::from_utf8_lossy(&output.stdout);
                    print!("{stdout}");
                    all_correct &= output.status.success();
                    if let Some(line) = stdout.lines().last().filter(|l| l.starts_with('{')) {
                        entries.push(report::file_entry(workload.name, seed, trace, line));
                    }
                }
            }
        }
    }
    if let Some(path) = map.get("out") {
        let doc = format!("{{\"runs\": [\n{}\n]}}\n", entries.join(",\n"));
        std::fs::write(path, doc).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("e2e: wrote {path}");
    }
    Ok(all_correct)
}

fn compare_files(positional: &[&str], map: &HashMap<&str, &str>) -> Result<bool, String> {
    let [_, a, b] = positional else {
        return Err(USAGE.to_string());
    };
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let bounds = compare::bounds(&read(map.get("bench").unwrap_or(&"BENCHMARK.json"))?)?;
    let (table, bad) = compare::compare(
        &report::read_file(&read(a)?)?,
        &report::read_file(&read(b)?)?,
        &bounds,
    );
    print!("{table}");
    Ok(!bad)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = flags(&args).and_then(|(positional, map)| match positional.first() {
        None if !map.is_empty() => one_run(&map).map(|(args, result)| {
            print!("{}", report::table(&args, &result));
            println!("{}", report::result_line(&result));
            result.correct
        }),
        Some(&"all") => all(&map),
        Some(&"compare") => compare_files(&positional, &map),
        _ => Err(USAGE.to_string()),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("e2e: {msg}");
            ExitCode::from(2)
        }
    }
}
