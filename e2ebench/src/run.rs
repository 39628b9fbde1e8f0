//! One run of one workload: prepare the inputs, time first starts, warm
//! up, measure with tracing off, check every answer.

use crate::inputs::{self, Inputs, Op};
use crate::load::{self, Drive, Tally};
use crate::oracle::{self, Truth};
use crate::serving::{self, StartOptions};
use crate::spec::{Kind, Metric, Workload, CLIENTS, END_TO_END, K, SETUPS};
use earthmover_core::pipeline::{FirstStage, QueryEngine};
use earthmover_core::sketch_tier::SKETCH_ONLY_NOTE;
use earthmover_core::RetrievalMode;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Share of a run spent on approximate and range probes by workloads
/// whose own stream has neither.
const PROBE_SHARE: f64 = 0.15;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload (possibly scaled down by the smoke test).
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds the measured phases take.
    pub seconds: f64,
    /// `false`: end-to-end metrics, tracing off. `true`: per-layer
    /// metrics from the traced run.
    pub trace: bool,
    /// Scratch directory for this run's files; removed afterwards.
    pub dir: PathBuf,
    /// Where the traced run dumps its spans.
    pub trace_file: PathBuf,
}

/// What a run found.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Every answer was right and every metric has samples behind it.
    pub correct: bool,
    /// Requests sent in the measured phases.
    pub attempted: u64,
    /// Requests shed, dropped, errored, partial or answered wrongly.
    pub failed: u64,
    /// The contract's metrics, in table order.
    pub metrics: Vec<(Metric, f64)>,
    /// Sample counts, prepare time and the like, for the human reader.
    pub info: Vec<(String, String)>,
    /// What went wrong, when something did.
    pub problems: Vec<String>,
}

impl RunResult {
    /// Records a problem; the run is no longer correct.
    pub fn problem(&mut self, what: String) {
        if self.problems.len() < 16 {
            self.problems.push(what);
        }
    }
}

/// Inputs plus ground truth, and how long they took to make.
pub struct Prepared {
    /// Corpus, queries, stream and files.
    pub inputs: Inputs,
    /// Ground truth by query index.
    pub truth: HashMap<usize, Truth>,
    /// Seconds spent preparing (reported, not part of set-up).
    pub prepare_s: f64,
}

/// Generates the inputs and computes the oracle.
pub fn prepare(args: &RunArgs) -> Result<Prepared, String> {
    let started = Instant::now();
    let inputs = inputs::generate(args.workload, args.seed, &args.dir)?;
    let truth = oracle::ground_truth(&inputs, CLIENTS)?;
    Ok(Prepared {
        inputs,
        truth,
        prepare_s: started.elapsed().as_secs_f64(),
    })
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Checks every kept answer against the oracle; returns the mean
/// recall@K of the workload's k-NN answers.
fn verify(prepared: &Prepared, tally: &Tally, result: &mut RunResult) -> f64 {
    let sketch = prepared.inputs.workload.kind == Kind::WireSketch;
    let (mut recall_sum, mut recall_n, mut reported) = (0.0, 0u64, 0.0);
    for answer in &tally.answers {
        let Some(truth) = prepared.truth.get(&answer.req.query) else {
            continue;
        };
        match oracle::check(answer.req, sketch, &answer.items, truth) {
            Ok(recall) if answer.req.op == Op::Knn => {
                recall_sum += recall;
                recall_n += 1;
            }
            Ok(_) => {}
            Err(e) => {
                result.failed += 1;
                result.problem(format!("query {}: {e}", answer.req.query));
            }
        }
        if sketch && answer.req.op == Op::Knn {
            let tier = answer.stats.retrieval.map(|r| r.mode);
            let noted = answer
                .stats
                .degradations
                .iter()
                .any(|d| d == SKETCH_ONLY_NOTE);
            if tier != Some(RetrievalMode::SketchOnly) || !noted {
                result.failed += 1;
                result.problem(format!(
                    "query {}: sketch answer without its SKETCH_ONLY marking",
                    answer.req.query
                ));
            }
            reported = answer.stats.retrieval.map_or(0.0, |r| r.recall);
        }
    }
    let recall = if recall_n == 0 {
        0.0
    } else {
        recall_sum / recall_n as f64
    };
    if sketch && recall < reported {
        result.problem(format!(
            "sketch recall {recall} below the reported {reported}"
        ));
    }
    if !sketch && recall_n > 0 && recall != 1.0 {
        result.problem(format!("exact recall@{K} is {recall}, not 1"));
    }
    recall
}

/// Paged answers (those kept for the oracle's queries) must be
/// bit-identical to a resident engine's over the
/// same rows with the same first stage (the scan a paged engine is
/// downgraded to). Against the resident *index* they need not be: where
/// LB_Avg is tight it can exceed the exact EMD by a few ulps, so a
/// near-tie at the k-th neighbour goes to whichever candidate the first
/// stage happens to rank first.
fn verify_paged(prepared: &Prepared, tally: &Tally, result: &mut RunResult) {
    let inputs = &prepared.inputs;
    let engine = QueryEngine::builder(&inputs.db, &inputs.grid)
        .first_stage(FirstStage::AvgScan)
        .build();
    for answer in tally.answers.iter().filter(|a| a.req.op == Op::Knn) {
        let query = answer.req.query;
        let same = engine.knn(&inputs.queries[query], K).is_ok_and(|resident| {
            resident.items.len() == answer.items.len()
                && resident
                    .items
                    .iter()
                    .zip(&answer.items)
                    .all(|((rid, rd), (id, d))| *rid as u64 == *id && rd.to_bits() == d.to_bits())
        });
        if !same {
            result.failed += 1;
            result.problem(format!("query {query}: paged answer differs from resident"));
        }
    }
}

/// The timed run: end-to-end metrics with tracing off.
pub fn timed(args: &RunArgs) -> Result<RunResult, String> {
    let prepared = prepare(args)?;
    let inputs = &prepared.inputs;
    let kind = inputs.workload.kind;
    let options = StartOptions::default();

    let mut setups = Vec::new();
    for _ in 1..SETUPS {
        setups.push(serving::with_first_start(inputs, &options, |running| {
            Ok(running.setup.total_s)
        })?);
    }

    let probes = inputs::probe_stream(inputs.workload);
    // The mixed workload's own stream has every operation; the others
    // end the run with approximate and range probes.
    let main_secs = if kind == Kind::RefineMixed {
        args.seconds
    } else {
        (1.0 - PROBE_SHARE) * args.seconds
    };
    let (setup, main, main_wall, probe) = serving::with_first_start(inputs, &options, |running| {
        let drive = |stream, secs: f64| Drive {
            addr: running.addr,
            inputs,
            truth: &prepared.truth,
            stream,
            stop_at: Some(Instant::now() + Duration::from_secs_f64(secs)),
        };
        // Warm-up: caches fill, the index is touched, threads exist.
        load::run(drive(&inputs.stream, (0.1 * args.seconds).clamp(0.2, 2.0)));
        let (main, main_wall) = load::run(drive(&inputs.stream, main_secs));
        let probe = (kind != Kind::RefineMixed)
            .then(|| load::run(drive(&probes, args.seconds - main_secs)).0);
        Ok((running.setup, main, main_wall, probe))
    })?;
    setups.push(setup.total_s);
    let rss = peak_rss_mb();

    let mut result = RunResult::default();
    let recall = verify(&prepared, &main, &mut result);
    if kind == Kind::ScanPaged {
        verify_paged(&prepared, &main, &mut result);
    }
    if let Some(probe) = &probe {
        verify(&prepared, probe, &mut result);
    }
    let phases: Vec<&Tally> = std::iter::once(&main).chain(&probe).collect();
    for phase in &phases {
        result.attempted += phase.attempted;
        result.failed += phase.failed();
        result.problems.extend(phase.failures.iter().cloned());
    }
    let sorted = |op: Op| {
        // Approximate and range samples come from the probes where the
        // main stream has none.
        let from = probe.as_ref().filter(|_| op != Op::Knn).unwrap_or(&main);
        let mut samples = from.latencies[op as usize].clone();
        samples.sort_by(f64::total_cmp);
        samples
    };
    let (knn, approx, range) = (sorted(Op::Knn), sorted(Op::Approx), sorted(Op::Range));
    if knn.is_empty() || approx.is_empty() || range.is_empty() {
        result.problem("an operation type has no samples: run longer".to_string());
    }

    let value = |name: &str| -> f64 {
        match name {
            "knn_p50_ms" => 1e3 * load::quantile(&knn, 0.50),
            "knn_p99_ms" => 1e3 * load::quantile(&knn, 0.99),
            "approx_p50_ms" => 1e3 * load::quantile(&approx, 0.50),
            "range_p50_ms" => 1e3 * load::quantile(&range, 0.50),
            "qps" => main.complete as f64 / main_wall.max(1e-9),
            "recall_at_k" => recall,
            "setup_s" => load::median(&setups),
            "peak_rss_mb" => rss,
            "disk_bytes_per_user_byte" => setup.disk_bytes as f64 / inputs.user_bytes() as f64,
            other => unreachable!("no end-to-end metric named {other}"),
        }
    };
    result.metrics = END_TO_END.iter().map(|m| (*m, value(m.name))).collect();
    result.info = vec![
        ("seed".into(), args.seed.to_string()),
        ("prepare_s".into(), format!("{:.3}", prepared.prepare_s)),
        ("clients".into(), CLIENTS.to_string()),
        (
            "samples".into(),
            format!(
                "knn {} (beyond p99: {}), approx {}, range {}",
                knn.len(),
                knn.len() / 100,
                approx.len(),
                range.len()
            ),
        ),
        (
            "requests".into(),
            format!(
                "sent {} succeeded {} failed {} (shed {} dropped {} partial {} error {})",
                result.attempted,
                result.attempted - result.failed.min(result.attempted),
                result.failed,
                phases.iter().map(|t| t.shed).sum::<u64>(),
                phases.iter().map(|t| t.dropped).sum::<u64>(),
                phases.iter().map(|t| t.partial).sum::<u64>(),
                phases.iter().map(|t| t.errors).sum::<u64>(),
            ),
        ),
        (
            "fail_frac".into(),
            format!("{}", result.failed as f64 / result.attempted.max(1) as f64),
        ),
        ("setups_s".into(), format!("{setups:.4?}")),
    ];
    result.correct = result.failed == 0 && result.problems.is_empty();
    Ok(result)
}
