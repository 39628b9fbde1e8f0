//! `e2e compare A.json B.json`: applies the bounds stored in
//! `BENCHMARK.json` to two result files, one row per (workload, metric).
//!
//! Verdicts: `worse` when B's median is worse than A's by more than the
//! metric's bound; otherwise `unresolved` when either side's own spread
//! (inter-quartile distance over the median) is wider than the bound,
//! so "no change" cannot be told from noise; otherwise `same`. Counters
//! that must repeat exactly are compared run by run and reported as
//! `differs` when they do not.

use crate::json::{self, Value};
use crate::report::FileRun;
use earthmover_obs::json_f64;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Per-layer counters that repeat exactly for a given seed and run
/// length; any difference is a change in behaviour, not noise.
pub const EXACT_COUNTERS: &[&str] = &[
    "transport.solves_per_req",
    "rtree.node_accesses_per_req",
    "lower_bounds.lb_im_evals_per_req",
    "protocol.req_bytes",
    "protocol.resp_bytes",
];

/// An end-to-end metric's regression rule, from `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// True when lower values are better.
    pub lower_is_better: bool,
    /// Share of A's median by which B may be worse.
    pub bound: f64,
}

/// Reads the `end_to_end` rules out of `BENCHMARK.json`'s text.
pub fn bounds(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = json::parse(benchmark_json)?;
    doc.get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end")?
        .items()
        .iter()
        .map(|m| {
            let text = |key: &str| m.get(key).and_then(Value::as_str);
            Ok(Bound {
                name: text("name").ok_or("metric without name")?.to_string(),
                lower_is_better: text("better").ok_or("metric without better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// Python's `statistics.quantiles(values, n=4)` (exclusive method), the
/// driver's own spread rule; `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    Some([1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    }))
}

fn median(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([_, mid, _]) => mid,
        None => values.first().copied().unwrap_or(0.0),
    }
}

/// Inter-quartile distance as a share of the median; 0 below two runs.
pub fn spread(values: &[f64]) -> f64 {
    match (quartiles(values), median(values)) {
        (Some([q1, _, q3]), mid) if mid != 0.0 => (q3 - q1) / mid.abs(),
        _ => 0.0,
    }
}

fn values_of(runs: &[FileRun], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric).map(|(_, v)| *v))
        .collect()
}

/// Compares two result files; returns the table and whether any row is
/// `worse` or `differs`.
pub fn compare(a: &[FileRun], b: &[FileRun], bounds: &[Bound]) -> (String, bool) {
    let mut out = String::new();
    let mut bad = false;
    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let _ = writeln!(
        out,
        "{:<18} {:<26} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "spreadA", "spreadB", "bound"
    );
    for workload in workloads {
        for rule in bounds {
            let (va, vb) = (
                values_of(a, workload, false, &rule.name),
                values_of(b, workload, false, &rule.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
            let worse_by = if rule.lower_is_better {
                change
            } else {
                -change
            };
            let (sa, sb) = (spread(&va), spread(&vb));
            let verdict = if worse_by > rule.bound {
                bad = true;
                "worse"
            } else if sa.max(sb) > rule.bound {
                "unresolved"
            } else {
                "same"
            };
            let _ = writeln!(
                out,
                "{workload:<18} {:<26} {ma:>12.5} {mb:>12.5} {:>+7.1}% {:>7.1}% {:>7.1}% {:>5.0}%  {verdict}",
                rule.name,
                100.0 * change,
                100.0 * sa,
                100.0 * sb,
                100.0 * rule.bound,
            );
        }
        // Exact-repeat counters, seed by seed.
        let by_seed = |runs: &[FileRun], metric: &str| -> BTreeMap<u64, Vec<f64>> {
            let mut map: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
            for run in runs.iter().filter(|r| r.workload == workload && r.trace) {
                if let Some((_, v)) = run.metrics.iter().find(|(n, _)| n == metric) {
                    map.entry(run.seed).or_default().push(*v);
                }
            }
            map
        };
        for metric in EXACT_COUNTERS {
            let (ca, cb) = (by_seed(a, metric), by_seed(b, metric));
            for (seed, values) in &ca {
                let Some(others) = cb.get(seed) else { continue };
                let all = values.iter().chain(others);
                let identical = all.clone().all(|v| v.to_bits() == values[0].to_bits());
                if !identical {
                    bad = true;
                }
                let _ = writeln!(
                    out,
                    "{workload:<18} {metric:<26} seed {seed}: {} ({})",
                    if identical { "identical" } else { "differs" },
                    all.map(|v| json_f64(*v)).collect::<Vec<_>>().join(" "),
                );
            }
        }
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]).unwrap();
        assert_eq!(q, [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]).unwrap(), [1.0, 2.0, 3.0]);
        assert!(quartiles(&[1.0]).is_none());
    }

    fn run(workload: &str, value: f64) -> FileRun {
        FileRun {
            workload: workload.to_string(),
            seed: 1,
            trace: false,
            metrics: vec![("qps".to_string(), value)],
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let rule = [Bound {
            name: "qps".to_string(),
            lower_is_better: false,
            bound: 0.08,
        }];
        let steady: Vec<FileRun> = [100.0, 101.0, 99.0, 100.5].map(|v| run("w", v)).into();
        let slower: Vec<FileRun> = [80.0, 81.0, 79.0, 80.5].map(|v| run("w", v)).into();
        let noisy: Vec<FileRun> = [100.0, 130.0, 80.0, 101.0].map(|v| run("w", v)).into();
        assert!(compare(&steady, &steady, &rule).0.contains("same"));
        let (table, bad) = compare(&steady, &slower, &rule);
        assert!(bad && table.contains("worse"));
        let (table, bad) = compare(&steady, &noisy, &rule);
        assert!(!bad && table.contains("unresolved"));
    }
}
