//! Every workload at a tiny fixed scale, timed and traced: the contract's
//! output shape holds, every metric `BENCHMARK.json` names is emitted
//! once with its unit, and the answers are right. Numbers from this
//! scale are never reported anywhere.

use earthmover_e2e::json::{self, Value};
use earthmover_e2e::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeSet;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one of `BENCHMARK.json`'s lists.
fn declared(doc: &Value, list: &str) -> Vec<(String, String)> {
    doc.get(list)
        .expect("metric list")
        .items()
        .iter()
        .map(|m| {
            let text = |key| m.get(key).and_then(Value::as_str).expect(key).to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn benchmark_json_and_the_harness_name_the_same_things() {
    let doc = benchmark_json();
    for (list, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let in_code: Vec<(String, String)> = table
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(declared(&doc, list), in_code, "{list} drifted from spec.rs");
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .expect("workloads")
        .items()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    let in_code: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(workloads, in_code);
    let mut seen = BTreeSet::new();
    for (name, _) in declared(&doc, "end_to_end")
        .into_iter()
        .chain(declared(&doc, "per_layer"))
    {
        assert!(well_formed(&name), "bad metric name {name:?}");
        assert!(seen.insert(name.clone()), "{name} is declared twice");
    }
    assert!(
        declared(&doc, "end_to_end")
            .iter()
            .any(|(n, u)| n == "setup_s" && u == "s"),
        "the contract requires setup_s"
    );
}

#[test]
fn every_workload_emits_every_metric_at_tiny_scale() {
    let doc = benchmark_json();
    for workload in WORKLOADS {
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_e2e"))
                .args([
                    "--workload",
                    workload.name,
                    "--seed",
                    "3",
                    "--seconds",
                    "0.5",
                ])
                .args(["--trace", trace, "--rows", "600", "--queries", "20"])
                .output()
                .expect("e2e runs");
            let stdout = String::from_utf8_lossy(&output.stdout);
            let context = format!(
                "{} --trace {trace}\n{stdout}\n{}",
                workload.name,
                String::from_utf8_lossy(&output.stderr)
            );
            let line = stdout
                .lines()
                .last()
                .unwrap_or_else(|| panic!("no output: {context}"));
            let result = json::parse(line).unwrap_or_else(|e| panic!("{e}: {context}"));
            let Value::Obj(keys) = &result else {
                panic!("result is not an object: {context}")
            };
            let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
            assert_eq!(
                keys,
                ["attempted", "correct", "failed", "metrics"],
                "{context}"
            );
            assert_eq!(
                result.get("failed").and_then(Value::as_f64),
                Some(0.0),
                "{context}"
            );
            assert!(
                result.get("attempted").and_then(Value::as_f64) >= Some(1.0),
                "{context}"
            );
            // The traced run's budget check is about timing, which this
            // scale is too small to make steady; its answers still count.
            if trace == "0" {
                assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{context}");
                assert!(output.status.success(), "{context}");
            }
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                panic!("no metrics: {context}")
            };
            let want = declared(&doc, list);
            assert_eq!(metrics.len(), want.len(), "{context}");
            for (name, unit) in want {
                let metric = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{name} missing: {context}"));
                let value = metric.get("value").and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{name} is not finite: {context}"
                );
                assert_eq!(
                    metric.get("unit").and_then(Value::as_str),
                    Some(unit.as_str()),
                    "{name}"
                );
                if list == "end_to_end" {
                    assert!(value > Some(0.0), "{name} must never be 0: {context}");
                }
            }
        }
    }
}
