//! Runs every workload in the small mode and checks the result line
//! against BENCHMARK.json: every named metric is emitted with its unit,
//! and no operation failed.

use iq_obs::JsonValue;
use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["cad-batch", "cad-stream-approx", "uniform-update-mix"];

/// `(name, unit)` of every metric in one list of BENCHMARK.json.
fn declared(list: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let spec = iq_obs::json::parse(&text).expect("BENCHMARK.json is JSON");
    spec.get(list)
        .and_then(JsonValue::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run_small(workload: &str, trace: &str) -> JsonValue {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0.4"])
        .args(["--trace", trace, "--small"])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    iq_obs::json::parse(last).expect("result line is JSON")
}

fn check(trace: &str, list: &str) {
    let want = declared(list);
    for w in WORKLOADS {
        let result = run_small(w, trace);
        assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)), "{w}");
        assert_eq!(
            result.get("failed").and_then(JsonValue::as_u64),
            Some(0),
            "{w}"
        );
        assert!(
            result.get("attempted").and_then(JsonValue::as_u64) > Some(0),
            "{w}"
        );
        let metrics = result
            .get("metrics")
            .and_then(JsonValue::as_obj)
            .expect("metrics");
        let got: Vec<(String, String)> = metrics
            .iter()
            .map(|(name, m)| {
                let unit = m.get("unit").and_then(JsonValue::as_str).expect("unit");
                assert!(
                    m.get("value").and_then(JsonValue::as_f64).is_some(),
                    "{w} {name}"
                );
                (name.clone(), unit.to_string())
            })
            .collect();
        assert_eq!(got, want, "{w} trace {trace}");
    }
}

#[test]
fn untraced_runs_emit_every_end_to_end_metric() {
    check("0", "end_to_end");
}

#[test]
fn traced_runs_emit_every_per_layer_metric() {
    check("1", "per_layer");
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .output()
        .expect("run perfbench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
