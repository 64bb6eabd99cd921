//! End-to-end smoke test of the observability surface: `iq query
//! --trace` phase breakdowns and `--trace-tree`/`--trace-json` span
//! trees, `iq explain [--analyze]` cost predictions, `iq stats
//! --format prometheus|json` registry exposition, the slow-query log and
//! telemetry window behind `iq stats --slow`/`--window`, and the global
//! `--metrics-json` flag. Library-level tests pin the tentpole
//! invariants: span-tree phase leaves sum *exactly* to the flat
//! [`PhaseTimes`] breakdown, and the multi-query shared walk attributes
//! per-query counters that reconcile with single-query traces.

use std::path::PathBuf;
use std::process::Command;

fn iq() -> Command {
    Command::new(env!("CARGO_BIN_EXE_iq"))
}

/// A fresh directory namespaced per test, so tests running in parallel
/// inside one harness process cannot race on it.
fn temp_dir_named(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iq-obs-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Builds a small on-disk index and returns its directory.
fn build_index(dir: &std::path::Path) -> PathBuf {
    let csv = dir.join("pts.csv");
    let idx = dir.join("idx");
    let out = iq()
        .args(["generate", "--kind", "uniform", "--dim", "6", "--n", "3000"])
        .args(["--seed", "5", "--out", csv.to_str().expect("utf8")])
        .output()
        .expect("run generate");
    assert!(out.status.success());
    let out = iq()
        .args(["build", "--input", csv.to_str().expect("utf8")])
        .args(["--index", idx.to_str().expect("utf8"), "--block", "2048"])
        .output()
        .expect("run build");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    idx
}

#[test]
fn query_trace_phases_sum_to_total() {
    let dir = temp_dir_named("trace");
    let idx = build_index(&dir);
    let out = iq()
        .args(["query", "--index", idx.to_str().expect("utf8")])
        .args(["--point", "0.4,0.5,0.6,0.4,0.5,0.6", "--k", "5", "--trace"])
        .output()
        .expect("run query --trace");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for phase in ["directory", "plan", "filter", "refine", "topk"] {
        assert!(
            stdout.contains(phase),
            "missing phase {phase} in:\n{stdout}"
        );
    }
    // Acceptance: the phase times must sum to within 5% of the total
    // simulated query time. The sum line prints the attributed share.
    let attributed: f64 = stdout
        .lines()
        .find(|l| l.contains("% attributed"))
        .and_then(|l| l.split('(').nth(1))
        .and_then(|t| t.split('%').next())
        .and_then(|t| t.trim().parse().ok())
        .unwrap_or_else(|| panic!("no attributed percentage in:\n{stdout}"));
    assert!(
        (attributed - 100.0).abs() <= 5.0,
        "phase sum covers {attributed}% of the query time:\n{stdout}"
    );
    assert!(stdout.contains("pages processed"), "{stdout}");
    assert!(stdout.contains("cost model: predicted"), "{stdout}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn stats_exports_registry_in_both_formats() {
    let dir = temp_dir_named("stats");
    let idx = build_index(&dir);

    let out = iq()
        .args(["stats", "--index", idx.to_str().expect("utf8")])
        .args(["--format", "prometheus"])
        .output()
        .expect("run stats prometheus");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let prom = String::from_utf8_lossy(&out.stdout);
    assert!(
        prom.contains("# TYPE dev_dir_raw_reads_total counter"),
        "{prom}"
    );
    assert!(prom.contains("# TYPE index_points gauge"), "{prom}");
    assert!(prom.contains("index_points 3000"), "{prom}");
    assert!(
        prom.contains("dev_dir_raw_read_seconds_bucket{le="),
        "{prom}"
    );

    let out = iq()
        .args(["stats", "--index", idx.to_str().expect("utf8")])
        .args(["--format", "json"])
        .output()
        .expect("run stats json");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = String::from_utf8_lossy(&out.stdout);
    for key in [
        "\"counters\"",
        "\"gauges\"",
        "\"histograms\"",
        "\"index_points\"",
    ] {
        assert!(json.contains(key), "missing {key} in:\n{json}");
    }
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "unbalanced JSON:\n{json}"
    );

    let out = iq()
        .args(["stats", "--index", idx.to_str().expect("utf8")])
        .args(["--format", "yaml"])
        .output()
        .expect("run stats with bad format");
    assert!(!out.status.success(), "unknown format must fail");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn metrics_json_flag_writes_registry_snapshot() {
    let dir = temp_dir_named("metrics");
    let idx = build_index(&dir);
    let path = dir.join("metrics.json");
    let out = iq()
        .args(["query", "--index", idx.to_str().expect("utf8")])
        .args(["--point", "0.1,0.9,0.1,0.9,0.1,0.9", "--k", "2"])
        .args(["--cache-blocks", "32"])
        .args(["--metrics-json", path.to_str().expect("utf8")])
        .output()
        .expect("run query with --metrics-json");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&path).expect("metrics file written");
    // Schema: the three top-level sections, per-layer device metrics for
    // every index level and the cache counters plumbed from CachedDevice.
    for key in [
        "\"counters\"",
        "\"gauges\"",
        "\"histograms\"",
        "dev_dir_raw_reads_total",
        "dev_quant_checksum_reads_total",
        "dev_exact_cache_reads_total",
        "cache_hits_total",
        "cache_misses_total",
        "\"p50\"",
        "\"buckets\"",
    ] {
        assert!(json.contains(key), "missing {key} in metrics file:\n{json}");
    }
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

// ---------------------------------------------------------------------
// Library-level tentpole invariants.

use iqtree_repro::engine::{AccessMethod, QueryOptions, QueryTrace};
use iqtree_repro::geometry::Metric;
use iqtree_repro::storage::{BlockDevice, MemDevice, SimClock};
use iqtree_repro::{build_engine, data, EngineKind};

fn small_workload() -> (iqtree_repro::geometry::Dataset, Vec<Vec<f32>>) {
    let w = data::Workload::generate(1_500, 4, |n| data::cad_like(8, n, 91));
    let queries: Vec<Vec<f32>> = w.queries.iter().map(<[f32]>::to_vec).collect();
    (w.db, queries)
}

fn build(kind: EngineKind, ds: &iqtree_repro::geometry::Dataset) -> Box<dyn AccessMethod> {
    let mut clock = SimClock::default();
    let mut dev = || -> Box<dyn BlockDevice> { Box::new(MemDevice::new(4096)) };
    build_engine(kind, ds, Metric::Euclidean, &mut dev, &mut clock)
}

/// Tentpole acceptance: for every engine, the span tree's phase leaves
/// sum to the flat [`PhaseTimes`] breakdown within 1e-9 — both are fed
/// the same `(sim, wall)` deltas computed once in `phase_end`, so the
/// sim side is in fact *exact*.
#[test]
fn span_tree_phase_leaves_sum_to_flat_phase_times() {
    let (ds, queries) = small_workload();
    for kind in EngineKind::ALL {
        let eng = build(kind, &ds);
        let mut clock = SimClock::default();
        clock.enable_tracing();
        let (hits, _) =
            eng.knn_opts_traced(&mut clock, &queries[0], 10, None, &QueryOptions::EXACT);
        assert_eq!(hits.len(), 10);
        let flat = clock.phase_times();
        let tree = clock.take_trace().expect("tracing was on");
        let (sim, wall) = tree.phase_totals();
        for i in 0..5 {
            assert!(
                (sim[i] - flat.sim[i]).abs() <= 1e-9,
                "{}: phase {i} sim leaves {} != flat {}",
                eng.name(),
                sim[i],
                flat.sim[i]
            );
            assert!(
                (wall[i] - flat.wall[i]).abs() <= 1e-9,
                "{}: phase {i} wall leaves {} != flat {}",
                eng.name(),
                wall[i],
                flat.wall[i]
            );
        }
        // The engine span carries the query's name and its k attr.
        let span = &tree.root.children[0];
        assert_eq!(span.name, eng.name());
        assert!(span.attrs.iter().any(|(k, v)| k == "k" && v == "10"));
    }
}

/// Satellite acceptance: the multi-query shared walk's per-query
/// attribution reconciles three ways — each per-query child span carries
/// exactly that query's [`QueryTrace`] counters, the children sum to the
/// aggregate the parent span reports, and each per-query trace equals
/// what the same query produces when run alone.
#[test]
fn knn_multi_opts_traced_attributes_per_query_counters() {
    let (ds, queries) = small_workload();
    let eng = build(EngineKind::IqTree, &ds);
    let qrefs: Vec<&[f32]> = queries.iter().map(Vec::as_slice).collect();

    // Ground truth: each query alone, fresh cold clock.
    let solo: Vec<(Vec<(u32, f64)>, QueryTrace)> = qrefs
        .iter()
        .map(|q| {
            let mut c = SimClock::default();
            eng.knn_opts_traced(&mut c, q, 5, None, &QueryOptions::EXACT)
        })
        .collect();

    let mut clock = SimClock::default();
    clock.enable_tracing();
    let multi = eng.knn_multi_opts_traced(&mut clock, &qrefs, 5, None, &QueryOptions::EXACT);
    let flat = clock.phase_times();
    let tree = clock.take_trace().expect("tracing was on");

    // Results match the single-query runs exactly. Counters need not be
    // identical — the shared walk visits pages in page order for the
    // whole batch, so a query may process a page it would have pruned
    // (or never reached) alone — but each per-query trace must still be
    // a plausible account of the same search: at least as many pages
    // touched as the solo run needed.
    assert_eq!(multi.len(), solo.len());
    for ((mh, mt), (sh, st)) in multi.iter().zip(&solo) {
        assert_eq!(mh, sh, "shared walk must return single-query results");
        assert!(
            mt.pages_processed + mt.pages_skipped >= st.pages_processed,
            "shared walk accounts for at least the solo working set"
        );
    }

    // The shared walk records one batch span holding the phase leaves
    // plus one zero-duration "query" child per query, in order.
    let span = &tree.root.children[0];
    assert_eq!(span.name, "iqtree_multi");
    assert!(span
        .attrs
        .iter()
        .any(|(k, v)| k == "queries" && v == &qrefs.len().to_string()));
    let per_query: Vec<&iqtree_repro::obs::TraceNode> =
        span.children.iter().filter(|c| c.name == "query").collect();
    assert_eq!(per_query.len(), qrefs.len());
    for (qi, (node, (_, trace))) in per_query.iter().zip(&multi).enumerate() {
        assert!(
            node.attrs
                .iter()
                .any(|(k, v)| k == "index" && v == &qi.to_string()),
            "query child {qi} must carry its index"
        );
        for (name, want) in trace.fields() {
            let got = node
                .counters
                .iter()
                .find(|(k, _)| k == name)
                .map_or(0, |(_, v)| *v);
            assert_eq!(got, want, "query {qi} counter {name}");
        }
    }
    // Children sum to the parent's aggregate counters.
    for (name, total) in per_query.iter().flat_map(|n| n.counters.iter()).fold(
        std::collections::BTreeMap::new(),
        |mut m, (k, v)| {
            *m.entry(k.clone()).or_insert(0u64) += v;
            m
        },
    ) {
        let parent = span
            .counters
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |(_, v)| *v);
        assert_eq!(parent, total, "parent aggregate for {name}");
    }
    // And the shared-walk phase leaves still sum to the flat breakdown.
    let (sim, _) = tree.phase_totals();
    for (i, leaf_sum) in sim.iter().enumerate() {
        assert!((leaf_sum - flat.sim[i]).abs() <= 1e-9, "phase {i}");
    }
}

// ---------------------------------------------------------------------
// CLI surfaces: --trace-json, explain --analyze, stats --slow/--window.

/// The `--trace-json` artifact is well-formed Chrome trace-event JSON:
/// a `traceEvents` array of complete `"ph": "X"` events whose root span
/// duration equals the query's simulated time.
#[test]
fn trace_json_is_chrome_trace_event_format() {
    let dir = temp_dir_named("chrome");
    let idx = build_index(&dir);
    let path = dir.join("trace.json");
    let out = iq()
        .args(["query", "--index", idx.to_str().expect("utf8")])
        .args(["--point", "0.4,0.5,0.6,0.4,0.5,0.6", "--k", "5"])
        .args(["--trace-json", path.to_str().expect("utf8")])
        .output()
        .expect("run query --trace-json");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let doc = iqtree_repro::obs::json::parse(&text).expect("valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(events.len() >= 3, "root + engine span + phase leaves");
    for ev in events {
        assert_eq!(ev.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert!(ev.get("name").and_then(|v| v.as_str()).is_some());
        assert!(ev.get("ts").and_then(|v| v.as_f64()).is_some());
        assert!(ev.get("dur").and_then(|v| v.as_f64()).is_some());
        assert!(ev.get("pid").is_some() && ev.get("tid").is_some());
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// `iq explain --analyze` on the CAD fixture stays within the PR 5
/// cost-audit band: predicted pages within 3x of observed either way.
#[test]
fn explain_analyze_stays_within_cost_band() {
    let dir = temp_dir_named("explain");
    let idx = dir.join("idx");
    let out = iq()
        .args(["build", "--input", "tests/fixtures/cad600_8d.fvecs"])
        .args(["--index", idx.to_str().expect("utf8")])
        .output()
        .expect("run build");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = iq()
        .args(["explain", "--index", idx.to_str().expect("utf8")])
        .args(["--k", "10", "--analyze", "--json"])
        .args(["--point", "0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5"])
        .output()
        .expect("run explain --analyze");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let doc = iqtree_repro::obs::json::parse(text.trim()).expect("valid JSON");
    let explain = doc.get("explain").expect("explain object");
    let predicted = explain
        .get("predicted")
        .and_then(|p| p.get("pages"))
        .and_then(|v| v.as_f64())
        .expect("predicted pages");
    let observed = explain
        .get("observed")
        .and_then(|p| p.get("pages"))
        .and_then(|v| v.as_f64())
        .expect("observed pages");
    assert!(observed >= 1.0, "the query must read pages: {text}");
    let ratio = predicted / observed;
    assert!(
        (1.0 / 3.0..=3.0).contains(&ratio),
        "predicted/observed pages {ratio:.3} outside the 3x band: {text}"
    );
    assert!(explain.get("audit").is_some(), "audit errors present");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// `iq bench` persists the slow-query log and telemetry snapshots, the
/// JSON report leads with provenance, and `iq stats --slow`/`--window`
/// read the artifacts back.
#[test]
fn bench_persists_slow_log_and_telemetry_for_stats() {
    let dir = temp_dir_named("bench");
    let fixture = std::fs::canonicalize("tests/fixtures/cad600_8d.fvecs").expect("fixture");
    let out = iq()
        .current_dir(&dir)
        .args(["bench", "--input", fixture.to_str().expect("utf8")])
        .args(["--queries", "8", "--json", "--date", "2026-08-08"])
        .output()
        .expect("run bench --json");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = String::from_utf8_lossy(&out.stdout);
    let first = report.trim_start_matches('[');
    assert!(
        first.starts_with("{\"engine\":\"provenance\""),
        "provenance must lead the report: {report}"
    );
    for key in [
        "\"commit\"",
        "\"kernel\"",
        "\"simd_code\"",
        "\"available_cores\"",
        "\"date\": \"2026-08-08\"",
    ] {
        assert!(report.contains(key), "missing {key} in report:\n{report}");
    }
    // The kernel microbenchmarks ride along as their own rows.
    let doc = iqtree_repro::obs::json::parse(report.trim()).expect("valid JSON");
    let rows = doc.as_arr().expect("report is an array");
    let engine_is = |r: &iqtree_repro::obs::JsonValue, name: &str| {
        r.get("engine").and_then(|e| e.as_str()) == Some(name)
    };
    let filter = rows
        .iter()
        .find(|r| engine_is(r, "kernel-filter"))
        .expect("kernel-filter row");
    assert!(filter.get("filter_points_per_sec").and_then(|v| v.as_f64()) > Some(0.0));
    let multiq: Vec<u64> = rows
        .iter()
        .filter(|r| engine_is(r, "page_scan_multiq"))
        .map(|r| r.get("q").and_then(|q| q.as_u64()).expect("q"))
        .collect();
    assert_eq!(multiq, [1, 4, 16], "page_scan_multiq rows");
    assert!(dir.join("iq-slowlog.json").is_file());
    assert!(dir.join("iq-telemetry.json").is_file());

    let out = iq()
        .current_dir(&dir)
        .args(["stats", "--slow"])
        .output()
        .expect("run stats --slow");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let slow = String::from_utf8_lossy(&out.stdout);
    assert!(slow.contains("retained"), "{slow}");
    assert!(slow.contains("sim "), "entries render trace trees: {slow}");

    let out = iq()
        .current_dir(&dir)
        .args(["stats", "--window", "4"])
        .output()
        .expect("run stats --window");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let window = String::from_utf8_lossy(&out.stdout);
    assert!(window.contains("sample(s) spanning"), "{window}");
    assert!(window.contains("rates:"), "{window}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
