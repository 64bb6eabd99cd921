//! Turns a run's outcome into named metrics, and prints them.

use crate::data::K;
use crate::workloads::{Index, Inputs, Kind, Outcome};
use iq_engine::AccessMethod;
use iq_obs::{Snapshot, PHASES};

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Printed for a reader, not part of the result line.
    pub notes: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
}

impl Report {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        if !value.is_finite() {
            self.problems.push(format!("{name} is {value}"));
        }
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn note(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.notes.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The human-readable lines, then the one-line JSON result last.
    pub fn print(&self) {
        for m in self.metrics.iter().chain(&self.notes) {
            println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for p in &self.problems {
            println!("  problem: {p}");
        }
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        println!("  {:<40} {:>16.6} ratio", "failed_frac", failed_frac);
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Every digit of `v` (Rust's shortest round-trip form), as JSON; a
/// non-finite value, already reported as a problem, prints as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile (0 for no samples).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The fastest repetition of each distinct request (round, on the update
/// workload), where `f(i)` is what the run's `i`-th request took. A run
/// cycles through its distinct requests, so each repeats at moments spread
/// over the run. On a shared machine a neighbour's burst slows stretches
/// of a run by 20 to 40%; the fastest repetition of a request comes from a
/// moment that was quiet for it, and measures this program rather than the
/// neighbour. A change that slows a request slows each of its repetitions.
fn fastest(out: &Outcome, n: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; out.distinct.max(1)];
    let cycle = best.len();
    for i in 0..n {
        let b = &mut best[i % cycle];
        *b = b.min(f(i));
    }
    best.retain(|b| b.is_finite());
    best
}

/// Queries per busy second, each request at its fastest repetition.
pub fn qps(out: &Outcome) -> f64 {
    let at = &out.busy_at;
    let busy = fastest(out, at.len(), |i| {
        at[i] - if i == 0 { 0.0 } else { at[i - 1] }
    });
    let queries = busy.len() as u64 * out.queries_per_request;
    ratio(queries as f64, busy.iter().sum())
}

/// Median request latency, each request at its fastest repetition.
fn latency_p50(out: &Outcome) -> f64 {
    median(&fastest(out, out.latencies.len(), |i| out.latencies[i]))
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn ms(secs: f64) -> f64 {
    secs * 1e3
}

/// Index bytes over the user's bytes (n points of 4·d bytes).
pub fn index_bytes_per_user_byte(index: &Index) -> f64 {
    let user = (index.tree.len() * 4 * index.tree.dim()) as f64;
    ratio(index.file_bytes() as f64, user)
}

/// Per-phase simulated times must add up to the window's simulated total.
pub fn check_phase_sum(out: &Outcome, report: &mut Report) {
    let w = &out.window;
    let sum = w.phases.total_sim();
    if (sum - w.sim_s).abs() > 1e-9 * w.sim_s.abs().max(1e-12) {
        report.problems.push(format!(
            "phase sim times sum to {sum} s, the queries' clocks to {} s",
            w.sim_s
        ));
    }
}

/// The end-to-end metrics of an untraced run.
/// `index_bytes` and `peak_rss_mb` are read right after the timed loop.
pub fn end_to_end(
    kind: Kind,
    setups: &[f64],
    out: &Outcome,
    dim: usize,
    index_bytes: f64,
    peak_rss_mb: f64,
    report: &mut Report,
) {
    let w = &out.window;
    let q = w.queries.max(1) as f64;
    report.push("setup_s", median(setups), "s");
    report.push("qps", qps(out), "1/s");
    report.push("latency_p50_ms", ms(latency_p50(out)), "ms");
    report.push("sim_ms_per_query", ms(w.sim_s) / q, "sim_ms");
    report.push("recall_at_10", w.recall_sum / q, "ratio");
    report.push("index_bytes_per_user_byte", index_bytes, "ratio");
    report.push("peak_rss_mb", peak_rss_mb, "MiB");
    // Printed with its sample count but not in the result line: on a
    // shared two-core host its run-to-run spread exceeds any allowed bound.
    report.note("latency_p99_ms", ms(quantile(&out.latencies, 0.99)), "ms");
    report.note("latency_samples", out.latencies.len() as f64, "count");
    report.note("queries", out.queries as f64, "count");
    report.note("setups", setups.len() as f64, "count");
    if kind == Kind::UniformUpdateMix {
        update_notes(out, dim, report);
    }
}

/// `update_p50_ms`, `update_p99_ms` and `wal_bytes_per_user_byte` of the
/// update workload (0 elsewhere).
fn write_path(out: &Outcome, dim: usize) -> [(&'static str, f64); 3] {
    let user_bytes = out.window.commits as f64 * (4 * dim) as f64;
    [
        ("p50_ms", ms(quantile(&out.update_lat, 0.5))),
        ("p99_ms", ms(quantile(&out.update_lat, 0.99))),
        (
            "wal_bytes_per_user_byte",
            ratio(out.window.wal.bytes as f64, user_bytes),
        ),
    ]
}

/// The write-path metrics of the update workload, printed beside the
/// end-to-end ones.
fn update_notes(out: &Outcome, dim: usize, report: &mut Report) {
    let [p50, p99, wal] = write_path(out, dim);
    report.note("update_p50_ms", p50.1, "ms");
    report.note("update_p99_ms", p99.1, "ms");
    report.note("update_samples", out.update_lat.len() as f64, "count");
    report.note(wal.0, wal.1, "ratio");
    report.note("checkpoints", out.checkpoint_lat.len() as f64, "count");
}

/// The per-layer metrics of a traced run. `registry` is what the global
/// registry recorded during the timed loop; `untraced_qps` comes from the
/// same workload run with tracing off.
pub fn per_layer(
    kind: Kind,
    inputs: &Inputs,
    out: &Outcome,
    index: &Index,
    registry: &Snapshot,
    untraced_qps: f64,
    report: &mut Report,
) -> Result<(), String> {
    let w = &out.window;
    let q = w.queries.max(1) as f64;
    let all_q = out.queries.max(1) as f64;
    let opts = kind.options();

    // iq-tree build / open.
    report.push("tree.build_s", index.build_s, "s");
    report.push("tree.open_s", index.open_s, "s");
    let pages = index.tree.pages();
    report.push("tree.pages", pages.len() as f64, "count");
    let live: Vec<f64> = pages
        .iter()
        .filter(|p| p.count > 0)
        .map(|p| f64::from(p.g))
        .collect();
    report.push(
        "tree.quant_bits_mean",
        ratio(live.iter().sum(), live.len() as f64),
        "bits",
    );

    // iq-tree search phases.
    for p in PHASES {
        let i = p.index();
        report.push(
            format!("phase.{}.wall_ms", p.name()),
            ms(w.phases.wall[i]) / q,
            "ms/query",
        );
        report.push(
            format!("phase.{}.sim_ms", p.name()),
            ms(w.phases.sim[i]) / q,
            "sim_ms/query",
        );
    }

    // iq-engine executor.
    let t = &w.trace;
    report.push(
        "engine.pages_per_query",
        t.pages_processed as f64 / q,
        "count/query",
    );
    report.push(
        "engine.refinements_per_query",
        t.refinements as f64 / q,
        "count/query",
    );
    report.push("engine.runs_per_query", t.runs as f64 / q, "count/query");
    report.push(
        "engine.candidates_skipped_per_query",
        t.candidates_skipped as f64 / q,
        "count/query",
    );
    report.push(
        "engine.terminated_early_frac",
        t.terminated_early as f64 / q,
        "ratio",
    );
    report.push(
        "engine.refine_yield",
        ratio(w.results as f64, t.refinements as f64),
        "ratio",
    );

    // iq-quantize kernel.
    report.push(
        "quantize.page_scan_mentries_s",
        crate::layers::page_scan_mentries_s(index, &inputs.queries)?,
        "Mentries/s",
    );

    // iq-storage device stack, from the dev_<level>_<stage>_* registry.
    let counter = |name: String| registry.counters.get(&name).copied().unwrap_or(0) as f64;
    let hist_sum = |name: String| registry.histograms.get(&name).map_or(0.0, |h| h.sum);
    for level in ["dir", "quant", "exact"] {
        let raw_s = hist_sum(format!("dev_{level}_raw_read_seconds"));
        let checksum_s = hist_sum(format!("dev_{level}_checksum_read_seconds"));
        report.push(
            format!("storage.{level}.raw_reads"),
            counter(format!("dev_{level}_raw_reads_total")) / all_q,
            "count/query",
        );
        report.push(
            format!("storage.{level}.raw_blocks"),
            counter(format!("dev_{level}_raw_blocks_read_total")) / all_q,
            "count/query",
        );
        report.push(
            format!("storage.{level}.raw_read_s"),
            raw_s / all_q,
            "s/query",
        );
        report.push(
            format!("storage.{level}.checksum_self_s"),
            (checksum_s - raw_s) / all_q,
            "s/query",
        );
        report.push(
            format!("storage.{level}.cache_read_s"),
            hist_sum(format!("dev_{level}_cache_read_seconds")) / all_q,
            "s/query",
        );
    }
    report.push(
        "storage.crc32_mb_s",
        crate::layers::crc32_mb_s(index)?,
        "MB/s",
    );

    // iq-storage simulated clock.
    report.push("sim.seeks_per_query", w.io.seeks as f64 / q, "count/query");
    report.push(
        "sim.blocks_per_query",
        w.io.blocks_read as f64 / q,
        "count/query",
    );
    report.push("sim.io_ms_per_query", ms(w.io_s) / q, "sim_ms/query");
    report.push("sim.cpu_ms_per_query", ms(w.cpu_s) / q, "sim_ms/query");
    let wall_per_query = out.latencies.iter().sum::<f64>() / all_q;
    report.push(
        "sim.wall_ratio",
        ratio(w.sim_s / q, wall_per_query),
        "ratio",
    );

    // iq-cache.
    let lookups = (w.io.cache_hits + w.io.cache_misses) as f64;
    report.push(
        "cache.hit_rate",
        ratio(w.io.cache_hits as f64, lookups),
        "ratio",
    );
    report.push("cache.misses", w.io.cache_misses as f64 / q, "count/query");

    // iq-wal and iq-tree::durability (zero on the read-only workloads).
    let commits = w.commits as f64;
    let all_commits = out.commits as f64;
    let [p50, p99, wal] = write_path(out, index.tree.dim());
    report.push(
        "wal.appends_per_op",
        ratio(w.wal.appends as f64, commits),
        "count/op",
    );
    report.push(
        "wal.bytes_per_op",
        ratio(w.wal.bytes as f64, commits),
        "B/op",
    );
    report.push(
        "wal.append_ms",
        ratio(ms(out.wal.append_s), all_commits),
        "ms/op",
    );
    report.push(
        "wal.sync_ms",
        ratio(ms(out.wal.sync_s), all_commits),
        "ms/op",
    );
    report.push("wal.bytes_per_user_byte", wal.1, "ratio");
    report.push("update.p50_ms", p50.1, "ms");
    report.push("update.p99_ms", p99.1, "ms");
    report.push("update.apply_ms", ms(median(&out.update_apply)), "ms");
    report.push("durability.checkpoint_s", median(&out.checkpoint_lat), "s");
    let wasted: Vec<f64> = w.wasted_blocks.iter().map(|&b| b as f64).collect();
    report.push(
        "durability.wasted_exact_blocks",
        ratio(wasted.iter().sum(), wasted.len() as f64),
        "blocks",
    );

    // iq-cost: observed over predicted pages.
    let predicted = index
        .tree
        .cost_prediction(K, &opts)
        .map_or(0.0, |p| p.pages);
    report.push(
        "cost.pages_ratio",
        ratio(t.pages_processed as f64 / q, predicted),
        "ratio",
    );

    // Tracing overhead.
    let traced_qps = qps(out);
    report.push("trace.qps", traced_qps, "1/s");
    report.push(
        "trace.overhead_frac",
        ratio(untraced_qps - traced_qps, untraced_qps),
        "ratio",
    );
    Ok(())
}
