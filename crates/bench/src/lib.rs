//! Experiment harness reproducing the IQ-tree paper's evaluation
//! (Section 4, Figures 7–12) plus a Figure-1 fetch-strategy ablation and
//! the VA-file bits sweep the paper describes in its Section 4.2 setup.
//!
//! One binary regenerates the figures: `cargo run --release -p iq-bench
//! --bin all_figures` runs them all, and `-- figN` runs one. Reported
//! times are *simulated* seconds (disk model + CPU model), which is the
//! quantity the paper's own cost argument is written in; see DESIGN.md.
//!
//! Setting the environment variable `IQ_QUICK=1` shrinks data sizes and
//! query counts by ~10× for smoke runs and CI.
//!
//! Besides the figures, [`provenance`] holds the run header `iq bench`
//! shares.
//! Wall-clock performance of whole workloads on real index files is
//! measured by the separate `perfbench` package at the repository root,
//! the one benchmark CI runs.

#![forbid(unsafe_code)]

pub mod ablations;
pub mod figures;
pub mod provenance;

use iq_data::Workload;
use iq_engine::{AccessMethod, Query};
use iq_geometry::{Dataset, Metric};
use iq_scan::SeqScan;
use iq_storage::{BlockDevice, CpuModel, DiskModel, MemDevice, SimClock};
use iq_tree::{IqTree, IqTreeOptions};
use iq_vafile::VaFile;
use iq_xtree::XTree;

/// Experiment configuration shared by all figures.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Disk timing model.
    pub disk: DiskModel,
    /// CPU timing model.
    pub cpu: CpuModel,
    /// Number of query points averaged per data point.
    pub queries: usize,
    /// RNG seed for data generation.
    pub seed: u64,
    /// Divide data sizes by this factor (quick mode).
    pub scale_div: usize,
}

impl Config {
    /// The paper-scale configuration; honors `IQ_QUICK=1`.
    pub fn from_env() -> Self {
        let quick = std::env::var("IQ_QUICK").map(|v| v == "1").unwrap_or(false);
        Self {
            disk: DiskModel::default(),
            cpu: CpuModel::default(),
            queries: if quick { 10 } else { 50 },
            seed: 20_000_626, // ICDE 2000, San Diego
            scale_div: if quick { 10 } else { 1 },
        }
    }

    /// A small fixed configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            disk: DiskModel::default(),
            cpu: CpuModel::default(),
            queries: 5,
            seed: 7,
            scale_div: 1,
        }
    }

    /// Applies the quick-mode scale divisor.
    pub fn scaled(&self, n: usize) -> usize {
        (n / self.scale_div).max(1_000)
    }

    fn clock(&self) -> SimClock {
        SimClock::new(self.disk, self.cpu)
    }

    fn make_dev(&self) -> Box<dyn BlockDevice> {
        Box::new(MemDevice::new(self.disk.block_size))
    }
}

/// The data distributions of the evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataKind {
    /// Uniform in the unit cube.
    Uniform,
    /// CAD analogue (moderately clustered Fourier coefficients).
    Cad,
    /// COLOR analogue (slightly clustered histograms).
    Color,
    /// WEATHER analogue (highly clustered, low fractal dimension).
    Weather,
}

impl DataKind {
    /// Generates `n` points of this kind.
    pub fn generate(self, dim: usize, n: usize, seed: u64) -> Dataset {
        match self {
            DataKind::Uniform => iq_data::uniform(dim, n, seed),
            DataKind::Cad => iq_data::cad_like(dim, n, seed),
            DataKind::Color => iq_data::color_like(dim, n, seed),
            DataKind::Weather => iq_data::weather_like(dim, n, seed),
        }
    }

    /// Builds a database + query workload of this kind.
    pub fn workload(self, dim: usize, n: usize, queries: usize, seed: u64) -> Workload {
        Workload::generate(n, queries, |total| self.generate(dim, total, seed))
    }
}

/// Averaged per-query measurements of one method on one workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Average simulated total time per query, seconds.
    pub total: f64,
    /// Average simulated disk time, seconds.
    pub io: f64,
    /// Average simulated CPU time, seconds.
    pub cpu: f64,
    /// Average random seeks.
    pub seeks: f64,
    /// Average blocks read.
    pub blocks: f64,
}

/// Runs `query` once per query point with a clock reset in between and
/// averages the simulated costs.
pub fn measure(
    queries: &Dataset,
    clock: &mut SimClock,
    mut query: impl FnMut(&mut SimClock, &[f32]),
) -> RunStats {
    let mut acc = RunStats::default();
    let nq = queries.len() as f64;
    for q in queries.iter() {
        clock.reset();
        query(clock, q);
        acc.total += clock.total_time();
        acc.io += clock.io_time();
        acc.cpu += clock.cpu_time();
        acc.seeks += clock.stats().seeks as f64;
        acc.blocks += clock.stats().blocks_read as f64;
    }
    acc.total /= nq;
    acc.io /= nq;
    acc.cpu /= nq;
    acc.seeks /= nq;
    acc.blocks /= nq;
    acc
}

/// Measures NN queries against any engine through the unified
/// [`AccessMethod`] trait — the single query loop every figure runner
/// funnels through.
pub fn measure_method(
    queries: &Dataset,
    clock: &mut SimClock,
    method: &dyn AccessMethod,
) -> RunStats {
    measure(queries, clock, |c, q| {
        method.run(c, &Query::knn(q, 1)).expect("valid query");
    })
}

/// Builds an IQ-tree (estimating the fractal dimension from the data, as
/// the automatic adaptation the paper advertises) and measures NN queries.
pub fn run_iqtree(cfg: &Config, w: &Workload, opts: IqTreeOptions) -> RunStats {
    let mut opts = opts;
    if opts.fractal_dim.is_none() {
        opts.fractal_dim = Some(iq_data::correlation_dimension_auto(&w.db));
    }
    let mut clock = cfg.clock();
    let tree = IqTree::build(
        &w.db,
        Metric::Euclidean,
        opts,
        || cfg.make_dev(),
        &mut clock,
    );
    measure_method(&w.queries, &mut clock, &tree)
}

/// Builds an X-tree and measures NN queries.
pub fn run_xtree(cfg: &Config, w: &Workload) -> RunStats {
    let mut clock = cfg.clock();
    let tree = XTree::build(
        &w.db,
        Metric::Euclidean,
        cfg.make_dev(),
        cfg.make_dev(),
        &mut clock,
    );
    measure_method(&w.queries, &mut clock, &tree)
}

/// Builds a VA-file at a fixed number of bits and measures NN queries.
pub fn run_vafile(cfg: &Config, w: &Workload, bits: u32) -> RunStats {
    let mut clock = cfg.clock();
    let va = VaFile::build(
        &w.db,
        Metric::Euclidean,
        bits,
        cfg.make_dev(),
        cfg.make_dev(),
        &mut clock,
    );
    measure_method(&w.queries, &mut clock, &va)
}

/// The paper's VA-file protocol: try 2–8 bits per dimension, report the
/// best ("we first tested the VA-file with different numbers of bits ...
/// and then selected the compression rate for which the VA-file performed
/// best"). The sweep selects on a query subsample, then the winner is
/// measured on the full query set. Returns `(best_bits, stats_at_best)`.
pub fn run_vafile_best(cfg: &Config, w: &Workload) -> (u32, RunStats) {
    let probe_queries = 10.min(w.queries.len());
    let mut probe = w.clone();
    let keep = probe.queries.len() - probe_queries;
    probe.queries.split_off_tail(keep);
    let probe_cfg = Config {
        queries: probe_queries,
        ..*cfg
    };
    let best_bits = (2..=8u32)
        .map(|bits| (bits, run_vafile(&probe_cfg, &probe, bits).total))
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN"))
        .expect("non-empty bits range")
        .0;
    (best_bits, run_vafile(cfg, w, best_bits))
}

/// Builds the sequential-scan file and measures NN queries.
pub fn run_scan(cfg: &Config, w: &Workload) -> RunStats {
    let mut clock = cfg.clock();
    let scan = SeqScan::build(&w.db, Metric::Euclidean, cfg.make_dev(), &mut clock);
    measure_method(&w.queries, &mut clock, &scan)
}

/// A printed experiment table: an x-axis column plus one column per
/// series.
#[derive(Clone, Debug)]
pub struct Table {
    /// Figure title (printed as a header).
    pub title: String,
    /// X-axis label (e.g. "dim" or "N").
    pub x_label: String,
    /// Series names.
    pub series: Vec<String>,
    /// Rows: x value plus one measurement per series.
    pub rows: Vec<(String, Vec<f64>)>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: &str, x_label: &str, series: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            x_label: x_label.to_string(),
            series: series.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, x: impl ToString, values: Vec<f64>) {
        assert_eq!(values.len(), self.series.len());
        self.rows.push((x.to_string(), values));
    }

    /// Renders the table as aligned text (the format EXPERIMENTS.md
    /// embeds).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.title);
        let width = 14usize;
        let _ = write!(out, "{:<10}", self.x_label);
        for s in &self.series {
            let _ = write!(out, "{s:>width$}");
        }
        let _ = writeln!(out);
        for (x, vals) in &self.rows {
            let _ = write!(out, "{x:<10}");
            for v in vals {
                let _ = write!(out, "{v:>width$.4}");
            }
            let _ = writeln!(out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_workload() -> Workload {
        DataKind::Uniform.workload(6, 3_000, 5, 1)
    }

    #[test]
    fn all_runners_produce_positive_costs() {
        let cfg = Config::tiny();
        let w = tiny_workload();
        for stats in [
            run_iqtree(&cfg, &w, IqTreeOptions::default()),
            run_xtree(&cfg, &w),
            run_vafile(&cfg, &w, 4),
            run_scan(&cfg, &w),
        ] {
            assert!(stats.total > 0.0);
            assert!(stats.io > 0.0);
            assert!(stats.seeks >= 1.0);
            assert!((stats.total - (stats.io + stats.cpu)).abs() < 1e-12);
        }
    }

    #[test]
    fn vafile_best_picks_a_valid_bits() {
        let cfg = Config::tiny();
        let w = tiny_workload();
        let (bits, stats) = run_vafile_best(&cfg, &w);
        assert!((2..=8).contains(&bits));
        assert!(stats.total > 0.0);
    }

    #[test]
    fn scan_cost_is_flat_across_queries() {
        // Every scan query reads the whole file: identical I/O cost.
        let cfg = Config::tiny();
        let w = tiny_workload();
        let s = run_scan(&cfg, &w);
        let blocks = cfg.disk.blocks_for(3_000 * 6 * 4);
        assert!((s.blocks - blocks as f64).abs() < 1e-9);
        assert!((s.seeks - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table_renders() {
        let mut t = Table::new("Demo", "dim", &["a", "b"]);
        t.push_row(4, vec![0.5, 1.25]);
        let s = t.render();
        assert!(s.contains("# Demo"));
        assert!(s.contains("0.5000"));
        assert!(s.contains("1.2500"));
    }
}
