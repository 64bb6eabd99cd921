//! `iq` — command-line driver for the IQ-tree reproduction.
//!
//! ```text
//! iq generate --kind uniform --dim 8 --n 10000 --seed 1 --out points.csv
//! iq build    --input points.csv --index ./myindex [--block 8192] [--metric l2|linf|l1]
//! iq query    --index ./myindex --point 0.1,0.2,... [--k 5] [--trace] [--cache-blocks 256]
//! iq range    --index ./myindex --point 0.1,0.2,... --radius 0.25
//! iq batch    --index ./myindex --queries q.csv [--k 5] [--threads 8]
//! iq stats    --index ./myindex [--format prometheus|json]
//! iq checkpoint --index ./myindex
//! iq recover  --index ./myindex [--dry-run]
//! ```
//!
//! Points are CSV rows of `f32` coordinates. An index is a directory with
//! three block files (`dir.bin`, `quant.bin`, `exact.bin`), a write-ahead
//! log (`wal.bin`) and a small `meta` file recording dimension, metric and
//! block size. Opening an index replays any committed transactions the log
//! holds and drops torn tails, so a crash mid-update is invisible to
//! queries. Query timings printed are *simulated* disk+CPU seconds (see
//! the crate docs).

use iqtree_repro::data;
use iqtree_repro::engine::{
    run_threaded, AccessMethod, Filter, PageSpec, Query, QueryOptions, QueryTrace,
};
use iqtree_repro::geometry::Metric;
use iqtree_repro::storage::{
    BlockDevice, FileDevice, FileWal, MemDevice, MmapFileDevice, SimClock,
};
use iqtree_repro::tree::{IqTree, IqTreeOptions, RecoveryReport};
use iqtree_repro::EngineKind;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Every report goes through [`emit`]: `out!` is `print!`, `outln!` is
/// `println!`.
macro_rules! out {
    ($($arg:tt)*) => { emit(format_args!($($arg)*)) };
}

macro_rules! outln {
    () => { emit(format_args!("\n")) };
    ($($arg:tt)*) => { emit(format_args!("{}\n", format_args!($($arg)*))) };
}

/// Writes report text to stdout. A reader that closes the pipe early
/// (`iq bench | head -5`) has taken all it wants, so the program ends
/// there with success; any other write error ends it with one error line.
fn emit(args: std::fmt::Arguments) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: write to stdout: {e}");
        std::process::exit(1);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let opts = match parse_flags(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    // Metrics must be enabled *before* any index is built or opened:
    // the device stacks only insert their observation layers when the
    // global registry is already recording at construction time.
    let metrics_json = opts.get("metrics-json").cloned();
    if metrics_json.is_some() {
        iqtree_repro::obs::global().set_enabled(true);
    }
    let result = match cmd.as_str() {
        "generate" => cmd_generate(&opts),
        "ingest" => cmd_ingest(&opts),
        "build" => cmd_build(&opts),
        "query" => cmd_query(&opts),
        "explain" => cmd_explain(&opts),
        "range" => cmd_range(&opts),
        "batch" => cmd_batch(&opts),
        "stats" => cmd_stats(&opts),
        "verify" => cmd_verify(&opts),
        "checkpoint" => cmd_checkpoint(&opts),
        "recover" => cmd_recover(&opts),
        "bench" => cmd_bench(&opts),
        _ => {
            eprintln!("error: unknown command `{cmd}`\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = metrics_json {
        let json = iqtree_repro::obs::global().to_json();
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("error: write metrics to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  iq generate --kind <uniform|cad|color|weather> --dim <d> --n <count> [--seed <s>] --out <file> [--format <csv|fvecs>]
  iq ingest   --input <file.fvecs|bvecs|csv> [--out <file.fvecs|csv>] [--block <bytes>]
  iq build    --input <file> --index <dir> [--block <bytes>] [--metric <l2|linf|l1>]
  iq query    --index <dir> --point <x,y,...> [--k <k>] [--filter <expr>] [--limit <m>] [--offset <o>] [--epsilon <e>] [--nprobes <p>] [--refine-factor <f>] [--budget-ms <ms>] [--trace] [--trace-tree] [--trace-json <path>] [--cache-blocks <frames>] [--engine <e>]
  iq explain  --index <dir> [--k <k>] [--engine <e>] [--epsilon <e>] [--nprobes <p>] [--refine-factor <f>] [--budget-ms <ms>] [--filter <expr>] [--analyze --point <x,y,...>] [--json]
  iq range    --index <dir> --point <x,y,...> --radius <r> [--cache-blocks <frames>] [--engine <e>]
  iq batch    --index <dir> --queries <file> [--k <k>] [--filter <expr>] [--limit <m>] [--offset <o>] [--epsilon <e>] [--nprobes <p>] [--refine-factor <f>] [--budget-ms <ms>] [--threads <t>] [--cache-blocks <frames>] [--engine <e>]
  iq stats    --index <dir> [--format <prometheus|json>] [--cache-blocks <frames>]
  iq stats    --slow [--slow-log <path>]
  iq verify   --index <dir>
  iq checkpoint --index <dir>
  iq recover  --index <dir> [--dry-run]
  iq bench    --input <file> [--queries <q>] [--metric <l2|linf|l1>] [--json]
              [--date <yyyy-mm-dd>]

Vector files may be CSV (plain rows, or `[x,y,...],attr,...` literals with
an optional `# attrs: name,...` header), fvecs or bvecs — the format is
chosen by extension. `iq ingest` validates a file through the real-file
block device and optionally converts it.
--engine selects the access method: iqtree (default, opens the persisted
index at --index) or one of the baselines vafile, xtree, scan, which are
rebuilt in memory from --input <file> (they have no on-disk format).
--filter answers the k nearest neighbors *satisfying* a predicate over the
dataset's attribute columns — `col in v1,v2`, `col range lo..hi` or
`col = v` — and needs --input <file> for the columns (a dataset without
any gains a synthesized `mod10` column, id modulo 10). k counts
post-filter results; --limit/--offset slice the canonically ordered
(distance, then id) result list, so disjoint offsets paginate cleanly.
--cache-blocks puts an LRU buffer pool of that many frames in front of each
index file; without it every query is cold, as in the paper's experiments.
Approximate k-NN (query/batch; defaults are exact): --epsilon <e> allows a
(1+e)x relative error for early termination, --nprobes <p> caps the
approximation-level candidates probed (pages, or VA-file entries),
--refine-factor <f> caps exact-point look-ups at k*f (f=1 is unlimited),
--budget-ms <ms> returns the best answer within a simulated-time budget.
--trace prints the per-phase time breakdown of the query and, where the
engine has a cost model, predicted vs observed cost. --trace-tree prints
the hierarchical span tree of the query (phase leaves sum exactly to the
flat phase breakdown); --trace-json <path> writes the same tree in Chrome
trace-event format, loadable in Perfetto / chrome://tracing.
`iq explain` prints the engine's cost-model prediction for a k-NN query
under the given knobs *without running it*; with --analyze (and --point)
the query also runs and predicted vs observed are compared side by side.
`iq stats --slow` prints the retained slow-query log (written by
`iq bench` as iq-slowlog.json, 1-in-N sampled trace trees, the top-K
slowest by simulated and by wall time kept).
--metrics-json <path> (any command) enables the global metrics registry and
writes its JSON snapshot to <path> on exit.
`iq checkpoint` folds the write-ahead log into the base files (reclaiming
orphaned exact-level blocks), truncates the log and bumps the index
generation. `iq recover` replays any committed transactions left in the
log and drops torn tails; with --dry-run it only scans and describes what
recovery *would* do, mutating nothing.";

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("expected a --flag, got `{flag}`"));
        };
        // A flag followed by another flag (or by nothing) is boolean.
        match it.peek() {
            Some(next) if !next.starts_with("--") => {
                out.insert(name.to_string(), it.next().expect("peeked").clone());
            }
            _ => {
                out.insert(name.to_string(), "1".to_string());
            }
        }
    }
    Ok(out)
}

fn req<'a>(opts: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    opts.get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{name}"))
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what}: `{s}`"))
}

fn parse_metric(opts: &HashMap<String, String>) -> Result<Metric, String> {
    match opts.get("metric").map(String::as_str).unwrap_or("l2") {
        "l2" => Ok(Metric::Euclidean),
        "linf" => Ok(Metric::Maximum),
        "l1" => Ok(Metric::Manhattan),
        other => Err(format!("unknown metric `{other}` (use l2, linf or l1)")),
    }
}

fn parse_cache_blocks(opts: &HashMap<String, String>) -> Result<Option<usize>, String> {
    match opts.get("cache-blocks") {
        Some(s) => {
            let frames: usize = parse_num(s, "--cache-blocks")?;
            if frames == 0 {
                return Err("--cache-blocks needs at least one frame".into());
            }
            Ok(Some(frames))
        }
        None => Ok(None),
    }
}

fn parse_point(s: &str) -> Result<Vec<f32>, String> {
    s.split(',')
        .map(|t| match parse_num::<f32>(t.trim(), "coordinate")? {
            x if x.is_finite() => Ok(x),
            _ => Err(format!("non-finite coordinate: `{}`", t.trim())),
        })
        .collect()
}

/// Reads a vector file of any supported format (by extension), attribute
/// columns included.
fn load_vectors(path: &str) -> Result<data::VectorDataset, String> {
    data::read_auto(Path::new(path)).map_err(|e| format!("read {path}: {e}"))
}

/// Guarantees at least one attribute column to filter on: a dataset
/// without any (fvecs/bvecs files, plain CSV) gains the synthesized
/// `mod10` column — id modulo 10 — so filtered workloads run on every
/// input format.
fn ensure_attrs(vd: &mut data::VectorDataset) {
    if vd.attrs.names().is_empty() {
        let mut attrs = data::AttrTable::with_columns(vec!["mod10".into()]);
        for id in 0..vd.points.len() {
            attrs.push_row(&[(id % 10) as i64]);
        }
        vd.attrs = attrs;
    }
}

/// Compiles `--filter <expr>` against the attribute columns of the
/// `--input` dataset (required: the persisted index stores no attributes).
fn build_filter(
    expr: &str,
    opts: &HashMap<String, String>,
    engine_len: usize,
) -> Result<Filter, String> {
    let pred = data::Predicate::parse(expr)?;
    let input = req(opts, "input")
        .map_err(|_| "--filter needs --input <file> for the attribute columns".to_string())?;
    let mut vd = load_vectors(input)?;
    ensure_attrs(&mut vd);
    if vd.points.len() != engine_len {
        return Err(format!(
            "--input holds {} points but the engine indexes {engine_len}",
            vd.points.len()
        ));
    }
    pred.compile(&vd.attrs)
}

/// The approximation knobs of a query command (`--epsilon`, `--nprobes`,
/// `--refine-factor`, `--budget-ms`); all default to the exact search. The
/// engine checks their ranges with the rest of the query.
fn parse_query_opts(opts: &HashMap<String, String>) -> Result<QueryOptions, String> {
    let mut qopts = QueryOptions::EXACT;
    if let Some(s) = opts.get("epsilon") {
        qopts.epsilon = parse_num(s, "--epsilon")?;
    }
    if let Some(s) = opts.get("nprobes") {
        qopts.nprobes = Some(parse_num(s, "--nprobes")?);
    }
    if let Some(s) = opts.get("refine-factor") {
        qopts.refine_factor = parse_num(s, "--refine-factor")?;
    }
    if let Some(s) = opts.get("budget-ms") {
        let ms: f64 = parse_num(s, "--budget-ms")?;
        qopts.time_budget = Some(ms / 1e3);
    }
    Ok(qopts)
}

/// The `k`/`--limit`/`--offset` triple of a query command.
fn parse_page(opts: &HashMap<String, String>) -> Result<PageSpec, String> {
    Ok(PageSpec {
        k: opts.get("k").map_or(Ok(1), |s| parse_num(s, "--k"))?,
        offset: opts
            .get("offset")
            .map_or(Ok(0), |s| parse_num(s, "--offset"))?,
        limit: opts
            .get("limit")
            .map(|s| parse_num(s, "--limit"))
            .transpose()?,
    })
}

fn cmd_generate(opts: &HashMap<String, String>) -> Result<(), String> {
    let kind = req(opts, "kind")?;
    let dim: usize = parse_num(req(opts, "dim")?, "--dim")?;
    let n: usize = parse_num(req(opts, "n")?, "--n")?;
    let seed: u64 = opts.get("seed").map_or(Ok(1), |s| parse_num(s, "--seed"))?;
    let out = req(opts, "out")?;
    let ds = match kind {
        "uniform" => data::uniform(dim, n, seed),
        "cad" => data::cad_like(dim, n, seed),
        "color" => data::color_like(dim, n, seed),
        "weather" => data::weather_like(dim, n, seed),
        other => return Err(format!("unknown kind `{other}`")),
    };
    let format = match opts.get("format").map(String::as_str) {
        Some(f) => f.to_string(),
        None if out.ends_with(".fvecs") => "fvecs".into(),
        None => "csv".into(),
    };
    match format.as_str() {
        "csv" => data::write_csv(Path::new(out), &ds)?,
        "fvecs" => {
            data::write_fvecs(Path::new(out), &ds).map_err(|e| format!("write {out}: {e}"))?;
        }
        other => return Err(format!("unknown format `{other}` (use csv or fvecs)")),
    }
    outln!(
        "wrote {} points of dimension {dim} to {out} ({format})",
        ds.len()
    );
    Ok(())
}

/// Validates a real vector file by pulling its raw bytes through the
/// read-only [`MmapFileDevice`] (so the scan's simulated I/O cost is
/// reported) and decoding them, then prints a summary and optionally
/// converts to another format.
fn cmd_ingest(opts: &HashMap<String, String>) -> Result<(), String> {
    let input = req(opts, "input")?;
    let block: usize = opts
        .get("block")
        .map_or(Ok(4096), |s| parse_num(s, "--block"))?;
    let path = Path::new(input);
    let dev = MmapFileDevice::open(path, block).map_err(|e| format!("open {input}: {e}"))?;
    let mut clock = SimClock::default();
    let mut bytes = dev
        .read_to_vec(&mut clock, 0, dev.num_blocks())
        .map_err(|e| format!("read {input}: {e}"))?;
    bytes.truncate(dev.file_len() as usize);
    let ext = path.extension().and_then(|e| e.to_str()).unwrap_or("");
    let vd = match ext {
        "fvecs" => data::VectorDataset::bare(
            data::ingest::decode_fvecs(&bytes).map_err(|e| format!("{input}: {e}"))?,
        ),
        "bvecs" => data::VectorDataset::bare(
            data::ingest::decode_bvecs(&bytes).map_err(|e| format!("{input}: {e}"))?,
        ),
        // CSV has no bytes-level decoder entry point worth duplicating
        // here; the file was still verified readable through the device.
        _ => load_vectors(input)?,
    };
    let attr_names = if vd.attrs.names().is_empty() {
        "none".to_string()
    } else {
        vd.attrs.names().join(", ")
    };
    outln!(
        "{input}: {} points, {}-d, attributes: {attr_names}",
        vd.points.len(),
        vd.points.dim(),
    );
    outln!(
        "read {} blocks of {block} B via {} in {:.2} simulated ms",
        dev.num_blocks(),
        if dev.is_mapped() { "mmap" } else { "pread" },
        clock.total_time() * 1e3,
    );
    if let Some(out) = opts.get("out") {
        let outp = Path::new(out);
        match outp.extension().and_then(|e| e.to_str()).unwrap_or("") {
            "fvecs" => {
                data::write_fvecs(outp, &vd.points).map_err(|e| format!("write {out}: {e}"))?
            }
            "bvecs" => {
                data::write_bvecs(outp, &vd.points).map_err(|e| format!("write {out}: {e}"))?
            }
            _ => data::write_vec_csv(outp, &vd).map_err(|e| format!("write {out}: {e}"))?,
        }
        outln!("converted to {out}");
    }
    Ok(())
}

struct IndexMeta {
    dim: usize,
    metric: Metric,
    block: usize,
}

fn meta_path(index: &Path) -> PathBuf {
    index.join("meta")
}

fn save_meta(index: &Path, m: &IndexMeta) -> Result<(), String> {
    let metric = match m.metric {
        Metric::Euclidean => "l2",
        Metric::Maximum => "linf",
        Metric::Manhattan => "l1",
    };
    std::fs::write(
        meta_path(index),
        format!("dim={}\nmetric={metric}\nblock={}\n", m.dim, m.block),
    )
    .map_err(|e| format!("write meta: {e}"))
}

fn load_meta(index: &Path) -> Result<IndexMeta, String> {
    let text = std::fs::read_to_string(meta_path(index))
        .map_err(|e| format!("not an index directory ({e})"))?;
    let mut kv = HashMap::new();
    for line in text.lines() {
        if let Some((k, v)) = line.split_once('=') {
            kv.insert(k.to_string(), v.to_string());
        }
    }
    let dim = parse_num(kv.get("dim").ok_or("meta missing dim")?, "dim")?;
    let block = parse_num(kv.get("block").ok_or("meta missing block")?, "block")?;
    let metric = match kv.get("metric").map(String::as_str) {
        Some("l2") | None => Metric::Euclidean,
        Some("linf") => Metric::Maximum,
        Some("l1") => Metric::Manhattan,
        Some(other) => return Err(format!("meta has unknown metric `{other}`")),
    };
    Ok(IndexMeta { dim, metric, block })
}

const FILES: [&str; 3] = ["dir.bin", "quant.bin", "exact.bin"];
const WAL_FILE: &str = "wal.bin";

fn cmd_build(opts: &HashMap<String, String>) -> Result<(), String> {
    let input = req(opts, "input")?;
    let index = PathBuf::from(req(opts, "index")?);
    let block: usize = opts
        .get("block")
        .map_or(Ok(8192), |s| parse_num(s, "--block"))?;
    let metric = parse_metric(opts)?;
    let ds = load_vectors(input)?.points;
    std::fs::create_dir_all(&index).map_err(|e| format!("create {index:?}: {e}"))?;

    let mut clock = SimClock::default();
    let mut names = FILES.iter();
    let tree = IqTree::build(
        &ds,
        metric,
        IqTreeOptions::default(),
        || {
            let path = index.join(names.next().expect("three files"));
            Box::new(FileDevice::create(&path, block).expect("create index file"))
                as Box<dyn BlockDevice>
        },
        &mut clock,
    );
    save_meta(
        &index,
        &IndexMeta {
            dim: ds.dim(),
            metric,
            block,
        },
    )?;
    // An empty write-ahead log completes the index: from now on every
    // insert/delete is logged before it touches the base files.
    FileWal::open(&index.join(WAL_FILE)).map_err(|e| format!("create {WAL_FILE}: {e}"))?;
    let (d, q, e) = tree.storage_blocks();
    outln!(
        "built IQ-tree over {} points ({}-d): {} pages, resolutions {:?}",
        tree.len(),
        ds.dim(),
        tree.num_pages(),
        tree.bits_histogram(),
    );
    outln!(
        "storage: directory {d} + quantized {q} + exact {e} blocks of {block} B \
         (scanned level at {:.0}% of exact size)",
        tree.compression_ratio() * 100.0,
    );
    Ok(())
}

/// Opens the directory, quantized and exact files of `index` as raw
/// devices of `block`-byte blocks.
fn open_files(index: &Path, block: usize) -> Result<[Box<dyn BlockDevice>; 3], String> {
    let open = |name: &str| -> Result<Box<dyn BlockDevice>, String> {
        Ok(Box::new(
            FileDevice::open(&index.join(name), block).map_err(|e| format!("open {name}: {e}"))?,
        ))
    };
    Ok([open(FILES[0])?, open(FILES[1])?, open(FILES[2])?])
}

/// An opened index: the tree, a reset clock, the meta file and what
/// recovery did (`None` for an index without a write-ahead log).
type Opened = (IqTree, SimClock, IndexMeta, Option<RecoveryReport>);

/// Opens the index at `index`, recovering through its write-ahead log
/// when it has one.
fn open_tree(index: &Path, cache_blocks: Option<usize>) -> Result<Opened, String> {
    let meta = load_meta(index)?;
    let mut clock = SimClock::default();
    let opts = IqTreeOptions {
        cache_blocks,
        ..Default::default()
    };
    let wal_path = index.join(WAL_FILE);
    let [dir, quant, exact] = open_files(index, meta.block)?;
    let (tree, report) = if wal_path.exists() {
        // Recovery-on-open: replay committed transactions the log still
        // holds, drop torn tails, and keep the log attached for updates.
        let store = FileWal::open(&wal_path).map_err(|e| format!("open {WAL_FILE}: {e}"))?;
        let (tree, report) = IqTree::open_with_wal(
            meta.dim,
            meta.metric,
            opts,
            dir,
            quant,
            exact,
            Box::new(store),
            &mut clock,
        )
        .map_err(|e| format!("open index: {e}"))?;
        if !report.log_was_clean() {
            eprintln!(
                "recovery: replayed {} committed transaction(s) ({} frame(s)), \
                 discarded {} uncommitted byte(s)",
                report.replayed_txns, report.replayed_frames, report.discarded_bytes,
            );
        }
        (tree, Some(report))
    } else {
        // No log: a pre-WAL (format v2) index, opened read-only for
        // queries; updates require a rebuild to the current format.
        let tree = IqTree::open(meta.dim, meta.metric, opts, dir, quant, exact, &mut clock)
            .map_err(|e| format!("open index: {e}"))?;
        (tree, None)
    };
    clock.reset();
    Ok((tree, clock, meta, report))
}

fn parse_engine(opts: &HashMap<String, String>) -> Result<EngineKind, String> {
    match opts.get("engine") {
        Some(s) => s.parse(),
        None => Ok(EngineKind::IqTree),
    }
}

/// Resolves `--engine` to a ready-to-query [`AccessMethod`]: the IQ-tree
/// opens its persisted index; the baselines (which have no on-disk format)
/// are rebuilt in memory from `--input`. Returns the engine, a reset clock
/// and the dimensionality.
fn open_engine(
    opts: &HashMap<String, String>,
) -> Result<(Box<dyn AccessMethod>, SimClock), String> {
    let kind = parse_engine(opts)?;
    if kind == EngineKind::IqTree {
        let index = PathBuf::from(req(opts, "index")?);
        let (tree, clock, ..) = open_tree(&index, parse_cache_blocks(opts)?)?;
        return Ok((Box::new(tree), clock));
    }
    let input = req(opts, "input").map_err(|_| {
        format!(
            "--engine {} is rebuilt in memory: missing --input <file>",
            kind.name()
        )
    })?;
    let ds = load_vectors(input)?.points;
    let metric = parse_metric(opts)?;
    let mut clock = SimClock::default();
    let eng = iqtree_repro::build_engine(
        kind,
        &ds,
        metric,
        || Box::new(MemDevice::new(8192)),
        &mut clock,
    );
    clock.reset();
    Ok((eng, clock))
}

fn cmd_query(opts: &HashMap<String, String>) -> Result<(), String> {
    let point = parse_point(req(opts, "point")?)?;
    let page = parse_page(opts)?;
    let qopts = parse_query_opts(opts)?;
    let (eng, mut clock) = open_engine(opts)?;
    let filter = opts
        .get("filter")
        .map(|expr| build_filter(expr, opts, eng.len()))
        .transpose()?;
    let paged = filter.is_some() || page.offset > 0 || page.limit.is_some();
    let traced = opts.contains_key("trace");
    let trace_tree = opts.contains_key("trace-tree");
    let trace_json = opts.get("trace-json").cloned();
    if traced || trace_tree || trace_json.is_some() {
        clock.enable_tracing();
    }
    let query = Query::Knn {
        point: &point,
        k: page.k,
        filter: filter.as_ref(),
        opts: qopts,
    };
    let (hits, trace) = eng
        .run(&mut clock, &query)
        .map_err(|e| e.to_string())?
        .into_ranked();
    let hits = if paged { page.slice(hits) } else { hits };
    for (rank, (id, dist)) in hits.iter().enumerate() {
        outln!(
            "{:>3}. id {id:>8}  distance {dist:.6}",
            page.offset + rank + 1
        );
    }
    if let Some(f) = &filter {
        outln!(
            "-- filter matches {} of {} points (selectivity {:.3})",
            f.matching(),
            f.domain(),
            f.selectivity(),
        );
    }
    if !qopts.is_exact() {
        outln!(
            "-- approximate search ({}): {}",
            describe_query_opts(&qopts),
            if trace.terminated_early > 0 {
                "terminated early"
            } else {
                "knobs never fired (result is exact)"
            },
        );
    }
    outln!(
        "-- {} result(s) from {} in {:.2} simulated ms ({} seeks, {} blocks)",
        hits.len(),
        eng.name(),
        clock.total_time() * 1e3,
        clock.stats().seeks,
        clock.stats().blocks_read,
    );
    if traced {
        print_trace(eng.as_ref(), &clock, &trace, page.k, &qopts);
    }
    if let Some(tree) = clock.take_trace() {
        if traced {
            print_plan_cache(&tree.root);
            print_priority_list(&tree.root);
        }
        if trace_tree {
            out!("{}", tree.render_text());
        }
        if let Some(path) = trace_json {
            std::fs::write(&path, tree.to_chrome_json())
                .map_err(|e| format!("write {path}: {e}"))?;
            outln!(
                "-- wrote Chrome trace ({} span(s)) to {path}; load it in Perfetto or chrome://tracing",
                tree.root.node_count(),
            );
        }
    }
    Ok(())
}

/// Human-readable list of the non-default approximation knobs.
fn describe_query_opts(qopts: &QueryOptions) -> String {
    let mut parts = Vec::new();
    if qopts.epsilon > 0.0 {
        parts.push(format!("epsilon {}", qopts.epsilon));
    }
    if let Some(p) = qopts.nprobes {
        parts.push(format!("nprobes {p}"));
    }
    if qopts.refine_factor > 1 {
        parts.push(format!("refine-factor {}", qopts.refine_factor));
    }
    if let Some(b) = qopts.time_budget {
        parts.push(format!("budget {:.3} ms", b * 1e3));
    }
    parts.join(", ")
}

/// The `--trace` report: per-phase simulated/wall breakdown (the phase
/// sum equals the simulated total whenever every charge happened inside
/// a phase), the query's work counters, and — for engines with a cost
/// model — predicted vs observed page accesses and I/O time.
fn print_trace(
    eng: &dyn AccessMethod,
    clock: &SimClock,
    trace: &QueryTrace,
    k: usize,
    qopts: &QueryOptions,
) {
    let p = clock.phase_times();
    let total = clock.total_time();
    outln!("phase breakdown:          simulated        wall");
    for ph in iqtree_repro::obs::PHASES {
        outln!(
            "  {:<10} {:>16.4} ms {:>10.4} ms",
            ph.name(),
            p.sim[ph.index()] * 1e3,
            p.wall[ph.index()] * 1e3,
        );
    }
    let covered = if total > 0.0 {
        p.total_sim() / total * 100.0
    } else {
        100.0
    };
    outln!(
        "  {:<10} {:>16.4} ms of {:.4} ms total ({covered:.1}% attributed)",
        "sum",
        p.total_sim() * 1e3,
        total * 1e3,
    );
    outln!(
        "trace: {} pages processed, {} skipped, {} runs, {} refinements, {} approximations enqueued",
        trace.pages_processed,
        trace.pages_skipped,
        trace.runs,
        trace.refinements,
        trace.approx_enqueued,
    );
    if trace.degraded() {
        outln!(
            "       degraded: {} quantized fallbacks, {} pages lost, {} points skipped",
            trace.quant_fallbacks,
            trace.pages_lost,
            trace.points_skipped,
        );
    }
    if trace.terminated_early > 0 || trace.candidates_skipped > 0 {
        outln!(
            "       approximate: terminated early, {} candidate(s) skipped by knobs",
            trace.candidates_skipped,
        );
    }
    if let Some(pred) = eng.cost_prediction(k, qopts) {
        let ratio = trace.pages_processed as f64 / pred.pages.max(1e-12);
        outln!(
            "cost model: predicted {:.1} page accesses (observed {}, ratio {ratio:.2}), \
             predicted {:.2} ms I/O (observed {:.2} ms)",
            pred.pages,
            trace.pages_processed,
            pred.io_seconds * 1e3,
            clock.io_time() * 1e3,
        );
    }
}

/// The Section 2.1 plan's eq 5 cache, from a traced query's span
/// counters: the distributions the plan built and the fractions it read.
/// Prints nothing for a query that planned no page runs.
fn print_plan_cache(root: &iqtree_repro::obs::TraceNode) {
    let builds = root.counter_total("plan.builds");
    let reads = root.counter_total("plan.reads");
    if reads > 0 {
        outln!(
            "plan: {builds} eq 5 distribution(s) built for {reads} fraction read(s) \
             ({:.1}% read without a build)",
            (reads - builds) as f64 / reads as f64 * 100.0,
        );
    }
}

/// The IQ-tree's priority list, from a traced query's span counters: the
/// pages decoded and those held undecoded past U, the point
/// approximations under the pruning bound, and how many entered the list;
/// the rest were set aside, as they cannot become the pivot. Prints
/// nothing for an engine without the list.
fn print_priority_list(root: &iqtree_repro::obs::TraceNode) {
    let decoded = root.counter_total("filter.pages_decoded");
    let held = root.counter_total("filter.pages_held");
    if decoded + held > 0 {
        let unheld = root.counter_total("filter.pages_unheld");
        let after = if unheld > 0 {
            format!(" ({unheld} decoded after all)")
        } else {
            String::new()
        };
        outln!("pages: {decoded} decoded, {held} held past U{after}");
    }
    let pushed = root.counter_total("filter.pushed");
    if pushed + root.counter_total("filter.spilled") > 0 {
        outln!(
            "approximations: {} under the bound, {pushed} entered the priority list",
            root.counter_total("approx_enqueued"),
        );
    }
}

/// `iq explain`: the engine's cost-model prediction of a k-NN query under
/// the given knob/filter combination, *without executing it* — expected
/// filter-phase page accesses, expected exact-point refinements, and
/// simulated I/O time, phase by phase. With `--analyze` the query also
/// runs (needs `--point`) and predicted vs observed are printed side by
/// side and fed through a [`iqtree_repro::obs::CostAudit`].
fn cmd_explain(opts: &HashMap<String, String>) -> Result<(), String> {
    let page = parse_page(opts)?;
    let k = page.k;
    let qopts = parse_query_opts(opts)?;
    let analyze = opts.contains_key("analyze");
    let json = opts.contains_key("json");
    let (eng, mut clock) = open_engine(opts)?;
    let filter = opts
        .get("filter")
        .map(|expr| build_filter(expr, opts, eng.len()))
        .transpose()?;
    qopts.check().map_err(|e| e.to_string())?;
    let point = analyze
        .then(|| {
            req(opts, "point")
                .map_err(|_| "--analyze runs the query and needs --point <x,y,...>".to_string())
                .and_then(parse_point)
        })
        .transpose()?;
    let Some(pred) = eng.cost_prediction(k, &qopts) else {
        return Err(format!("engine {} has no cost model", eng.name()));
    };
    let knobs = describe_query_opts(&qopts);
    let observed = point
        .map(|point| {
            clock.enable_tracing();
            let query = Query::Knn {
                point: &point,
                k,
                filter: filter.as_ref(),
                opts: qopts,
            };
            eng.run(&mut clock, &query).map(|answer| answer.trace)
        })
        .transpose()
        .map_err(|e| e.to_string())?;
    let plan = clock.take_trace().map(|tree| {
        (
            tree.root.counter_total("plan.builds"),
            tree.root.counter_total("plan.reads"),
            tree.root.counter_total("filter.pushed"),
            tree.root.counter_total("filter.pages_held"),
        )
    });
    if json {
        let mut out = format!(
            "{{\"explain\":{{\"engine\":\"{}\",\"k\":{k},\"exact\":{},\
             \"predicted\":{{\"pages\":{:.6},\"filter_pages\":{:.6},\"refine_pages\":{:.6},\
             \"io_ms\":{:.6}}}",
            eng.name(),
            qopts.is_exact(),
            pred.pages,
            pred.filter_pages,
            pred.refine_pages,
            pred.io_seconds * 1e3,
        );
        if let Some(t) = &observed {
            let audit = explain_audit(&pred, t, &clock);
            let (builds, reads, pushes, held) = plan.unwrap_or_default();
            out.push_str(&format!(
                ",\"observed\":{{\"pages\":{},\"refinements\":{},\"io_ms\":{:.6},\
                 \"total_ms\":{:.6},\"plan_builds\":{builds},\"plan_reads\":{reads},\
                 \"heap_pushes\":{pushes},\"pages_held\":{held}}},\
                 \"audit\":{{\"pages_rel_err\":{:.6},\"io_rel_err\":{:.6}}}",
                t.pages_processed,
                t.refinements,
                clock.io_time() * 1e3,
                clock.total_time() * 1e3,
                audit.0,
                audit.1,
            ));
        }
        out.push_str("}}");
        outln!("{out}");
        return Ok(());
    }
    outln!(
        "explain: {} k-NN, k={k} ({})",
        eng.name(),
        if qopts.is_exact() {
            "exact".to_string()
        } else {
            knobs
        },
    );
    if let Some(f) = &filter {
        outln!(
            "  filter matches {} of {} points (selectivity {:.3}); the model \
             predicts the unfiltered search (a pushed-down filter only drops \
             candidates, it reads no extra pages)",
            f.matching(),
            f.domain(),
            f.selectivity(),
        );
    }
    outln!(
        "  predicted filter phase : {:.1} page access(es) (directory + approximation sweep)",
        pred.filter_pages,
    );
    outln!(
        "  predicted refine phase : {:.1} exact-point read(s)",
        pred.refine_pages,
    );
    outln!(
        "  predicted I/O          : {:.2} simulated ms",
        pred.io_seconds * 1e3,
    );
    if let Some(t) = &observed {
        let (pages_err, io_err) = explain_audit(&pred, t, &clock);
        outln!("analyze (ran the query):");
        outln!(
            "                         {:>12}  {:>12}",
            "predicted",
            "observed"
        );
        outln!(
            "  pages                  {:>12.1}  {:>12}",
            pred.pages,
            t.pages_processed,
        );
        outln!(
            "  refinements            {:>12.1}  {:>12}",
            pred.refine_pages,
            t.refinements,
        );
        outln!(
            "  I/O ms                 {:>12.2}  {:>12.2}",
            pred.io_seconds * 1e3,
            clock.io_time() * 1e3,
        );
        outln!(
            "  signed relative error: pages {pages_err:+.2}, io {io_err:+.2} \
             (prediction − observation, over observation)",
        );
        if let Some((builds, reads, pushes, held)) = plan {
            outln!("  plan                   {builds} eq 5 build(s), {reads} fraction read(s)");
            if held > 0 {
                outln!(
                    "  pages held past U      {held} of the {} observed",
                    t.pages_processed,
                );
            }
            if pushes > 0 {
                outln!(
                    "  priority list          {pushes} of {} approximation(s) pushed",
                    t.approx_enqueued,
                );
            }
        }
    }
    Ok(())
}

/// Feeds one predicted/observed pair into a [`iqtree_repro::obs::CostAudit`]
/// and returns the signed relative errors for (pages, io_seconds).
fn explain_audit(
    pred: &iqtree_repro::obs::CostPrediction,
    trace: &QueryTrace,
    clock: &SimClock,
) -> (f64, f64) {
    let mut audit = iqtree_repro::obs::CostAudit::new();
    audit.record("pages", pred.pages, trace.pages_processed as f64);
    audit.record("io_seconds", pred.io_seconds, clock.io_time());
    let pages_err = audit.relative_errors("pages")[0];
    let io_err = audit.relative_errors("io_seconds")[0];
    (pages_err, io_err)
}

fn cmd_range(opts: &HashMap<String, String>) -> Result<(), String> {
    let point = parse_point(req(opts, "point")?)?;
    let radius: f64 = parse_num(req(opts, "radius")?, "--radius")?;
    let (eng, mut clock) = open_engine(opts)?;
    let query = Query::Range {
        point: &point,
        radius,
    };
    let mut hits = eng
        .run(&mut clock, &query)
        .map_err(|e| e.to_string())?
        .ids();
    hits.sort_unstable();
    outln!("{} point(s) within {radius}", hits.len());
    for chunk in hits.chunks(10) {
        let row: Vec<String> = chunk.iter().map(u32::to_string).collect();
        outln!("  {}", row.join(" "));
    }
    outln!(
        "-- {:.2} simulated ms ({} seeks, {} blocks)",
        clock.total_time() * 1e3,
        clock.stats().seeks,
        clock.stats().blocks_read,
    );
    Ok(())
}

/// Runs a whole k-NN workload through the engine-layer batch executor
/// ([`run_threaded`]): the queries are CSV rows, fanned out over
/// `--threads` OS threads sharing one engine, each answer sliced to the
/// requested page. Reported costs are the fold of the per-query clocks and
/// are identical for every thread count; the summary puts the query
/// loop's wall time next to them. A query the engine rejects ends the
/// command with its error before anything is printed.
fn cmd_batch(opts: &HashMap<String, String>) -> Result<(), String> {
    let qfile = req(opts, "queries")?;
    let page = parse_page(opts)?;
    let qopts = parse_query_opts(opts)?;
    let threads: usize = opts
        .get("threads")
        .map_or(Ok(1), |s| parse_num(s, "--threads"))?;
    let (eng, mut clock) = open_engine(opts)?;
    let qs = load_vectors(qfile)?.points;
    let filter = opts
        .get("filter")
        .map(|expr| build_filter(expr, opts, eng.len()))
        .transpose()?;
    let paged = filter.is_some() || page.offset > 0 || page.limit.is_some();
    let queries: Vec<Query> = qs
        .iter()
        .map(|q| Query::Knn {
            point: q,
            k: page.k,
            filter: filter.as_ref(),
            opts: qopts,
        })
        .collect();
    let started = Instant::now();
    let answers = run_threaded(eng.as_ref(), &mut clock, &queries, threads);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let mut agg = QueryTrace::default();
    let mut results = Vec::with_capacity(answers.len());
    for answer in answers {
        let (hits, trace) = answer.map_err(|e| e.to_string())?.into_ranked();
        agg.merge(&trace);
        results.push(if paged { page.slice(hits) } else { hits });
    }
    for (i, hits) in results.iter().enumerate() {
        let row: Vec<String> = hits
            .iter()
            .map(|(id, dist)| format!("{id}:{dist:.6}"))
            .collect();
        outln!("query {i:>4}: {}", row.join(" "));
    }
    let nq = queries.len().max(1) as f64;
    if !qopts.is_exact() {
        outln!(
            "-- approximate search ({}): {} of {} queries terminated early, \
             {} candidate(s) skipped by knobs",
            describe_query_opts(&qopts),
            agg.terminated_early,
            queries.len(),
            agg.candidates_skipped,
        );
    }
    outln!(
        "-- {} queries against {} on {} thread(s): {:.2} simulated ms total \
         ({:.2} ms/query, {} seeks, {} blocks), wall {wall_ms:.2} ms ({:.3} ms/query)",
        queries.len(),
        eng.name(),
        threads.max(1),
        clock.total_time() * 1e3,
        clock.total_time() * 1e3 / nq,
        clock.stats().seeks,
        clock.stats().blocks_read,
        wall_ms / nq,
    );
    Ok(())
}

/// Scans every block of the three index files (per-block CRC32s, the
/// superblock, the directory payload checksum, page decodability) plus
/// the write-ahead log (frame CRCs, commit structure, torn tails) and
/// reports corruption; exits nonzero unless the index is fully intact.
fn cmd_verify(opts: &HashMap<String, String>) -> Result<(), String> {
    use iqtree_repro::tree::verify::{verify_index, verify_index_with_wal};

    let index = PathBuf::from(req(opts, "index")?);
    let meta = load_meta(&index)?;
    let mut clock = SimClock::default();
    let wal_path = index.join(WAL_FILE);
    let [dir, quant, exact] = open_files(&index, meta.block)?;
    let report = if wal_path.exists() {
        let image = std::fs::read(&wal_path).map_err(|e| format!("read {WAL_FILE}: {e}"))?;
        verify_index_with_wal(dir, quant, exact, &image, &mut clock)
    } else {
        verify_index(dir, quant, exact, &mut clock)
    };

    outln!("verify {index:?} (block size {} B)", meta.block);
    for (level, file) in report.levels.iter().zip(FILES) {
        let bad = level.corrupt_blocks.len();
        outln!(
            "  {:<10} {file:<10} {:>8} blocks   {:>4} checksum failure(s)",
            level.name,
            level.blocks,
            bad
        );
        for &b in &level.corrupt_blocks {
            outln!("      corrupt block {b}");
        }
    }
    match &report.superblock {
        Some(sb) => outln!(
            "  superblock: {} pages, {} points, dim {}, directory CRC {:#010x}",
            sb.n_pages,
            sb.n_points,
            sb.dim,
            sb.dir_crc
        ),
        None => outln!("  superblock: unreadable"),
    }
    for e in &report.errors {
        outln!("  error: {e}");
    }
    for &b in &report.undecodable_pages {
        outln!("  error: quantized block {b} passes its CRC but does not decode");
    }
    if let Some(wal) = &report.wal {
        outln!(
            "  wal: {} byte(s), {} frame(s), {} committed transaction(s), \
             {} uncommitted frame(s), {} torn byte(s)",
            wal.bytes,
            wal.frames,
            wal.committed_txns,
            wal.uncommitted_frames,
            wal.torn_bytes,
        );
        if let Some(r) = &wal.stop_reason {
            outln!("  wal: scan stopped early: {r}");
        }
        if !wal.is_clean() {
            outln!("  wal: needs recovery (`iq recover --index ...`)");
        }
    }
    if report.is_clean() {
        outln!("index is clean");
        Ok(())
    } else {
        Err(format!(
            "index is corrupt: {} bad block(s), {} structural error(s)",
            report.corrupt_blocks().len(),
            report.errors.len() + report.undecodable_pages.len(),
        ))
    }
}

/// Folds the write-ahead log into the base files: orphaned exact-level
/// blocks are reclaimed, the log is truncated to empty and the index
/// generation is bumped. A crash anywhere inside the checkpoint itself is
/// recovered like any other transaction.
fn cmd_checkpoint(opts: &HashMap<String, String>) -> Result<(), String> {
    let index = PathBuf::from(req(opts, "index")?);
    if !index.join(WAL_FILE).exists() {
        return Err(format!(
            "{index:?} has no write-ahead log ({WAL_FILE}): a pre-WAL index \
             must be rebuilt with `iq build` before it can checkpoint"
        ));
    }
    let (mut tree, mut clock, meta, _) = open_tree(&index, None)?;
    let wasted_before = tree.wasted_exact_blocks();
    let wal_before = tree.wal_bytes();
    let generation = tree
        .checkpoint(&mut clock)
        .map_err(|e| format!("checkpoint: {e}"))?;
    outln!(
        "checkpointed {index:?}: generation {generation}, folded {wal_before} WAL byte(s), \
         reclaimed {wasted_before} orphaned exact block(s) of {} B \
         ({:.2} simulated ms)",
        meta.block,
        clock.total_time() * 1e3,
    );
    Ok(())
}

/// Replays committed transactions left in the write-ahead log and drops
/// torn or uncommitted tails — exactly what every `iq` command does on
/// open, surfaced as an explicit command with a report. With `--dry-run`
/// the log is only scanned and described; nothing is mutated.
fn cmd_recover(opts: &HashMap<String, String>) -> Result<(), String> {
    let index = PathBuf::from(req(opts, "index")?);
    let wal_path = index.join(WAL_FILE);
    if !wal_path.exists() {
        return Err(format!("{index:?} has no write-ahead log ({WAL_FILE})"));
    }
    if opts.contains_key("dry-run") {
        let image = std::fs::read(&wal_path).map_err(|e| format!("read {WAL_FILE}: {e}"))?;
        let scan = iqtree_repro::wal::scan(&image);
        outln!(
            "dry run: {} byte(s) of log, {} whole frame(s), {} committed transaction(s)",
            image.len(),
            scan.frames,
            scan.txns.len(),
        );
        for t in &scan.txns {
            let head = t.records.first().map_or_else(
                || "(empty)".to_string(),
                iqtree_repro::wal::WalRecord::describe,
            );
            outln!("  txn {:>4}: {} record(s)  {head}", t.txn, t.records.len());
        }
        if !scan.uncommitted.is_empty() {
            outln!(
                "  would discard {} uncommitted frame(s) (bytes {}..{})",
                scan.uncommitted.len(),
                scan.committed_len,
                scan.valid_len,
            );
        }
        if scan.torn_bytes > 0 {
            outln!(
                "  would discard {} torn byte(s) at the tail{}",
                scan.torn_bytes,
                scan.stop_reason
                    .as_deref()
                    .map_or_else(String::new, |r| format!(" ({r})")),
            );
        }
        outln!(
            "recovery would replay {} transaction(s) and truncate the log to {} byte(s)",
            scan.txns.len(),
            scan.committed_len,
        );
        return Ok(());
    }
    // A plain open performs the actual recovery; report what it did.
    let (tree, _, _, report) = open_tree(&index, None)?;
    let report = report.unwrap_or_default();
    outln!(
        "recovered {index:?}: replayed {} transaction(s) ({} frame(s)), \
         discarded {} byte(s), log now {} byte(s), {} point(s) indexed",
        report.replayed_txns,
        report.replayed_frames,
        report.discarded_bytes,
        tree.wal_bytes(),
        tree.len(),
    );
    if report.log_was_clean() {
        outln!("log was already clean: nothing to do");
    }
    Ok(())
}

/// Races the IQ-tree against the X-tree, VA-file (model-chosen bits) and
/// sequential scan on the given points; the last `--queries` rows are held
/// out as the query workload. Every engine is built through the
/// [`iqtree_repro::build_engine_with`] factory and queried through
/// `&dyn AccessMethod`. With `--json`, emits one machine-readable object
/// per engine and workload instead of the text table, after a provenance
/// row. The sampled trace trees go to the slow-query log.
fn cmd_bench(opts: &HashMap<String, String>) -> Result<(), String> {
    use iqtree_repro::data::Workload;
    use iqtree_repro::{EngineKind, EngineOptions};

    let input = req(opts, "input")?;
    let queries: usize = opts
        .get("queries")
        .map_or(Ok(20), |s| parse_num(s, "--queries"))?;
    if queries == 0 {
        return Err("--queries must be at least 1".into());
    }
    let metric = parse_metric(opts)?;
    let json = opts.contains_key("json");
    let provenance = iq_bench::provenance::collect(opts.get("date").map(String::as_str));
    let slowlog = iqtree_repro::obs::SlowLog::global();
    let all = load_vectors(input)?.points;
    if all.len() <= queries {
        return Err(format!("need more than {queries} points for a benchmark"));
    }
    let w = Workload::split(all, queries);
    let dim = w.db.dim();
    let df = iqtree_repro::data::correlation_dimension_auto(&w.db);
    if !json {
        outln!(
            "{} points, {dim}-d, {queries} held-out queries, fractal dim ~ {df:.2}\n",
            w.db.len()
        );
    }

    let mut build_clock = SimClock::default();
    let bits = iqtree_repro::vafile::auto_bits(build_clock.disk(), build_clock.cpu(), &w.db, df);
    let display = |kind: EngineKind| -> String {
        match kind {
            EngineKind::IqTree => "IQ-tree".into(),
            EngineKind::XTree => "X-tree".into(),
            EngineKind::VaFile => format!("VA-file (auto: {bits} bits)"),
            EngineKind::Scan => "sequential scan".into(),
        }
    };
    let eng_opts = EngineOptions {
        iq: IqTreeOptions {
            fractal_dim: Some(df),
            ..Default::default()
        },
        va_bits: Some(bits),
    };
    // Both workloads query the same four engines, built once, in order.
    let engines: Vec<_> = EngineKind::ALL
        .into_iter()
        .map(|kind| {
            let eng = iqtree_repro::build_engine_with(
                kind,
                &w.db,
                metric,
                eng_opts.clone(),
                || Box::new(MemDevice::new(8192)),
                &mut build_clock,
            );
            (kind, eng)
        })
        .collect();

    let mut clock = SimClock::default();
    // Provenance leads the JSON report: every committed BENCH artifact
    // records what produced it before any numbers.
    let mut json_rows: Vec<String> = vec![format!(
        "{{\"engine\":\"provenance\",\"provenance\":{}}}",
        provenance.to_json()
    )];
    for (kind, eng) in &engines {
        let mut total = 0.0;
        let mut seeks = 0u64;
        let mut blocks = 0u64;
        for (qi, q) in w.queries.iter().enumerate() {
            clock.reset();
            if slowlog.should_sample() {
                clock.enable_tracing();
            }
            eng.run(&mut clock, &Query::knn(q, 1))
                .map_err(|e| e.to_string())?;
            total += clock.total_time();
            seeks += clock.stats().seeks;
            blocks += clock.stats().blocks_read;
            if let Some(tree) = clock.take_trace() {
                slowlog.offer(&format!("{}/nn/q{qi}", eng.name()), tree);
            }
        }
        let nq = w.queries.len() as f64;
        if json {
            json_rows.push(format!(
                "{{\"engine\":\"{}\",\"dataset\":\"{}\",\"queries\":{},\"ms_per_query\":{:.6},\
                 \"seeks_per_query\":{:.3},\"blocks_per_query\":{:.3}}}",
                eng.name(),
                input.replace('\\', "\\\\").replace('"', "\\\""),
                w.queries.len(),
                total / nq * 1e3,
                seeks as f64 / nq,
                blocks as f64 / nq,
            ));
        } else {
            outln!(
                "{:<28} {:>9.2} ms/query   {:>6.1} seeks/query",
                display(*kind),
                total / nq * 1e3,
                seeks as f64 / nq,
            );
        }
    }
    // Filtered k-NN workload: the k nearest neighbors satisfying a
    // predicate over the synthesized `mod10` attribute (id modulo 10), k
    // counting post-filter results. Recall is measured per query against a
    // filter-then-scan brute-force oracle — every engine is exact, so
    // anything below 1.0 is a bug, and the row proves it on record.
    let filter_expr = "mod10 in 0,1,2";
    let fk = 10usize.min(w.db.len());
    let filter = {
        let mut attrs = data::AttrTable::with_columns(vec!["mod10".into()]);
        for id in 0..w.db.len() {
            attrs.push_row(&[(id % 10) as i64]);
        }
        data::Predicate::parse(filter_expr)?.compile(&attrs)?
    };
    if !json {
        outln!(
            "\nfiltered k-NN (k={fk}, filter `{filter_expr}`, selectivity {:.3}):",
            filter.selectivity()
        );
    }
    // The oracle depends on the query alone: one per query, shared by
    // the four engines.
    let oracles: Vec<Vec<(u32, f64)>> = w
        .queries
        .iter()
        .map(|q| {
            let mut oracle: Vec<(u32, f64)> = (0..w.db.len() as u32)
                .filter(|&i| filter.matches(i))
                .map(|i| (i, metric.distance(w.db.point(i as usize), q)))
                .collect();
            oracle.sort_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .expect("no NaN distances")
                    .then(a.0.cmp(&b.0))
            });
            oracle.truncate(fk);
            oracle
        })
        .collect();
    for (kind, eng) in &engines {
        let page = PageSpec::top(fk);
        let mut total = 0.0;
        let mut recall_sum = 0.0;
        for (qi, (q, oracle)) in w.queries.iter().zip(&oracles).enumerate() {
            clock.reset();
            if slowlog.should_sample() {
                clock.enable_tracing();
            }
            let query = Query::Knn {
                point: q,
                k: page.k,
                filter: Some(&filter),
                opts: QueryOptions::EXACT,
            };
            let answer = eng.run(&mut clock, &query).map_err(|e| e.to_string())?;
            let got = page.slice(answer.into_ranked().0);
            total += clock.total_time();
            if let Some(tree) = clock.take_trace() {
                slowlog.offer(&format!("{}/filtered/q{qi}", eng.name()), tree);
            }
            let matched = oracle
                .iter()
                .zip(&got)
                .filter(|(o, g)| o.1.to_bits() == g.1.to_bits())
                .count();
            recall_sum += matched as f64 / oracle.len().max(1) as f64;
        }
        let nq = w.queries.len() as f64;
        if json {
            json_rows.push(format!(
                "{{\"engine\":\"{}\",\"workload\":\"filtered_knn\",\"filter\":\"{filter_expr}\",\
                 \"k\":{fk},\"selectivity\":{:.4},\"recall\":{:.4},\"ms_per_query\":{:.6}}}",
                eng.name(),
                filter.selectivity(),
                recall_sum / nq,
                total / nq * 1e3,
            ));
        } else {
            outln!(
                "{:<28} {:>9.2} ms/query   recall {:.3}",
                display(*kind),
                total / nq * 1e3,
                recall_sum / nq,
            );
        }
    }
    if json {
        outln!("[{}]", json_rows.join(","));
    } else {
        outln!("\n(times are simulated: 10 ms seek, 1 ms / 8 KiB block, 100 ns CPU per dim-op)");
    }
    // Persist the slow-query log next to the run so `iq stats --slow` can
    // read it back later.
    std::fs::write(SLOWLOG_FILE, slowlog.to_json())
        .map_err(|e| format!("write {SLOWLOG_FILE}: {e}"))?;
    if !json {
        outln!(
            "wrote {SLOWLOG_FILE} ({} retained)",
            slowlog.entries().len()
        );
    }
    Ok(())
}

/// Default path of the slow-query log `iq bench` persists next to
/// wherever it runs; `iq stats --slow` reads it back.
const SLOWLOG_FILE: &str = "iq-slowlog.json";

/// `iq stats --slow`: the retained slow-query log — the top-K slowest
/// sampled queries with their full trace trees.
fn cmd_stats_slow(opts: &HashMap<String, String>) -> Result<(), String> {
    let path = opts
        .get("slow-log")
        .map_or(SLOWLOG_FILE, String::as_str)
        .to_string();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("read {path}: {e} (run `iq bench` first, or pass --slow-log)"))?;
    let entries = iqtree_repro::obs::SlowLog::load_json(&text)?;
    if entries.is_empty() {
        outln!("{path}: no slow queries retained");
        return Ok(());
    }
    outln!(
        "{path}: {} retained slow quer(ies), slowest first",
        entries.len()
    );
    out!("{}", iqtree_repro::obs::slowlog::render_entries(&entries));
    Ok(())
}

fn cmd_stats(opts: &HashMap<String, String>) -> Result<(), String> {
    if opts.contains_key("slow") {
        return cmd_stats_slow(opts);
    }
    let index = PathBuf::from(req(opts, "index")?);
    let format = opts.get("format").map(String::as_str);
    // Machine formats export the full metrics registry, so recording must
    // be on before the index (and its observed device stacks) is opened.
    let reg = iqtree_repro::obs::global();
    if format.is_some() {
        reg.set_enabled(true);
    }
    let (tree, _, meta, _) = open_tree(&index, parse_cache_blocks(opts)?)?;
    let (d, q, e) = tree.storage_blocks();
    let Some(format) = format else {
        outln!("IQ-tree index at {index:?}");
        outln!("  points      : {}", tree.len());
        outln!("  dimension   : {}", meta.dim);
        outln!("  metric      : {:?}", meta.metric);
        outln!("  block size  : {} B", meta.block);
        outln!("  pages       : {}", tree.num_pages());
        outln!("  resolutions : {:?}", tree.bits_histogram());
        outln!("  blocks      : dir {d}, quantized {q}, exact {e}");
        outln!(
            "  compression : scanned level at {:.0}% of exact",
            tree.compression_ratio() * 100.0
        );
        outln!("  generation  : {}", tree.generation());
        outln!(
            "  wal         : {}",
            if tree.has_wal() {
                format!("{} byte(s) pending", tree.wal_bytes())
            } else {
                "none (read-only or pre-WAL index)".to_string()
            }
        );
        outln!(
            "  wasted      : {} orphaned exact block(s) (reclaimed by `iq checkpoint`)",
            tree.wasted_exact_blocks()
        );
        outln!(
            "  simd        : {} scan kernels, {} crc32 (set IQ_FORCE_SCALAR=1 to disable)",
            iqtree_repro::quantize::kernel_name(),
            iqtree_repro::storage::crc_kernel().name()
        );
        return Ok(());
    };
    // Index-shape gauges, exported alongside whatever the open recorded.
    reg.gauge("index_points").set(tree.len() as f64);
    reg.gauge("index_dim").set(meta.dim as f64);
    reg.gauge("index_block_bytes").set(meta.block as f64);
    reg.gauge("index_pages").set(tree.num_pages() as f64);
    reg.gauge("index_blocks_dir").set(d as f64);
    reg.gauge("index_blocks_quant").set(q as f64);
    reg.gauge("index_blocks_exact").set(e as f64);
    reg.gauge("index_compression_ratio")
        .set(tree.compression_ratio());
    reg.gauge("index_generation").set(tree.generation() as f64);
    reg.gauge("index_wal_bytes").set(tree.wal_bytes() as f64);
    reg.gauge("wasted_exact_blocks")
        .set(tree.wasted_exact_blocks() as f64);
    // Selected scan-kernel dispatch tier: 0 = scalar, 2 = avx2.
    reg.gauge("simd_dispatch")
        .set(f64::from(iqtree_repro::quantize::simd::kernel().code()));
    match format {
        "prometheus" => out!("{}", reg.to_prometheus()),
        "json" => out!("{}", reg.to_json()),
        other => return Err(format!("unknown format `{other}` (use prometheus or json)")),
    }
    Ok(())
}
