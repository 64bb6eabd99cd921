//! The IQ-tree benchmark: three workloads on real index files, timed in
//! wall-clock and in the paper's simulated clock.
//!
//! ```text
//! perfbench --workload <cad-batch|cad-stream-approx|uniform-update-mix>
//!           --seed <n> --seconds <s> --trace <0|1> [--small]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload twice, untraced and then traced, and prints the per-layer
//! metrics with the tracing overhead and writes a Chrome trace file.
//! The last line of standard output is the JSON result. METRICS.md
//! describes every metric.

mod data;
mod layers;
mod report;
mod spans;
mod walstore;
mod workloads;

use report::Report;
use spans::Spans;
use std::path::{Path, PathBuf};
use workloads::{Inputs, Kind, Sizes, Until};

/// Seed used when none is given (METRICS.md names the held-out seed).
const DEFAULT_SEED: u64 = 7;
/// Set-ups per untraced run: repeated until the budget is spent, within
/// these counts; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 3.0;
/// Latency samples a full-size run collects at least, so that its p99
/// has ten samples beyond it.
const MIN_LATENCIES: u64 = 1_000;
/// Times a full-size run repeats each distinct request (round) at least,
/// so that its fastest repetition is picked from several moments.
const MIN_REPEATS: u64 = 5;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    small: bool,
}

const USAGE: &str = "usage: perfbench --workload <cad-batch|cad-stream-approx|uniform-update-mix> \
                     --seed <n> --seconds <s> --trace <0|1> [--small]";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut small = false;
    while let Some(flag) = it.next() {
        if flag == "--small" {
            small = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad("expected 0 < seconds <= 600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        small,
    })
}

/// Where index files and trace files go: inside the benchmark's own
/// directory, never outside the checkout.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work = out_dir().join(format!("work-{}-{}", args.kind.name(), std::process::id()));
    let result = run(&args, &work);
    // Index files are scratch; a failed removal does not change the result.
    let _ = std::fs::remove_dir_all(&work);
    match result {
        Ok(report) => report.print(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, work: &Path) -> Result<Report, String> {
    let sizes = Sizes::of(args.kind, args.small);
    let provenance = iq_bench::provenance::collect(None);
    println!("provenance {}", provenance.to_json());
    println!(
        "workload {} seed {} seconds {} trace {} n {} dim {} queries {} window {}",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sizes.n,
        sizes.dim,
        sizes.pool,
        sizes.window,
    );
    let inputs = Inputs::make(args.kind, args.seed, &sizes);
    let mut report = Report::default();
    if args.trace {
        traced(args, &sizes, &inputs, work, &mut report)?;
    } else {
        untraced(args, &sizes, &inputs, work, &mut report)?;
    }
    Ok(report)
}

fn until(args: &Args, sizes: &Sizes, seconds: f64, min_latencies: u64) -> Until {
    let distinct = (sizes.pool / args.kind.queries_per_request()) as u64;
    Until {
        seconds,
        window: sizes.window as u64,
        min_requests: if args.small {
            0
        } else {
            min_latencies.max(distinct * MIN_REPEATS)
        },
    }
}

/// Sets up once and runs the timed loop with tracing off, then sets up
/// again until `SETUP_BUDGET_S` is spent (at least `MIN_SETUPS` in all).
/// Peak memory is read before the extra set-ups, whose freed buffers
/// would otherwise leave it to the allocator's fragmentation.
fn untraced(
    args: &Args,
    sizes: &Sizes,
    inputs: &Inputs,
    work: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let mut index = workloads::set_up(args.kind, inputs, &work.join("setup0"), None)?;
    let mut setups = vec![index.setup_s()];
    let limit = until(args, sizes, args.seconds, MIN_LATENCIES);
    let out = workloads::run(args.kind, inputs, &mut index, sizes, limit, None);
    let peak_rss_mb = report::peak_rss_mb()?;
    let index_bytes = report::index_bytes_per_user_byte(&index);
    drop(index);

    let started = std::time::Instant::now();
    while setups.len() < MIN_SETUPS
        || (started.elapsed().as_secs_f64() < SETUP_BUDGET_S && setups.len() < MAX_SETUPS)
    {
        let dir = work.join(format!("setup{}", setups.len()));
        let ix = workloads::set_up(args.kind, inputs, &dir, None)?;
        setups.push(ix.setup_s());
        drop(ix);
        // Scratch files; a failed removal does not change the result.
        let _ = std::fs::remove_dir_all(&dir);
    }
    report.attempted = out.attempted;
    report.failed = out.failed;
    report::check_phase_sum(&out, report);
    report::end_to_end(
        args.kind,
        &setups,
        &out,
        sizes.dim,
        index_bytes,
        peak_rss_mb,
        report,
    );
    Ok(())
}

/// Runs the workload untraced for half the time (for the overhead), then
/// turns on the metrics registry and spans, sets up again and runs it
/// traced for the other half.
fn traced(
    args: &Args,
    sizes: &Sizes,
    inputs: &Inputs,
    work: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let half = args.seconds / 2.0;
    let mut plain = workloads::set_up(args.kind, inputs, &work.join("untraced"), None)?;
    let base = workloads::run(
        args.kind,
        inputs,
        &mut plain,
        sizes,
        until(args, sizes, half, 0),
        None,
    );
    let untraced_qps = report::qps(&base);
    drop(plain);

    // Observation layers are inserted only into stacks built while the
    // registry is on, so it is switched on before the traced set-up.
    iq_obs::global().set_enabled(true);
    let mut spans = Spans::new();
    let mut index = workloads::set_up(args.kind, inputs, &work.join("traced"), Some(&mut spans))?;
    let before = iq_obs::global().snapshot();
    let out = workloads::run(
        args.kind,
        inputs,
        &mut index,
        sizes,
        until(args, sizes, half, 0),
        Some(&mut spans),
    );
    let registry = iq_obs::global().snapshot().diff(&before);

    report.attempted = base.attempted + out.attempted;
    report.failed = base.failed + out.failed;
    report::check_phase_sum(&out, report);
    // Observation must not change what the simulated clock charges.
    if base.window.sim_s != out.window.sim_s {
        report.problems.push(format!(
            "traced window charged {} simulated s, untraced {}",
            out.window.sim_s, base.window.sim_s
        ));
    }
    report.note(
        "sim_ms_per_query",
        out.window.sim_s * 1e3 / out.window.queries.max(1) as f64,
        "sim_ms",
    );
    report.note("trace.untraced_qps", untraced_qps, "1/s");
    report::per_layer(
        args.kind,
        inputs,
        &out,
        &index,
        &registry,
        untraced_qps,
        report,
    )?;

    let trace_path = out_dir().join(format!("trace-{}-seed{}.json", args.kind.name(), args.seed));
    let root = format!("perfbench {} seed {}", args.kind.name(), args.seed);
    let p = iq_bench::provenance::collect(None);
    let attrs = vec![
        ("commit".to_string(), p.commit),
        ("kernel".to_string(), p.kernel),
        ("available_cores".to_string(), p.available_cores.to_string()),
    ];
    std::fs::write(&trace_path, spans.to_chrome_json(&root, attrs))
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    println!(
        "trace: {} spans written to {}",
        spans.len(),
        trace_path.display()
    );
    Ok(())
}
