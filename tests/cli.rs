//! End-to-end test of the `iq` command-line tool: generate → build →
//! query → range → stats on real files, plus the durability commands
//! (`checkpoint`, `recover`) on a write-ahead log with a torn tail.

use std::path::PathBuf;
use std::process::Command;

fn iq() -> Command {
    Command::new(env!("CARGO_BIN_EXE_iq"))
}

/// A fresh directory per test: the tests in this binary run in parallel,
/// and each removes its own directory when it ends.
fn temp_dir_tagged(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iq-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn generate_build_query_roundtrip() {
    let dir = temp_dir_tagged("roundtrip");
    let csv = dir.join("pts.csv");
    let idx = dir.join("idx");

    let out = iq()
        .args(["generate", "--kind", "uniform", "--dim", "4", "--n", "3000"])
        .args(["--seed", "7", "--out", csv.to_str().expect("utf8 path")])
        .output()
        .expect("run generate");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

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
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("built IQ-tree over 3000 points"),
        "{stdout}"
    );

    let out = iq()
        .args(["query", "--index", idx.to_str().expect("utf8")])
        .args(["--point", "0.5,0.5,0.5,0.5", "--k", "3"])
        .output()
        .expect("run query");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("distance").count(), 3, "{stdout}");

    let out = iq()
        .args(["range", "--index", idx.to_str().expect("utf8")])
        .args(["--point", "0.5,0.5,0.5,0.5", "--radius", "0.2"])
        .output()
        .expect("run range");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = iq()
        .args(["stats", "--index", idx.to_str().expect("utf8")])
        .output()
        .expect("run stats");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("points      : 3000"), "{stdout}");

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn verify_detects_on_disk_corruption() {
    let dir = temp_dir_tagged("verify");
    let csv = dir.join("v.csv");
    let idx = dir.join("vidx");
    let out = iq()
        .args(["generate", "--kind", "uniform", "--dim", "4", "--n", "2000"])
        .args(["--seed", "11", "--out", csv.to_str().expect("utf8")])
        .output()
        .expect("run generate");
    assert!(out.status.success());
    let out = iq()
        .args(["build", "--input", csv.to_str().expect("utf8")])
        .args(["--index", idx.to_str().expect("utf8"), "--block", "1024"])
        .output()
        .expect("run build");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Clean index verifies clean, exit code 0.
    let out = iq()
        .args(["verify", "--index", idx.to_str().expect("utf8")])
        .output()
        .expect("run verify");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("index is clean"), "{stdout}");
    assert!(stdout.contains("quantized"), "{stdout}");

    // Flip one bit in the middle of the quantized file: nonzero exit and
    // the corrupt block named.
    let quant = idx.join("quant.bin");
    let mut bytes = std::fs::read(&quant).expect("read quant file");
    let target_block = bytes.len() / 1024 / 2;
    bytes[target_block * 1024 + 100] ^= 0x10;
    std::fs::write(&quant, bytes).expect("rewrite quant file");

    let out = iq()
        .args(["verify", "--index", idx.to_str().expect("utf8")])
        .output()
        .expect("run verify");
    assert!(!out.status.success(), "corruption must fail verification");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains(&format!("corrupt block {target_block}")),
        "{stdout}"
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("index is corrupt"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The durability surface end to end: `build` creates the log, `stats`
/// reports generation and log size, `checkpoint` bumps the generation,
/// and `recover` (dry-run first) cleans a log with an uncommitted frame
/// and a torn tail that `verify` flags beforehand.
#[test]
fn checkpoint_and_recover_handle_a_torn_wal() {
    let dir = temp_dir_tagged("durability");
    let csv = dir.join("d.csv");
    let idx = dir.join("didx");
    let run = |args: &[&str]| {
        let out = iq().args(args).output().expect("run iq");
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).to_string(),
            String::from_utf8_lossy(&out.stderr).to_string(),
        )
    };
    let idx_s = idx.to_str().expect("utf8").to_string();

    let (ok, _, err) = run(&[
        "generate",
        "--kind",
        "uniform",
        "--dim",
        "3",
        "--n",
        "1500",
        "--seed",
        "5",
        "--out",
        csv.to_str().expect("utf8"),
    ]);
    assert!(ok, "{err}");
    let (ok, _, err) = run(&[
        "build",
        "--input",
        csv.to_str().expect("utf8"),
        "--index",
        &idx_s,
        "--block",
        "1024",
    ]);
    assert!(ok, "{err}");
    assert!(idx.join("wal.bin").exists(), "build creates the log");

    let (ok, stdout, _) = run(&["stats", "--index", &idx_s]);
    assert!(ok);
    assert!(stdout.contains("generation  : 0"), "{stdout}");
    assert!(stdout.contains("0 byte(s) pending"), "{stdout}");

    let (ok, stdout, err) = run(&["checkpoint", "--index", &idx_s]);
    assert!(ok, "{err}");
    assert!(stdout.contains("generation 1"), "{stdout}");
    let (ok, stdout, _) = run(&["stats", "--index", &idx_s]);
    assert!(ok);
    assert!(stdout.contains("generation  : 1"), "{stdout}");

    // Tear the log: one valid-but-uncommitted frame, then garbage bytes —
    // the on-disk state after a crash mid-transaction.
    let wal_path = idx.join("wal.bin");
    let mut log = std::fs::read(&wal_path).expect("read log");
    assert!(log.is_empty(), "checkpoint left the log empty");
    iqtree_repro::wal::encode_frame(
        &mut log,
        0,
        &iqtree_repro::wal::WalRecord::Insert {
            id: 42,
            point: vec![0.1, 0.2, 0.3],
        },
    );
    log.extend_from_slice(&[0xAB; 37]);
    std::fs::write(&wal_path, &log).expect("write torn log");

    // `verify` sees the dirty log and fails.
    let (ok, stdout, err) = run(&["verify", "--index", &idx_s]);
    assert!(!ok, "a dirty log must fail verification");
    assert!(stdout.contains("1 uncommitted frame(s)"), "{stdout}");
    assert!(stdout.contains("37 torn byte(s)"), "{stdout}");
    assert!(stdout.contains("needs recovery"), "{stdout}");
    assert!(err.contains("index is corrupt"), "{err}");

    // Dry run: describes the cleanup, touches nothing.
    let before = std::fs::read(&wal_path).expect("read log");
    let (ok, stdout, err) = run(&["recover", "--index", &idx_s, "--dry-run"]);
    assert!(ok, "{err}");
    assert!(
        stdout.contains("would discard 1 uncommitted frame(s)"),
        "{stdout}"
    );
    assert!(stdout.contains("would discard 37 torn byte(s)"), "{stdout}");
    assert!(stdout.contains("truncate the log to 0 byte(s)"), "{stdout}");
    assert_eq!(
        std::fs::read(&wal_path).expect("read log"),
        before,
        "--dry-run must not mutate the log"
    );

    // Real recovery truncates the log; verify is clean again and queries
    // still answer.
    let (ok, stdout, err) = run(&["recover", "--index", &idx_s]);
    assert!(ok, "{err}");
    assert!(stdout.contains("replayed 0 transaction(s)"), "{stdout}");
    assert_eq!(std::fs::metadata(&wal_path).expect("stat").len(), 0);
    let (ok, stdout, err) = run(&["verify", "--index", &idx_s]);
    assert!(ok, "{stdout}\n{err}");
    assert!(stdout.contains("index is clean"), "{stdout}");
    let (ok, stdout, err) = run(&[
        "query",
        "--index",
        &idx_s,
        "--point",
        "0.5,0.5,0.5",
        "--k",
        "2",
    ]);
    assert!(ok, "{err}");
    assert_eq!(stdout.matches("distance").count(), 2, "{stdout}");

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn bench_subcommand_runs() {
    let dir = temp_dir_tagged("bench");
    let csv = dir.join("b.csv");
    let out = iq()
        .args(["generate", "--kind", "uniform", "--dim", "5", "--n", "2000"])
        .args(["--seed", "2", "--out", csv.to_str().expect("utf8")])
        .output()
        .expect("run generate");
    assert!(out.status.success());
    let out = iq()
        .args([
            "bench",
            "--input",
            csv.to_str().expect("utf8"),
            "--queries",
            "5",
        ])
        .output()
        .expect("run bench");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    for name in ["IQ-tree", "X-tree", "VA-file", "sequential scan"] {
        assert!(
            stdout.contains(name),
            "missing {name} in:
{stdout}"
        );
    }
    assert!(
        stdout.contains("quantized-domain filter"),
        "missing kernel throughput line in:\n{stdout}"
    );
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn helpful_errors() {
    // Unknown command: the one error that comes with the usage text.
    let out = iq().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"));
    assert!(stderr.contains("usage:"));

    // Missing flag.
    let out = iq().args(["generate", "--dim", "3"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing --kind"));

    // Dimensionality mismatch on query.
    let dir = temp_dir_tagged("errors");
    let csv = dir.join("p.csv");
    std::fs::write(&csv, "0.1,0.2\n0.3,0.4\n0.5,0.6\n").expect("write csv");
    let idx = dir.join("i");
    let out = iq()
        .args(["build", "--input", csv.to_str().expect("utf8")])
        .args(["--index", idx.to_str().expect("utf8"), "--block", "1024"])
        .output()
        .expect("run build");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = iq()
        .args([
            "query",
            "--index",
            idx.to_str().expect("utf8"),
            "--point",
            "0.1,0.2,0.3",
        ])
        .output()
        .expect("run query");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("index is 2-d"));

    // Malformed input data: one error line naming the line, no usage text.
    let bad = dir.join("bad.csv");
    std::fs::write(&bad, "0.1,0.2\n0.3,0.4\n0.5,oops\n").expect("write csv");
    let out = iq()
        .args(["build", "--input", bad.to_str().expect("utf8")])
        .args(["--index", dir.join("bad").to_str().expect("utf8")])
        .output()
        .expect("run build");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 3"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
    assert!(!stderr.contains("corrupt page"), "{stderr}");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
