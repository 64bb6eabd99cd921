//! Run provenance for benchmark artifacts.
//!
//! Benchmark outputs are only comparable across runs when the reader
//! knows *what* produced them: the git commit, the SIMD dispatch
//! tier the run selected, the CRC32 kernel behind every checksummed block
//! read, and how many cores the machine offered. This module collects
//! those once, dependency-free (the commit is read straight from `.git`,
//! no subprocess), and renders them as the `provenance` header that
//! `iq bench --json` and every perfbench run start with.

use std::path::Path;

/// What produced a benchmark artifact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Provenance {
    /// Git commit hash of the working tree, or `"unknown"` outside a
    /// repository.
    pub commit: String,
    /// Selected scan-kernel dispatch tier name (`avx2`/`sse41`/`scalar`).
    pub kernel: String,
    /// The tier's stable numeric code (0 = scalar, 1 = sse41, 2 = avx2).
    pub simd_code: u8,
    /// Selected CRC32 kernel name (`clmul`/`slice16`).
    pub crc_kernel: String,
    /// `std::thread::available_parallelism` at collection time.
    pub available_cores: usize,
    /// Caller-supplied run date (`iq bench` takes `--date`); `"unknown"`
    /// when not passed.
    pub date: String,
}

/// Collects the provenance of the current process. `date` is passed in by
/// the caller — benchmarks are deterministic and take timestamps from the
/// outside, never from the clock.
pub fn collect(date: Option<&str>) -> Provenance {
    Provenance {
        commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
        kernel: iq_quantize::kernel_name().to_string(),
        simd_code: iq_quantize::simd::kernel().code(),
        crc_kernel: iq_storage::crc_kernel().name().to_string(),
        available_cores: std::thread::available_parallelism().map_or(1, usize::from),
        date: date.unwrap_or("unknown").to_string(),
    }
}

impl Provenance {
    /// The provenance as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"commit\": \"{}\", \"kernel\": \"{}\", \"simd_code\": {}, \
             \"crc_kernel\": \"{}\", \"available_cores\": {}, \"date\": \"{}\"}}",
            self.commit,
            self.kernel,
            self.simd_code,
            self.crc_kernel,
            self.available_cores,
            self.date,
        )
    }
}

/// Reads the checked-out commit from `.git/HEAD`, following one level of
/// `ref:` indirection, walking up from the current directory. No `git`
/// subprocess: works in containers without git and costs two file reads.
fn git_commit() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let head = dir.join(".git").join("HEAD");
        if head.is_file() {
            return resolve_head(&dir.join(".git"), &head);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn resolve_head(gitdir: &Path, head: &Path) -> Option<String> {
    let text = std::fs::read_to_string(head).ok()?;
    let text = text.trim();
    if let Some(r) = text.strip_prefix("ref: ") {
        let target = std::fs::read_to_string(gitdir.join(r.trim())).ok();
        let hash = match target {
            Some(t) => t.trim().to_string(),
            // Packed refs: scan .git/packed-refs for the ref name.
            None => {
                let packed = std::fs::read_to_string(gitdir.join("packed-refs")).ok()?;
                packed.lines().find_map(|line| {
                    let (hash, name) = line.split_once(' ')?;
                    (name.trim() == r.trim()).then(|| hash.to_string())
                })?
            }
        };
        is_hash(&hash).then_some(hash)
    } else {
        is_hash(text).then(|| text.to_string())
    }
}

fn is_hash(s: &str) -> bool {
    s.len() >= 7 && s.chars().all(|c| c.is_ascii_hexdigit())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_fills_every_field() {
        let p = collect(Some("2026-08-08"));
        assert_eq!(p.date, "2026-08-08");
        assert!(["avx2", "sse41", "scalar"].contains(&p.kernel.as_str()));
        assert!(p.simd_code <= 2);
        assert!(["clmul", "slice16"].contains(&p.crc_kernel.as_str()));
        assert!(p.available_cores >= 1);
        // This test runs inside the repo: the commit must resolve.
        assert!(p.commit == "unknown" || is_hash(&p.commit));
    }

    #[test]
    fn json_has_the_header_shape() {
        let p = collect(None);
        let j = p.to_json();
        for key in [
            "\"commit\"",
            "\"kernel\"",
            "\"simd_code\"",
            "\"crc_kernel\"",
            "\"available_cores\"",
            "\"date\": \"unknown\"",
        ] {
            assert!(j.contains(key), "{key} missing in {j}");
        }
        let v = iq_obs::json::parse(&j).expect("valid JSON");
        assert!(v.get("commit").is_some());
    }
}
