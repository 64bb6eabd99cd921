//! CSV export for point sets.
//!
//! The interchange format `iq generate` writes: one point per line, `f32`
//! coordinates separated by commas. [`crate::read_vec_csv`] reads it back
//! (plain rows are its attribute-free form).

use iq_geometry::Dataset;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Writes `ds` as CSV to `path` (one row per point).
pub fn write_csv(path: &Path, ds: &Dataset) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("create {path:?}: {e}"))?;
    let mut w = BufWriter::new(file);
    let mut line = String::new();
    for p in ds.iter() {
        line.clear();
        for (i, x) in p.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            line.push_str(&x.to_string());
        }
        writeln!(w, "{line}").map_err(|e| format!("write {path:?}: {e}"))?;
    }
    w.flush().map_err(|e| format!("flush {path:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read_vec_csv;

    fn temp_file(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("iq-data-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join(name)
    }

    #[test]
    fn roundtrip() {
        let ds = crate::generate::uniform(5, 200, 3);
        let path = temp_file("roundtrip.csv");
        write_csv(&path, &ds).expect("write");
        let back = read_vec_csv(&path).expect("read").points;
        assert_eq!(back.dim(), 5);
        assert_eq!(back.len(), 200);
        for (a, b) in ds.iter().zip(back.iter()) {
            assert_eq!(a, b, "f32 -> decimal -> f32 must be exact");
        }
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn skips_empty_lines() {
        let path = temp_file("gaps.csv");
        std::fs::write(&path, "1,2\n\n3,4\n   \n5,6\n").expect("write");
        let ds = read_vec_csv(&path).expect("read").points;
        assert_eq!(ds.len(), 3);
        assert_eq!(ds.point(2), &[5.0, 6.0]);
        std::fs::remove_file(&path).expect("cleanup");
    }

    #[test]
    fn rejects_ragged_and_garbage() {
        let path = temp_file("bad1.csv");
        std::fs::write(&path, "1,2\n3,4,5\n").expect("write");
        let err = |what| read_vec_csv(&path).expect_err(what).to_string();
        assert!(err("ragged").contains("expected 2"));
        std::fs::write(&path, "1,x\n").expect("write");
        assert!(err("garbage").contains("invalid coordinate"));
        std::fs::write(&path, "1,inf\n").expect("write");
        assert!(err("inf").contains("non-finite"));
        std::fs::remove_file(&path).expect("cleanup");
    }
}
