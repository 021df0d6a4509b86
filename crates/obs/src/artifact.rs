//! Crash-safe artifact writes.
//!
//! Every `BENCH_*.json` study artifact has exactly one writer, which
//! renders the whole document and hands it to [`write_atomic`]; the
//! flight recorder dumps its ring the same way.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counter distinguishing concurrent temp files within one
/// process (the pid distinguishes processes).
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Writes `contents` to `path` atomically: the bytes land in a
/// same-directory temp file first and are renamed over `path`, so a
/// crash mid-write leaves either the old artifact or the new one,
/// never a torn mixture.
pub fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let name = path.file_name().and_then(|n| n.to_str()).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "artifact path has no file name")
    })?;
    let tmp = path.with_file_name(format!(
        ".{name}.tmp.{}.{}",
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_atomic_replaces_and_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("wino_atomic_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("artifact.json");
        write_atomic(&path, "{\"v\": 1}\n").expect("first write");
        write_atomic(&path, "{\"v\": 2}\n").expect("overwrite");
        assert_eq!(std::fs::read_to_string(&path).expect("readable"), "{\"v\": 2}\n");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("dir listable")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files leaked: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
