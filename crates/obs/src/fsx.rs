//! Crash-safe file writes shared by every dump/result writer in the
//! workspace.
//!
//! A plain `std::fs::write` interrupted by a crash can leave a torn
//! file that a later tool half-parses. [`atomic_write`] closes that
//! window: the bytes go to a temporary file in the destination
//! directory, are fsync'd, and the temporary is renamed over the
//! destination — readers observe either the old content or the new,
//! never a prefix.

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Per-process counter so concurrent writers of the same destination
/// never collide on a temporary name.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `path` atomically: temp file in the same
/// directory, `fsync`, rename over the destination, then a best-effort
/// `fsync` of the directory so the rename itself is durable.
///
/// # Errors
///
/// Returns the underlying I/O error; the temporary file is removed on
/// failure (best effort).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => std::path::PathBuf::from("."),
    };
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("atomic_write: {} has no file name", path.display()),
            )
        })?
        .to_os_string();
    let mut tmp_name = file_name;
    tmp_name.push(format!(
        ".{}.{}.tmp",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = dir.join(tmp_name);
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return result;
    }
    // Durability of the rename needs the directory entry flushed too;
    // not all platforms/filesystems support fsync on a directory, so
    // failures here are ignored.
    if let Ok(d) = std::fs::File::open(&dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// An append-only file handle for durable logs (journals, series,
/// sidecars, capfleet's queue).
///
/// Complements [`atomic_write`]: where that replaces a whole file
/// atomically, `AppendFile` grows one incrementally. Every workspace
/// append format is framed or line-delimited so a torn tail from a
/// crash mid-append is detected and discarded on the next open: line
/// logs open through [`AppendFile::open_lines`], which cuts it before
/// the first append. [`AppendFile::sync`] (or
/// [`AppendFile::append_durable`]) forces the written bytes to disk
/// when the caller needs a durability point.
#[derive(Debug)]
pub struct AppendFile {
    file: std::fs::File,
}

impl AppendFile {
    /// Opens `path` for appending, creating it if absent.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn open(path: &Path) -> std::io::Result<AppendFile> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        Ok(AppendFile { file })
    }

    /// Opens a line log (one record per `\n`-terminated line) for
    /// appending, creating it if absent, and first truncates an
    /// unterminated final line: the torn tail of a crash mid-append,
    /// which the next record would otherwise weld onto. A record is
    /// committed once its newline is on disk.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn open_lines(path: &Path) -> std::io::Result<AppendFile> {
        let mut log = AppendFile::open(path)?;
        let len = log.file.metadata()?.len();
        let end = complete_lines_len(&mut log.file, len)?;
        if end < len {
            log.truncate(end)?;
        }
        Ok(log)
    }

    /// Appends `bytes` without forcing them to disk.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.file.write_all(bytes)
    }

    /// Appends `bytes` and fsyncs the file, making the write durable.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn append_durable(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.file.write_all(bytes)?;
        self.file.sync_all()
    }

    /// Forces everything appended so far to disk.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_all()
    }

    /// Truncates the file to `len` bytes (used by openers that detect a
    /// torn tail) and seeks the append position accordingly.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn truncate(&mut self, len: u64) -> std::io::Result<()> {
        self.file.set_len(len)
    }
}

/// Length of the prefix of a `len`-byte file that ends in its last
/// `\n` (0 when it has none), scanning back from the end.
fn complete_lines_len(file: &mut std::fs::File, len: u64) -> std::io::Result<u64> {
    let mut buf = [0u8; 512];
    let mut end = len;
    while end > 0 {
        let start = end.saturating_sub(buf.len() as u64);
        let chunk = &mut buf[..(end - start) as usize];
        file.seek(SeekFrom::Start(start))?;
        file.read_exact(chunk)?;
        if let Some(i) = chunk.iter().rposition(|&b| b == b'\n') {
            return Ok(start + i as u64 + 1);
        }
        end = start;
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("cap_fsx_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn writes_and_replaces() {
        let dir = tmp_dir("basic");
        let path = dir.join("out.json");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // No temporary litter left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn line_logs_cut_a_torn_tail_before_appending() {
        let dir = tmp_dir("lines");
        let path = dir.join("log.jsonl");
        let append = |line: &str| {
            let mut log = AppendFile::open_lines(&path).unwrap();
            log.append_durable(format!("{line}\n").as_bytes()).unwrap();
        };
        append("{\"n\":1}");
        append("{\"n\":2}");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"n\":1}\n{\"n\":2}\n"
        );
        // A torn tail, even one that parses, is cut before the append.
        let mut f = AppendFile::open(&path).unwrap();
        f.append(b"{\"n\":3}").unwrap();
        drop(f);
        append("{\"n\":4}");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"n\":1}\n{\"n\":2}\n{\"n\":4}\n"
        );
        // A tail longer than one scan chunk, and a file with no newline.
        std::fs::write(&path, format!("a\n{}", "x".repeat(2000))).unwrap();
        append("b");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a\nb\n");
        std::fs::write(&path, "x".repeat(700)).unwrap();
        append("c");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "c\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failure_leaves_destination_untouched() {
        let dir = tmp_dir("fail");
        let path = dir.join("out.json");
        atomic_write(&path, b"good").unwrap();
        // A directory in the way of the temp-file rename target is the
        // easiest portable failure: make the destination a directory.
        let blocked = dir.join("blocked");
        std::fs::create_dir_all(blocked.join("x")).unwrap();
        assert!(atomic_write(&blocked, b"new").is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"good");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
