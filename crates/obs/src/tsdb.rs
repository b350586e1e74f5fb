//! An embedded, append-only time-series store (`series.capts`).
//!
//! Zero-dependency like the rest of the crate, and built on the same
//! hostile-input discipline as the checkpoint v2 format: every frame is
//! length-prefixed and CRC32-guarded, every length field is bounded
//! before allocation, and a reader presented with arbitrary bytes never
//! panics — it returns the longest valid prefix.
//!
//! # Wire format
//!
//! ```text
//! file   := "CAPT" u32:version(=1) frame*
//! frame  := u32:payload_len u32:crc32(payload) payload
//! payload:= u64:seq f64:t u8:kind varint:n_points point{n_points}
//! point  := kind=0 (full):  varint:name_len name_bytes varint:value_bits
//!           kind=1 (delta): varint:(value_bits XOR previous value_bits)
//! ```
//!
//! All fixed-width integers are little-endian; `varint` is LEB128.
//! A *full* frame (kind 0) carries the sorted series names inline; a
//! *delta* frame (kind 1) reuses the name list of the immediately
//! preceding frame and XOR-encodes each value against the previous
//! frame's value at the same index, so an unchanged gauge costs one
//! byte. The first frame after opening a writer is always full, which
//! keeps appends after a crash/resume self-describing.
//!
//! Crash safety: appends go through [`crate::fsx::AppendFile`]; a crash
//! mid-append leaves a torn final frame that the next
//! [`SeriesWriter::open`] detects (length/CRC mismatch) and truncates
//! away, exactly like the run-dir journal's torn-line handling.

use crate::fsx::AppendFile;
use std::io::Read;
use std::path::Path;

/// File magic ("CAPT").
const MAGIC: &[u8; 4] = b"CAPT";
/// Current wire-format version.
const VERSION: u32 = 1;
/// Header length in bytes: magic + version.
const HEADER_LEN: u64 = 8;
/// Upper bound on one frame payload; anything larger is corruption.
const MAX_PAYLOAD: u32 = 1 << 20;
/// Upper bound on points per frame (a registry snapshot is far smaller).
const MAX_POINTS: u64 = 65_536;
/// Upper bound on a series name.
const MAX_NAME: u64 = 512;

/// Errors from the time-series store.
#[derive(Debug)]
pub enum TsdbError {
    /// An underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a series log (bad magic or unsupported version).
    Format(String),
}

impl std::fmt::Display for TsdbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TsdbError::Io(e) => write!(f, "series io: {e}"),
            TsdbError::Format(m) => write!(f, "series format: {m}"),
        }
    }
}

impl std::error::Error for TsdbError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TsdbError::Io(e) => Some(e),
            TsdbError::Format(_) => None,
        }
    }
}

impl From<std::io::Error> for TsdbError {
    fn from(e: std::io::Error) -> Self {
        TsdbError::Io(e)
    }
}

/// One recorded registry snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Monotone sample number, contiguous across resume.
    pub seq: u64,
    /// Process uptime (seconds, [`crate::uptime_secs`] clock) at capture.
    pub t: f64,
    /// `(series name, value)` pairs, sorted by name.
    pub points: Vec<(String, f64)>,
}

impl Sample {
    /// The value of series `name` in this sample, if present.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.points
            .binary_search_by(|(n, _)| n.as_str().cmp(name))
            .ok()
            .map(|i| self.points[i].1)
    }
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) lookup table.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`: the frame check of `series.capts` and of
/// the `cap-nn` checkpoint v2 format.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint; `None` on truncation or overlong encoding.
fn read_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*pos)?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return None;
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// Encodes one sample against the previous frame's state. `prev` is
/// emptied state after open, forcing a full frame.
fn encode_payload(
    seq: u64,
    t: f64,
    points: &[(String, f64)],
    prev_names: &[String],
    prev_bits: &[u64],
) -> Vec<u8> {
    let delta = !prev_names.is_empty()
        && prev_names.len() == points.len()
        && prev_names
            .iter()
            .zip(points.iter())
            .all(|(a, (b, _))| a == b);
    let mut payload = Vec::with_capacity(32 + points.len() * 12);
    payload.extend_from_slice(&seq.to_le_bytes());
    payload.extend_from_slice(&t.to_bits().to_le_bytes());
    payload.push(u8::from(delta));
    push_varint(&mut payload, points.len() as u64);
    for (i, (name, value)) in points.iter().enumerate() {
        let bits = value.to_bits();
        if delta {
            push_varint(&mut payload, bits ^ prev_bits[i]);
        } else {
            push_varint(&mut payload, name.len() as u64);
            payload.extend_from_slice(name.as_bytes());
            push_varint(&mut payload, bits);
        }
    }
    payload
}

/// Decodes one frame payload. `prev` supplies the name list and value
/// bits for delta frames. Returns the sample and its value bits.
fn decode_payload(
    payload: &[u8],
    prev_names: &[String],
    prev_bits: &[u64],
) -> Option<(Sample, Vec<String>, Vec<u64>)> {
    let mut pos = 0usize;
    let seq = u64::from_le_bytes(payload.get(pos..pos + 8)?.try_into().ok()?);
    pos += 8;
    let t = f64::from_bits(u64::from_le_bytes(
        payload.get(pos..pos + 8)?.try_into().ok()?,
    ));
    pos += 8;
    let kind = *payload.get(pos)?;
    pos += 1;
    if kind > 1 {
        return None;
    }
    let n = read_varint(payload, &mut pos)?;
    if n > MAX_POINTS {
        return None;
    }
    let n = n as usize;
    let mut names: Vec<String>;
    let mut bits: Vec<u64> = Vec::with_capacity(n);
    if kind == 1 {
        if prev_names.len() != n {
            return None;
        }
        names = prev_names.to_vec();
        for &prev in prev_bits.iter().take(n) {
            bits.push(read_varint(payload, &mut pos)? ^ prev);
        }
    } else {
        names = Vec::with_capacity(n);
        for _ in 0..n {
            let len = read_varint(payload, &mut pos)?;
            if len > MAX_NAME {
                return None;
            }
            let len = len as usize;
            let raw = payload.get(pos..pos + len)?;
            pos += len;
            names.push(std::str::from_utf8(raw).ok()?.to_string());
            bits.push(read_varint(payload, &mut pos)?);
        }
    }
    if pos != payload.len() {
        return None;
    }
    let points: Vec<(String, f64)> = names
        .iter()
        .zip(bits.iter())
        .map(|(name, &b)| (name.clone(), f64::from_bits(b)))
        .collect();
    names.shrink_to_fit();
    Some((Sample { seq, t, points }, names, bits))
}

/// Result of scanning a series file: the decoded samples and how far
/// the valid prefix reaches.
#[derive(Debug)]
pub struct ScanOutcome {
    /// Every sample in the valid prefix, in file order.
    pub samples: Vec<Sample>,
    /// Byte length of the valid prefix (header + intact frames).
    pub valid_len: u64,
    /// Whether bytes beyond `valid_len` were present (torn tail or
    /// corruption).
    pub truncated: bool,
}

/// Scans in-memory series bytes, returning the longest valid prefix.
/// Never panics on arbitrary input.
///
/// # Errors
///
/// Returns [`TsdbError::Format`] when the 8-byte header itself is
/// missing or wrong — there is no usable prefix to salvage then.
pub fn scan_bytes(bytes: &[u8]) -> Result<ScanOutcome, TsdbError> {
    if bytes.len() < HEADER_LEN as usize {
        return Err(TsdbError::Format(format!(
            "header truncated ({} bytes)",
            bytes.len()
        )));
    }
    if &bytes[0..4] != MAGIC {
        return Err(TsdbError::Format("bad magic (not a series file)".into()));
    }
    let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    if version != VERSION {
        return Err(TsdbError::Format(format!(
            "unsupported version {version} (expected {VERSION})"
        )));
    }
    let mut samples = Vec::new();
    let mut names: Vec<String> = Vec::new();
    let mut bits: Vec<u64> = Vec::new();
    let mut pos = HEADER_LEN as usize;
    while let Some(head) = bytes.get(pos..pos + 8) {
        let payload_len = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
        let crc = u32::from_le_bytes([head[4], head[5], head[6], head[7]]);
        if payload_len > MAX_PAYLOAD {
            break;
        }
        let start = pos + 8;
        let Some(payload) = bytes.get(start..start + payload_len as usize) else {
            break;
        };
        if crc32(payload) != crc {
            break;
        }
        let Some((sample, new_names, new_bits)) = decode_payload(payload, &names, &bits) else {
            break;
        };
        samples.push(sample);
        names = new_names;
        bits = new_bits;
        pos = start + payload_len as usize;
    }
    Ok(ScanOutcome {
        truncated: pos != bytes.len(),
        valid_len: pos as u64,
        samples,
    })
}

/// Reads every valid sample from `path` (torn tails and trailing
/// corruption are silently dropped, mirroring the journal reader).
///
/// # Errors
///
/// Returns [`TsdbError::Io`] on read failures and [`TsdbError::Format`]
/// when the file header is unusable.
pub fn read_samples(path: &Path) -> Result<Vec<Sample>, TsdbError> {
    let bytes = read_bounded(path)?;
    Ok(scan_bytes(&bytes)?.samples)
}

/// Reads `path` in bounded chunks so a hostile file size cannot force a
/// single oversized allocation up front.
fn read_bounded(path: &Path) -> Result<Vec<u8>, TsdbError> {
    let mut f = std::fs::File::open(path)?;
    let mut out = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        let n = f.read(&mut chunk)?;
        if n == 0 {
            return Ok(out);
        }
        out.extend_from_slice(&chunk[..n]);
    }
}

/// An append handle for one `series.capts` file.
///
/// Opening scans the existing file, truncates any torn tail, and
/// continues the `seq` numbering where the valid prefix ended — so a
/// resumed run appends contiguously to the history of the crashed one.
#[derive(Debug)]
pub struct SeriesWriter {
    file: AppendFile,
    prev_names: Vec<String>,
    prev_bits: Vec<u64>,
    next_seq: u64,
}

impl SeriesWriter {
    /// Opens (or creates) the series log at `path`.
    ///
    /// # Errors
    ///
    /// Returns [`TsdbError::Io`] on I/O failure and
    /// [`TsdbError::Format`] when an existing file is not a series log.
    pub fn open(path: &Path) -> Result<SeriesWriter, TsdbError> {
        let existing = match std::fs::metadata(path) {
            Ok(m) if m.len() > 0 => Some(read_bounded(path)?),
            _ => None,
        };
        let mut next_seq = 0u64;
        let mut truncate_to: Option<u64> = None;
        let mut fresh_header = true;
        if let Some(bytes) = existing {
            let scan = scan_bytes(&bytes)?;
            if let Some(last) = scan.samples.last() {
                next_seq = last.seq + 1;
            }
            if scan.truncated {
                truncate_to = Some(scan.valid_len);
            }
            fresh_header = false;
        }
        let mut file = AppendFile::open(path)?;
        if let Some(len) = truncate_to {
            file.truncate(len)?;
        }
        if fresh_header {
            let mut header = Vec::with_capacity(HEADER_LEN as usize);
            header.extend_from_slice(MAGIC);
            header.extend_from_slice(&VERSION.to_le_bytes());
            file.append_durable(&header)?;
        }
        Ok(SeriesWriter {
            file,
            // Force the first appended frame to be full: the previous
            // process's delta chain is unknown to a reopened writer.
            prev_names: Vec::new(),
            prev_bits: Vec::new(),
            next_seq,
        })
    }

    /// Sequence number the next append will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends one sample and returns it (with its assigned `seq`).
    /// `durable` fsyncs the frame — boundary samples use it; cadence
    /// samples skip the fsync and rely on torn-tail truncation.
    ///
    /// # Errors
    ///
    /// Returns [`TsdbError::Io`] on write failure.
    pub fn append(
        &mut self,
        t: f64,
        points: Vec<(String, f64)>,
        durable: bool,
    ) -> Result<Sample, TsdbError> {
        let seq = self.next_seq;
        let payload = encode_payload(seq, t, &points, &self.prev_names, &self.prev_bits);
        let mut frame = Vec::with_capacity(8 + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        if durable {
            self.file.append_durable(&frame)?;
        } else {
            self.file.append(&frame)?;
        }
        self.next_seq = seq + 1;
        self.prev_bits = points.iter().map(|(_, v)| v.to_bits()).collect();
        self.prev_names = points.iter().map(|(n, _)| n.clone()).collect();
        Ok(Sample { seq, t, points })
    }

    /// Forces all appended frames to disk.
    ///
    /// # Errors
    ///
    /// Returns [`TsdbError::Io`] on fsync failure.
    pub fn sync(&mut self) -> Result<(), TsdbError> {
        self.file.sync()?;
        Ok(())
    }
}

/// Flattens the metrics registry snapshot into series points: counters
/// and gauges map 1:1; histograms expand to `<name>.count` and
/// `<name>.mean`. Output stays sorted by name.
pub fn snapshot_points() -> Vec<(String, f64)> {
    let mut points = Vec::new();
    for (name, metric) in crate::registry().snapshot() {
        match metric {
            crate::Metric::Counter(c) => points.push((name, c as f64)),
            crate::Metric::Gauge(g) => points.push((name, g)),
            crate::Metric::Histogram(h) => {
                points.push((format!("{name}.count"), h.count() as f64));
                points.push((format!("{name}.mean"), h.mean()));
            }
        }
    }
    points
}

/// One queried point: `(seq, t, value)`.
pub type QueryPoint = (u64, f64, f64);

/// Extracts series `name` from `samples`, keeping `seq` in
/// `[from, to]`, then downsamples by striding to at most `downsample`
/// points (0 = no limit). Deterministic: the stride always keeps the
/// first point of each bucket and the final point.
pub fn query(
    samples: &[Sample],
    name: &str,
    from: Option<u64>,
    to: Option<u64>,
    downsample: usize,
) -> Vec<QueryPoint> {
    let mut points: Vec<QueryPoint> = samples
        .iter()
        .filter(|s| from.is_none_or(|f| s.seq >= f) && to.is_none_or(|t| s.seq <= t))
        .filter_map(|s| s.value(name).map(|v| (s.seq, s.t, v)))
        .collect();
    if downsample > 0 && points.len() > downsample {
        let stride = points.len().div_ceil(downsample);
        let last = *points.last().expect("non-empty: len > downsample >= 1");
        let mut kept: Vec<QueryPoint> = points.iter().step_by(stride).copied().collect();
        if kept.last() != Some(&last) {
            kept.push(last);
        }
        points = kept;
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("cap_tsdb_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d.join("series.capts")
    }

    fn pts(vals: &[(&str, f64)]) -> Vec<(String, f64)> {
        vals.iter().map(|(n, v)| (n.to_string(), *v)).collect()
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrips_full_and_delta_frames() {
        let path = tmp("roundtrip");
        let mut w = SeriesWriter::open(&path).unwrap();
        w.append(0.5, pts(&[("a", 1.0), ("b", 2.0)]), false)
            .unwrap();
        w.append(1.0, pts(&[("a", 1.0), ("b", 2.5)]), false)
            .unwrap();
        // Name-set change forces a full frame mid-file.
        w.append(1.5, pts(&[("a", 3.0), ("b", 2.5), ("c", -1.0)]), true)
            .unwrap();
        let samples = read_samples(&path).unwrap();
        assert_eq!(samples.len(), 3);
        assert_eq!(samples[0].seq, 0);
        assert_eq!(samples[1].value("b"), Some(2.5));
        assert_eq!(samples[2].value("c"), Some(-1.0));
        assert_eq!(samples[2].seq, 2);
    }

    #[test]
    fn values_roundtrip_bit_exactly() {
        let path = tmp("bits");
        let mut w = SeriesWriter::open(&path).unwrap();
        let exotic = [0.1 + 0.2, f64::MIN_POSITIVE, -0.0, 1e308, f64::NAN];
        for (i, &v) in exotic.iter().enumerate() {
            w.append(i as f64, pts(&[("x", v)]), false).unwrap();
        }
        w.sync().unwrap();
        let samples = read_samples(&path).unwrap();
        for (s, &v) in samples.iter().zip(exotic.iter()) {
            let got = s.value("x").unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn reopen_continues_seq_and_truncates_torn_tail() {
        let path = tmp("reopen");
        {
            let mut w = SeriesWriter::open(&path).unwrap();
            w.append(0.0, pts(&[("a", 1.0)]), true).unwrap();
            w.append(1.0, pts(&[("a", 2.0)]), true).unwrap();
        }
        // Simulate a crash mid-append: half a frame of garbage.
        let mut bytes = std::fs::read(&path).unwrap();
        let intact = bytes.len();
        bytes.extend_from_slice(&[0x77, 0x66, 0x55]);
        std::fs::write(&path, &bytes).unwrap();
        {
            let mut w = SeriesWriter::open(&path).unwrap();
            assert_eq!(w.next_seq(), 2);
            w.append(2.0, pts(&[("a", 3.0)]), true).unwrap();
        }
        let raw = std::fs::read(&path).unwrap();
        assert!(raw.len() > intact, "tail replaced, not appended after");
        let samples = read_samples(&path).unwrap();
        let seqs: Vec<u64> = samples.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2], "contiguous across reopen");
        assert_eq!(samples[2].value("a"), Some(3.0));
    }

    #[test]
    fn scan_rejects_non_series_files() {
        assert!(scan_bytes(b"").is_err());
        assert!(scan_bytes(b"CAPN\x02\x00\x00\x00").is_err());
        assert!(scan_bytes(b"CAPT\x07\x00\x00\x00").is_err());
        let ok = scan_bytes(b"CAPT\x01\x00\x00\x00").unwrap();
        assert!(ok.samples.is_empty() && !ok.truncated);
    }

    #[test]
    fn query_filters_and_downsamples_deterministically() {
        let samples: Vec<Sample> = (0..100)
            .map(|i| Sample {
                seq: i,
                t: i as f64,
                points: pts(&[("loss", 100.0 - i as f64)]),
            })
            .collect();
        let all = query(&samples, "loss", None, None, 0);
        assert_eq!(all.len(), 100);
        let ranged = query(&samples, "loss", Some(10), Some(19), 0);
        assert_eq!(ranged.len(), 10);
        assert_eq!(ranged[0].0, 10);
        let down = query(&samples, "loss", None, None, 10);
        assert!(down.len() <= 11, "{}", down.len());
        assert_eq!(down[0].0, 0);
        assert_eq!(down.last().unwrap().0, 99, "final point always kept");
        assert_eq!(down, query(&samples, "loss", None, None, 10));
        assert!(query(&samples, "absent", None, None, 0).is_empty());
    }

    #[test]
    fn varint_rejects_overlong_and_truncated() {
        let mut pos = 0;
        assert_eq!(read_varint(&[0x80], &mut pos), None);
        pos = 0;
        assert_eq!(
            read_varint(
                &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F],
                &mut pos
            ),
            None,
            "10-byte encodings above u64::MAX are rejected"
        );
        pos = 0;
        assert_eq!(read_varint(&[0x00], &mut pos), Some(0));
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            buf.clear();
            push_varint(&mut buf, v);
            let mut p = 0;
            assert_eq!(read_varint(&buf, &mut p), Some(v));
            assert_eq!(p, buf.len());
        }
    }
}
