//! Binary checkpointing for [`Network`]s.
//!
//! Pruning experiments repeatedly reuse a pre-trained model; this module
//! serialises a network's full inference state (weights, biases,
//! batch-norm statistics and structural hyper-parameters — not optimiser
//! state or forward caches) to a compact versioned little-endian binary
//! format.
//!
//! # Wire format
//!
//! Version 2, the only version [`save`] writes and [`load`] reads,
//! frames the layer payload for integrity checking:
//!
//! ```text
//! "CAPN" | u32 version=2 | u64 payload_len | u32 crc32(payload) | payload
//! ```
//!
//! where `payload` is the layer count followed by the tagged layers.
//! [`load`] verifies the CRC before parsing, so any bit flip in the
//! payload is rejected as [`CheckpointError::ChecksumMismatch`] instead
//! of silently restoring garbage weights. The unframed version 1 had
//! no CRC, so it is rejected as [`CheckpointError::UnsupportedVersion`]
//! rather than parsed unchecked.
//!
//! All length fields are validated and data is read incrementally, so a
//! hostile or truncated stream fails with a [`CheckpointError`] without
//! large speculative allocations — and never panics (see the
//! `checkpoint_hostile` proptests).
//!
//! # Example
//!
//! ```
//! use cap_nn::layer::{Conv2d, GlobalAvgPool, Linear, Relu};
//! use cap_nn::{checkpoint, Network};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut net = Network::new();
//! net.push(Conv2d::new(3, 4, 3, 1, 1, true, &mut rng)?);
//! net.push(Relu::new());
//! net.push(GlobalAvgPool::new());
//! net.push(Linear::new(4, 2, &mut rng)?);
//!
//! let mut buf = Vec::new();
//! checkpoint::save(&net, &mut buf)?;
//! let restored = checkpoint::load(buf.as_slice())?;
//! assert_eq!(restored.num_params(), net.num_params());
//! # Ok(())
//! # }
//! ```

use crate::layer::{
    BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, Layer, Linear, MaxPool2d, Relu, ResidualBlock,
};
use crate::{Network, NnError};
use cap_obs::tsdb::crc32;
use cap_tensor::Tensor;
use std::error::Error;
use std::fmt;
use std::io::{Read, Write};

const MAGIC: &[u8; 4] = b"CAPN";
/// The format version: framed and checksummed.
const VERSION: u32 = 2;
/// Upper bound accepted for the v2 payload length field (hostile input
/// guard; real checkpoints in this workspace are megabytes).
const MAX_PAYLOAD: u64 = 1 << 31;

/// Errors produced by checkpoint serialisation.
#[derive(Debug)]
pub enum CheckpointError {
    /// An I/O operation failed.
    Io(std::io::Error),
    /// The stream does not start with the checkpoint magic.
    BadMagic,
    /// The checkpoint was written by an unsupported format version.
    UnsupportedVersion {
        /// The version found in the stream.
        found: u32,
    },
    /// The stream is structurally invalid (unknown tags, bad lengths).
    Corrupt {
        /// Human-readable description.
        reason: String,
    },
    /// The v2 payload checksum does not match — the file was corrupted
    /// after it was written (bit rot, torn write, hostile edit).
    ChecksumMismatch {
        /// CRC recorded in the frame header.
        expected: u32,
        /// CRC computed over the payload actually read.
        found: u32,
    },
    /// Reassembling a layer from parts failed.
    Nn(NnError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a cap checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported checkpoint version {found} (supported: {VERSION})"
                )
            }
            CheckpointError::Corrupt { reason } => write!(f, "corrupt checkpoint: {reason}"),
            CheckpointError::ChecksumMismatch { expected, found } => write!(
                f,
                "checkpoint checksum mismatch: header says {expected:#010x}, payload is {found:#010x}"
            ),
            CheckpointError::Nn(e) => write!(f, "invalid layer in checkpoint: {e}"),
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Nn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<NnError> for CheckpointError {
    fn from(e: NnError) -> Self {
        CheckpointError::Nn(e)
    }
}

// Layer tags.
const TAG_CONV: u8 = 1;
const TAG_BN: u8 = 2;
const TAG_RELU: u8 = 3;
const TAG_MAXPOOL: u8 = 4;
const TAG_GAP: u8 = 5;
const TAG_FLATTEN: u8 = 6;
const TAG_LINEAR: u8 = 7;
const TAG_RESIDUAL: u8 = 8;

/// Saves `net` to `w` in the current (v2, CRC-framed) format. A `&mut`
/// reference works as the writer.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on write failures.
pub fn save<W: Write>(net: &Network, mut w: W) -> Result<(), CheckpointError> {
    let payload = body_bytes(net)?;
    w.write_all(MAGIC)?;
    write_u32(&mut w, VERSION)?;
    write_u64(&mut w, payload.len() as u64)?;
    write_u32(&mut w, crc32(&payload))?;
    w.write_all(&payload)?;
    Ok(())
}

/// Serialises `net` to an in-memory v2 checkpoint. Two structurally
/// identical networks produce identical bytes, so this doubles as the
/// bit-identity comparator in the crash-safety tests.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] (never for the in-memory writer in
/// practice).
pub fn to_bytes(net: &Network) -> Result<Vec<u8>, CheckpointError> {
    let mut buf = Vec::new();
    save(net, &mut buf)?;
    Ok(buf)
}

fn save_body<W: Write>(net: &Network, w: &mut W) -> Result<(), CheckpointError> {
    write_u64(w, net.layers().len() as u64)?;
    for layer in net.layers() {
        save_layer(layer, w)?;
    }
    Ok(())
}

fn body_bytes(net: &Network) -> Result<Vec<u8>, CheckpointError> {
    let mut payload = Vec::new();
    save_body(net, &mut payload)?;
    Ok(payload)
}

/// Loads a network from a v2 stream `r`, validating its CRC before
/// parsing. A `&mut` reference or a byte slice works as the reader.
///
/// # Errors
///
/// Returns [`CheckpointError::BadMagic`] /
/// [`CheckpointError::UnsupportedVersion`] /
/// [`CheckpointError::Corrupt`] for malformed input,
/// [`CheckpointError::ChecksumMismatch`] when the v2 payload fails CRC
/// validation, and propagates I/O errors.
pub fn load<R: Read>(mut r: R) -> Result<Network, CheckpointError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = read_u32(&mut r)?;
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion { found: version });
    }
    let len = read_u64(&mut r)?;
    if len > MAX_PAYLOAD {
        return Err(CheckpointError::Corrupt {
            reason: format!("implausible payload length {len}"),
        });
    }
    let expected = read_u32(&mut r)?;
    let payload = read_chunked(&mut r, len as usize)?;
    let found = crc32(&payload);
    if found != expected {
        return Err(CheckpointError::ChecksumMismatch { expected, found });
    }
    let mut slice: &[u8] = &payload;
    let net = load_body(&mut slice)?;
    if !slice.is_empty() {
        return Err(CheckpointError::Corrupt {
            reason: format!("{} trailing payload bytes", slice.len()),
        });
    }
    Ok(net)
}

fn load_body<R: Read>(r: &mut R) -> Result<Network, CheckpointError> {
    let count = read_u64(r)?;
    if count > 1_000_000 {
        return Err(CheckpointError::Corrupt {
            reason: format!("implausible layer count {count}"),
        });
    }
    let mut net = Network::new();
    for _ in 0..count {
        net.push(load_layer(r)?);
    }
    Ok(net)
}

/// Reads exactly `len` bytes in bounded chunks, so a hostile length
/// field cannot trigger a huge allocation before the (truncated) stream
/// runs dry.
fn read_chunked<R: Read>(r: &mut R, len: usize) -> Result<Vec<u8>, CheckpointError> {
    const CHUNK: usize = 1 << 16;
    let mut out = Vec::new();
    let mut buf = [0u8; CHUNK];
    let mut remaining = len;
    while remaining > 0 {
        let take = remaining.min(CHUNK);
        r.read_exact(&mut buf[..take])?;
        out.extend_from_slice(&buf[..take]);
        remaining -= take;
    }
    Ok(out)
}

fn save_layer<W: Write>(layer: &Layer, w: &mut W) -> Result<(), CheckpointError> {
    match layer {
        Layer::Conv(c) => {
            w.write_all(&[TAG_CONV])?;
            save_conv(c, w)
        }
        Layer::BatchNorm(bn) => {
            w.write_all(&[TAG_BN])?;
            save_bn(bn, w)
        }
        Layer::Relu(_) => Ok(w.write_all(&[TAG_RELU])?),
        Layer::MaxPool(p) => {
            w.write_all(&[TAG_MAXPOOL])?;
            write_u32(w, p.kernel() as u32)?;
            write_u32(w, p.stride() as u32)?;
            Ok(())
        }
        Layer::GlobalAvgPool(_) => Ok(w.write_all(&[TAG_GAP])?),
        Layer::Flatten(_) => Ok(w.write_all(&[TAG_FLATTEN])?),
        Layer::Linear(l) => {
            w.write_all(&[TAG_LINEAR])?;
            write_tensor(w, l.weight())?;
            write_tensor(w, l.bias())?;
            Ok(())
        }
        Layer::Residual(b) => {
            w.write_all(&[TAG_RESIDUAL])?;
            save_conv(b.conv1(), w)?;
            save_bn(b.bn1(), w)?;
            save_conv(b.conv2(), w)?;
            save_bn(b.bn2(), w)?;
            match b.shortcut() {
                Some((c, bn)) => {
                    w.write_all(&[1])?;
                    save_conv(c, w)?;
                    save_bn(bn, w)
                }
                None => Ok(w.write_all(&[0])?),
            }
        }
    }
}

fn load_layer<R: Read>(r: &mut R) -> Result<Layer, CheckpointError> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    Ok(match tag[0] {
        TAG_CONV => Layer::Conv(load_conv(r)?),
        TAG_BN => Layer::BatchNorm(load_bn(r)?),
        TAG_RELU => Layer::Relu(Relu::new()),
        TAG_MAXPOOL => {
            let kernel = read_u32(r)? as usize;
            let stride = read_u32(r)? as usize;
            Layer::MaxPool(MaxPool2d::new(kernel, stride)?)
        }
        TAG_GAP => Layer::GlobalAvgPool(GlobalAvgPool::new()),
        TAG_FLATTEN => Layer::Flatten(Flatten::new()),
        TAG_LINEAR => {
            let weight = read_tensor(r)?;
            let bias = read_tensor(r)?;
            Layer::Linear(Linear::from_parts(weight, bias)?)
        }
        TAG_RESIDUAL => {
            let conv1 = load_conv(r)?;
            let bn1 = load_bn(r)?;
            let conv2 = load_conv(r)?;
            let bn2 = load_bn(r)?;
            let mut has_shortcut = [0u8; 1];
            r.read_exact(&mut has_shortcut)?;
            let shortcut = match has_shortcut[0] {
                0 => None,
                1 => Some((load_conv(r)?, load_bn(r)?)),
                other => {
                    return Err(CheckpointError::Corrupt {
                        reason: format!("invalid shortcut flag {other}"),
                    })
                }
            };
            Layer::Residual(ResidualBlock::from_parts(conv1, bn1, conv2, bn2, shortcut))
        }
        other => {
            return Err(CheckpointError::Corrupt {
                reason: format!("unknown layer tag {other}"),
            })
        }
    })
}

fn save_conv<W: Write>(c: &Conv2d, w: &mut W) -> Result<(), CheckpointError> {
    write_u32(w, c.stride() as u32)?;
    write_u32(w, c.padding() as u32)?;
    write_tensor(w, c.weight())?;
    match c.bias() {
        Some(b) => {
            w.write_all(&[1])?;
            write_tensor(w, b)
        }
        None => Ok(w.write_all(&[0])?),
    }
}

fn load_conv<R: Read>(r: &mut R) -> Result<Conv2d, CheckpointError> {
    let stride = read_u32(r)? as usize;
    let padding = read_u32(r)? as usize;
    let weight = read_tensor(r)?;
    let mut has_bias = [0u8; 1];
    r.read_exact(&mut has_bias)?;
    let bias = match has_bias[0] {
        0 => None,
        1 => Some(read_tensor(r)?),
        other => {
            return Err(CheckpointError::Corrupt {
                reason: format!("invalid bias flag {other}"),
            })
        }
    };
    Ok(Conv2d::from_parts(weight, bias, stride, padding)?)
}

fn save_bn<W: Write>(bn: &BatchNorm2d, w: &mut W) -> Result<(), CheckpointError> {
    write_tensor(w, bn.gamma())?;
    write_tensor(w, bn.beta())?;
    write_f64_slice(w, bn.running_mean())?;
    write_f64_slice(w, bn.running_var())?;
    Ok(())
}

fn load_bn<R: Read>(r: &mut R) -> Result<BatchNorm2d, CheckpointError> {
    let gamma = read_tensor(r)?;
    let beta = read_tensor(r)?;
    let mean = read_f64_slice(r)?;
    let var = read_f64_slice(r)?;
    Ok(BatchNorm2d::from_parts(gamma, beta, mean, var)?)
}

fn write_tensor<W: Write>(w: &mut W, t: &Tensor) -> Result<(), CheckpointError> {
    write_u32(w, t.ndim() as u32)?;
    for &d in t.shape() {
        write_u64(w, d as u64)?;
    }
    for &v in t.data() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn read_tensor<R: Read>(r: &mut R) -> Result<Tensor, CheckpointError> {
    let ndim = read_u32(r)? as usize;
    if ndim > 8 {
        return Err(CheckpointError::Corrupt {
            reason: format!("implausible tensor rank {ndim}"),
        });
    }
    let mut shape = Vec::with_capacity(ndim);
    for _ in 0..ndim {
        let d = read_u64(r)? as usize;
        if d > 1 << 28 {
            return Err(CheckpointError::Corrupt {
                reason: format!("implausible dimension {d}"),
            });
        }
        shape.push(d);
    }
    // checked_mul: eight 2^28 dimensions would overflow a plain product
    // (a panic in debug, silent wraparound in release).
    let numel = shape
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .filter(|&n| n <= 1 << 30)
        .ok_or_else(|| CheckpointError::Corrupt {
            reason: format!("implausible element count for shape {shape:?}"),
        })?;
    // Incremental reads keep the allocation bounded by the bytes the
    // stream actually contains, not by the hostile length field.
    const CHUNK: usize = 4096;
    let mut data: Vec<f32> = Vec::new();
    let mut buf = [0u8; CHUNK * 4];
    let mut remaining = numel;
    while remaining > 0 {
        let take = remaining.min(CHUNK);
        r.read_exact(&mut buf[..take * 4])?;
        for i in 0..take {
            data.push(f32::from_le_bytes([
                buf[i * 4],
                buf[i * 4 + 1],
                buf[i * 4 + 2],
                buf[i * 4 + 3],
            ]));
        }
        remaining -= take;
    }
    Tensor::from_vec(shape, data).map_err(|e| CheckpointError::Corrupt {
        reason: e.to_string(),
    })
}

fn write_f64_slice<W: Write>(w: &mut W, s: &[f64]) -> Result<(), CheckpointError> {
    write_u64(w, s.len() as u64)?;
    for &v in s {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

fn read_f64_slice<R: Read>(r: &mut R) -> Result<Vec<f64>, CheckpointError> {
    let len = read_u64(r)? as usize;
    if len > 1 << 28 {
        return Err(CheckpointError::Corrupt {
            reason: format!("implausible slice length {len}"),
        });
    }
    const CHUNK: usize = 2048;
    let mut out: Vec<f64> = Vec::new();
    let mut buf = [0u8; CHUNK * 8];
    let mut remaining = len;
    while remaining > 0 {
        let take = remaining.min(CHUNK);
        r.read_exact(&mut buf[..take * 8])?;
        for i in 0..take {
            let mut b = [0u8; 8];
            b.copy_from_slice(&buf[i * 8..i * 8 + 8]);
            out.push(f64::from_le_bytes(b));
        }
        remaining -= take;
    }
    Ok(out)
}

fn write_u32<W: Write>(w: &mut W, v: u32) -> Result<(), CheckpointError> {
    Ok(w.write_all(&v.to_le_bytes())?)
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, CheckpointError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn write_u64<W: Write>(w: &mut W, v: u64) -> Result<(), CheckpointError> {
    Ok(w.write_all(&v.to_le_bytes())?)
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, CheckpointError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(77)
    }

    /// `payload` behind a v2 header carrying its true length and CRC.
    fn framed(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        buf.extend_from_slice(&crc32(payload).to_le_bytes());
        buf.extend_from_slice(payload);
        buf
    }

    fn full_net() -> Network {
        let mut r = rng();
        let mut net = Network::new();
        net.push(Conv2d::new(3, 6, 3, 1, 1, true, &mut r).unwrap());
        net.push(BatchNorm2d::new(6).unwrap());
        net.push(Relu::new());
        net.push(MaxPool2d::new(2, 2).unwrap());
        net.push(ResidualBlock::new(6, 12, 2, &mut r).unwrap());
        net.push(ResidualBlock::new(12, 12, 1, &mut r).unwrap());
        net.push(GlobalAvgPool::new());
        net.push(Flatten::new());
        net.push(Linear::new(12, 5, &mut r).unwrap());
        net
    }

    #[test]
    fn roundtrip_preserves_inference() {
        let mut net = full_net();
        // Warm BN running stats so eval-mode inference is non-trivial.
        let x = cap_tensor::randn(&[2, 3, 8, 8], 0.0, 1.0, &mut rng());
        for _ in 0..5 {
            net.forward(&x, true).unwrap();
        }
        let expected = net.forward(&x, false).unwrap();

        let mut buf = Vec::new();
        save(&net, &mut buf).unwrap();
        let mut restored = load(buf.as_slice()).unwrap();
        let actual = restored.forward(&x, false).unwrap();
        assert_eq!(expected.shape(), actual.shape());
        for (a, b) in expected.data().iter().zip(actual.data()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        assert_eq!(net.num_params(), restored.num_params());
    }

    #[test]
    fn roundtrip_preserves_pruned_networks() {
        let mut net = full_net();
        // Prune the first conv through the site machinery shape: directly
        // shrink it plus its BN; the consumer is a residual so we only
        // check serialisation, not surgery here.
        if let Some(c) = net.layers_mut()[0].as_conv_mut() {
            c.retain_output_channels(&[0, 2, 4]).unwrap();
        }
        if let Layer::BatchNorm(bn) = &mut net.layers_mut()[1] {
            bn.retain_channels(&[0, 2, 4]).unwrap();
        }
        let mut buf = Vec::new();
        save(&net, &mut buf).unwrap();
        let restored = load(buf.as_slice()).unwrap();
        assert_eq!(restored.layers()[0].as_conv().unwrap().out_channels(), 3);
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOPE00000000".to_vec();
        assert!(matches!(
            load(buf.as_slice()),
            Err(CheckpointError::BadMagic)
        ));
    }

    #[test]
    fn unsupported_version_rejected() {
        let mut buf = Vec::new();
        save(&full_net(), &mut buf).unwrap();
        buf[4] = 99; // bump version field
        assert!(matches!(
            load(buf.as_slice()),
            Err(CheckpointError::UnsupportedVersion { found: 99 })
        ));
    }

    #[test]
    fn truncation_detected() {
        let mut buf = Vec::new();
        save(&full_net(), &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(matches!(load(buf.as_slice()), Err(CheckpointError::Io(_))));
    }

    #[test]
    fn unknown_tag_detected() {
        let mut payload = body_bytes(&full_net()).unwrap();
        // The first layer tag sits right after the layer count; the
        // frame's CRC covers the altered byte, so the parser sees it.
        payload[8] = 200;
        assert!(matches!(
            load(framed(&payload).as_slice()),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn v1_streams_are_rejected() {
        // The unframed version 1: magic, version, then the body with no
        // length or CRC. A flipped weight bit would load silently, so
        // the version is refused whatever the body holds.
        let mut v1 = Vec::new();
        v1.extend_from_slice(MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&body_bytes(&full_net()).unwrap());
        assert!(matches!(
            load(v1.as_slice()),
            Err(CheckpointError::UnsupportedVersion { found: 1 })
        ));
    }

    #[test]
    fn bitflip_anywhere_in_payload_is_rejected_by_crc() {
        let buf = to_bytes(&full_net()).unwrap();
        let header = 4 + 4 + 8 + 4; // magic, version, len, crc
        for pos in [header, header + 37, buf.len() / 2, buf.len() - 1] {
            let mut corrupted = buf.clone();
            corrupted[pos] ^= 0x10;
            assert!(
                matches!(
                    load(corrupted.as_slice()),
                    Err(CheckpointError::ChecksumMismatch { .. })
                ),
                "flip at {pos} must fail CRC"
            );
        }
    }

    #[test]
    fn trailing_payload_bytes_detected() {
        let mut payload = body_bytes(&full_net()).unwrap();
        payload.push(0); // one stray byte inside the checksummed frame
        assert!(matches!(
            load(framed(&payload).as_slice()),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn hostile_length_fields_fail_without_huge_allocation() {
        // v2 header claiming a 1 GiB payload over a 3-byte stream: the
        // chunked reader must fail on EOF long before 1 GiB.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&(1u64 << 30).to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(load(buf.as_slice()), Err(CheckpointError::Io(_))));

        // Shape whose element product overflows usize must be rejected,
        // not panic, even behind a valid CRC.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes()); // one layer
        payload.push(TAG_LINEAR);
        payload.extend_from_slice(&8u32.to_le_bytes()); // ndim 8
        for _ in 0..8 {
            payload.extend_from_slice(&(1u64 << 28).to_le_bytes());
        }
        assert!(matches!(
            load(framed(&payload).as_slice()),
            Err(CheckpointError::Corrupt { .. })
        ));
    }

    #[test]
    fn empty_network_roundtrips() {
        let net = Network::new();
        let mut buf = Vec::new();
        save(&net, &mut buf).unwrap();
        let restored = load(buf.as_slice()).unwrap();
        assert_eq!(restored.layers().len(), 0);
    }
}
