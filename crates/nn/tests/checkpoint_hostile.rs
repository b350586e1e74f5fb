//! Hostile-input properties of `checkpoint::load`: arbitrary,
//! truncated, or bit-flipped byte streams must fail with a
//! `CheckpointError` — never panic, abort, or allocate unboundedly.

use cap_nn::layer::{BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, Linear, MaxPool2d, Relu};
use cap_nn::{checkpoint, Network};
use proptest::prelude::*;
use rand::SeedableRng;

fn sample_net() -> Network {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let mut net = Network::new();
    net.push(Conv2d::new(2, 4, 3, 1, 1, true, &mut rng).unwrap());
    net.push(BatchNorm2d::new(4).unwrap());
    net.push(Relu::new());
    net.push(MaxPool2d::new(2, 2).unwrap());
    net.push(GlobalAvgPool::new());
    net.push(Flatten::new());
    net.push(Linear::new(4, 3, &mut rng).unwrap());
    net
}

fn valid_bytes() -> Vec<u8> {
    checkpoint::to_bytes(&sample_net()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary byte soup: `load` returns an error (or, for the
    /// vanishingly unlikely valid stream, a network) without panicking.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let _ = checkpoint::load(bytes.as_slice());
    }

    /// Byte soup framed as a v2 payload with its true length and CRC
    /// exercises the body parser (tags, tensor shapes, length fields)
    /// rather than dying at the magic or checksum check.
    #[test]
    fn framed_garbage_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..256)) {
        let mut buf = Vec::with_capacity(bytes.len() + 20);
        buf.extend_from_slice(b"CAPN");
        buf.extend_from_slice(&2u32.to_le_bytes());
        buf.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        buf.extend_from_slice(&cap_obs::tsdb::crc32(&bytes).to_le_bytes());
        buf.extend_from_slice(&bytes);
        let _ = checkpoint::load(buf.as_slice());
    }

    /// Every strict truncation of a valid checkpoint is rejected.
    #[test]
    fn truncations_are_rejected(cut in 0usize..1_000_000) {
        let full = valid_bytes();
        let cut = cut % full.len();
        prop_assert!(checkpoint::load(&full[..cut]).is_err());
    }

    /// Any single bit flip in a v2 checkpoint is rejected: header flips
    /// fail magic/version/length validation, payload flips fail the
    /// CRC. None may restore a network silently.
    #[test]
    fn single_bitflips_are_rejected(bit in 0usize..1_000_000) {
        let mut bytes = valid_bytes();
        let bit = bit % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(checkpoint::load(bytes.as_slice()).is_err(), "flip of bit {bit} accepted");
    }
}
