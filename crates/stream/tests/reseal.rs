//! Re-sealing a batch frame by linearity is byte-identical to encoding
//! it afresh.
//!
//! `wire::set_batch_seq` rewrites a frame's seq and derives the new
//! trailer from the old one (`mdrr_store::crc64_patch`) instead of
//! re-hashing the frame.  For every shape it must produce exactly the
//! bytes of `encode_frame` over `encode_batch_payload` with the new seq:
//! empty batches, any channel count, and checksummed bodies that end on
//! either side of the CRC kernel's 4 KiB lane and 16 KiB block
//! boundaries.

use mdrr_stream::wire::{encode_batch_payload, encode_frame, set_batch_seq};
use mdrr_stream::{FrameType, ReportBatch};
use proptest::prelude::*;

/// Bytes of a batch frame's checksummed body before its codes: the
/// frame header and the batch payload header.
const BODY_OVERHEAD: usize = 40;

/// A batch frame of `reports` reports over `channels` channels, its
/// codes a fixed function of `seed`.
fn batch_frame(seq: u64, channels: usize, reports: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    let mut batch = ReportBatch::new(channels).unwrap();
    for column in batch.channels_mut() {
        column.extend((0..reports).map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u32
        }));
    }
    let payload = encode_batch_payload(seq, seed as u32, &batch).unwrap();
    encode_frame(FrameType::Batch, &payload).unwrap()
}

/// Re-seals a frame encoded under `old` to `new` and compares it with
/// the frame encoded under `new` from scratch.
fn assert_reseal_is_exact(channels: usize, reports: usize, seed: u64, old: u64, new: u64) {
    let mut frame = batch_frame(old, channels, reports, seed);
    set_batch_seq(&mut frame, new).unwrap();
    assert_eq!(
        frame,
        batch_frame(new, channels, reports, seed),
        "{channels} channels × {reports} reports, seq {old:#x} → {new:#x}"
    );
}

#[test]
fn bodies_on_either_side_of_every_lane_and_block_boundary_reseal_exactly() {
    for boundary in [4096, 2 * 4096, 16 * 1024, 2 * 16 * 1024, 3 * 16 * 1024] {
        for channels in 1..=8 {
            // The last report count whose body fits below the boundary,
            // and its neighbours on both sides.
            let below = (boundary - BODY_OVERHEAD) / (4 * channels);
            for reports in below - 1..=below + 2 {
                assert_reseal_is_exact(channels, reports, boundary as u64, 7, u64::MAX - 7);
            }
        }
    }
}

#[test]
fn empty_batches_and_unchanged_seqs_reseal_exactly() {
    for channels in 1..=8 {
        assert_reseal_is_exact(channels, 0, 1, 0, 1);
        assert_reseal_is_exact(channels, 0, 2, u64::MAX, 0);
        assert_reseal_is_exact(channels, 5, 3, 42, 42);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn reseal_equals_a_full_rehash(
        channels in 1usize..=8,
        reports in 0usize..1600,
        seed in any::<u64>(),
        old in any::<u64>(),
        new in any::<u64>(),
    ) {
        assert_reseal_is_exact(channels, reports, seed, old, new);
    }
}
