//! Equivalence of the interleaved `crc64` kernel and of `crc64_patch`
//! with a bit-at-a-time CRC-64/XZ reference.
//!
//! The reference below has the same definition as
//! `mdrr_lint::rules::spec_sync::crc64_with` (reflected, init `!0`,
//! xor-out `!0`), which checks the polynomial in docs/FORMAT.md against
//! its documented check vector.  The kernel must agree with it on every
//! input length, every alignment and every tail length 0–7, and on both
//! sides of every block boundary, where the four lane registers are
//! combined; `crc64_patch` must agree with recomputing the patched
//! message.

use mdrr_store::{crc64, crc64_patch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The reflected CRC-64/XZ generator polynomial of docs/FORMAT.md.
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// Bit-at-a-time CRC-64/XZ: no tables, one polynomial step per bit.
fn crc64_bitwise(bytes: &[u8]) -> u64 {
    let mut crc = !0u64;
    for &b in bytes {
        crc ^= b as u64;
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

#[test]
fn reference_matches_the_published_check_vector() {
    assert_eq!(crc64_bitwise(b"123456789"), 0x995D_C9BB_DF19_39FA);
    assert_eq!(crc64_bitwise(b""), 0);
}

/// The kernel's block: four lanes of 4 KiB.
const BLOCK: usize = 4 * 4096;

fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen()).collect()
}

#[test]
fn wire_bulk_sized_buffer_matches_the_reference() {
    // One 4,096-report, 8-channel batch frame is 20 + 20 +
    // 4,096 × 8 × 4 + 8 = 131,120 bytes; 131,100 leaves a 4-byte tail.
    let bytes = random_bytes(0x00C0_FFEE, 131_120);
    for len in [131_100, 131_112, 131_120] {
        assert_eq!(
            crc64(&bytes[..len]),
            crc64_bitwise(&bytes[..len]),
            "length {len}"
        );
    }
}

#[test]
fn every_length_within_9_of_a_block_multiple_matches_the_reference() {
    // k·block + (−9..=+9) for k = 0..=3, from eight start offsets: the
    // short-input path, the lane combine after one to three blocks, and
    // every tail length on either side.
    let bytes = random_bytes(0x0B10_C4ED, 3 * BLOCK + 9 + 8);
    for k in 0..=3usize {
        for delta in -9isize..=9 {
            let Some(len) = (k * BLOCK).checked_add_signed(delta) else {
                continue;
            };
            for start in 0..8 {
                let input = &bytes[start..start + len];
                assert_eq!(
                    crc64(input),
                    crc64_bitwise(input),
                    "length {k}·block{delta:+}, start {start}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_length_up_to_67_matches_the_reference(
        bytes in prop::collection::vec(any::<u8>(), 67),
    ) {
        for len in 0..=bytes.len() {
            let input = &bytes[..len];
            prop_assert_eq!(crc64(input), crc64_bitwise(input), "length {}", len);
        }
    }

    #[test]
    fn unaligned_slices_and_every_tail_match_the_reference(
        bytes in prop::collection::vec(any::<u8>(), 256),
        start in 0usize..64,
        words in 0usize..16,
    ) {
        // Lengths 8·words + 0..=7 from every offset modulo 8 past a
        // random start: every tail length, aligned or not.
        for skew in 0..8 {
            for tail in 0..8 {
                let from = start + skew;
                let input = &bytes[from..from + 8 * words + tail];
                prop_assert_eq!(
                    crc64(input),
                    crc64_bitwise(input),
                    "offset {}, {} words, tail {}",
                    from,
                    words,
                    tail
                );
            }
        }
    }

    #[test]
    fn crc64_patch_matches_recomputing_the_patched_message(
        seed in any::<u64>(),
        len in 1usize..3 * BLOCK,
        at in any::<u64>(),
        width in 1usize..24,
    ) {
        let mut message = random_bytes(seed, len);
        let old = crc64(&message);
        let offset = (at % len as u64) as usize;
        let width = width.min(len - offset);
        let delta = random_bytes(!seed, width);
        for (byte, d) in message[offset..offset + width].iter_mut().zip(&delta) {
            *byte ^= d;
        }
        let patched = crc64_patch(old, &delta, len - offset - width);
        prop_assert_eq!(patched, crc64(&message), "offset {}, width {}", offset, width);
        prop_assert_eq!(patched, crc64_bitwise(&message));
    }
}
