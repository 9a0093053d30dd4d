//! Equivalence of the slice-by-8 `crc64` kernel with a bit-at-a-time
//! CRC-64/XZ reference.
//!
//! The reference below has the same definition as
//! `mdrr_lint::rules::spec_sync::crc64_with` (reflected, init `!0`,
//! xor-out `!0`), which checks the polynomial in docs/FORMAT.md against
//! its documented check vector.  The kernel must agree with it on every
//! input length, every alignment and every tail length 0–7.

use mdrr_store::crc64;
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

#[test]
fn wire_bulk_sized_buffer_matches_the_reference() {
    // About one 4,096-report, 8-channel batch frame (20 + 20 +
    // 4,096 × 8 × 4 + 8 = 131,120 bytes); 131,100 leaves a 4-byte tail.
    let mut rng = StdRng::seed_from_u64(0x00C0_FFEE);
    let bytes: Vec<u8> = (0..131_100).map(|_| rng.gen()).collect();
    assert_eq!(crc64(&bytes), crc64_bitwise(&bytes));
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
}
