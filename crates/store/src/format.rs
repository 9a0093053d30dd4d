//! The on-disk snapshot format: byte-level encoding, decoding and the
//! trailing checksum.
//!
//! The format is specified byte by byte in `docs/FORMAT.md` at the
//! repository root — this module is the reference implementation of that
//! contract.  In short (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  = "MDRRSNAP" (ASCII)
//! 8       4     format version (u32, currently 1)
//! 12      8     record count (u64)
//! 20      4     channel count C (u32)
//! 24      4     header JSON length H (u32)
//! 28      H     header JSON (UTF-8: schema, protocol spec, app state)
//! 28+H    …     C channel blocks: u32 length L, then L × u64 counts
//! end-8   8     CRC-64/XZ over every preceding byte (u64)
//! ```
//!
//! Decoding never trusts a declared length beyond the bytes actually
//! present, so corrupt length fields cannot trigger huge allocations;
//! every failure mode maps to a typed [`StoreError`].

use crate::error::StoreError;
use crate::snapshot::{Snapshot, SnapshotHeader};

/// The eight magic bytes every snapshot starts with (`MDRRSNAP` in ASCII).
///
/// ```
/// assert_eq!(mdrr_store::MAGIC, *b"MDRRSNAP");
/// ```
pub const MAGIC: [u8; 8] = *b"MDRRSNAP";

/// The snapshot format version this crate reads and writes.  Readers must
/// reject any other version (see `docs/FORMAT.md` for the versioning
/// rules).
///
/// ```
/// assert_eq!(mdrr_store::FORMAT_VERSION, 1);
/// ```
pub const FORMAT_VERSION: u32 = 1;

/// The reflected CRC-64/XZ generator polynomial.
const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

/// The slice-by-8 lookup tables, built at compile time.  Row `k` maps a
/// byte to the CRC register it leaves after `k` further zero bytes, so
/// row 0 is the classic bytewise table and one lookup per row folds a
/// whole 8-byte word.
const CRC64_TABLES: [[u64; 256]; 8] = crc64_tables();

#[expect(
    clippy::indexing_slicing,
    reason = "const-evaluated with row < 8 and byte < 256; an out-of-range index fails the build, it cannot run"
)]
const fn crc64_tables() -> [[u64; 256]; 8] {
    let mut tables = [[0u64; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u64;
        let mut row = 0;
        while row < 8 {
            // Shift one more (zero) byte through the register.
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ CRC64_POLY
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            tables[row][byte] = crc;
            row += 1;
        }
        byte += 1;
    }
    tables
}

/// One table lookup.
#[inline(always)]
#[expect(
    clippy::indexing_slicing,
    reason = "a u8 index is at most 255 and every row has 256 slots"
)]
fn lookup(row: &[u64; 256], byte: u8) -> u64 {
    row[byte as usize]
}

/// One slice-by-8 step: XOR the 8-byte little-endian `word` into the
/// register and fold it through the eight tables at once.
#[inline(always)]
fn step(crc: u64, word: &[u8; 8]) -> u64 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = &CRC64_TABLES;
    let [b0, b1, b2, b3, b4, b5, b6, b7] = (u64::from_le_bytes(*word) ^ crc).to_le_bytes();
    lookup(t7, b0)
        ^ lookup(t6, b1)
        ^ lookup(t5, b2)
        ^ lookup(t4, b3)
        ^ lookup(t3, b4)
        ^ lookup(t2, b5)
        ^ lookup(t1, b6)
        ^ lookup(t0, b7)
}

/// The raw register update over `bytes` (no initial value, no output
/// xor): slice-by-8 over whole words, then the 0–7 trailing bytes one at
/// a time through row 0.
fn update(mut crc: u64, bytes: &[u8]) -> u64 {
    let [t0, ..] = &CRC64_TABLES;
    let (words, tail) = bytes.as_chunks::<8>();
    for word in words {
        crc = step(crc, word);
    }
    for &b in tail {
        crc = lookup(t0, crc as u8 ^ b) ^ (crc >> 8);
    }
    crc
}

/// `a · b mod P` over GF(2), both operands in the reflected bit order of
/// the CRC register (bit 63 is x⁰): shift-and-xor, one bit of `a` per
/// step, with `b` multiplied by x (one zero-bit register step) between.
const fn gf2_mul(a: u64, mut b: u64) -> u64 {
    let mut product = 0u64;
    let mut bit = 1u64 << 63;
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        b = if b & 1 == 1 {
            (b >> 1) ^ CRC64_POLY
        } else {
            b >> 1
        };
        bit >>= 1;
    }
    product
}

/// `x^(8n) mod P` by square-and-multiply: multiplying a register by it
/// carries the register past `n` zero bytes, in O(log n) multiplies.
const fn x_pow_8n(mut n: u64) -> u64 {
    let mut power = 1u64 << 63; // x⁰
    let mut square = 1u64 << (63 - 8); // x^(8·2^k), starting at x⁸
    while n != 0 {
        if n & 1 == 1 {
            power = gf2_mul(square, power);
        }
        square = gf2_mul(square, square);
        n >>= 1;
    }
    power
}

/// Bytes per lane of the interleaved kernel; a block is four lanes.
/// Four 4 KiB lanes measured fastest on a 131,120-byte wire frame,
/// against three lanes of 2 or 4 KiB and four of 0.5–2 KiB.
const LANE_BYTES: usize = 4096;

/// Bytes per block: four lanes.
const BLOCK_BYTES: usize = 4 * LANE_BYTES;

/// `x^(8·LANE_BYTES) mod P`: carries a lane register past one lane.
const LANE_SHIFT: u64 = x_pow_8n(LANE_BYTES as u64);

/// CRC-64/XZ (also known as CRC-64/GO-ECMA): reflected polynomial
/// `0xC96C5795D7870F42`, initial value `!0`, output
/// xor `!0`.  This is the checksum at the tail of every snapshot; it is
/// also exposed so external implementations of the format can test their
/// own checksummers against this one.
///
/// A CRC is linear over GF(2), so each 16 KiB block is split into four
/// 4 KiB lanes that run the slice-by-8 step side by side — four
/// independent dependency chains instead of one.  Lane 0 starts from
/// the running register and lanes 1–3 from zero; the lane registers are
/// then combined by multiplying by the constant `x^(8·4096) mod P`,
/// the interleave-and-combine scheme of Gopal et al. (Intel, 2011) and
/// zlib's `crc32_combine`.  Inputs shorter than a block, and the tail
/// after the last block, go through the slice-by-8 step alone.
///
/// ```
/// // The standard check vector of CRC-64/XZ:
/// assert_eq!(mdrr_store::crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
/// assert_eq!(mdrr_store::crc64(b""), 0);
/// ```
pub fn crc64(bytes: &[u8]) -> u64 {
    let (lanes, _) = bytes.as_chunks::<LANE_BYTES>();
    let (blocks, _) = lanes.as_chunks::<4>();
    let mut crc = !0u64;
    for [l0, l1, l2, l3] in blocks {
        let (w0, w1, w2, w3) = (
            l0.as_chunks::<8>().0,
            l1.as_chunks::<8>().0,
            l2.as_chunks::<8>().0,
            l3.as_chunks::<8>().0,
        );
        let (mut c0, mut c1, mut c2, mut c3) = (crc, 0, 0, 0);
        for (((w0, w1), w2), w3) in w0.iter().zip(w1).zip(w2).zip(w3) {
            c0 = step(c0, w0);
            c1 = step(c1, w1);
            c2 = step(c2, w2);
            c3 = step(c3, w3);
        }
        crc = gf2_mul(LANE_SHIFT, c0) ^ c1;
        crc = gf2_mul(LANE_SHIFT, crc) ^ c2;
        crc = gf2_mul(LANE_SHIFT, crc) ^ c3;
    }
    !update(crc, bytes.get(blocks.len() * BLOCK_BYTES..).unwrap_or(&[]))
}

/// The CRC-64/XZ of a message after `delta` is XORed into it, computed
/// from the message's old checksum `crc` alone: `bytes_after` is the
/// number of message bytes that follow the patched range.  The message
/// length does not change.
///
/// By linearity, `crc64(M ⊕ D) = crc64(M) ⊕ raw(D)`, where `raw` is the
/// register update with initial value 0 and no output xor; leading zero
/// bytes of `D` leave that register at 0 and trailing ones multiply it by
/// `x^(8·bytes_after) mod P`.  The cost is one pass over `delta` plus
/// O(log `bytes_after`) GF(2) multiplies, however long the message.  A
/// checksum that was wrong before the patch stays exactly as wrong.
///
/// ```
/// let mut message = *b"123456789";
/// let old = mdrr_store::crc64(&message);
/// message[2] ^= 0x5A;
/// assert_eq!(mdrr_store::crc64_patch(old, &[0x5A], 6), mdrr_store::crc64(&message));
/// ```
pub fn crc64_patch(crc: u64, delta: &[u8], bytes_after: usize) -> u64 {
    crc ^ gf2_mul(x_pow_8n(bytes_after as u64), update(0, delta))
}

/// Serializes a snapshot into the on-disk byte layout (header, channel
/// blocks, trailing checksum).
pub(crate) fn encode(snapshot: &Snapshot) -> Result<Vec<u8>, StoreError> {
    let header = SnapshotHeader {
        schema: snapshot.schema().clone(),
        spec: snapshot.spec().clone(),
        app_state: snapshot.app_state().map(str::to_string),
    };
    let header_json = serde_json::to_string(&header)
        .map_err(|e| StoreError::header(format!("header does not serialize: {e}")))?;
    let header_bytes = header_json.as_bytes();
    if header_bytes.len() > u32::MAX as usize {
        return Err(StoreError::header("header JSON exceeds u32::MAX bytes"));
    }

    let counts = snapshot.counts();
    let payload: usize = counts.iter().map(|c| 4 + 8 * c.len()).sum();
    let mut out = Vec::with_capacity(28 + header_bytes.len() + payload + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&snapshot.n_reports().to_le_bytes());
    out.extend_from_slice(&(counts.len() as u32).to_le_bytes());
    out.extend_from_slice(&(header_bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(header_bytes);
    for channel in counts {
        if channel.len() > u32::MAX as usize {
            return Err(StoreError::layout("a channel exceeds u32::MAX categories"));
        }
        out.extend_from_slice(&(channel.len() as u32).to_le_bytes());
        for &count in channel {
            out.extend_from_slice(&count.to_le_bytes());
        }
    }
    let checksum = crc64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    Ok(out)
}

/// A bounds-checked reader over a byte buffer: every read either returns
/// the requested slice or a [`StoreError::Truncated`] naming the offset.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let available = self.bytes.len().saturating_sub(self.pos);
        let end = self.pos.saturating_add(n);
        let slice = self.bytes.get(self.pos..end).ok_or(StoreError::Truncated {
            offset: self.pos,
            needed: n,
            available,
        })?;
        self.pos = end;
        Ok(slice)
    }

    /// `take(N)` as a fixed-size array, with the length proven by
    /// construction rather than by a panicking conversion.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], StoreError> {
        let slice = self.take(N)?;
        let mut out = [0u8; N];
        for (dst, src) in out.iter_mut().zip(slice) {
            *dst = *src;
        }
        Ok(out)
    }

    fn take_u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    fn take_u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }
}

/// Parses and validates the on-disk byte layout back into a snapshot:
/// magic and version first, then a bounds-checked structural walk, then
/// the checksum, then the header JSON and the counting invariants.
pub(crate) fn decode(bytes: &[u8]) -> Result<Snapshot, StoreError> {
    decode_timed(bytes, None).map(|(snapshot, _)| snapshot)
}

/// [`decode`], additionally reporting how long the CRC-64 verification
/// took (in nanoseconds of `clock`; 0 when `clock` is `None` or
/// disabled).  The observed read path uses this so checksum cost is
/// measured where it is paid instead of re-hashing the buffer.
pub(crate) fn decode_timed(
    bytes: &[u8],
    clock: Option<&dyn mdrr_obs::Clock>,
) -> Result<(Snapshot, u64), StoreError> {
    let mut cursor = Cursor { bytes, pos: 0 };
    let magic: [u8; 8] = cursor.take_array()?;
    if magic != MAGIC {
        return Err(StoreError::BadMagic { found: magic });
    }
    let version = cursor.take_u32()?;
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let n_reports = cursor.take_u64()?;
    let n_channels = cursor.take_u32()? as usize;
    let header_len = cursor.take_u32()? as usize;
    let header_bytes = cursor.take(header_len)?;
    let mut counts: Vec<Vec<u64>> = Vec::new();
    for _ in 0..n_channels {
        let len = cursor.take_u32()? as usize;
        // Bounds-check the whole block before allocating, so a corrupt
        // length field cannot request a giant buffer.
        let block = cursor.take(len.saturating_mul(8))?;
        counts.push(
            block
                .chunks_exact(8)
                .map(|c| {
                    let mut word = [0u8; 8];
                    for (dst, src) in word.iter_mut().zip(c) {
                        *dst = *src;
                    }
                    u64::from_le_bytes(word)
                })
                .collect(),
        );
    }
    let checksum_offset = cursor.pos;
    let stored = cursor.take_u64()?;
    if cursor.pos != bytes.len() {
        return Err(StoreError::layout(format!(
            "{} unexpected trailing bytes after the checksum",
            bytes.len() - cursor.pos
        )));
    }
    // `cursor.pos` never exceeds `bytes.len()` (every advance is bounds-
    // checked in `take`), so this slice is total; if that invariant ever
    // broke, falling back to the full buffer makes the comparison below
    // fail as a mismatch instead of panicking.
    let timing = clock.filter(|c| c.enabled());
    let crc_start = timing.map(|c| c.now_nanos());
    let computed = crc64(bytes.get(..checksum_offset).unwrap_or(bytes));
    let crc_nanos = match (timing, crc_start) {
        (Some(c), Some(start)) => c.now_nanos().saturating_sub(start),
        _ => 0,
    };
    if stored != computed {
        return Err(StoreError::ChecksumMismatch { stored, computed });
    }

    let header_json = std::str::from_utf8(header_bytes)
        .map_err(|_| StoreError::header("header is not valid UTF-8"))?;
    let header: SnapshotHeader = serde_json::from_str(header_json)
        .map_err(|e| StoreError::header(format!("header JSON does not parse: {e}")))?;
    let mut snapshot = Snapshot::new(header.schema, header.spec, counts, n_reports)?;
    snapshot.set_app_state(header.app_state);
    Ok((snapshot, crc_nanos))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc64_matches_the_published_check_vectors() {
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
        // A single flipped bit changes the checksum.
        assert_ne!(crc64(b"123456788"), crc64(b"123456789"));
    }

    #[test]
    fn decode_rejects_foreign_and_short_files() {
        assert!(matches!(
            decode(b"PNG\x89abc"),
            Err(StoreError::Truncated { .. })
        ));
        assert!(matches!(
            decode(b"NOTASNAPxxxxxxxxxxxxxxxxxxxxxxxx"),
            Err(StoreError::BadMagic { .. })
        ));
        let mut future = Vec::new();
        future.extend_from_slice(&MAGIC);
        future.extend_from_slice(&7u32.to_le_bytes());
        future.extend_from_slice(&[0u8; 24]);
        assert!(matches!(
            decode(&future),
            Err(StoreError::UnsupportedVersion {
                found: 7,
                supported: 1
            })
        ));
    }
}
