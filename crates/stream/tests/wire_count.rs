//! Property tests pinning the daemon's fused wire count to the reference
//! paths.
//!
//! Counting a batch straight from its little-endian payload bytes
//! (`ShardedCollector::ingest_wire` over a `wire::BatchView`) must give
//! exactly the counts of decoding the payload into a `ReportBatch` and
//! counting that (`ingest_batch`), and of ingesting the same reports one
//! at a time (`Accumulator::ingest`).  Channel sizes straddle the banked
//! kernel's width (64), so both the banked and the direct counting loops
//! run, and batch lengths are not always multiples of the bank count.
//! A single out-of-range code anywhere — the last code of the last
//! channel included — must leave the collector bit-identical.

use mdrr_data::{Attribute, Schema};
use mdrr_protocols::{Protocol, ProtocolSpec, RandomizationLevel};
use mdrr_stream::wire::{decode_batch_payload, encode_batch_payload, BatchView};
use mdrr_stream::{Accumulator, MdrrError, Report, ReportBatch, ShardedCollector};
use proptest::prelude::*;
use std::sync::Arc;

/// An RR-Independent protocol whose channels have exactly `sizes`
/// categories.
fn protocol(sizes: &[usize]) -> Arc<dyn Protocol> {
    let attributes = sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| Attribute::indexed(format!("A{i}"), size).unwrap())
        .collect();
    let protocol = ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7))
        .build_arc(&Schema::new(attributes).unwrap())
        .unwrap();
    assert_eq!(protocol.channel_sizes(), sizes);
    protocol
}

/// `n` reports of in-range codes, a fixed function of `seed`.
fn batch(sizes: &[usize], n: usize, seed: u64) -> ReportBatch {
    let mut state = seed | 1;
    let mut batch = ReportBatch::new(sizes.len()).unwrap();
    for (channel, &size) in batch.channels_mut().iter_mut().zip(sizes) {
        for _ in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            channel.push(((state >> 33) % size as u64) as u32);
        }
    }
    batch
}

/// Counts `payload` into `shard` through the wire view.
fn ingest_wire(
    collector: &mut ShardedCollector,
    shard: usize,
    payload: &[u8],
) -> Result<u64, MdrrError> {
    let n_channels = collector.protocol().channel_sizes().len();
    let view = BatchView::parse(payload, n_channels).unwrap();
    collector.ingest_wire(shard, &view)
}

/// Decodes `payload` into a `ReportBatch` and counts that into `shard`.
fn ingest_decoded(
    collector: &mut ShardedCollector,
    shard: usize,
    payload: &[u8],
) -> Result<u64, MdrrError> {
    let mut decoded = ReportBatch::new(collector.protocol().channel_sizes().len()).unwrap();
    decode_batch_payload(payload, &mut decoded).unwrap();
    collector.ingest_batch(shard, &decoded)
}

fn shape_strategy() -> impl Strategy<Value = (Vec<usize>, usize, usize, u64)> {
    (
        prop::collection::vec(1usize..=70, 1..=5),
        0usize..=600,
        1usize..=4,
        any::<u64>(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The wire view, the decoded batch and per-report ingestion count
    /// the same reports into exactly the same cells of the same shard.
    #[test]
    fn wire_count_matches_decoded_and_per_report_counts(
        (sizes, n, n_shards, seed) in shape_strategy()
    ) {
        let protocol = protocol(&sizes);
        let shard = (seed % n_shards as u64) as usize;
        let reports = batch(&sizes, n, seed);
        let payload = encode_batch_payload(seed, shard as u32, &reports).unwrap();

        let mut wired = ShardedCollector::new(protocol.clone(), n_shards).unwrap();
        prop_assert_eq!(ingest_wire(&mut wired, shard, &payload).unwrap(), n as u64);
        let mut decoded = ShardedCollector::new(protocol, n_shards).unwrap();
        prop_assert_eq!(ingest_decoded(&mut decoded, shard, &payload).unwrap(), n as u64);

        let mut per_report = Accumulator::new(&sizes).unwrap();
        let mut codes = Vec::new();
        for i in 0..n {
            reports.read_report(i, &mut codes).unwrap();
            per_report.ingest(&Report::new(codes.clone())).unwrap();
        }

        prop_assert_eq!(wired.shards(), decoded.shards());
        prop_assert_eq!(&wired.shards()[shard], &per_report);
        prop_assert_eq!(wired.total_reports(), n as u64);
    }

    /// One out-of-range code at any (channel, index) makes both batch
    /// paths refuse the batch and leave every shard bit-identical.
    #[test]
    fn one_bad_code_leaves_the_collector_untouched(
        (sizes, n, n_shards, seed) in shape_strategy()
    ) {
        let n = n.max(1);
        let protocol = protocol(&sizes);
        let shard = (seed % n_shards as u64) as usize;
        let mut wired = ShardedCollector::new(protocol.clone(), n_shards).unwrap();
        let mut decoded = ShardedCollector::new(protocol, n_shards).unwrap();
        // Earlier counts that the refused batch must not disturb.
        let earlier = encode_batch_payload(0, 0, &batch(&sizes, 9, !seed)).unwrap();
        ingest_wire(&mut wired, shard, &earlier).unwrap();
        ingest_decoded(&mut decoded, shard, &earlier).unwrap();
        let before = wired.shards().to_vec();
        prop_assert_eq!(decoded.shards(), &before[..]);

        let mut hostile = batch(&sizes, n, seed);
        // Every fourth case hits the very last code the range pass reads.
        let (channel, index) = if seed % 4 == 0 {
            (sizes.len() - 1, n - 1)
        } else {
            ((seed >> 8) as usize % sizes.len(), (seed >> 24) as usize % n)
        };
        let size = sizes[channel] as u32;
        let bad = if seed & 0x10 == 0 { size } else { size + (seed >> 40) as u32 };
        hostile.channels_mut()[channel][index] = bad;
        let payload = encode_batch_payload(1, shard as u32, &hostile).unwrap();

        prop_assert!(ingest_wire(&mut wired, shard, &payload).is_err());
        prop_assert!(ingest_decoded(&mut decoded, shard, &payload).is_err());
        prop_assert_eq!(wired.shards(), &before[..]);
        prop_assert_eq!(decoded.shards(), &before[..]);
    }
}
