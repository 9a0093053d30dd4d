//! Single-thread replay probes: each layer timed alone, in process, on
//! the workload's own protocol and batch shape — the layer table that the
//! traced run reports next to the workload's own spans.

use crate::frames::FrameSet;
use crate::report::{shard_imbalance_permille, Metrics};
use crate::stats::median_of;
use mdrr_data::{AdultSynthesizer, Dataset, Schema};
use mdrr_eval::queries::CountQuery;
use mdrr_protocols::{Protocol, ProtocolSpec};
use mdrr_store::Snapshot;
use mdrr_stream::wire::{self, FrameType};
use mdrr_stream::{ReportBatch, ShardedCollector};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Repetitions of every probe; the median repetition is reported.
const REPS: usize = 5;

/// Records generated for the generation probe.
const GENERATE: usize = 1 << 16;

/// Count queries answered by the frequency probe.
const QUERIES: usize = 16;

/// What the probes run on.
pub struct ProbeInput<'a> {
    pub schema: &'a Schema,
    pub spec: &'a ProtocolSpec,
    pub protocol: &'a Arc<dyn Protocol>,
    /// Records over the protocol's schema, a whole number of batches.
    pub records: &'a Dataset,
    pub batch: usize,
    pub n_shards: usize,
    pub seed: u64,
}

/// Median over [`REPS`] runs of `f`, in ns per `units`.
fn per_unit(units: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / units as f64
        })
        .collect();
    median_of(&times).expect("at least one repetition")
}

/// Runs every probe and returns its layer metrics.  `verify_decode_count`
/// (ns per report) is also returned for the loopback-efficiency ratio.
pub fn run(input: &ProbeInput<'_>, metrics: &mut Metrics) -> f64 {
    let mut rng = StdRng::seed_from_u64(input.seed);
    let protocol: &dyn Protocol = input.protocol.as_ref();
    let n = input.records.n_records();
    let view = input.records.view();

    let generate = per_unit(GENERATE, || {
        black_box(
            AdultSynthesizer::new(GENERATE)
                .expect("positive")
                .generate(&mut rng),
        );
    });
    metrics.set("data.generate_ns_per_record", generate, "ns");

    let mut batch = ReportBatch::for_protocol(protocol);
    let encode_batch = per_unit(n, || {
        for start in (0..n).step_by(input.batch) {
            let chunk = view
                .slice(start..start + input.batch)
                .expect("whole batches");
            batch
                .encode_records(protocol, &chunk, &mut rng)
                .expect("records fit");
            black_box(&batch);
        }
    });
    metrics.set("protocols.encode_batch_ns_per_report", encode_batch, "ns");

    let sizes = protocol.channel_sizes();
    let mut tallies: Vec<Vec<u64>> = sizes.iter().map(|&s| vec![0u64; s]).collect();
    let encode_tally = per_unit(n, || {
        for start in (0..n).step_by(input.batch) {
            let chunk = view
                .slice(start..start + input.batch)
                .expect("whole batches");
            protocol
                .encode_tally(&chunk, &mut rng, &mut tallies)
                .expect("records fit");
        }
        black_box(&tallies);
    });
    metrics.set("protocols.encode_tally_ns_per_report", encode_tally, "ns");

    let frames = FrameSet::build(protocol, input.records, input.batch, &mut rng);
    let bytes: usize = frames.frames.iter().map(Vec::len).sum();
    metrics.set("stream.wire.bytes_per_report", bytes as f64 / n as f64, "B");
    // Frame encoding alone: payload plus CRC over already-encoded batches.
    let mut decoded = ReportBatch::for_protocol(protocol);
    let batches: Vec<ReportBatch> = frames
        .frames
        .iter()
        .map(|f| {
            wire::decode_batch_payload(wire::frame_payload(f), &mut decoded).expect("decodes");
            decoded.clone()
        })
        .collect();
    let frame_only = per_unit(n, || {
        for (i, b) in batches.iter().enumerate() {
            let payload = wire::encode_batch_payload(0, i as u32, b).expect("encodes");
            black_box(wire::encode_frame(FrameType::Batch, &payload).expect("frames"));
        }
    });
    metrics.set("stream.wire.encode_frame_ns_per_report", frame_only, "ns");

    let crc = per_unit(bytes, || {
        for f in &frames.frames {
            black_box(mdrr_store::crc64(f));
        }
    });
    metrics.set("stream.wire.crc_ns_per_byte", crc, "ns");
    let verify = per_unit(bytes, || {
        for f in &frames.frames {
            black_box(wire::decode_frame(f).expect("valid frame"));
        }
    });
    metrics.set("stream.wire.verify_ns_per_byte", verify, "ns");
    let decode = per_unit(n, || {
        for f in &frames.frames {
            wire::decode_batch_payload(wire::frame_payload(f), &mut decoded).expect("decodes");
        }
    });
    metrics.set("stream.wire.decode_payload_ns_per_report", decode, "ns");
    let verify_decode = per_unit(n, || {
        for f in &frames.frames {
            let (_, payload) = wire::decode_frame(f).expect("valid frame");
            wire::decode_batch_payload(payload, &mut decoded).expect("decodes");
        }
    });
    metrics.set(
        "stream.wire.verify_decode_ns_per_report",
        verify_decode,
        "ns",
    );

    let mut collector =
        ShardedCollector::new(Arc::clone(input.protocol), input.n_shards).expect("a collector");
    let ingest_batch = per_unit(n, || {
        for (i, b) in batches.iter().enumerate() {
            collector
                .ingest_batch(i % input.n_shards, b)
                .expect("ingests");
        }
    });
    metrics.set(
        "stream.collector.ingest_batch_ns_per_report",
        ingest_batch,
        "ns",
    );
    let verify_decode_count = per_unit(n, || {
        for (i, f) in frames.frames.iter().enumerate() {
            let (_, payload) = wire::decode_frame(f).expect("valid frame");
            wire::decode_batch_payload(payload, &mut decoded).expect("decodes");
            collector
                .ingest_batch(i % input.n_shards, &decoded)
                .expect("ingests");
        }
    });
    metrics.set(
        "stream.collector.verify_decode_count_ns_per_report",
        verify_decode_count,
        "ns",
    );
    let mut round = 0u64;
    let ingest_view = per_unit(n, || {
        round += 1;
        collector
            .ingest_view(&view, input.seed ^ round)
            .expect("ingests");
    });
    metrics.set(
        "stream.collector.ingest_view_ns_per_report",
        ingest_view,
        "ns",
    );
    metrics.set(
        "stream.collector.shard_imbalance_permille",
        shard_imbalance_permille(&collector),
        "permille",
    );
    let merged = per_unit(1, || {
        black_box(collector.merged().expect("merges"));
    });
    metrics.set("stream.collector.merged_us", merged / 1e3, "us");
    let snapshot = per_unit(1, || {
        black_box(collector.snapshot().expect("snapshots"));
    });
    metrics.set("stream.collector.snapshot_us", snapshot / 1e3, "us");

    let counts = collector.merged().expect("merges");
    let image = Snapshot::new(
        input.schema.clone(),
        input.spec.clone(),
        counts.counts().to_vec(),
        counts.n_reports(),
    )
    .expect("a snapshot")
    .to_bytes()
    .expect("encodes");
    let encode_snapshot = per_unit(1, || {
        let counts = collector.merged().expect("merges");
        let snapshot = Snapshot::new(
            input.schema.clone(),
            input.spec.clone(),
            counts.counts().to_vec(),
            counts.n_reports(),
        )
        .expect("a snapshot");
        black_box(snapshot.to_bytes().expect("encodes"));
    });
    metrics.set("store.snapshot_encode_us", encode_snapshot / 1e3, "us");
    metrics.set("store.snapshot_bytes", image.len() as f64, "B");
    let decode_snapshot = per_unit(1, || {
        black_box(Snapshot::from_bytes(&image).expect("decodes"));
    });
    metrics.set("store.snapshot_decode_us", decode_snapshot / 1e3, "us");
    let parsed = Snapshot::from_bytes(&image).expect("decodes");
    let release_snapshot = per_unit(1, || {
        black_box(parsed.release().expect("releases"));
    });
    metrics.set("store.snapshot_release_us", release_snapshot / 1e3, "us");

    let release = parsed.release().expect("releases");
    let queries: Vec<CountQuery> = (0..QUERIES)
        .map(|_| CountQuery::random(input.schema, 0.1, &mut rng).expect("a query"))
        .collect();
    let calls: usize = queries.iter().map(CountQuery::len).sum();
    let frequency = per_unit(calls, || {
        for q in &queries {
            black_box(q.estimated_count(&release).expect("answers"));
        }
    });
    metrics.set(
        "protocols.frequency_calls_per_query",
        calls as f64 / QUERIES as f64,
        "count",
    );
    metrics.set("protocols.frequency_ns_per_call", frequency, "ns");
    verify_decode_count
}
