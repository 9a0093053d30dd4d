//! `local_ingest`: the collector without the wire.  Columnar records
//! generated at set-up are randomized and counted by
//! `ShardedCollector::ingest_view` over one shard per processor, with a
//! snapshot and every marginal answered after each round.

use crate::checks::{self, Checks};
use crate::machine::CpuTime;
use crate::report::{shard_imbalance_permille, Section};
use crate::trace::{traced, Tracer};
use mdrr_data::Dataset;
use mdrr_protocols::Protocol;
use mdrr_stream::ShardedCollector;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Records per round: a few milliseconds of work, so a run has thousands
/// of rounds.
pub const ROUND: usize = 1 << 17;

/// Pre-generated records and the true counts of each round's slice.
#[derive(Debug, Clone)]
pub struct LocalInput {
    pub protocol: Arc<dyn Protocol>,
    pub records: Dataset,
    pub keep: f64,
    /// `truth[slice][attribute][value]`.
    pub truth: Vec<Vec<Vec<u64>>>,
}

impl LocalInput {
    pub fn new(protocol: Arc<dyn Protocol>, records: Dataset, keep: f64) -> Self {
        let slices = records.n_records() / ROUND;
        let truth = (0..slices)
            .map(|s| {
                records
                    .schema()
                    .cardinalities()
                    .iter()
                    .enumerate()
                    .map(|(j, &r)| {
                        let mut counts = vec![0u64; r];
                        let column = records.column(j).expect("attribute in range");
                        for &v in &column[s * ROUND..(s + 1) * ROUND] {
                            counts[v as usize] += 1;
                        }
                        counts
                    })
                    .collect()
            })
            .collect();
        LocalInput {
            protocol,
            records,
            keep,
            truth,
        }
    }
}

pub fn run(
    input: &LocalInput,
    seed: u64,
    n_shards: usize,
    seconds: f64,
    tracer: Option<&Tracer>,
    checks: &mut Checks,
) -> Section {
    let mut collector =
        ShardedCollector::new(Arc::clone(&input.protocol), n_shards).expect("a collector");
    let view = input.records.view();
    let slices = input.truth.len();
    let n_attributes = input.records.n_attributes();
    let mut section = Section::default();
    let mut released: Vec<Vec<Vec<f64>>> = Vec::new();
    let mut slice_of_round = Vec::new();
    let cpu_before = CpuTime::now();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut round = 0u64;
    while Instant::now() < deadline {
        let s = round as usize % slices;
        let chunk = view
            .slice(s * ROUND..(s + 1) * ROUND)
            .expect("slice inside the records");
        let outcome = traced(tracer, "round", None, round, |id| {
            let t0 = Instant::now();
            let n = traced(tracer, "stream.collector.ingest_view", id, round, |_| {
                collector.ingest_view(&chunk, crate::stats::mix64(seed, round))
            })?;
            let t1 = Instant::now();
            let snapshot = traced(tracer, "stream.collector.snapshot", id, round, |_| {
                collector.snapshot()
            })?;
            let marginals = traced(tracer, "protocols.marginals", id, round, |_| {
                (0..n_attributes)
                    .map(|j| snapshot.marginal(j))
                    .collect::<Result<Vec<_>, _>>()
            })?;
            let t2 = Instant::now();
            Ok::<_, mdrr_protocols::MdrrError>((n, marginals, t1 - t0, t2 - t1))
        });
        section.attempted += 1;
        match outcome {
            Ok((n, marginals, ingest, read)) => {
                section.reports += n;
                section.op_ns.push(ingest.as_nanos() as f64);
                section.read_ns.push(read.as_nanos() as f64);
                released.push(marginals);
                slice_of_round.push(s);
            }
            Err(e) => {
                checks.fail(format!("round {round}: {e}"));
                section.failed += 1;
                break;
            }
        }
        round += 1;
    }
    section.elapsed_ns = start.elapsed().as_nanos() as u64;
    section.cpu = CpuTime::now().since(cpu_before);

    // Every round's release against the truth of every record counted so
    // far (each report is randomized independently, so Expression (5)
    // holds with n = reports counted).
    checks.equal(
        "collector total vs reports counted",
        collector.total_reports(),
        section.reports,
    );
    let mut truth: Vec<Vec<f64>> = input.truth[0].iter().map(|c| vec![0.0; c.len()]).collect();
    let mut worst = 0.0f64;
    for (r, (marginals, &s)) in released.iter().zip(&slice_of_round).enumerate() {
        for (acc, counts) in truth.iter_mut().zip(&input.truth[s]) {
            for (a, &c) in acc.iter_mut().zip(counts) {
                *a += c as f64;
            }
        }
        let n = (r + 1) * ROUND;
        worst = worst.max(checks::check_marginals(
            checks,
            &format!("round {r} release"),
            marginals,
            &truth,
            input.keep,
            n,
        ));
    }
    section.layers.set("bench.bound_share", worst, "ratio");
    section.layers.set(
        "stream.collector.shard_imbalance_permille",
        shard_imbalance_permille(&collector),
        "permille",
    );
    let reads: f64 = section.read_ns.sum();
    section
        .layer_costs
        .push(("reads", reads / section.reports.max(1) as f64));
    section
}
