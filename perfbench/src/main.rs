//! The pipeline benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wire_bulk --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One run sets the workload up five times (reporting the median set-up
//! time), measures it for `--seconds`, checks every output and prints, as
//! its last line, one JSON object: the end-to-end metrics with
//! `--trace 0`, or with `--trace 1` the per-layer metrics of a second,
//! traced pass plus the single-thread layer probes.  Any failed check
//! makes the run exit non-zero.  See `perfbench/README.md`.

mod checks;
mod frames;
mod local;
mod machine;
mod probes;
mod release;
mod report;
mod sched;
mod stats;
mod trace;
mod wire;

use checks::Checks;
use frames::FrameSet;
use machine::{json_string, Fingerprint};
use mdrr_data::{adult_schema, AdultSynthesizer, Dataset, Schema};
use mdrr_protocols::{Clustering, Protocol, ProtocolSpec, RandomizationLevel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use report::{Metrics, Section};
use stats::median_of;
use stats::Samples;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;

/// Keep probability of every randomization in the benchmark (the
/// weakest of the paper's levels).
const KEEP: f64 = 0.7;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// `wire_bulk`: frames of 4,096 RR-Independent reports, 96 distinct
/// frames per connection.
const BULK_BATCH: usize = 4096;
const BULK_FRAMES_PER_CONN: usize = 96;
/// `wire_mixed`: 1,024 distinct frames of 256 RR-Joint reports over
/// Adult attributes 0–4, sent at 2,000 frames/s; 20 snapshot reads/s.
const MIXED_BATCH: usize = 256;
const MIXED_FRAMES: usize = 1024;
const MIXED_ATTRIBUTES: [usize; 5] = [0, 1, 2, 3, 4];
const MIXED_PLAN: wire::OpenLoopPlan = wire::OpenLoopPlan {
    frames_per_s: 2_000.0,
    reads_per_s: 20.0,
    seconds: 0.0,
};
/// The wire probe of the traced runs: two seconds of `wire_mixed`.
const WIRE_PROBE: wire::OpenLoopPlan = wire::OpenLoopPlan {
    seconds: 2.0,
    ..MIXED_PLAN
};
/// Releases the release probe of the traced runs builds (median taken).
const RELEASE_PROBES: usize = 5;
/// `local_ingest`: eight rounds' worth of distinct records.
const LOCAL_SLICES: usize = 8;
/// Records the layer probes replay.
const PROBE_RECORDS: usize = 1 << 16;

/// Every end-to-end metric, printed by every workload (`--trace 0`).
const END_TO_END: [&str; 5] = [
    "setup_s",
    "reports_per_s",
    "cpu_ns_per_report",
    "peak_rss_mb",
    "op_p50_us",
];

/// Every per-layer metric, printed by every workload (`--trace 1`).
const PER_LAYER: [&str; 46] = [
    "data.generate_ns_per_record",
    "protocols.encode_batch_ns_per_report",
    "protocols.encode_tally_ns_per_report",
    "protocols.dependence_ms",
    "protocols.clustering_ms",
    "protocols.clusters_run_ms",
    "protocols.adjustment_ms",
    "protocols.adjustment_iterations",
    "protocols.frequency_calls_per_query",
    "protocols.frequency_ns_per_call",
    "stream.wire.bytes_per_report",
    "stream.wire.encode_frame_ns_per_report",
    "stream.wire.crc_ns_per_byte",
    "stream.wire.verify_ns_per_byte",
    "stream.wire.decode_payload_ns_per_report",
    "stream.wire.verify_decode_ns_per_report",
    "stream.collector.ingest_batch_ns_per_report",
    "stream.collector.verify_decode_count_ns_per_report",
    "stream.collector.ingest_view_ns_per_report",
    "stream.collector.shard_imbalance_permille",
    "stream.collector.merged_us",
    "stream.collector.snapshot_us",
    "stream.client.window_wait_ns_per_frame",
    "stream.client.in_flight_mean",
    "stream.client.write_ns_per_frame",
    "stream.client.snapshot_fetch_ms",
    "store.snapshot_bytes",
    "store.snapshot_encode_us",
    "store.snapshot_decode_us",
    "store.snapshot_release_us",
    "serve.decode_mean_ns_per_frame",
    "serve.ingest_mean_ns_per_frame",
    "serve.rejects_total",
    "serve.loopback_efficiency",
    "process.user_cpu_ns_per_report",
    "process.sys_cpu_ns_per_report",
    "process.layer_residual_ns_per_report",
    "bench.send_lag_p99_us",
    "bench.trace_overhead_frac",
    "bench.failed_frac",
    "bench.spans",
    "bench.bound_share",
    "bench.setup_s",
    "bench.op_p99_us",
    "bench.read_p50_ms",
    "bench.read_p90_ms",
];

/// `wire_mixed` and `release_query` are left out of `BENCHMARK.json`:
/// their end-to-end figures repeat too poorly on a shared machine to bound
/// (see README.md).  They still run here, and short runs of each are the
/// traced runs' wire and release probes.
const WORKLOADS: [&str; 4] = ["wire_bulk", "wire_mixed", "local_ingest", "release_query"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(format!("unknown workload {value}")),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: out of range"));
                }
                seconds = Some(s);
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace {value}: expected 0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Sets the workload up [`SETUPS`] times; returns the last input and the
/// median set-up time in seconds.
fn set_up<T>(seed: u64, f: impl Fn(u64) -> T) -> (T, f64) {
    let mut input = None;
    let mut times = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        drop(input.take());
        let t = Instant::now();
        input = Some(f(seed));
        times.push(t.elapsed().as_secs_f64());
    }
    let median = median_of(&times).expect("at least one set-up");
    (input.expect("at least one set-up"), median)
}

fn generate(rng: &mut StdRng, n: usize) -> Dataset {
    AdultSynthesizer::new(n).expect("positive").generate(rng)
}

/// `n` Adult records over the first `n_attributes` attributes.
fn generate_leading(rng: &mut StdRng, n: usize, n_attributes: usize) -> Dataset {
    let records = generate(rng, n);
    if n_attributes == records.n_attributes() {
        return records;
    }
    let keep: Vec<usize> = (0..n_attributes).collect();
    records.project(&keep).expect("leading attributes")
}

fn independent() -> (Schema, ProtocolSpec, Arc<dyn Protocol>) {
    let schema = adult_schema();
    let spec = ProtocolSpec::independent(RandomizationLevel::KeepProbability(KEEP));
    let protocol = spec.build_arc(&schema).expect("RR-Independent over Adult");
    (schema, spec, protocol)
}

fn joint() -> (Schema, ProtocolSpec, Arc<dyn Protocol>) {
    let schema = adult_schema()
        .project(&MIXED_ATTRIBUTES)
        .expect("attributes 0–4");
    let spec = ProtocolSpec::Joint {
        level: RandomizationLevel::KeepProbability(KEEP),
        max_domain: None,
        equivalent_risk: false,
    };
    let protocol = spec
        .build_arc(&schema)
        .expect("RR-Joint over attributes 0–4");
    (schema, spec, protocol)
}

fn wire_input(
    seed: u64,
    (schema, spec, protocol): (Schema, ProtocolSpec, Arc<dyn Protocol>),
    frames: usize,
    batch: usize,
) -> wire::WireInput {
    let mut rng = StdRng::seed_from_u64(seed);
    let records = generate_leading(&mut rng, frames * batch, schema.len());
    let frames = FrameSet::build(protocol.as_ref(), &records, batch, &mut rng);
    wire::WireInput {
        schema,
        spec,
        protocol,
        frames,
        keep: KEEP,
    }
}

/// The end-to-end metrics of an untraced section.
fn end_to_end(section: &mut Section, setup_s: f64, checks: &mut Checks) -> Metrics {
    let mut m = Metrics::default();
    m.set("setup_s", setup_s, "s");
    m.set("reports_per_s", section.reports_per_s(), "1/s");
    m.set("cpu_ns_per_report", section.cpu_ns_per_report(), "ns");
    m.set(
        "peak_rss_mb",
        machine::peak_rss_mb().unwrap_or(f64::NAN),
        "MB",
    );
    let n_ops = section.op_ns.len();
    let op_p50 = section.op_ns.median();
    checks.expect(op_p50.is_some(), || format!("op_p50_us: {n_ops} samples"));
    m.set("op_p50_us", op_p50.map_or(f64::NAN, |v| v / 1e3), "us");
    for name in END_TO_END {
        checks.expect(m.get(name).is_some(), || {
            format!("end-to-end metric {name} was not measured")
        });
    }
    m
}

/// Records over `schema` for the layer probes.
fn probe_records(seed: u64, n_attributes: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0070_7262);
    generate_leading(&mut rng, PROBE_RECORDS, n_attributes)
}

/// Releases of the batch pipeline on Adult6, for workloads that do not
/// run it themselves; each step's median is reported.
fn release_probe(seed: u64, layers: &mut Metrics) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0061_6436);
    let adult6 = generate(&mut rng, mdrr_data::ADULT_RECORD_COUNT)
        .repeat(6)
        .expect("six copies");
    let mut steps: [Vec<f64>; 4] = Default::default();
    let mut iterations = Vec::new();
    for _ in 0..RELEASE_PROBES {
        let built = release::release(&adult6, &mut rng, None, None, 0).expect("a release");
        for (samples, ns) in steps.iter_mut().zip(built.steps_ns) {
            samples.push(ns as f64 / 1e6);
        }
        iterations.push(built.adjusted.iterations() as f64);
    }
    for (step, samples) in release::STEPS.iter().zip(&steps) {
        layers.set(
            step_metric(step),
            median_of(samples).expect("probes ran"),
            "ms",
        );
    }
    layers.set(
        "protocols.adjustment_iterations",
        median_of(&iterations).expect("probes ran"),
        "count",
    );
}

fn step_metric(step: &str) -> &'static str {
    match step {
        "dependence" => "protocols.dependence_ms",
        "clustering" => "protocols.clustering_ms",
        "clusters_run" => "protocols.clusters_run_ms",
        _ => "protocols.adjustment_ms",
    }
}

/// What every traced run adds: probes, the wire probe and release probe
/// where the workload lacks their layers, process and bench metrics.
struct Traced<'a> {
    seed: u64,
    untraced: &'a Section,
    traced: &'a Section,
    setup_s: f64,
    spans: usize,
    probe_vdc_ns: f64,
    /// Probe-derived costs the workload's reports paid (ns per report).
    probe_costs: Vec<(&'static str, f64)>,
}

fn per_layer(t: Traced<'_>, mut layers: Metrics, checks: &mut Checks) -> Metrics {
    for (name, metric) in t.traced.layers.iter() {
        layers.set(name, metric.value, metric.unit);
    }
    if layers.get("protocols.dependence_ms").is_none() {
        release_probe(t.seed, &mut layers);
    }
    let reports = t.traced.reports.max(1) as f64;
    layers.set(
        "process.user_cpu_ns_per_report",
        t.traced.cpu.user_ns as f64 / reports,
        "ns",
    );
    layers.set(
        "process.sys_cpu_ns_per_report",
        t.traced.cpu.sys_ns as f64 / reports,
        "ns",
    );
    let costs: f64 = t
        .traced
        .layer_costs
        .iter()
        .chain(&t.probe_costs)
        .map(|(_, ns)| ns)
        .sum();
    layers.set(
        "process.layer_residual_ns_per_report",
        t.traced.cpu_ns_per_report() - costs,
        "ns",
    );
    layers.set(
        "serve.loopback_efficiency",
        t.untraced.reports_per_s() / (1e9 / t.probe_vdc_ns),
        "ratio",
    );
    layers.set(
        "bench.trace_overhead_frac",
        t.traced.cpu_ns_per_report() / t.untraced.cpu_ns_per_report() - 1.0,
        "ratio",
    );
    let attempted = (t.untraced.attempted + t.traced.attempted).max(1);
    layers.set(
        "bench.failed_frac",
        (t.untraced.failed + t.traced.failed) as f64 / attempted as f64,
        "ratio",
    );
    layers.set("bench.spans", t.spans as f64, "count");
    // Tails, and reads, repeat too poorly from run to run on a shared
    // machine to bound end to end, so they are reported here.
    let mut tail = |name: &'static str, samples: &Samples, q: f64, per: f64, unit| {
        let n = samples.len();
        let value = samples.clone().quantile(q);
        checks.expect(value.is_some(), || {
            format!("{name}: {n} samples leave fewer than ten beyond the percentile")
        });
        layers.set(name, value.map_or(f64::NAN, |v| v / per), unit);
    };
    tail("bench.op_p99_us", &t.traced.op_ns, 0.99, 1e3, "us");
    tail("bench.read_p50_ms", &t.traced.read_ns, 0.5, 1e6, "ms");
    tail("bench.read_p90_ms", &t.traced.read_ns, 0.9, 1e6, "ms");
    layers.set("bench.setup_s", t.setup_s, "s");
    let mut out = Metrics::default();
    for name in PER_LAYER {
        match layers.iter().find(|(n, _)| *n == name) {
            Some((name, metric)) => out.set(name, metric.value, metric.unit),
            None => checks.fail(format!("per-layer metric {name} was not measured")),
        }
    }
    out
}

/// The layer metrics of the wire probe: a short `wire_mixed` session.
fn wire_probe(seed: u64, checks: &mut Checks) -> Metrics {
    let input = wire_input(seed ^ 0x0077_6972, joint(), MIXED_FRAMES, MIXED_BATCH);
    wire::mixed(&input, WIRE_PROBE, None, checks).layers
}

struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    spans: Vec<trace::Span>,
}

fn samples_note(section: &mut Section) -> String {
    format!(
        "samples: op {} (p50 {:.1} us), read {} (p50 {:.3} ms), reports {}, elapsed {:.3} s",
        section.op_ns.len(),
        section.op_ns.median().unwrap_or(f64::NAN) / 1e3,
        section.read_ns.len(),
        section.read_ns.median().unwrap_or(f64::NAN) / 1e6,
        section.reports,
        section.elapsed_ns as f64 / 1e9
    )
}

/// Which probe-priced layers a workload's reports pass through, on top
/// of the costs its own section timed.
enum ProbeCost {
    /// Over the wire: the client re-seals each frame's CRC, the daemon
    /// verifies, decodes and counts it, and merges and encodes a snapshot
    /// for every read.
    Wire { bytes_per_report: f64 },
    /// In process: each report is randomized and counted by
    /// `encode_tally`.
    EncodeTally,
    /// The section timed all of its layers itself.
    None,
}

impl ProbeCost {
    fn costs(&self, probes: &Metrics, section: &Section) -> Vec<(&'static str, f64)> {
        let get = |name| probes.get(name).unwrap_or(f64::NAN);
        match self {
            ProbeCost::Wire { bytes_per_report } => vec![
                (
                    "client.frame_crc",
                    get("stream.wire.crc_ns_per_byte") * bytes_per_report,
                ),
                (
                    "daemon.verify_decode_count",
                    get("stream.collector.verify_decode_count_ns_per_report"),
                ),
                (
                    "daemon.snapshot_encode",
                    get("store.snapshot_encode_us") * 1e3 * section.daemon_reads as f64
                        / section.reports.max(1) as f64,
                ),
            ],
            ProbeCost::EncodeTally => vec![(
                "protocols.encode_tally",
                get("protocols.encode_tally_ns_per_report"),
            )],
            ProbeCost::None => Vec::new(),
        }
    }
}

/// What a workload measured, and what its probes run on.
struct Measured {
    setup_s: f64,
    untraced: Section,
    traced: Option<Section>,
    protocol: (Schema, ProtocolSpec, Arc<dyn Protocol>),
    batch: usize,
    cost: ProbeCost,
}

fn measure(args: &Args, nproc: usize, tracer: &Tracer, checks: &mut Checks) -> Measured {
    let (seed, seconds) = (args.seed, args.seconds);
    let traced = args.trace.then_some(tracer);
    match args.workload.as_str() {
        "wire_bulk" => {
            let (input, setup_s) = set_up(seed, |s| {
                wire_input(s, independent(), BULK_FRAMES_PER_CONN * nproc, BULK_BATCH)
            });
            let untraced = wire::bulk(&input, nproc, seconds, None, checks);
            let traced = traced.map(|t| wire::bulk(&input, nproc, seconds, Some(t), checks));
            let bytes_per_report = input.frames.bytes_per_frame() as f64 / BULK_BATCH as f64;
            Measured {
                setup_s,
                untraced,
                traced,
                protocol: independent(),
                batch: BULK_BATCH,
                cost: ProbeCost::Wire { bytes_per_report },
            }
        }
        "wire_mixed" => {
            let (input, setup_s) =
                set_up(seed, |s| wire_input(s, joint(), MIXED_FRAMES, MIXED_BATCH));
            let plan = wire::OpenLoopPlan {
                seconds,
                ..MIXED_PLAN
            };
            let untraced = wire::mixed(&input, plan, None, checks);
            let traced = traced.map(|t| wire::mixed(&input, plan, Some(t), checks));
            let bytes_per_report = input.frames.bytes_per_frame() as f64 / MIXED_BATCH as f64;
            Measured {
                setup_s,
                untraced,
                traced,
                protocol: joint(),
                batch: MIXED_BATCH,
                cost: ProbeCost::Wire { bytes_per_report },
            }
        }
        "local_ingest" => {
            let (input, setup_s) = set_up(seed, |s| {
                let mut rng = StdRng::seed_from_u64(s);
                let records = generate(&mut rng, LOCAL_SLICES * local::ROUND);
                local::LocalInput::new(independent().2, records, KEEP)
            });
            let untraced = local::run(&input, seed, nproc, seconds, None, checks);
            let traced = traced.map(|t| local::run(&input, seed, nproc, seconds, Some(t), checks));
            Measured {
                setup_s,
                untraced,
                traced,
                protocol: independent(),
                batch: BULK_BATCH,
                cost: ProbeCost::EncodeTally,
            }
        }
        _ => {
            let (input, setup_s) = set_up(seed, |s| {
                let mut rng = StdRng::seed_from_u64(s);
                let adult6 = generate(&mut rng, mdrr_data::ADULT_RECORD_COUNT)
                    .repeat(6)
                    .expect("six copies");
                release::ReleaseInput::new(adult6, s ^ 0x0071_7279)
            });
            let untraced = release::run(&input, seed, seconds, None, checks);
            let traced = traced
                .map(|t| release_layers(release::run(&input, seed, seconds, Some(t), checks)));
            // The probes replay RR-Clusters under the clustering the
            // releases chose.
            let clustering = untraced
                .clustering
                .clone()
                .unwrap_or_else(|| Clustering::singletons(8).expect("eight attributes"));
            let schema = adult_schema();
            let spec =
                ProtocolSpec::clusters(RandomizationLevel::KeepProbability(KEEP), clustering);
            let protocol = spec.build_arc(&schema).expect("RR-Clusters over Adult");
            Measured {
                setup_s,
                untraced: untraced.section,
                traced,
                protocol: (schema, spec, protocol),
                batch: BULK_BATCH,
                cost: ProbeCost::None,
            }
        }
    }
}

/// Runs one workload: set-up, untraced section and, with `--trace 1`, the
/// traced section and the probes.
fn run(args: &Args, nproc: usize, checks: &mut Checks) -> Outcome {
    let tracer = Tracer::new();
    let Measured {
        setup_s,
        mut untraced,
        traced,
        protocol,
        batch,
        cost,
    } = measure(args, nproc, &tracer, checks);
    let mut notes = vec![format!("untraced {}", samples_note(&mut untraced))];
    let Some(mut traced) = traced else {
        return Outcome {
            metrics: end_to_end(&mut untraced, setup_s, checks),
            attempted: untraced.attempted,
            failed: untraced.failed,
            notes,
            spans: Vec::new(),
        };
    };
    notes.push(format!("traced {}", samples_note(&mut traced)));
    let (schema, spec, protocol) = protocol;
    let records = probe_records(args.seed, schema.len());
    let mut layers = Metrics::default();
    let probe_vdc_ns = probes::run(
        &probes::ProbeInput {
            schema: &schema,
            spec: &spec,
            protocol: &protocol,
            records: &records,
            batch,
            n_shards: nproc,
            seed: args.seed,
        },
        &mut layers,
    );
    // The client and daemon layers, the open-loop generator's lateness and
    // the estimate check are taken from a short wire_mixed session where
    // the workload does not have them itself.
    let from_wire_probe = |name: &str| {
        name.starts_with("stream.client.")
            || name.starts_with("serve.")
            || name == "bench.send_lag_p99_us"
            || name == "bench.bound_share"
    };
    if ["stream.client.write_ns_per_frame", "bench.send_lag_p99_us"]
        .iter()
        .any(|name| traced.layers.get(name).is_none())
    {
        for (name, metric) in wire_probe(args.seed, checks).iter() {
            if from_wire_probe(name) && traced.layers.get(name).is_none() {
                layers.set(name, metric.value, metric.unit);
            }
        }
    }
    let probe_costs = cost.costs(&layers, &traced);
    let spans = tracer.spans();
    let metrics = per_layer(
        Traced {
            seed: args.seed,
            untraced: &untraced,
            traced: &traced,
            setup_s,
            spans: spans.len(),
            probe_vdc_ns,
            probe_costs,
        },
        layers,
        checks,
    );
    Outcome {
        metrics,
        attempted: untraced.attempted + traced.attempted,
        failed: untraced.failed + traced.failed,
        notes,
        spans,
    }
}

/// The traced release section with its step medians as layer metrics.
fn release_layers(mut t: release::ReleaseSection) -> Section {
    for (step, samples) in release::STEPS.iter().zip(t.steps_ns.iter_mut()) {
        t.section.layers.set(
            step_metric(step),
            samples.median().unwrap_or(f64::NAN) / 1e6,
            "ms",
        );
    }
    t.section.layers.set(
        "protocols.adjustment_iterations",
        t.iterations.median().unwrap_or(f64::NAN),
        "count",
    );
    // Queries on the adjusted release scan the weighted microdata: one
    // frequency call per value combination of the query.
    let queries = t.section.op_ns.len().max(1) as f64;
    let calls = t.frequency_calls_per_query * queries;
    t.section.layers.set(
        "protocols.frequency_calls_per_query",
        t.frequency_calls_per_query,
        "count",
    );
    t.section.layers.set(
        "protocols.frequency_ns_per_call",
        t.section.op_ns.sum() / calls,
        "ns",
    );
    let reports = t.section.reports.max(1) as f64;
    let steps: f64 = t.steps_ns.iter().map(|s| s.sum()).sum();
    t.section
        .layer_costs
        .push(("release steps", steps / reports));
    let queries_ns = t.section.op_ns.sum();
    t.section
        .layer_costs
        .push(("queries", queries_ns / reports));
    t.section
}

/// Where the spans of a traced run are written.
fn trace_path(workload: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    std::path::Path::new(&dir)
        .join("perfbench")
        .join(format!("trace-{workload}-{seed}.json"))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let fingerprint = Fingerprint::read();
    let nproc = fingerprint.nproc.max(1);
    println!("fingerprint {}", fingerprint.to_json(args.seed));
    let mut checks = Checks::default();
    let outcome = run(&args, nproc, &mut checks);
    for note in &outcome.notes {
        println!("{note}");
    }
    for name in outcome.metrics.non_finite() {
        checks.fail(format!("metric {name} is not a finite number"));
    }
    if args.trace {
        let path = trace_path(&args.workload, args.seed);
        let body = format!(
            "{{\"workload\":{},\"fingerprint\":{},\"spans\":{}}}\n",
            json_string(&args.workload),
            fingerprint.to_json(args.seed),
            trace::to_json(&outcome.spans)
        );
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, body));
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => checks.fail(format!("cannot write {}: {e}", path.display())),
        }
        for (name, stats) in trace::by_name(&outcome.spans) {
            println!(
                "span {name}: {} spans, {:.3} ms total, {:.3} ms self",
                stats.count(),
                stats.total_ns() / 1e6,
                stats.self_ns as f64 / 1e6
            );
        }
    }
    for (name, metric) in outcome.metrics.iter() {
        println!("metric {name} = {} {}", metric.value, metric.unit);
    }
    for failure in checks.failures() {
        println!("CHECK FAILED: {failure}");
    }
    let correct = checks.failures().is_empty();
    println!(
        "checks: {} run, {} failed",
        checks.run(),
        checks.failures().len()
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.to_json()
    );
    if !correct {
        std::process::exit(1);
    }
}
