//! The wire workloads: an in-process `mdrr-serve` daemon on loopback fed
//! by `WireClient` connections — a closed loop of large frames
//! (`wire_bulk`) and an open loop of small frames with concurrent
//! snapshot reads (`wire_mixed`).  The open loop also serves as the wire
//! probe of the other workloads' traced runs.

use crate::checks::{self, Checks};
use crate::frames::FrameSet;
use crate::machine::CpuTime;
use crate::report::{shard_imbalance_permille, Metrics, Section};
use crate::sched::{OpenLoopLog, Schedule};
use crate::stats::Samples;
use crate::trace::{traced, Tracer};
use mdrr_data::Schema;
use mdrr_obs::{Clock, MonotonicClock};
use mdrr_protocols::{Protocol, ProtocolSpec};
use mdrr_serve::{CollectorServer, DrainedCollector, ServeConfig, ServeObs};
use mdrr_store::Snapshot;
use mdrr_stream::wire::{self, Hello};
use mdrr_stream::{ClientConfig, WireClient, WireError};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Bytes of a frame with an empty payload (snapshot query, goodbye).
const EMPTY_FRAME_BYTES: u64 = (wire::WIRE_HEADER_LEN + wire::WIRE_TRAILER_LEN) as u64;

/// What a wire workload runs against: one protocol and its frames.
#[derive(Debug, Clone)]
pub struct WireInput {
    pub schema: Schema,
    pub spec: ProtocolSpec,
    pub protocol: Arc<dyn Protocol>,
    pub frames: FrameSet,
    /// Keep probability of the uniform-keep channels (for the bounds).
    pub keep: f64,
}

/// A daemon with its metrics.
struct Daemon {
    server: CollectorServer,
    obs: Arc<ServeObs>,
    addr: SocketAddr,
}

fn start_daemon(input: &WireInput, n_shards: usize) -> Daemon {
    let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
    let obs = ServeObs::new(Arc::clone(&clock));
    let config = ServeConfig {
        n_shards,
        ..ServeConfig::default()
    };
    let server = CollectorServer::bind(
        "127.0.0.1:0",
        &input.schema,
        &input.spec,
        config,
        clock,
        Some(Arc::clone(&obs)),
    )
    .expect("bind a loopback collector daemon");
    let addr = server.local_addr();
    Daemon { server, obs, addr }
}

fn connect(addr: SocketAddr, input: &WireInput) -> WireClient {
    WireClient::connect(
        addr,
        input.schema.clone(),
        input.spec.clone(),
        ClientConfig::default(),
        Arc::new(MonotonicClock::new()),
    )
    .expect("connect to the loopback daemon")
}

/// Bytes of the hello frame a client of `input` sends.
fn hello_frame_bytes(input: &WireInput) -> u64 {
    let hello = Hello {
        schema: input.schema.clone(),
        spec: input.spec.clone(),
    };
    let payload = wire::encode_json("hello", &hello).expect("hello encodes");
    wire::frame_len(payload.len()) as u64
}

/// The daemon's own counters and histogram sums after a drain.
#[derive(Debug, Default)]
struct ServeCounters {
    reports: u64,
    bytes_read: u64,
    rejects: u64,
    decode: (u64, u64),
    ingest: (u64, u64),
}

fn serve_counters(obs: &ServeObs) -> ServeCounters {
    let snap = obs.registry().snapshot();
    let hist = |name: &str| {
        snap.histogram_snapshot(name, &[])
            .map_or((0, 0), |h| (h.sum, h.count))
    };
    ServeCounters {
        reports: snap.counter_value("serve_reports_total", &[]).unwrap_or(0),
        bytes_read: snap
            .counter_value("serve_bytes_read_total", &[])
            .unwrap_or(0),
        rejects: snap
            .counters
            .iter()
            .filter(|c| c.id.name == "serve_rejects_total")
            .map(|c| c.value)
            .sum(),
        decode: hist("serve_decode_nanos"),
        ingest: hist("serve_ingest_nanos"),
    }
}

fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

/// One snapshot read: fetch over the wire, decode, release, answer every
/// marginal.
#[derive(Debug)]
struct Read {
    total: u64,
    bytes: usize,
    marginals: Vec<Vec<f64>>,
    fetch_ns: u64,
    decode_ns: u64,
    release_ns: u64,
    total_ns: u64,
}

fn read_snapshot(
    client: &mut WireClient,
    tracer: Option<&Tracer>,
    request: u64,
) -> Result<Read, String> {
    let t0 = Instant::now();
    traced(tracer, "read", None, request, |id| {
        let bytes = traced(tracer, "client.snapshot_fetch", id, request, |_| {
            client.snapshot_bytes()
        })
        .map_err(|e| format!("snapshot fetch: {e}"))?;
        let t1 = Instant::now();
        let snapshot = traced(tracer, "store.snapshot_decode", id, request, |_| {
            Snapshot::from_bytes(&bytes)
        })
        .map_err(|e| format!("snapshot decode: {e}"))?;
        let t2 = Instant::now();
        let release = traced(tracer, "store.snapshot_release", id, request, |_| {
            snapshot.release()
        })
        .map_err(|e| format!("snapshot release: {e}"))?;
        let t3 = Instant::now();
        let marginals = traced(tracer, "protocols.marginals", id, request, |_| {
            (0..snapshot.schema().len())
                .map(|j| release.marginal(j))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| format!("marginal query: {e}"))?;
        let t4 = Instant::now();
        Ok(Read {
            total: snapshot.n_reports(),
            bytes: bytes.len(),
            marginals,
            fetch_ns: (t1 - t0).as_nanos() as u64,
            decode_ns: (t2 - t1).as_nanos() as u64,
            release_ns: (t3 - t2).as_nanos() as u64,
            total_ns: (t4 - t0).as_nanos() as u64,
        })
    })
}

/// Client-side record of one connection's batch traffic.
#[derive(Debug, Default)]
struct SendLog {
    /// Sends of each frame of the connection's share.
    times_sent: Vec<u64>,
    frames: u64,
    bytes: u64,
    /// Time blocked in `wait_ack`.
    ack_wait_ns: u64,
    /// Time in `send_raw_batch`.
    write_ns: u64,
    /// Frames in flight just before each send.
    in_flight_sum: u64,
    /// The client's acknowledged-report ledger at the end.
    acked_reports: u64,
    /// When the last acknowledgement arrived (ns since the run origin).
    last_ack_ns: u64,
}

/// Waits for the oldest in-flight acknowledgement; returns when it came.
fn await_ack(
    client: &mut WireClient,
    log: &mut SendLog,
    origin: Instant,
    tracer: Option<&Tracer>,
    request: u64,
) -> Result<u64, WireError> {
    let t0 = Instant::now();
    traced(tracer, "client.ack_wait", None, request, |_| {
        client.wait_ack()
    })?;
    log.ack_wait_ns += t0.elapsed().as_nanos() as u64;
    let now = ns_since(origin);
    log.last_ack_ns = now;
    Ok(now)
}

/// Sends frame `i` of `frames`; returns when the write finished.
fn send(
    client: &mut WireClient,
    log: &mut SendLog,
    frames: &mut [Vec<u8>],
    i: usize,
    reports: u64,
    tracer: Option<&Tracer>,
    request: u64,
) -> Result<(), WireError> {
    log.in_flight_sum += client.in_flight() as u64;
    let t0 = Instant::now();
    traced(tracer, "client.write", None, request, |_| {
        client.send_raw_batch(&mut frames[i], reports)
    })?;
    log.write_ns += t0.elapsed().as_nanos() as u64;
    log.times_sent[i] += 1;
    log.frames += 1;
    log.bytes += frames[i].len() as u64;
    Ok(())
}

/// Reports sent and acknowledged so far, over every connection: the
/// bounds a concurrent snapshot read must fall between.
#[derive(Debug, Default)]
struct Progress {
    sent: AtomicU64,
    acked: AtomicU64,
}

/// Snapshot reads one connection makes while it streams, and their
/// bounds.
#[derive(Debug, Default)]
struct ReadLog {
    reads: Vec<Read>,
    bounds: Vec<ReadBounds>,
}

/// Reads one snapshot, recording the reports acknowledged before the
/// request and sent before the answer.
fn bounded_read(
    client: &mut WireClient,
    progress: &Progress,
    log: &mut ReadLog,
    tracer: Option<&Tracer>,
    request: u64,
) -> Result<(), String> {
    let lower = progress.acked.load(Ordering::SeqCst);
    let read = read_snapshot(client, tracer, request)?;
    log.bounds.push(ReadBounds {
        lower,
        upper: progress.sent.load(Ordering::SeqCst),
    });
    log.reads.push(read);
    Ok(())
}

/// Counts a batch as sent before it is written, so a concurrent read can
/// never see a batch the counter does not cover yet.
fn note_sending(progress: &Progress, reports: u64) {
    progress.sent.fetch_add(reports, Ordering::SeqCst);
}

/// A closed loop: send the connection's frames round-robin, each as soon
/// as the window has room, until `deadline`; then collect every ack.
/// With `read_every`, the connection also settles its acks and reads a
/// snapshot at that interval.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    client: &mut WireClient,
    frames: &mut [Vec<u8>],
    reports: u64,
    origin: Instant,
    deadline: Instant,
    read_every: Option<Duration>,
    progress: &Progress,
    tracer: Option<&Tracer>,
    conn: u64,
    ack_ns: &mut Samples,
) -> Result<(SendLog, ReadLog), String> {
    let window = client.window() as usize;
    let mut log = SendLog {
        times_sent: vec![0; frames.len()],
        ..SendLog::default()
    };
    let mut reads = ReadLog::default();
    let mut sent_at: VecDeque<u64> = VecDeque::with_capacity(window);
    let mut take_ack =
        |client: &mut WireClient, log: &mut SendLog, sent_at: &mut VecDeque<u64>, seq: u64| {
            let acked = await_ack(client, log, origin, tracer, conn << 40 | seq)
                .map_err(|e| format!("connection {conn}: {e}"))?;
            progress.acked.fetch_add(reports, Ordering::SeqCst);
            ack_ns.push(acked.saturating_sub(sent_at.pop_front().unwrap_or(acked)) as f64);
            Ok::<_, String>(())
        };
    let mut next_read = read_every.map(|every| Instant::now() + every);
    let mut seq = 0u64;
    while Instant::now() < deadline {
        if let (Some(due), Some(every)) = (next_read, read_every) {
            if Instant::now() >= due {
                while client.in_flight() > 0 {
                    take_ack(client, &mut log, &mut sent_at, seq)?;
                }
                let request = 1 << 62 | conn << 40 | reads.reads.len() as u64;
                bounded_read(client, progress, &mut reads, tracer, request)?;
                next_read = Some(due + every);
            }
        }
        if client.in_flight() >= window {
            take_ack(client, &mut log, &mut sent_at, seq)?;
        }
        let i = (seq % frames.len() as u64) as usize;
        note_sending(progress, reports);
        send(
            client,
            &mut log,
            frames,
            i,
            reports,
            tracer,
            conn << 40 | seq,
        )
        .map_err(|e| format!("connection {conn}: {e}"))?;
        sent_at.push_back(ns_since(origin));
        seq += 1;
    }
    while client.in_flight() > 0 {
        take_ack(client, &mut log, &mut sent_at, seq)?;
    }
    log.acked_reports = client.acked_reports();
    Ok((log, reads))
}

/// Closes every client, drains the daemon and checks that the reports
/// acknowledged, metered, drained and sent all agree, the bytes the
/// daemon read are the bytes sent, nothing was rejected, and the drained
/// counts are exactly the counts of the frames sent.
#[allow(clippy::too_many_arguments)]
fn finish(
    daemon: Daemon,
    clients: Vec<WireClient>,
    input: &WireInput,
    times_sent: &[u64],
    client_acked: u64,
    bytes_sent: u64,
    queries: u64,
    checks: &mut Checks,
) -> (DrainedCollector, ServeCounters) {
    let n_clients = clients.len() as u64;
    for client in clients {
        if let Err(e) = client.close() {
            checks.fail(format!("closing a connection: {e}"));
        }
    }
    let drained = daemon.server.drain().expect("drain the daemon");
    let counters = serve_counters(&daemon.obs);
    let expected: u64 = times_sent.iter().sum::<u64>() * input.frames.reports_per_frame as u64;
    checks.equal("client-acked vs expected reports", client_acked, expected);
    checks.equal(
        "daemon-acked vs expected reports",
        drained.acked_reports,
        expected,
    );
    checks.equal(
        "daemon-metered vs expected reports",
        counters.reports,
        expected,
    );
    checks.equal(
        "drained collector vs expected reports",
        drained.collector.total_reports(),
        expected,
    );
    let bytes_expected = bytes_sent
        + n_clients * (hello_frame_bytes(input) + EMPTY_FRAME_BYTES)
        + queries * EMPTY_FRAME_BYTES;
    checks.equal(
        "daemon bytes read vs bytes sent",
        counters.bytes_read,
        bytes_expected,
    );
    checks.equal("daemon rejects", counters.rejects, 0);
    let counts = drained.collector.merged().expect("merge shards");
    let want = input
        .frames
        .expected_counts(input.protocol.as_ref(), times_sent);
    checks.expect(counts.counts() == want.as_slice(), || {
        "drained counts differ from the counts of the frames sent".to_string()
    });
    (drained, counters)
}

/// Checks the drained collector's released marginals against the truth
/// of the records behind the frames sent.  Returns the worst error as a
/// share of its Expression (5) bound.
fn check_estimates(
    drained: &DrainedCollector,
    input: &WireInput,
    times_sent: &[u64],
    checks: &mut Checks,
) -> f64 {
    let truth = input.frames.weighted_truth(times_sent);
    let n = checks::effective_reports(times_sent, input.frames.reports_per_frame);
    let channels = input.protocol.channel_sizes();
    if channels.len() == truth.len() {
        // One channel per attribute: the released marginals are the
        // per-channel estimates themselves.
        let snapshot = drained.collector.snapshot().expect("snapshot");
        let marginals: Vec<Vec<f64>> = (0..truth.len())
            .map(|j| snapshot.marginal(j).expect("marginal"))
            .collect();
        checks::check_marginals(checks, "drained release", &marginals, &truth, input.keep, n)
    } else {
        // One joint channel: its released marginals come from a projected
        // (clamp-and-rescale) joint estimate, which Expression (5) does
        // not cover, so the bound is checked on the unbiased marginals of
        // the drained counts and the released ones must be proper.
        let merged = drained.collector.merged().expect("merge shards");
        let raw = checks::raw_joint_marginals(
            &merged.counts()[0],
            &input.schema.cardinalities(),
            input.keep,
        );
        let snapshot = drained.collector.snapshot().expect("snapshot");
        for j in 0..truth.len() {
            checks::check_proper(
                checks,
                "drained release",
                &snapshot.marginal(j).expect("marginal"),
            );
        }
        checks::check_marginals(checks, "drained counts", &raw, &truth, input.keep, n)
    }
}

/// Median of a sample in the given unit divisor (ns → µs is 1e3).
fn median(samples: &mut Samples, per: f64) -> f64 {
    samples.median().map_or(f64::NAN, |v| v / per)
}

fn serve_layers(layers: &mut Metrics, counters: &ServeCounters) {
    layers.set(
        "serve.decode_mean_ns_per_frame",
        counters.decode.0 as f64 / counters.decode.1 as f64,
        "ns",
    );
    layers.set(
        "serve.ingest_mean_ns_per_frame",
        counters.ingest.0 as f64 / counters.ingest.1 as f64,
        "ns",
    );
    layers.set("serve.rejects_total", counters.rejects as f64, "count");
}

fn read_layers(layers: &mut Metrics, reads: &[Read]) {
    let mut fetch = Samples::new();
    let mut decode = Samples::new();
    let mut release = Samples::new();
    for read in reads {
        fetch.push(read.fetch_ns as f64);
        decode.push(read.decode_ns as f64);
        release.push(read.release_ns as f64);
    }
    layers.set(
        "stream.client.snapshot_fetch_ms",
        median(&mut fetch, 1e6),
        "ms",
    );
    layers.set("store.snapshot_decode_us", median(&mut decode, 1e3), "us");
    layers.set("store.snapshot_release_us", median(&mut release, 1e3), "us");
    layers.set(
        "store.snapshot_bytes",
        reads.last().map_or(f64::NAN, |r| r.bytes as f64),
        "B",
    );
}

fn send_layers(layers: &mut Metrics, logs: &[&SendLog]) {
    let frames: u64 = logs.iter().map(|l| l.frames).sum();
    let sum = |f: fn(&SendLog) -> u64| logs.iter().map(|l| f(l)).sum::<u64>() as f64;
    layers.set(
        "stream.client.window_wait_ns_per_frame",
        sum(|l| l.ack_wait_ns) / frames as f64,
        "ns",
    );
    layers.set(
        "stream.client.in_flight_mean",
        sum(|l| l.in_flight_sum) / frames as f64,
        "count",
    );
    layers.set(
        "stream.client.write_ns_per_frame",
        sum(|l| l.write_ns) / frames as f64,
        "ns",
    );
}

/// How often the last `wire_bulk` connection reads a snapshot while it
/// streams: the analyst's view of a busy collector.
const BULK_READ_EVERY: Duration = Duration::from_millis(100);

/// `wire_bulk`: `n_conns` connections in a closed loop, each pipelining
/// its share of the frames up to the daemon's window; the last one also
/// settles its acks and reads a snapshot every [`BULK_READ_EVERY`].
pub fn bulk(
    input: &WireInput,
    n_conns: usize,
    seconds: f64,
    tracer: Option<&Tracer>,
    checks: &mut Checks,
) -> Section {
    let daemon = start_daemon(input, n_conns);
    let mut clients: Vec<WireClient> = (0..n_conns).map(|_| connect(daemon.addr, input)).collect();
    let mut frames = input.frames.frames.clone();
    let share = frames.len() / n_conns;
    let reports = input.frames.reports_per_frame as u64;
    let barrier = Barrier::new(n_conns);
    let progress = Progress::default();
    let origin = Instant::now();
    let cpu_before = CpuTime::now();
    let mut ack_ns = vec![Samples::new(); n_conns];
    let results: Vec<Result<(SendLog, ReadLog), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(frames.chunks_mut(share))
            .zip(ack_ns.iter_mut())
            .enumerate()
            .map(|(c, ((client, frames), acks))| {
                let (barrier, progress) = (&barrier, &progress);
                let read_every = (c + 1 == n_conns).then_some(BULK_READ_EVERY);
                scope.spawn(move || {
                    barrier.wait();
                    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
                    closed_loop(
                        client, frames, reports, origin, deadline, read_every, progress, tracer,
                        c as u64, acks,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a connection thread panicked"))
            .collect()
    });
    let cpu = CpuTime::now().since(cpu_before);
    let mut logs = Vec::with_capacity(n_conns);
    let mut reads = ReadLog::default();
    let mut section = Section {
        cpu,
        ..Section::default()
    };
    for result in results {
        match result {
            Ok((log, read_log)) => {
                logs.push(log);
                reads.reads.extend(read_log.reads);
                reads.bounds.extend(read_log.bounds);
            }
            Err(e) => {
                checks.fail(e);
                section.failed += 1;
            }
        }
    }
    for acks in &ack_ns {
        section.op_ns.extend(acks);
    }
    section.elapsed_ns = logs.iter().map(|l| l.last_ack_ns).max().unwrap_or(0);
    section.reports = logs.iter().map(|l| l.acked_reports).sum();
    check_reads(&mut section, &reads, reports, checks);
    let times_sent: Vec<u64> = logs
        .iter()
        .flat_map(|l| l.times_sent.iter().copied())
        .collect();
    let bytes_sent = logs.iter().map(|l| l.bytes).sum();
    section.attempted = logs.iter().map(|l| l.frames).sum::<u64>() + reads.reads.len() as u64;
    if times_sent.len() != input.frames.len() {
        checks.fail("a bulk connection did not report its sends".to_string());
        return section;
    }
    let (drained, counters) = finish(
        daemon,
        clients,
        input,
        &times_sent,
        section.reports,
        bytes_sent,
        reads.reads.len() as u64,
        checks,
    );
    let worst = check_estimates(&drained, input, &times_sent, checks);
    let log_refs: Vec<&SendLog> = logs.iter().collect();
    send_layers(&mut section.layers, &log_refs);
    read_layers(&mut section.layers, &reads.reads);
    serve_layers(&mut section.layers, &counters);
    section.layers.set("bench.bound_share", worst, "ratio");
    section.layers.set(
        "stream.collector.shard_imbalance_permille",
        shard_imbalance_permille(&drained.collector),
        "permille",
    );
    client_read_cost(&mut section, &reads.reads);
    section
}

/// Records every read's latency and checks it saw between the reports
/// acknowledged before it was requested and those sent before it was
/// answered, in whole frames, with proper released marginals.
fn check_reads(section: &mut Section, reads: &ReadLog, reports: u64, checks: &mut Checks) {
    for (read, bound) in reads.reads.iter().zip(&reads.bounds) {
        section.read_ns.push(read.total_ns as f64);
        checks.expect(
            bound.lower <= read.total && read.total <= bound.upper,
            || {
                format!(
                    "snapshot read saw {} reports, outside [{} acknowledged, {} sent]",
                    read.total, bound.lower, bound.upper
                )
            },
        );
        checks.expect(read.total % reports == 0, || {
            format!("snapshot read saw {} reports: not whole frames", read.total)
        });
        for marginal in &read.marginals {
            checks::check_proper(checks, "snapshot read", marginal);
        }
    }
    section.daemon_reads = reads.reads.len() as u64;
}

/// The client's share of the reads — decode, release and answers — per
/// report.  (The fetch itself waits on the daemon, whose merge and encode
/// the probes price.)
fn client_read_cost(section: &mut Section, reads: &[Read]) {
    let read_ns: f64 = reads.iter().map(|r| (r.total_ns - r.fetch_ns) as f64).sum();
    section
        .layer_costs
        .push(("client.reads", read_ns / section.reports.max(1) as f64));
}

/// Rates and length of an open-loop session.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoopPlan {
    pub frames_per_s: f64,
    pub reads_per_s: f64,
    pub seconds: f64,
}

/// One read's bounds: acknowledged before it was requested, and sent
/// before its answer arrived.
#[derive(Debug)]
struct ReadBounds {
    lower: u64,
    upper: u64,
}

/// `wire_mixed` (and the wire probe): one connection sends frames on a
/// fixed schedule, a second reads snapshots on a fixed schedule.
pub fn mixed(
    input: &WireInput,
    plan: OpenLoopPlan,
    tracer: Option<&Tracer>,
    checks: &mut Checks,
) -> Section {
    let daemon = start_daemon(input, crate::machine::nproc());
    let mut writer = connect(daemon.addr, input);
    let mut reader = connect(daemon.addr, input);
    let mut frames = input.frames.frames.clone();
    let reports = input.frames.reports_per_frame as u64;
    let progress = Progress::default();
    let origin = Instant::now();
    // Both loops start together a millisecond from now.
    let start_ns = ns_since(origin) + 1_000_000;
    let end_ns = start_ns + (plan.seconds * 1e9) as u64;
    let cpu_before = CpuTime::now();
    let (write_result, read_result) = std::thread::scope(|scope| {
        let progress = &progress;
        let (frames, writer, reader) = (&mut frames, &mut writer, &mut reader);
        let w = scope.spawn(move || {
            write_open_loop(
                writer,
                frames,
                reports,
                origin,
                (start_ns, end_ns),
                plan,
                progress,
                tracer,
            )
        });
        let r = scope.spawn(move || {
            read_open_loop(reader, origin, (start_ns, end_ns), plan, progress, tracer)
        });
        (
            w.join().expect("the writer panicked"),
            r.join().expect("the reader panicked"),
        )
    });
    let cpu = CpuTime::now().since(cpu_before);
    let mut section = Section {
        cpu,
        ..Section::default()
    };
    let (log, open) = match write_result {
        Ok(result) => result,
        Err(e) => {
            checks.fail(format!("open-loop writer: {e}"));
            section.failed += 1;
            return section;
        }
    };
    let (reads, read_failure) = read_result;
    let queries = reads.reads.len() as u64 + u64::from(read_failure.is_some());
    if let Some(failure) = read_failure {
        checks.fail(failure);
        section.failed += 1;
    }
    section.elapsed_ns = log.last_ack_ns.saturating_sub(start_ns);
    section.reports = log.acked_reports;
    section.op_ns = open.latency_ns.clone();
    section.attempted = log.frames + queries;
    check_reads(&mut section, &reads, reports, checks);
    let (drained, counters) = finish(
        daemon,
        vec![writer, reader],
        input,
        &log.times_sent,
        log.acked_reports,
        log.bytes,
        queries,
        checks,
    );
    let worst = check_estimates(&drained, input, &log.times_sent, checks);
    let mut lag = open.send_lag_ns.clone();
    send_layers(&mut section.layers, &[&log]);
    read_layers(&mut section.layers, &reads.reads);
    serve_layers(&mut section.layers, &counters);
    section.layers.set("bench.bound_share", worst, "ratio");
    section.layers.set(
        "bench.send_lag_p99_us",
        lag.quantile(0.99).map_or(f64::NAN, |v| v / 1e3),
        "us",
    );
    section.layers.set(
        "stream.collector.shard_imbalance_permille",
        shard_imbalance_permille(&drained.collector),
        "permille",
    );
    client_read_cost(&mut section, &reads.reads);
    section
}

type WriteResult = Result<(SendLog, OpenLoopLog), WireError>;

/// Sends frame `k` when it falls due, collecting acks in between, from
/// `window.0` until `window.1` (ns since `origin`).
#[allow(clippy::too_many_arguments)]
fn write_open_loop(
    client: &mut WireClient,
    frames: &mut [Vec<u8>],
    reports: u64,
    origin: Instant,
    (start_ns, end_ns): (u64, u64),
    plan: OpenLoopPlan,
    progress: &Progress,
    tracer: Option<&Tracer>,
) -> WriteResult {
    let schedule = Schedule::new(start_ns, plan.frames_per_s);
    let window = client.window() as usize;
    let mut log = SendLog {
        times_sent: vec![0; frames.len()],
        ..SendLog::default()
    };
    let mut open = OpenLoopLog::default();
    let mut due_of_in_flight: VecDeque<u64> = VecDeque::with_capacity(window);
    let take_ack = |client: &mut WireClient,
                    log: &mut SendLog,
                    open: &mut OpenLoopLog,
                    due_of_in_flight: &mut VecDeque<u64>,
                    request: u64| {
        let acked_at = await_ack(client, log, origin, tracer, request)?;
        progress.acked.fetch_add(reports, Ordering::SeqCst);
        if let Some(due) = due_of_in_flight.pop_front() {
            open.completed(due, acked_at);
        }
        Ok::<_, WireError>(())
    };
    let mut k = 0u64;
    loop {
        let due = schedule.due_ns(k);
        if due >= end_ns {
            break;
        }
        let now = ns_since(origin);
        if now >= due {
            if client.in_flight() >= window {
                take_ack(client, &mut log, &mut open, &mut due_of_in_flight, k)?;
            }
            let i = (k % frames.len() as u64) as usize;
            note_sending(progress, reports);
            open.sent(due, ns_since(origin));
            send(client, &mut log, frames, i, reports, tracer, k)?;
            due_of_in_flight.push_back(due);
            k += 1;
        } else if client.in_flight() > 0 {
            take_ack(client, &mut log, &mut open, &mut due_of_in_flight, k)?;
        } else {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
    }
    while client.in_flight() > 0 {
        take_ack(client, &mut log, &mut open, &mut due_of_in_flight, k)?;
    }
    log.acked_reports = client.acked_reports();
    Ok((log, open))
}

/// Reads a snapshot when each read falls due, from one read interval
/// after `window.0` (a collector with no reports has no release to read)
/// until `window.1`.  Stops at the first failed read.
fn read_open_loop(
    client: &mut WireClient,
    origin: Instant,
    (start_ns, end_ns): (u64, u64),
    plan: OpenLoopPlan,
    progress: &Progress,
    tracer: Option<&Tracer>,
) -> (ReadLog, Option<String>) {
    let schedule = Schedule::new(start_ns + (1e9 / plan.reads_per_s) as u64, plan.reads_per_s);
    let mut log = ReadLog::default();
    let mut j = 0u64;
    loop {
        let due = schedule.due_ns(j);
        if due >= end_ns {
            return (log, None);
        }
        let now = ns_since(origin);
        if now < due {
            std::thread::sleep(Duration::from_nanos(due - now));
        }
        if let Err(e) = bounded_read(client, progress, &mut log, tracer, 1 << 62 | j) {
            return (log, Some(e));
        }
        j += 1;
    }
}
