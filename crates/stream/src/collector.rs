//! The sharded streaming collector.
//!
//! A [`ShardedCollector`] owns `N` independent [`Accumulator`]s and fans
//! ingestion out over `std::thread::scope` workers — one worker per shard,
//! each with its own deterministic RNG, each counting into worker-local
//! state that the caller thread commits once every worker has joined, so
//! ingestion is embarrassingly parallel, never locks, and a failed bulk
//! call commits nothing.  At any point mid-stream the shards can be
//! merged (exactly — counts are sums) and snapshotted into the protocol's
//! regular release via the closed-form estimators, so incremental
//! estimation costs O(domain) per snapshot, independent of how many
//! reports have streamed by.
//!
//! The collector is generic over the protocol: it holds an
//! `Arc<dyn Protocol>` and works with any implementation of
//! [`mdrr_protocols::Protocol`] — the paper's three mechanisms today, any
//! future backend unchanged.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::accumulator::Accumulator;
use crate::batch::ReportBatch;
use crate::error::MdrrError;
use crate::instrument::{StreamObs, WorkerObs};
use crate::report::Report;
use crate::wire::BatchView;
use mdrr_data::{RecordsBuffer, RecordsView};
use mdrr_obs::EventKind;
use mdrr_protocols::{Protocol, Release};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::any::Any;
use std::ops::Range;
use std::sync::Arc;

/// Stride between the per-shard seed *inputs* (the SplitMix64 golden-ratio
/// increment).  It must not reach the generator unmixed: SplitMix64 also
/// advances by this constant per state word, so seeds `base + k·G` would
/// give shard `k + 1` three of shard `k`'s four xoshiro words.  Every
/// shard seed therefore goes through [`mix64`] first (see [`shard_rng`]).
const SHARD_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Records per [`mdrr_protocols::Protocol::encode_batch`] call on the bulk
/// ingestion paths: large enough to amortise the once-per-batch validation
/// and buffer bookkeeping to nothing, small enough that a chunk's columnar
/// codes stay cache-resident between encoding and counting.
pub const ENCODE_BATCH: usize = 8 * 1024;

/// A point-in-time estimate taken from the accumulated sufficient
/// statistics: the protocol's regular release (so every batch query runs
/// unchanged against a mid-stream snapshot), without randomized microdata.
pub type StreamSnapshot = Box<dyn Release>;

/// A collector ingesting randomized reports through `N` sharded
/// accumulators, for any `dyn Protocol`.
///
/// Instrumentation is opt-in via [`ShardedCollector::instrument`]; an
/// uninstrumented collector pays a single pointer check per bulk call.
/// Clones share the attached instrumentation (it is a view onto the same
/// registry), so cloning never forks metric state.
#[derive(Debug, Clone)]
pub struct ShardedCollector {
    protocol: Arc<dyn Protocol>,
    shards: Vec<Accumulator>,
    /// Degraded-mode flags, parallel to `shards`: a quarantined shard
    /// stopped serving after its worker failed.  Its accumulator keeps
    /// the reports it held before the failed call (workers count into
    /// worker-local state, so a panic never half-commits), the bulk paths
    /// route new records over the remaining healthy shards, and
    /// [`ShardedCollector::rehabilitate`] brings the shard back once its
    /// lost range has been re-collected.
    quarantined: Vec<bool>,
    obs: Option<Arc<StreamObs>>,
}

impl ShardedCollector {
    /// A collector for `protocol` with `n_shards` empty shards.
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] if `n_shards` is zero.
    pub fn new(protocol: Arc<dyn Protocol>, n_shards: usize) -> Result<Self, MdrrError> {
        if n_shards == 0 {
            return Err(MdrrError::config("a collector needs at least one shard"));
        }
        let channel_sizes = protocol.channel_sizes();
        let shard = Accumulator::new(&channel_sizes)?;
        Ok(ShardedCollector {
            protocol,
            shards: vec![shard; n_shards],
            quarantined: vec![false; n_shards],
            obs: None,
        })
    }

    /// Convenience constructor wrapping a concrete protocol into the
    /// `Arc<dyn Protocol>` the collector holds.
    ///
    /// # Errors
    /// Same conditions as [`ShardedCollector::new`].
    pub fn for_protocol(
        protocol: impl Protocol + 'static,
        n_shards: usize,
    ) -> Result<Self, MdrrError> {
        Self::new(Arc::new(protocol), n_shards)
    }

    /// Reassembles a collector from restored per-shard accumulators (the
    /// checkpoint/restore path).  The caller guarantees every accumulator
    /// matches the protocol's channel layout.
    pub(crate) fn from_parts(protocol: Arc<dyn Protocol>, shards: Vec<Accumulator>) -> Self {
        debug_assert!(!shards.is_empty());
        let quarantined = vec![false; shards.len()];
        ShardedCollector {
            protocol,
            shards,
            quarantined,
            obs: None,
        }
    }

    /// Attaches instrumentation: from here on, every ingest path bumps
    /// per-shard counters, the bulk paths record per-chunk latency
    /// histograms (when `obs`'s clock is enabled), and snapshots and
    /// checkpoints land in the journal.  Attaching never changes ingest
    /// output — the RNG schedule, shard layout and counts are untouched.
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] when `obs` was laid
    /// out for a different shard count.
    pub fn instrument(&mut self, obs: Arc<StreamObs>) -> Result<(), MdrrError> {
        if obs.n_shards() != self.shards.len() {
            return Err(MdrrError::config(format!(
                "instrumentation is laid out for {} shards but the collector has {}",
                obs.n_shards(),
                self.shards.len()
            )));
        }
        self.obs = Some(obs);
        Ok(())
    }

    /// The attached instrumentation, if any.
    pub fn instrumentation(&self) -> Option<&Arc<StreamObs>> {
        self.obs.as_ref()
    }

    /// The protocol the collector ingests reports for.
    pub fn protocol(&self) -> &Arc<dyn Protocol> {
        &self.protocol
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard accumulators, in shard order.
    pub fn shards(&self) -> &[Accumulator] {
        &self.shards
    }

    /// Total number of reports ingested across all shards.
    pub fn total_reports(&self) -> u64 {
        self.shards.iter().map(Accumulator::n_reports).sum()
    }

    /// Whether shard `k` is quarantined (out-of-range indices read as
    /// healthy).
    pub fn is_quarantined(&self, shard: usize) -> bool {
        self.quarantined.get(shard).copied().unwrap_or(false)
    }

    /// The quarantined shard indices, ascending — the shards whose lost
    /// work must be re-collected and merged back (see
    /// [`ShardedCollector::rehabilitate`]).
    pub fn quarantined_shards(&self) -> Vec<usize> {
        self.quarantined
            .iter()
            .enumerate()
            .filter_map(|(k, &q)| q.then_some(k))
            .collect()
    }

    /// The healthy (non-quarantined) shard indices, ascending.
    pub fn healthy_shards(&self) -> Vec<usize> {
        self.quarantined
            .iter()
            .enumerate()
            .filter_map(|(k, &q)| (!q).then_some(k))
            .collect()
    }

    /// The record partition the bulk paths use for `n` records right
    /// now: `(shard, record_range)` pairs over the healthy shards,
    /// in shard order, with empty trailing ranges omitted.  With no shard
    /// quarantined this is exactly the historical contiguous-chunk
    /// partition.  Callers that may need to re-collect a shard's work
    /// after a failure capture this *before* ingesting — quarantining
    /// changes the partition of subsequent calls.
    pub fn shard_ranges(&self, n: usize) -> Vec<(usize, Range<usize>)> {
        if n == 0 {
            return Vec::new();
        }
        let healthy = self.healthy_shards();
        if healthy.is_empty() {
            return Vec::new();
        }
        let chunk_size = n.div_ceil(healthy.len());
        healthy
            .into_iter()
            .enumerate()
            .filter(|&(j, _)| j * chunk_size < n)
            .map(|(j, k)| (k, j * chunk_size..((j + 1) * chunk_size).min(n)))
            .collect()
    }

    /// Brings a quarantined shard back into service with a replacement
    /// accumulator — typically the shard's pre-failure counts merged with
    /// a deterministic re-collection of its lost range (worker `k`'s RNG
    /// stream is reproduced by a one-shard collector under
    /// [`offset_base_seed`]`(base_seed, k)`).  The replacement must match
    /// the collector's channel layout.
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] for an out-of-range
    /// shard index or a layout-mismatched accumulator.
    pub fn rehabilitate(
        &mut self,
        shard: usize,
        accumulator: Accumulator,
    ) -> Result<(), MdrrError> {
        let n_shards = self.shards.len();
        let slot = self.shards.get_mut(shard).ok_or_else(|| {
            MdrrError::config(format!(
                "shard index {shard} out of range ({n_shards} shards)"
            ))
        })?;
        let layout_matches = accumulator.counts().len() == slot.counts().len()
            && accumulator
                .counts()
                .iter()
                .zip(slot.counts())
                .all(|(a, b)| a.len() == b.len());
        if !layout_matches {
            return Err(MdrrError::config(format!(
                "replacement accumulator for shard {shard} does not match the collector's \
                 channel layout"
            )));
        }
        *slot = accumulator;
        if let Some(flag) = self.quarantined.get_mut(shard) {
            *flag = false;
        }
        if let Some(obs) = self.obs.as_deref() {
            obs.set_shard_health(shard, true);
        }
        Ok(())
    }

    /// Quarantines every shard whose worker died, records the failures
    /// (health gauge to 0, `stream_shard_failures_total`, a
    /// `shard_failed` journal event each), and surfaces the first one as
    /// the typed error.  The panicked shards' accumulators are untouched:
    /// workers count into worker-local state that only the caller thread
    /// commits.
    fn quarantine_failures(&mut self, panicked: Vec<(usize, String)>) -> Result<(), MdrrError> {
        let mut first: Option<(usize, String)> = None;
        for (k, text) in panicked {
            if let Some(flag) = self.quarantined.get_mut(k) {
                *flag = true;
            }
            if let Some(obs) = self.obs.as_deref() {
                obs.shard_failures_total.inc();
                obs.set_shard_health(k, false);
                obs.record_event(EventKind::ShardFailed { shard: k as u64 });
            }
            if first.is_none() {
                first = Some((k, text));
            }
        }
        match first {
            None => Ok(()),
            Some((k, text)) => Err(MdrrError::shard_failed(k, text)),
        }
    }

    /// Shard `shard`'s accumulator, if that shard exists and is serving.
    ///
    /// # Errors
    /// [`MdrrError::ShardFailed`] for a quarantined shard and
    /// [`MdrrError::InvalidConfiguration`] for an out-of-range index.
    fn healthy_shard_mut(&mut self, shard: usize) -> Result<&mut Accumulator, MdrrError> {
        if self.is_quarantined(shard) {
            return Err(MdrrError::shard_failed(
                shard,
                "shard is quarantined; rehabilitate it before routing to it".to_string(),
            ));
        }
        let n_shards = self.shards.len();
        self.shards.get_mut(shard).ok_or_else(|| {
            MdrrError::config(format!(
                "shard index {shard} out of range ({n_shards} shards)"
            ))
        })
    }

    /// Ingests one already-encoded report into a specific shard (the
    /// network path: reports arrive pre-randomized from the clients and are
    /// routed to a shard by any load-balancing rule).
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] for a bad shard index
    /// or a report that does not match the protocol's channels.
    pub fn ingest_report(&mut self, shard: usize, report: &Report) -> Result<(), MdrrError> {
        self.healthy_shard_mut(shard)?.ingest(report)?;
        if let Some(obs) = self.obs.as_ref() {
            if let Some(shard_obs) = obs.shards.get(shard) {
                shard_obs.reports.inc();
            }
        }
        Ok(())
    }

    /// Ingests a whole columnar [`ReportBatch`] into a specific shard (the
    /// bulk network path: pre-encoded reports arriving in batches and
    /// routed to a shard by any load-balancing rule).  Returns the number
    /// of reports ingested.
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] for a bad shard index
    /// or a batch that does not match the protocol's channels, and
    /// [`MdrrError::ShardFailed`] for a quarantined shard; nothing is
    /// counted on error.
    pub fn ingest_batch(&mut self, shard: usize, batch: &ReportBatch) -> Result<u64, MdrrError> {
        self.ingest_routed(shard, batch.n_reports(), |acc| acc.ingest_batch(batch))
    }

    /// Ingests a shape-checked wire batch into a specific shard, counting
    /// its codes straight from the little-endian payload bytes — the
    /// daemon's path, with no intermediate [`ReportBatch`].  Same kernel,
    /// bookkeeping and contract as [`ShardedCollector::ingest_batch`].
    ///
    /// # Errors
    /// As [`ShardedCollector::ingest_batch`]: in particular a code out of
    /// its channel's range anywhere in the batch leaves the shard
    /// untouched.
    pub fn ingest_wire(&mut self, shard: usize, view: &BatchView<'_>) -> Result<u64, MdrrError> {
        self.ingest_routed(shard, view.n_reports(), |acc| acc.ingest_wire(view))
    }

    /// The shared bookkeeping of the routed batch paths: refuse a
    /// quarantined or out-of-range shard, run `count` on the shard's
    /// accumulator, and meter the batch as one worker chunk of `n`
    /// reports.
    fn ingest_routed(
        &mut self,
        shard: usize,
        n: usize,
        count: impl FnOnce(&mut Accumulator) -> Result<(), MdrrError>,
    ) -> Result<u64, MdrrError> {
        let start = WorkerObs::for_shard(self.obs.as_deref(), shard).chunk_start();
        count(self.healthy_shard_mut(shard)?)?;
        let worker = WorkerObs::for_shard(self.obs.as_deref(), shard);
        worker.chunk_done(start);
        worker.run_done(n as u64);
        Ok(n as u64)
    }

    /// Simulates `records.n_records()` clients from a zero-copy columnar
    /// view — the fastest bulk path.  The view is split by
    /// [`ShardedCollector::shard_ranges`] into one contiguous range per
    /// healthy shard, and one `std::thread::scope` worker runs per
    /// non-empty range.  Worker `k` encodes its range in
    /// [`ENCODE_BATCH`]-sized chunks through the protocol's fused
    /// [`Protocol::encode_tally`] with its own deterministic RNG (derived
    /// from `base_seed` and `k`; the shard → RNG mapping is independent
    /// of how many shards end up with records), counting into its own
    /// tallies — no locks, no cross-shard traffic, zero allocations per
    /// record.
    ///
    /// The result is fully deterministic for a given
    /// `(records, base_seed, n_shards)` triple and bit-identical to
    /// encoding and ingesting shard `k`'s records one at a time with the
    /// same RNG ([`ShardedCollector::ingest_records_per_record`]), which
    /// the stream proptests enforce.
    ///
    /// Returns the number of reports ingested.
    ///
    /// # Errors
    /// The call commits on the caller thread, after every worker has
    /// joined:
    /// - a worker that *panics* is contained: its shard is quarantined
    ///   (health gauge 0, `stream_shard_failures_total`, a `shard_failed`
    ///   journal event) and keeps its pre-call counts;
    /// - if any worker returned an error (e.g. a record that does not fit
    ///   the protocol's schema), nothing is committed and the first error
    ///   in shard order is returned — fix the input and retry the whole
    ///   call;
    /// - otherwise every healthy worker's counts are merged into its
    ///   shard (only then does `stream_shard_reports_total` count them),
    ///   and a panic surfaces as [`MdrrError::ShardFailed`].
    pub fn ingest_view(
        &mut self,
        records: &RecordsView<'_>,
        base_seed: u64,
    ) -> Result<u64, MdrrError> {
        self.fan_out(records.n_records(), base_seed, |worker, range| {
            let range = records.slice(range)?;
            let mut tallies = worker.zero_tallies();
            let mut start = 0;
            while start < range.n_records() {
                let end = (start + ENCODE_BATCH).min(range.n_records());
                worker.encode_tally(&range.slice(start..end)?, &mut tallies)?;
                start = end;
            }
            Accumulator::from_counts(tallies, range.n_records() as u64)
        })
    }

    /// Simulates `records.len()` clients from row-major records: the same
    /// sharding, chunking and RNG schedule as
    /// [`ShardedCollector::ingest_view`], with each worker transposing its
    /// chunks into a reused columnar buffer before the batched encode — so
    /// bulk callers that only have rows still get the zero-allocation
    /// encode/count loops (the transpose itself reuses one buffer per
    /// worker).
    ///
    /// Returns the number of reports ingested.
    ///
    /// # Errors
    /// Same commit contract as [`ShardedCollector::ingest_view`].
    pub fn ingest_records(
        &mut self,
        records: &[Vec<u32>],
        base_seed: u64,
    ) -> Result<u64, MdrrError> {
        self.fan_out(records.len(), base_seed, |worker, range| {
            let rows = rows_in(records, range)?;
            let mut buffer = RecordsBuffer::new(worker.protocol.schema().len())?;
            let mut tallies = worker.zero_tallies();
            for sub in rows.chunks(ENCODE_BATCH) {
                buffer.clear();
                for record in sub {
                    buffer.push_record(record)?;
                }
                worker.encode_tally(&buffer.view(), &mut tallies)?;
            }
            Accumulator::from_counts(tallies, rows.len() as u64)
        })
    }

    /// The scalar reference sibling of [`ShardedCollector::ingest_records`]:
    /// identical sharding and RNG schedule, but every record is encoded
    /// into its own [`Report`] and ingested one at a time — two heap
    /// allocations, a dyn-dispatched encode and a full validation per
    /// record.  Kept public as the ground truth the batch path is
    /// proptest-pinned against, and as the baseline of the
    /// `bench_batch` criterion group.
    ///
    /// Returns the number of reports ingested.
    ///
    /// # Errors
    /// Same commit contract as [`ShardedCollector::ingest_view`].
    pub fn ingest_records_per_record(
        &mut self,
        records: &[Vec<u32>],
        base_seed: u64,
    ) -> Result<u64, MdrrError> {
        self.fan_out(records.len(), base_seed, |worker, range| {
            // The scalar path is timed per worker run (one "chunk"), not
            // per report — per-report clock reads would distort the
            // baseline it exists to provide.
            let t0 = worker.obs.chunk_start();
            let mut local = Accumulator::new(&worker.protocol.channel_sizes())?;
            for record in rows_in(records, range)? {
                local.ingest(&Report::encode(worker.protocol, record, &mut worker.rng)?)?;
            }
            worker.obs.chunk_done(t0);
            Ok(local)
        })
    }

    /// The one bulk fan-out: runs `count` on one scoped worker per range
    /// of [`ShardedCollector::shard_ranges`]`(n)`, each worker returning
    /// the counts of its range in a fresh accumulator, then commits on
    /// this thread under the contract documented on
    /// [`ShardedCollector::ingest_view`].
    fn fan_out<F>(&mut self, n: usize, base_seed: u64, count: F) -> Result<u64, MdrrError>
    where
        F: Fn(&mut Worker<'_>, Range<usize>) -> Result<Accumulator, MdrrError> + Sync,
    {
        if n == 0 {
            return Ok(0);
        }
        let ranges = self.shard_ranges(n);
        if ranges.is_empty() {
            return Err(MdrrError::config(
                "every shard is quarantined; rehabilitate at least one before ingesting",
            ));
        }
        let protocol: &dyn Protocol = &*self.protocol;
        let obs = self.obs.as_deref();
        let count = &count;
        let (results, panicked) = std::thread::scope(|scope| {
            let handles = ranges
                .into_iter()
                .map(|(k, range)| {
                    let handle = scope.spawn(move || {
                        let mut worker = Worker {
                            protocol,
                            rng: shard_rng(base_seed, k),
                            obs: WorkerObs::for_shard(obs, k),
                        };
                        count(&mut worker, range)
                    });
                    (k, handle)
                })
                .collect();
            join_workers(handles)
        });
        let failed = self.quarantine_failures(panicked);
        let locals = results
            .into_iter()
            .map(|(k, result)| result.map(|local| (k, local)))
            .collect::<Result<Vec<_>, MdrrError>>()?;
        for (k, local) in &locals {
            // Worker-local accumulators share the shards' channel layout
            // (both come from the protocol), so no merge fails part-way.
            if let Some(shard) = self.shards.get_mut(*k) {
                shard.merge(local)?;
            }
            WorkerObs::for_shard(self.obs.as_deref(), *k).run_done(local.n_reports());
        }
        self.update_imbalance();
        failed.map(|()| n as u64)
    }

    /// The k-way merge of all shards (exact: counts are sums).
    ///
    /// # Errors
    /// Propagates accumulator errors (cannot happen for a well-formed
    /// collector, whose shards share one channel layout).
    pub fn merged(&self) -> Result<Accumulator, MdrrError> {
        let mut merged = Accumulator::new(&self.protocol.channel_sizes())?;
        for shard in &self.shards {
            merged.merge(shard)?;
        }
        Ok(merged)
    }

    /// Takes a point-in-time estimate: merges all shards and runs the
    /// protocol's closed-form estimation on the pooled counts.  The
    /// returned release answers every query the batch release answers, and
    /// is numerically identical to the batch estimate over the same
    /// randomized codes.
    ///
    /// # Errors
    /// Returns [`MdrrError::InvalidConfiguration`] when no report has
    /// been ingested yet.
    pub fn snapshot(&self) -> Result<StreamSnapshot, MdrrError> {
        let timing = self
            .obs
            .as_deref()
            .filter(|o| o.clock().enabled())
            .map(|o| (o, o.clock().now_nanos()));
        let merged = self.merged()?;
        if merged.is_empty() {
            return Err(MdrrError::config(
                "cannot snapshot a collector before any report has been ingested",
            ));
        }
        let release = self
            .protocol
            .release_from_counts(merged.counts(), merged.n_reports() as usize)?;
        if let Some((obs, start)) = timing {
            obs.snapshot_nanos
                .record(obs.clock().now_nanos().saturating_sub(start));
        }
        if let Some(obs) = self.obs.as_deref() {
            obs.snapshots_total.inc();
            obs.update_imbalance(&self.shards);
            obs.record_event(EventKind::ShardSnapshot {
                shards: self.shards.len() as u64,
                total_reports: merged.n_reports(),
            });
        }
        Ok(release)
    }

    /// Refreshes the shard-imbalance gauge, when instrumented.
    fn update_imbalance(&self) {
        if let Some(obs) = self.obs.as_deref() {
            obs.update_imbalance(&self.shards);
        }
    }
}

/// What one fan-out worker runs with: the protocol, its shard's RNG and
/// its shard's meters.
struct Worker<'a> {
    protocol: &'a dyn Protocol,
    rng: StdRng,
    obs: WorkerObs<'a>,
}

impl Worker<'_> {
    /// Zeroed per-channel tallies for [`Worker::encode_tally`].
    fn zero_tallies(&self) -> Vec<Vec<u64>> {
        self.protocol
            .channel_sizes()
            .iter()
            .map(|&s| vec![0u64; s])
            .collect()
    }

    /// Randomizes `chunk` and adds its codes to `tallies`, metered as one
    /// chunk.
    fn encode_tally(
        &mut self,
        chunk: &RecordsView<'_>,
        tallies: &mut [Vec<u64>],
    ) -> Result<(), MdrrError> {
        let t0 = self.obs.chunk_start();
        self.protocol.encode_tally(chunk, &mut self.rng, tallies)?;
        self.obs.chunk_done(t0);
        Ok(())
    }
}

/// The rows of `range` (always in bounds for a range from
/// [`ShardedCollector::shard_ranges`]).
fn rows_in(records: &[Vec<u32>], range: Range<usize>) -> Result<&[Vec<u32>], MdrrError> {
    records
        .get(range.clone())
        .ok_or_else(|| MdrrError::config(format!("record range {range:?} out of bounds")))
}

/// Worker panics collected at join time: `(shard, panic text)`.
type PanickedWorkers = Vec<(usize, String)>;

/// Joins a set of `(shard, handle)` worker pairs in order, separating
/// ordinary results from panics: a panicked worker becomes a
/// `(shard, panic text)` entry instead of re-raising, so the caller can
/// quarantine the shard and keep the healthy workers' results.
fn join_workers<T>(
    handles: Vec<(usize, std::thread::ScopedJoinHandle<'_, T>)>,
) -> (Vec<(usize, T)>, PanickedWorkers) {
    let mut results = Vec::with_capacity(handles.len());
    let mut panicked = Vec::new();
    for (k, handle) in handles {
        match handle.join() {
            Ok(result) => results.push((k, result)),
            Err(payload) => panicked.push((k, panic_text(payload))),
        }
    }
    (results, panicked)
}

/// The human-readable text of a worker panic payload (panics raised with
/// `panic!("…")` carry a `String` or `&str`; anything else is summarized).
fn panic_text(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(text) => *text,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(text) => (*text).to_string(),
            Err(_) => "worker panicked with a non-string payload".to_string(),
        },
    }
}

/// The deterministic RNG of shard `k` for a given base seed: the SplitMix64
/// finalizer over `base + k·G`, so neighbouring shards start from
/// unrelated xoshiro states while [`offset_base_seed`] still composes
/// (shard `k` under `offset_base_seed(base, o)` is shard `o + k` under
/// `base`).
fn shard_rng(base_seed: u64, k: usize) -> StdRng {
    StdRng::seed_from_u64(mix64(offset_base_seed(base_seed, k)))
}

/// The SplitMix64 finalizer (Steele, Lea & Flood, "Fast splittable
/// pseudorandom number generators", OOPSLA 2014): a bijection on `u64`
/// that sends inputs a constant stride apart to unrelated outputs.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The base seed under which a collector's *local* shard `k` draws the
/// exact RNG stream that *global* shard `shard_offset + k` would draw
/// under `base_seed` — the cross-process sharding contract.
///
/// A fleet of processes can split one logical collector of `K = N × S`
/// shards into `N` collectors of `S` shards each: process `p` ingests its
/// contiguous record range under `offset_base_seed(base_seed, p * S)`,
/// and the persisted per-shard counts merge into exactly what a single
/// `K`-shard collector under `base_seed` would have produced — provided
/// the record partition also lines up (every process except possibly the
/// last must hold `S × ceil(n_total / K)` records, i.e. whole global
/// chunks).  `examples/distributed_merge.rs` demonstrates the full
/// construction end to end.
///
/// ```
/// use mdrr_stream::offset_base_seed;
/// // Offset 0 is the identity: process 0 shares the global base seed.
/// assert_eq!(offset_base_seed(42, 0), 42);
/// // Offsets compose: two shards forward twice is four shards forward.
/// assert_eq!(
///     offset_base_seed(offset_base_seed(42, 2), 2),
///     offset_base_seed(42, 4)
/// );
/// ```
pub fn offset_base_seed(base_seed: u64, shard_offset: usize) -> u64 {
    base_seed.wrapping_add((shard_offset as u64).wrapping_mul(SHARD_SEED_STRIDE))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrr_data::{Attribute, Schema};
    use mdrr_protocols::{FrequencyEstimator, ProtocolSpec, RandomizationLevel};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::indexed("A", 3).unwrap(),
            Attribute::indexed("B", 2).unwrap(),
        ])
        .unwrap()
    }

    fn protocol() -> Arc<dyn Protocol> {
        ProtocolSpec::independent(RandomizationLevel::KeepProbability(0.7))
            .build_arc(&schema())
            .unwrap()
    }

    fn records(n: usize) -> Vec<Vec<u32>> {
        (0..n)
            .map(|i| vec![(i % 3) as u32, (i % 2) as u32])
            .collect()
    }

    #[test]
    fn construction_validates_shard_count() {
        assert!(ShardedCollector::new(protocol(), 0).is_err());
        let c = ShardedCollector::new(protocol(), 4).unwrap();
        assert_eq!(c.n_shards(), 4);
        assert_eq!(c.total_reports(), 0);
        assert!(c.snapshot().is_err());
    }

    #[test]
    fn for_protocol_wraps_concrete_protocols() {
        let concrete =
            mdrr_protocols::RRIndependent::new(schema(), &RandomizationLevel::KeepProbability(0.7))
                .unwrap();
        let c = ShardedCollector::for_protocol(concrete, 2).unwrap();
        assert_eq!(c.protocol().name(), "RR-Independent");
        assert_eq!(c.n_shards(), 2);
    }

    #[test]
    fn parallel_ingestion_is_deterministic_and_covers_every_record() {
        let mut a = ShardedCollector::new(protocol(), 4).unwrap();
        let mut b = ShardedCollector::new(protocol(), 4).unwrap();
        let rs = records(1_001);
        assert_eq!(a.ingest_records(&rs, 7).unwrap(), 1_001);
        assert_eq!(b.ingest_records(&rs, 7).unwrap(), 1_001);
        assert_eq!(a.shards(), b.shards());
        assert_eq!(a.total_reports(), 1_001);
        // Every shard except possibly the last is full.
        assert!(a.shards()[..3].iter().all(|s| s.n_reports() == 251));
        assert_eq!(a.shards()[3].n_reports(), 248);

        // A different seed produces different randomized counts.
        let mut c = ShardedCollector::new(protocol(), 4).unwrap();
        c.ingest_records(&rs, 8).unwrap();
        assert_ne!(a.shards(), c.shards());
    }

    #[test]
    fn ingestion_handles_degenerate_shapes() {
        let mut c = ShardedCollector::new(protocol(), 8).unwrap();
        // Fewer records than shards: trailing shards stay empty.
        assert_eq!(c.ingest_records(&records(3), 1).unwrap(), 3);
        assert_eq!(c.total_reports(), 3);
        // No records at all is a no-op.
        assert_eq!(c.ingest_records(&[], 1).unwrap(), 0);
        // Invalid records surface as errors.
        assert!(c.ingest_records(&[vec![9, 9]], 1).is_err());
    }

    #[test]
    fn batch_ingestion_is_bit_identical_to_the_per_record_path() {
        // Same records, same base seed: the columnar batch pipeline and
        // the scalar reference pipeline must produce byte-identical shard
        // accumulators, for shard counts around and beyond the chunking
        // boundaries.
        let rs = records(3_007);
        for n_shards in [1usize, 3, 8] {
            let mut batched = ShardedCollector::new(protocol(), n_shards).unwrap();
            let mut scalar = ShardedCollector::new(protocol(), n_shards).unwrap();
            let mut columnar = ShardedCollector::new(protocol(), n_shards).unwrap();
            assert_eq!(batched.ingest_records(&rs, 77).unwrap(), 3_007);
            assert_eq!(scalar.ingest_records_per_record(&rs, 77).unwrap(), 3_007);
            let ds = mdrr_data::Dataset::from_records(schema(), &rs).unwrap();
            assert_eq!(columnar.ingest_view(&ds.view(), 77).unwrap(), 3_007);
            assert_eq!(batched.shards(), scalar.shards(), "{n_shards} shards");
            assert_eq!(batched.shards(), columnar.shards(), "{n_shards} shards");
        }
    }

    #[test]
    fn a_failed_bulk_call_commits_nothing() {
        // 1,000 rows whose last one is out of range: every bulk path must
        // return the error and leave every shard exactly as it was.
        let mut rows = records(999);
        rows.push(vec![9, 0]);
        let mut buffer = RecordsBuffer::new(2).unwrap();
        for row in &rows {
            buffer.push_record(row).unwrap();
        }
        for n_shards in [1usize, 3, 8] {
            let mut c = ShardedCollector::new(protocol(), n_shards).unwrap();
            let obs = StreamObs::new(Arc::new(mdrr_obs::NullClock), n_shards);
            c.instrument(Arc::clone(&obs)).unwrap();
            c.ingest_records(&records(100), 5).unwrap();
            let before = c.shards().to_vec();
            assert!(c.ingest_view(&buffer.view(), 7).is_err(), "{n_shards}");
            assert_eq!(c.shards(), &before[..], "view, {n_shards} shards");
            assert!(c.ingest_records(&rows, 7).is_err(), "{n_shards}");
            assert_eq!(c.shards(), &before[..], "rows, {n_shards} shards");
            assert!(c.ingest_records_per_record(&rows, 7).is_err());
            assert_eq!(c.shards(), &before[..], "scalar, {n_shards} shards");
            // The exported counters never count an uncommitted report.
            let metrics = obs.registry().snapshot();
            for (k, shard) in c.shards().iter().enumerate() {
                let label = k.to_string();
                let counted = metrics
                    .counter_value("stream_shard_reports_total", &[("shard", label.as_str())]);
                assert_eq!(counted, Some(shard.n_reports()), "shard {k}");
            }
        }
    }

    #[test]
    fn routed_batches_land_in_their_shard() {
        let mut c = ShardedCollector::new(protocol(), 2).unwrap();
        let mut batch = crate::batch::ReportBatch::new(2).unwrap();
        batch.push(&Report::new(vec![1, 0])).unwrap();
        batch.push(&Report::new(vec![2, 1])).unwrap();
        assert_eq!(c.ingest_batch(1, &batch).unwrap(), 2);
        assert!(c.ingest_batch(5, &batch).is_err());
        assert_eq!(c.shards()[0].n_reports(), 0);
        assert_eq!(c.shards()[1].n_reports(), 2);
    }

    #[test]
    fn view_ingestion_handles_degenerate_shapes() {
        let mut c = ShardedCollector::new(protocol(), 8).unwrap();
        // Fewer records than shards: trailing shards stay empty, and no
        // worker is spawned for them.
        let ds = mdrr_data::Dataset::from_records(schema(), &records(3)).unwrap();
        assert_eq!(c.ingest_view(&ds.view(), 1).unwrap(), 3);
        assert_eq!(c.total_reports(), 3);
        assert!(c.shards()[3..].iter().all(Accumulator::is_empty));
        // An empty view is a no-op.
        let empty = mdrr_data::Dataset::empty(schema());
        assert_eq!(c.ingest_view(&empty.view(), 1).unwrap(), 0);
        assert_eq!(c.total_reports(), 3);
    }

    #[test]
    fn snapshot_matches_manual_merge() {
        let mut c = ShardedCollector::new(protocol(), 4).unwrap();
        c.ingest_records(&records(2_000), 3).unwrap();
        let merged = c.merged().unwrap();
        assert_eq!(merged.n_reports(), 2_000);
        let snapshot = c.snapshot().unwrap();
        assert_eq!(snapshot.record_count(), 2_000);
        let direct = c
            .protocol()
            .release_from_counts(merged.counts(), 2_000)
            .unwrap();
        // The snapshot is the protocol's regular release over the merged
        // counts: identical marginals and identical query answers.
        for j in 0..2 {
            assert_eq!(snapshot.marginal(j).unwrap(), direct.marginal(j).unwrap());
        }
        let f = snapshot.frequency(&[(0, 1)]).unwrap();
        assert_eq!(f, direct.frequency(&[(0, 1)]).unwrap());
        assert!((f - 1.0 / 3.0).abs() < 0.1);
    }

    #[test]
    fn routed_reports_land_in_their_shard() {
        let mut c = ShardedCollector::new(protocol(), 2).unwrap();
        let report = Report::new(vec![1, 0]);
        c.ingest_report(1, &report).unwrap();
        assert!(c.ingest_report(5, &report).is_err());
        assert_eq!(c.shards()[0].n_reports(), 0);
        assert_eq!(c.shards()[1].n_reports(), 1);
    }

    /// The four xoshiro256++ state words of a generator, read from its
    /// `Debug` form (`StdRng { s: [a, b, c, d] }`).
    fn state_words(rng: &StdRng) -> [u64; 4] {
        let text = format!("{rng:?}");
        let (_, rest) = text.split_once('[').expect("a state array");
        let (inner, _) = rest.split_once(']').expect("a closed state array");
        let words: Vec<u64> = inner
            .split(',')
            .map(|w| w.trim().parse().unwrap())
            .collect();
        words.try_into().expect("four state words")
    }

    #[test]
    fn no_two_shard_states_share_a_word() {
        // Unmixed seeds `base + k·G` would give shard k + 1 three of shard
        // k's four words, since SplitMix64 steps by G per word.
        for base in [0, 7, 12_345, u64::MAX] {
            let mut owner = std::collections::HashMap::new();
            for k in 0..4_096 {
                for word in state_words(&shard_rng(base, k)) {
                    if let Some(other) = owner.insert(word, k) {
                        panic!("base {base}: shards {other} and {k} share the word {word:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn shard_streams_compose_across_offsets() {
        for base in [0, 42, u64::MAX] {
            for offset in [0, 1, 3, 1_000] {
                for k in 0..8 {
                    assert_eq!(
                        shard_rng(offset_base_seed(base, offset), k),
                        shard_rng(base, offset + k),
                        "base {base}, offset {offset}, shard {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn neighbouring_shards_make_independent_keep_decisions() {
        // Pair counts of (keep on shard k at draw i, keep on shard k + 1 at
        // draw i + lag) against the product of their margins, χ² with one
        // degree of freedom, Bonferroni-corrected to a family-wise 1e-3.
        use rand::RngCore;
        const DRAWS: usize = 100_000;
        const PAIRS: usize = 4;
        const LAGS: usize = 9;
        let matrix = mdrr_core::RRMatrix::uniform_keep(0.7, 16).unwrap();
        let kernel = matrix.prepared();
        let keeps = |k: usize| -> Vec<usize> {
            let mut rng = shard_rng(12_345, k);
            (0..DRAWS)
                .map(|_| usize::from(kernel.randomize_raw(0, rng.next_u64()) == 0))
                .collect()
        };
        let critical =
            mdrr_math::chi2::chi2_quantile(1.0 - 1e-3 / (PAIRS * LAGS) as f64, 1.0).unwrap();
        let streams: Vec<Vec<usize>> = (0..=PAIRS).map(keeps).collect();
        for k in 0..PAIRS {
            for lag in 0..LAGS {
                let mut table = [[0f64; 2]; 2];
                for (&a, &b) in streams[k].iter().zip(&streams[k + 1][lag..]) {
                    table[a][b] += 1.0;
                }
                let n: f64 = table.iter().flatten().sum();
                let rows = [table[0][0] + table[0][1], table[1][0] + table[1][1]];
                let cols = [table[0][0] + table[1][0], table[0][1] + table[1][1]];
                let chi2: f64 = (0..2)
                    .flat_map(|a| (0..2).map(move |b| (a, b)))
                    .map(|(a, b)| {
                        let expected = rows[a] * cols[b] / n;
                        (table[a][b] - expected).powi(2) / expected
                    })
                    .sum();
                assert!(
                    chi2 < critical,
                    "shards {k}/{}, lag {lag}: χ² = {chi2:.2} ≥ {critical:.2}",
                    k + 1
                );
            }
        }
    }
}
