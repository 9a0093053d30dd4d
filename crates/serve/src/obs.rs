//! Opt-in daemon observability: counters, histograms and journal events
//! for the wire boundary.
//!
//! Attaching a [`ServeObs`] to a [`crate::CollectorServer`] makes the
//! daemon meter what it does without changing what it does — the same
//! contract as the stream layer's `StreamObs`.  Metric catalog (all in
//! one [`Registry`], exported via `mdrr_obs::to_json` /
//! `mdrr_obs::to_prometheus`):
//!
//! | metric | kind | labels | meaning |
//! |---|---|---|---|
//! | `serve_connections_total` | counter | — | connections accepted |
//! | `serve_connections_open` | gauge | — | connections currently live |
//! | `serve_frames_total` | counter | `type` | valid frames read, by frame type |
//! | `serve_bytes_read_total` | counter | — | frame bytes read (valid frames) |
//! | `serve_bytes_written_total` | counter | — | frame bytes written |
//! | `serve_reports_total` | counter | — | reports ingested and acknowledged |
//! | `serve_rejects_total` | counter | `reason` | frames/connections rejected, by [`WireError::label`] |
//! | `serve_decode_nanos` | histogram | — | batch payload decode time |
//! | `serve_ingest_nanos` | histogram | — | collector ingest time per batch (lock wait + count) |
//! | `serve_lock_wait_nanos` | histogram | — | collector lock wait per batch (the first part of `serve_ingest_nanos`) |
//!
//! Journal events: `connection_opened`, `connection_closed`,
//! `server_drained` (plus the stream layer's own events if the collector
//! is separately instrumented).

use mdrr_obs::{Clock, Counter, EventKind, Gauge, Histogram, Journal, Registry};
use mdrr_stream::{FrameType, WireError};
use std::sync::Arc;

/// Default bound on the daemon's event journal.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 4096;

/// The daemon's metric bundle.  Cheap to share (`Arc` everywhere),
/// lock-free on the hot path (relaxed atomic counters, fixed-bucket
/// histograms).
#[derive(Debug)]
pub struct ServeObs {
    clock: Arc<dyn Clock>,
    registry: Arc<Registry>,
    journal: Arc<Journal>,
    connections_total: Arc<Counter>,
    connections_open: Arc<Gauge>,
    bytes_read_total: Arc<Counter>,
    bytes_written_total: Arc<Counter>,
    reports_total: Arc<Counter>,
    decode_nanos: Arc<Histogram>,
    ingest_nanos: Arc<Histogram>,
    lock_wait_nanos: Arc<Histogram>,
}

impl ServeObs {
    /// A fresh metric bundle timed by `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Arc<Self> {
        let registry = Arc::new(Registry::new());
        let journal = Arc::new(Journal::new(DEFAULT_JOURNAL_CAPACITY));
        Arc::new(ServeObs {
            connections_total: registry.counter("serve_connections_total"),
            connections_open: registry.gauge("serve_connections_open"),
            bytes_read_total: registry.counter("serve_bytes_read_total"),
            bytes_written_total: registry.counter("serve_bytes_written_total"),
            reports_total: registry.counter("serve_reports_total"),
            decode_nanos: registry.histogram("serve_decode_nanos"),
            ingest_nanos: registry.histogram("serve_ingest_nanos"),
            lock_wait_nanos: registry.histogram("serve_lock_wait_nanos"),
            clock,
            registry,
            journal,
        })
    }

    /// The injected clock timing the histograms and journal.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The registry holding every `serve_*` metric.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The bounded event journal.
    pub fn journal(&self) -> &Arc<Journal> {
        &self.journal
    }

    pub(crate) fn connection_opened(&self, conn: u64, open_now: u64) {
        self.connections_total.inc();
        self.connections_open.set(open_now);
        self.journal
            .record(self.clock.now_nanos(), EventKind::ConnectionOpened { conn });
    }

    pub(crate) fn connection_closed(&self, conn: u64, reports: u64, open_now: u64) {
        self.connections_open.set(open_now);
        self.journal.record(
            self.clock.now_nanos(),
            EventKind::ConnectionClosed { conn, reports },
        );
    }

    pub(crate) fn drained(&self, connections: u64, total_reports: u64) {
        self.journal.record(
            self.clock.now_nanos(),
            EventKind::ServerDrained {
                connections,
                total_reports,
            },
        );
    }

    pub(crate) fn frame_read(&self, frame_type: FrameType, bytes: u64) {
        self.registry
            .counter_with("serve_frames_total", &[("type", frame_type.name())])
            .inc();
        self.bytes_read_total.add(bytes);
    }

    pub(crate) fn frame_written(&self, bytes: u64) {
        self.bytes_written_total.add(bytes);
    }

    pub(crate) fn reject(&self, error: &WireError) {
        self.registry
            .counter_with("serve_rejects_total", &[("reason", error.label())])
            .inc();
    }

    pub(crate) fn batch_ingested(
        &self,
        reports: u64,
        decode_nanos: u64,
        lock_wait_nanos: u64,
        ingest_nanos: u64,
    ) {
        self.reports_total.add(reports);
        if self.clock.enabled() {
            self.decode_nanos.record(decode_nanos);
            self.lock_wait_nanos.record(lock_wait_nanos);
            self.ingest_nanos.record(ingest_nanos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdrr_obs::ManualClock;

    #[test]
    fn metrics_and_journal_record_what_happened() {
        let clock = Arc::new(ManualClock::new());
        let obs = ServeObs::new(clock.clone());
        obs.connection_opened(0, 1);
        obs.frame_read(FrameType::Batch, 128);
        obs.frame_written(36);
        obs.batch_ingested(50, 1_000, 300, 2_000);
        obs.reject(&WireError::timeout("slowloris"));
        obs.connection_closed(0, 50, 0);
        obs.drained(1, 50);

        let snap = obs.registry().snapshot();
        assert_eq!(snap.counter_value("serve_connections_total", &[]), Some(1));
        assert_eq!(snap.gauge_value("serve_connections_open", &[]), Some(0));
        assert_eq!(
            snap.counter_value("serve_frames_total", &[("type", "batch")]),
            Some(1)
        );
        assert_eq!(snap.counter_value("serve_bytes_read_total", &[]), Some(128));
        assert_eq!(
            snap.counter_value("serve_bytes_written_total", &[]),
            Some(36)
        );
        assert_eq!(snap.counter_value("serve_reports_total", &[]), Some(50));
        assert_eq!(
            snap.counter_value("serve_rejects_total", &[("reason", "timeout")]),
            Some(1)
        );
        let sum = |name: &str| snap.histogram_snapshot(name, &[]).map(|h| (h.count, h.sum));
        assert_eq!(sum("serve_decode_nanos"), Some((1, 1_000)));
        assert_eq!(sum("serve_lock_wait_nanos"), Some((1, 300)));
        // The ingest span still covers lock wait + count.
        assert_eq!(sum("serve_ingest_nanos"), Some((1, 2_000)));
        let kinds: Vec<&str> = obs
            .journal()
            .events()
            .iter()
            .map(|e| e.kind.name())
            .collect();
        assert_eq!(
            kinds,
            vec!["connection_opened", "connection_closed", "server_drained"]
        );
    }
}
