//! Per-connection protocol loop.
//!
//! One session thread owns one [`TcpStream`] and runs the server half of
//! the wire protocol from `docs/WIRE.md`: expect `hello`, validate the
//! client's schema/spec against the server's, answer `hello_ack`, then
//! loop over `batch`/`stats_query`/`snapshot_query`/`goodbye` frames
//! until the peer leaves, misbehaves, stalls past the frame budget, or
//! the server drains.
//!
//! Hostile-input posture (the adversarial suite exercises all of it):
//!
//! * every malformed frame is answered with a typed `error` frame and a
//!   metered reject — never a panic;
//! * payload buffers are sized only after the declared length passes the
//!   cap check inside `wire::decode_header` (cap-before-alloc), and the
//!   session's read buffer and decode batch are reused across frames;
//! * a frame whose first byte arrived must finish within
//!   `frame_budget_nanos` or the connection is closed with a `timeout`
//!   error frame — the slowloris defence — while an *idle* connection
//!   (no partial frame) may wait indefinitely;
//! * a batch is acknowledged only after `ingest_batch` returns, so an
//!   acked report is by construction in the collector that a drain
//!   hands back.

use crate::server::Shared;
use mdrr_store::Snapshot;
use mdrr_stream::wire::{self, error_code, Hello, HelloAck, StatsReply};
use mdrr_stream::{FrameType, ReportBatch, WireError};
use serde::Serialize;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Serves one connection to completion, then settles the open-connection
/// accounting.  Never panics: every failure path closes the socket after
/// a best-effort typed error frame.
pub(crate) fn run(shared: Arc<Shared>, stream: TcpStream, conn: u64) {
    let reports = match Session::new(&shared, stream) {
        Ok(mut session) => session.serve(),
        Err(e) => {
            if let Some(obs) = &shared.obs {
                obs.reject(&e);
            }
            0
        }
    };
    let open = shared
        .open_connections
        .fetch_sub(1, Ordering::SeqCst)
        .saturating_sub(1);
    if let Some(obs) = &shared.obs {
        obs.connection_closed(conn, reports, open);
    }
}

struct Session<'a> {
    shared: &'a Shared,
    stream: TcpStream,
    /// Reusable frame buffer; grows to the largest frame seen, never
    /// beyond the payload cap plus framing.
    buf: Vec<u8>,
    /// Reusable decode target shaped for the server's protocol.
    batch: ReportBatch,
    /// Reports acknowledged over this connection.
    acked: u64,
}

impl<'a> Session<'a> {
    fn new(shared: &'a Shared, stream: TcpStream) -> Result<Session<'a>, WireError> {
        // The listener is nonblocking; make the accepted socket blocking
        // with a read timeout as the poll granularity, so shutdown flags
        // and frame deadlines are re-checked without spinning.
        stream
            .set_nonblocking(false)
            .map_err(|e| WireError::io("set blocking", e))?;
        stream
            .set_nodelay(true)
            .map_err(|e| WireError::io("set nodelay", e))?;
        stream
            .set_read_timeout(Some(Duration::from_nanos(
                shared.config.poll_interval_nanos,
            )))
            .map_err(|e| WireError::io("set read timeout", e))?;
        // A peer that stops reading our acks cannot stall the session
        // (or a drain) forever: writes give up after the frame budget.
        stream
            .set_write_timeout(Some(Duration::from_nanos(shared.config.frame_budget_nanos)))
            .map_err(|e| WireError::io("set write timeout", e))?;
        let batch = {
            let guard = shared.lock_collector();
            ReportBatch::for_protocol(guard.protocol().as_ref())
        };
        Ok(Session {
            shared,
            stream,
            buf: Vec::new(),
            batch,
            acked: 0,
        })
    }

    fn serve(&mut self) -> u64 {
        if !self.handshake() {
            return self.acked;
        }
        loop {
            // A continuously-streaming client never lets the socket go
            // idle, so the drain flag must also be checked at every frame
            // boundary — not only in the idle-wait path — for a drain to
            // finish in bounded time.
            if self.shared.draining() {
                let e = WireError::closed("server draining");
                self.reject(&e);
                self.send_error(
                    error_code::DRAINING,
                    "server draining to checkpoint; reconnect later",
                );
                return self.acked;
            }
            let frame_type = match self.read_one() {
                Ok(Some(frame_type)) => frame_type,
                Ok(None) => return self.acked,
                Err(e) => {
                    self.read_failed(e);
                    return self.acked;
                }
            };
            let keep_going = match frame_type {
                FrameType::Batch => self.handle_batch(),
                FrameType::StatsQuery => self.handle_stats(),
                FrameType::SnapshotQuery => self.handle_snapshot(),
                FrameType::Goodbye => {
                    let total = self.shared.acked_reports.load(Ordering::SeqCst);
                    self.send_payload(FrameType::GoodbyeAck, &wire::encode_goodbye_ack(total));
                    false
                }
                other => {
                    let e = WireError::unexpected("serving a session", other);
                    self.reject(&e);
                    self.send_error(error_code::UNEXPECTED, &e.to_string());
                    false
                }
            };
            if !keep_going {
                return self.acked;
            }
        }
    }

    /// Reads one frame, enforcing drain, the mid-frame stall budget, and
    /// the configured payload cap; meters valid frames.
    fn read_one(&mut self) -> Result<Option<FrameType>, WireError> {
        let shared = self.shared;
        let clock = &shared.clock;
        let budget = shared.config.frame_budget_nanos;
        let mut started: Option<u64> = None;
        let mut wait = move |bytes_so_far: usize| -> Result<(), WireError> {
            if shared.draining() {
                return Err(WireError::closed("server draining"));
            }
            if bytes_so_far == 0 {
                // Frame boundary: idle connections may wait forever.
                started = None;
                return Ok(());
            }
            let now = clock.now_nanos();
            let begun = *started.get_or_insert(now);
            if now.saturating_sub(begun) > budget {
                return Err(WireError::timeout(format!(
                    "frame stalled after {bytes_so_far} bytes"
                )));
            }
            Ok(())
        };
        let got = wire::read_frame(&mut self.stream, &mut self.buf, &mut wait)?;
        if let Some(frame_type) = got {
            // `decode_header` already enforced the global cap before any
            // allocation; this enforces the (possibly tighter) local one.
            let payload_len = self
                .buf
                .len()
                .saturating_sub(wire::WIRE_HEADER_LEN + wire::WIRE_TRAILER_LEN);
            if payload_len as u64 > shared.config.max_payload as u64 {
                return Err(WireError::Oversized {
                    declared: payload_len as u64,
                    max: shared.config.max_payload as u64,
                });
            }
            if let Some(obs) = &shared.obs {
                obs.frame_read(frame_type, self.buf.len() as u64);
            }
        }
        Ok(got)
    }

    /// Settles a failed read: meter the reject and tell the peer why —
    /// unless the peer is already gone.
    fn read_failed(&mut self, e: WireError) {
        self.reject(&e);
        match &e {
            WireError::Timeout { .. } => self.send_error(error_code::TIMEOUT, &e.to_string()),
            WireError::Closed { .. } if self.shared.draining() => self.send_error(
                error_code::DRAINING,
                "server draining to checkpoint; reconnect later",
            ),
            WireError::Closed { .. } | WireError::Io { .. } => {}
            _ => self.send_error(error_code::MALFORMED, &e.to_string()),
        }
    }

    fn handshake(&mut self) -> bool {
        match self.read_one() {
            Ok(Some(FrameType::Hello)) => {}
            Ok(Some(other)) => {
                let e = WireError::unexpected("handshake", other);
                self.reject(&e);
                self.send_error(error_code::UNEXPECTED, &e.to_string());
                return false;
            }
            Ok(None) => return false,
            Err(e) => {
                self.read_failed(e);
                return false;
            }
        }
        let hello: Hello = match wire::decode_json("hello", wire::frame_payload(&self.buf)) {
            Ok(hello) => hello,
            Err(e) => {
                self.reject(&e);
                self.send_error(error_code::MALFORMED, &e.to_string());
                return false;
            }
        };
        if hello.schema != self.shared.schema || hello.spec != self.shared.spec {
            let e = WireError::spec_mismatch(
                "client schema/spec differs from this collector's; refusing to mix mechanisms",
            );
            self.reject(&e);
            self.send_error(error_code::SPEC_MISMATCH, &e.to_string());
            return false;
        }
        let ack = HelloAck {
            n_shards: self.shared.config.n_shards,
            window: self.shared.config.window,
            max_payload: self.shared.config.max_payload,
        };
        self.send_json(FrameType::HelloAck, "hello ack", &ack)
    }

    fn handle_batch(&mut self) -> bool {
        let shared = self.shared;
        let clock = &shared.clock;
        let decode_begin = clock.now_nanos();
        let header =
            match wire::decode_batch_payload(wire::frame_payload(&self.buf), &mut self.batch) {
                Ok(header) => header,
                Err(e) => {
                    let code = match &e {
                        WireError::SpecMismatch { .. } => error_code::SPEC_MISMATCH,
                        _ => error_code::MALFORMED,
                    };
                    self.reject(&e);
                    self.send_error(code, &e.to_string());
                    return false;
                }
            };
        let ingest_begin = clock.now_nanos();
        let shard = (header.shard as usize) % shared.config.n_shards;
        let (locked_at, ingested) = {
            let mut guard = shared.lock_collector();
            let locked_at = clock.now_nanos();
            (locked_at, guard.ingest_batch(shard, &self.batch))
        };
        let ingest_end = clock.now_nanos();
        match ingested {
            Ok(n) => {
                // The running total in the ack is the server-wide count
                // *including* this batch.
                let total = shared
                    .acked_reports
                    .fetch_add(n, Ordering::SeqCst)
                    .saturating_add(n);
                self.acked = self.acked.saturating_add(n);
                if let Some(obs) = &shared.obs {
                    obs.batch_ingested(
                        n,
                        ingest_begin.saturating_sub(decode_begin),
                        locked_at.saturating_sub(ingest_begin),
                        ingest_end.saturating_sub(ingest_begin),
                    );
                }
                self.send_payload(
                    FrameType::BatchAck,
                    &wire::encode_batch_ack(header.seq, total),
                )
            }
            Err(e) => {
                let e = WireError::Protocol(e);
                self.reject(&e);
                self.send_error(error_code::MALFORMED, &e.to_string());
                false
            }
        }
    }

    fn handle_stats(&mut self) -> bool {
        let reply = {
            let guard = self.shared.lock_collector();
            StatsReply {
                total_reports: guard.total_reports(),
                n_shards: guard.n_shards(),
                shard_reports: guard.shards().iter().map(|a| a.n_reports()).collect(),
                quarantined: guard.quarantined_shards(),
            }
        };
        self.send_json(FrameType::Stats, "stats reply", &reply)
    }

    fn handle_snapshot(&mut self) -> bool {
        match self.encode_snapshot() {
            Ok(bytes) => {
                if bytes.len() as u64 > self.shared.config.max_payload as u64 {
                    let e = WireError::Oversized {
                        declared: bytes.len() as u64,
                        max: self.shared.config.max_payload as u64,
                    };
                    self.reject(&e);
                    self.send_error(
                        error_code::INTERNAL,
                        "merged snapshot exceeds the frame payload cap",
                    );
                    return false;
                }
                self.send_payload(FrameType::Snapshot, &bytes)
            }
            Err(e) => {
                self.reject(&e);
                self.send_error(error_code::INTERNAL, &e.to_string());
                false
            }
        }
    }

    /// Merges the shards and encodes the result in the durable snapshot
    /// file format (`docs/FORMAT.md`) — the same bytes a checkpoint
    /// shard file holds, so clients reuse `Snapshot::from_bytes`.
    fn encode_snapshot(&self) -> Result<Vec<u8>, WireError> {
        let shared = self.shared;
        let merged = {
            let guard = shared.lock_collector();
            guard.merged()?
        };
        let n_reports = merged.n_reports();
        let counts = merged.counts().to_vec();
        let snapshot = Snapshot::new(
            shared.schema.clone(),
            shared.spec.clone(),
            counts,
            n_reports,
        )
        .map_err(|e| WireError::malformed(format!("build merged snapshot: {e}")))?;
        snapshot
            .to_bytes()
            .map_err(|e| WireError::malformed(format!("encode merged snapshot: {e}")))
    }

    fn send_payload(&mut self, frame_type: FrameType, payload: &[u8]) -> bool {
        match wire::write_frame(&mut self.stream, frame_type, payload) {
            Ok(bytes) => {
                if let Some(obs) = &self.shared.obs {
                    obs.frame_written(bytes as u64);
                }
                true
            }
            Err(e) => {
                self.reject(&e);
                false
            }
        }
    }

    fn send_json<T: Serialize>(&mut self, frame_type: FrameType, what: &str, value: &T) -> bool {
        match wire::encode_json(what, value) {
            Ok(payload) => self.send_payload(frame_type, &payload),
            Err(e) => {
                self.reject(&e);
                self.send_error(error_code::INTERNAL, &e.to_string());
                false
            }
        }
    }

    /// Best-effort: the connection is about to close either way, so a
    /// failed error-frame write is dropped on the floor.
    fn send_error(&mut self, code: u16, message: &str) {
        let payload = wire::encode_error_payload(code, message);
        if let Ok(bytes) = wire::write_frame(&mut self.stream, FrameType::Error, &payload) {
            if let Some(obs) = &self.shared.obs {
                obs.frame_written(bytes as u64);
            }
        }
    }

    fn reject(&self, e: &WireError) {
        if let Some(obs) = &self.shared.obs {
            obs.reject(e);
        }
    }
}
