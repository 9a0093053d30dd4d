//! Open-loop schedules: requests are due at fixed times whether or not
//! earlier ones have completed, each is timed from when it was due, and
//! the generator's own lateness is recorded.

use crate::stats::Samples;

/// Request `k` is due `k · interval_ns` after the schedule starts.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start_ns: u64,
    interval_ns: u64,
}

impl Schedule {
    /// A schedule of `rate_per_s` requests per second starting at
    /// `start_ns` (on whatever clock the caller uses).
    pub fn new(start_ns: u64, rate_per_s: f64) -> Self {
        assert!(rate_per_s > 0.0, "an open loop needs a positive rate");
        Schedule {
            start_ns,
            interval_ns: ((1e9 / rate_per_s).round() as u64).max(1),
        }
    }

    /// When request `k` is due.
    pub fn due_ns(&self, k: u64) -> u64 {
        self.start_ns + k * self.interval_ns
    }
}

/// Lateness of the generator and latency of each request, both measured
/// from the due time.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopLog {
    /// `sent − due` for every request sent.
    pub send_lag_ns: Samples,
    /// `completed − due` for every request completed.
    pub latency_ns: Samples,
}

impl OpenLoopLog {
    /// Records that a request due at `due_ns` went out at `sent_ns`
    /// (never earlier than due; an early send counts as zero lag).
    pub fn sent(&mut self, due_ns: u64, sent_ns: u64) {
        self.send_lag_ns.push(sent_ns.saturating_sub(due_ns) as f64);
    }

    /// Records that a request due at `due_ns` completed at `done_ns`.
    pub fn completed(&mut self, due_ns: u64, done_ns: u64) {
        self.latency_ns.push(done_ns.saturating_sub(due_ns) as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_are_evenly_spaced_from_the_start() {
        let s = Schedule::new(1_000, 2_000.0);
        assert_eq!(s.due_ns(0), 1_000);
        assert_eq!(s.due_ns(1), 501_000);
        assert_eq!(s.due_ns(4_000), 1_000 + 2_000_000_000);
    }

    #[test]
    fn latency_counts_the_wait_a_late_generator_imposes() {
        let s = Schedule::new(0, 1_000.0);
        let mut log = OpenLoopLog::default();
        // Request 0 goes out on time and completes after 100 µs; the
        // generator then stalls, so request 1 (due at 1 ms) leaves at
        // 3 ms and completes 100 µs later: 2.1 ms after it was due.
        log.sent(s.due_ns(0), 0);
        log.completed(s.due_ns(0), 100_000);
        log.sent(s.due_ns(1), 3_000_000);
        log.completed(s.due_ns(1), 3_100_000);
        assert_eq!(log.send_lag_ns.sum(), 2_000_000.0);
        assert_eq!(log.latency_ns.sum(), 100_000.0 + 2_100_000.0);
    }

    #[test]
    fn an_early_send_is_not_negative_lag() {
        let mut log = OpenLoopLog::default();
        log.sent(5_000, 4_000);
        assert_eq!(log.send_lag_ns.sum(), 0.0);
    }
}
