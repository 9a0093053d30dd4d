//! Daemon tuning knobs.

use mdrr_stream::MAX_WIRE_PAYLOAD;

/// Configuration of a [`crate::CollectorServer`].
///
/// All durations are injected-clock nanoseconds: the daemon never reads
/// ambient time (clippy's `disallowed_types` forbids `Instant`), so
/// a test can drive every timeout with a manual clock.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// How many shards the collector fans batches into.
    pub n_shards: usize,
    /// The backpressure window advertised to every client: how many
    /// batch frames may be in flight (unacknowledged) per connection.
    /// Server memory stays bounded regardless — each session reads one
    /// frame at a time into one reusable capped buffer — but the window
    /// bounds how far a client may run ahead of its acks.
    pub window: u32,
    /// Per-frame payload cap, at most [`MAX_WIRE_PAYLOAD`].
    pub max_payload: u32,
    /// Socket poll granularity: how long a blocking accept/read waits
    /// before shutdown flags and deadlines are re-checked.
    pub poll_interval_nanos: u64,
    /// Mid-frame stall budget: once a frame's first byte has arrived,
    /// the rest must arrive within this budget or the connection is
    /// closed with a timeout (the slowloris defence).
    pub frame_budget_nanos: u64,
}

impl Default for ServeConfig {
    /// Four shards, a 64-frame window, the full payload cap, 2 ms polls
    /// and a 2 s mid-frame budget.
    fn default() -> Self {
        ServeConfig {
            n_shards: 4,
            window: 64,
            max_payload: MAX_WIRE_PAYLOAD,
            poll_interval_nanos: 2_000_000,
            frame_budget_nanos: 2_000_000_000,
        }
    }
}

impl ServeConfig {
    /// Validates the configuration, normalizing the payload cap.
    pub(crate) fn validated(mut self) -> Result<Self, crate::ServeError> {
        if self.n_shards == 0 {
            return Err(crate::ServeError::config("n_shards must be positive"));
        }
        if self.window == 0 {
            return Err(crate::ServeError::config("window must be positive"));
        }
        if self.poll_interval_nanos == 0 {
            return Err(crate::ServeError::config(
                "poll_interval_nanos must be positive",
            ));
        }
        if self.frame_budget_nanos == 0 {
            return Err(crate::ServeError::config(
                "frame_budget_nanos must be positive",
            ));
        }
        self.max_payload = self.max_payload.min(MAX_WIRE_PAYLOAD);
        Ok(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate_and_zeroes_are_rejected() {
        assert!(ServeConfig::default().validated().is_ok());
        for bad in [
            ServeConfig {
                n_shards: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                window: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                poll_interval_nanos: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                frame_budget_nanos: 0,
                ..ServeConfig::default()
            },
        ] {
            assert!(bad.validated().is_err());
        }
        let capped = ServeConfig {
            max_payload: u32::MAX,
            ..ServeConfig::default()
        }
        .validated()
        .unwrap();
        assert_eq!(capped.max_payload, MAX_WIRE_PAYLOAD);
    }
}
