//! What a timed section measured, and the metrics the run prints.

use crate::machine::{json_string, CpuTime};
use crate::stats::Samples;
use mdrr_stream::ShardedCollector;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One measured value with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

/// Named metrics, printed in name order.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<&'static str, Metric>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.insert(name, Metric { value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|m| m.value)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Metric)> + '_ {
        self.0.iter().map(|(&name, &metric)| (name, metric))
    }

    /// Names whose value is not a finite number.
    pub fn non_finite(&self) -> Vec<&'static str> {
        self.iter()
            .filter(|(_, m)| !m.value.is_finite())
            .map(|(name, _)| name)
            .collect()
    }

    /// The `metrics` object of the result line.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, metric)) in self.iter().enumerate() {
            let value = if metric.value.is_finite() {
                format!("{:?}", metric.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{}{}: {{\"value\": {value}, \"unit\": {}}}",
                if i == 0 { "" } else { ", " },
                json_string(name),
                json_string(metric.unit)
            );
        }
        out.push('}');
        out
    }
}

/// What one timed section of a workload measured.
#[derive(Debug, Default)]
pub struct Section {
    /// Wall time of the timed section.
    pub elapsed_ns: u64,
    /// Process CPU over the timed section.
    pub cpu: CpuTime,
    /// Reports acknowledged or counted in the timed section.
    pub reports: u64,
    /// Latency of each request (ack, ingest round or count query), ns.
    pub op_ns: Samples,
    /// Latency of each read of the released estimate, ns.
    pub read_ns: Samples,
    /// Operations attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Layer metrics observed while the section ran (client, daemon …).
    pub layers: Metrics,
    /// CPU the section's reports paid in layers it timed itself, in ns
    /// per report, for the residual against the measured CPU.
    pub layer_costs: Vec<(&'static str, f64)>,
    /// Snapshot reads the daemon answered within the section.
    pub daemon_reads: u64,
}

impl Section {
    pub fn reports_per_s(&self) -> f64 {
        self.reports as f64 / (self.elapsed_ns as f64 / 1e9)
    }

    pub fn cpu_ns_per_report(&self) -> f64 {
        self.cpu.total_ns() as f64 / self.reports as f64
    }
}

/// `(max − min) · 1000 / max` over the collector's per-shard report
/// counts (0 before any report).
pub fn shard_imbalance_permille(collector: &ShardedCollector) -> f64 {
    let loads = collector.shards().iter().map(|s| s.n_reports());
    let (min, max) = loads.fold((u64::MAX, 0), |(lo, hi), n| (lo.min(n), hi.max(n)));
    if max == 0 {
        0.0
    } else {
        (max - min) as f64 * 1000.0 / max as f64
    }
}
