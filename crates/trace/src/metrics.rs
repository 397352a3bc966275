//! The metrics registry: per-request latency histograms broken down by
//! lifecycle phase, and interval time-series snapshots.
//!
//! The paper's figures are end-of-run aggregates; the registry adds the
//! *trajectory* — where each request's cycles went (issue → home lookup →
//! invalidation fan-out → reply) and how traffic/occupancy/retries evolve
//! over windows of N cycles — in a machine-readable, stable schema.

use scd_stats::Histogram;

use crate::json::{Fields, Json};
use crate::sink::req_u64;

/// Latency histograms are bounded: a request latency above this many
/// cycles clamps into the top bucket (the count is exact, the value
/// saturated). Keeps a pathological run from allocating per-cycle buckets.
pub const LATENCY_BUCKET_CAP: usize = 1 << 14;

/// The timeline of one completed coherence transaction, as cycles.
#[derive(Clone, Copy, Debug)]
pub struct TxnTimeline {
    /// When the request issued from the requester.
    pub issue: u64,
    /// When the home first serviced it (None if it completed locally or
    /// the home phase was never observed).
    pub home_lookup: Option<u64>,
    /// When the home sent the invalidation fan-out (writes only).
    pub fanout: Option<u64>,
    /// When the completing reply was observed at the requester.
    pub end: u64,
    /// Whether this was a write/ownership transaction.
    pub write: bool,
    /// NACK-driven reissues absorbed along the way.
    pub retries: u32,
}

/// One window of the interval time series.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntervalSnapshot {
    /// First cycle of the window (inclusive).
    pub start: u64,
    /// Last cycle of the window (exclusive).
    pub end: u64,
    /// Network messages sent during the window.
    pub messages: u64,
    /// NACK-driven reissues during the window.
    pub retries: u64,
    /// Injected/serviced NACKs during the window.
    pub nacks: u64,
    /// Outstanding MSHRs across all clusters at the sample point.
    pub occupancy: u64,
    /// Shared references + sync operations retired during the window.
    pub ops_retired: u64,
}

impl IntervalSnapshot {
    /// The window as a JSON object — the element shape of the
    /// `scd-metrics/v1` `intervals` array and the `window` payload of a
    /// streamed `interval` record.
    pub fn to_json(self) -> Json {
        Json::obj()
            .with("start", Json::U64(self.start))
            .with("end", Json::U64(self.end))
            .with("messages", Json::U64(self.messages))
            .with("retries", Json::U64(self.retries))
            .with("nacks", Json::U64(self.nacks))
            .with("occupancy", Json::U64(self.occupancy))
            .with("ops_retired", Json::U64(self.ops_retired))
    }

    /// Reads a window back from its JSON text, the inverse of
    /// [`IntervalSnapshot::to_json`]: all seven fields, each an integer.
    pub fn parse(text: &str) -> Result<Self, String> {
        let window = Fields::parse(text)?;
        let int = |key| req_u64(&window, key);
        Ok(IntervalSnapshot {
            start: int("start")?, end: int("end")?, messages: int("messages")?,
            retries: int("retries")?, nacks: int("nacks")?, occupancy: int("occupancy")?,
            ops_retired: int("ops_retired")?,
        })
    }
}

/// Phase-latency histograms plus the interval time series.
#[derive(Clone, Debug)]
pub struct MetricsRegistry {
    /// End-to-end read latency (issue → reply).
    pub read_latency: Histogram,
    /// End-to-end write latency (issue → all acks collected).
    pub write_latency: Histogram,
    /// Issue → first home service (network + queueing ahead of the home).
    pub issue_to_home: Histogram,
    /// Home service → invalidation fan-out (writes that invalidated).
    pub home_to_fanout: Histogram,
    /// Fan-out → completion (invalidation round-trip the requester waited
    /// for).
    pub fanout_to_reply: Histogram,
    /// Home service → completion for transactions without a fan-out.
    pub home_to_reply: Histogram,
    /// NACK-driven reissues per completed transaction.
    pub retries_per_txn: Histogram,
    /// Interval time-series windows, in order.
    pub intervals: Vec<IntervalSnapshot>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        let lat = || Histogram::bounded(LATENCY_BUCKET_CAP);
        MetricsRegistry {
            read_latency: lat(),
            write_latency: lat(),
            issue_to_home: lat(),
            home_to_fanout: lat(),
            fanout_to_reply: lat(),
            home_to_reply: lat(),
            retries_per_txn: Histogram::bounded(1 << 10),
            intervals: Vec::new(),
        }
    }

    /// Folds one completed transaction into the phase histograms.
    pub fn record_txn(&mut self, t: &TxnTimeline) {
        let total = t.end.saturating_sub(t.issue) as usize;
        if t.write {
            self.write_latency.record(total);
        } else {
            self.read_latency.record(total);
        }
        self.retries_per_txn.record(t.retries as usize);
        if let Some(home) = t.home_lookup {
            self.issue_to_home
                .record(home.saturating_sub(t.issue) as usize);
            match t.fanout {
                Some(fan) => {
                    self.home_to_fanout
                        .record(fan.saturating_sub(home) as usize);
                    self.fanout_to_reply
                        .record(t.end.saturating_sub(fan) as usize);
                }
                None => {
                    self.home_to_reply
                        .record(t.end.saturating_sub(home) as usize);
                }
            }
        }
    }

    /// Completed transactions recorded.
    pub fn transactions(&self) -> u64 {
        self.read_latency.events() + self.write_latency.events()
    }

    fn hist_json(h: &Histogram) -> Json {
        Json::obj()
            .with("events", Json::U64(h.events()))
            .with("mean", Json::F64(h.mean()))
            .with("p50", Json::U64(h.percentile(0.50)))
            .with("p90", Json::U64(h.percentile(0.90)))
            .with("p99", Json::U64(h.percentile(0.99)))
            .with("max", Json::U64(h.max_value() as u64))
    }

    /// The registry as a stable-schema JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("schema", Json::Str(crate::schema::METRICS_SCHEMA.into()))
            .with("transactions", Json::U64(self.transactions()))
            .with(
                "latency",
                Json::obj()
                    .with("read", Self::hist_json(&self.read_latency))
                    .with("write", Self::hist_json(&self.write_latency)),
            )
            .with(
                "phases",
                Json::obj()
                    .with("issue_to_home", Self::hist_json(&self.issue_to_home))
                    .with("home_to_fanout", Self::hist_json(&self.home_to_fanout))
                    .with("fanout_to_reply", Self::hist_json(&self.fanout_to_reply))
                    .with("home_to_reply", Self::hist_json(&self.home_to_reply)),
            )
            .with("retries", Self::hist_json(&self.retries_per_txn))
            .with(
                "intervals",
                Json::Arr(self.intervals.iter().map(|s| s.to_json()).collect()),
            )
    }

    /// Plain-text interval table for `--interval-stats` output.
    pub fn render_intervals(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from(
            "interval            msgs  retries    nacks  occupancy  ops\n",
        );
        for s in &self.intervals {
            let _ = writeln!(
                out,
                "[{:>8},{:>8}) {:>7} {:>8} {:>8} {:>10} {:>4}",
                s.start, s.end, s.messages, s.retries, s.nacks, s.occupancy, s.ops_retired
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_breakdown_splits_fanout_and_direct_paths() {
        let mut r = MetricsRegistry::new();
        r.record_txn(&TxnTimeline {
            issue: 100,
            home_lookup: Some(120),
            fanout: Some(135),
            end: 180,
            write: true,
            retries: 2,
        });
        r.record_txn(&TxnTimeline {
            issue: 10,
            home_lookup: Some(40),
            fanout: None,
            end: 70,
            write: false,
            retries: 0,
        });
        assert_eq!(r.transactions(), 2);
        assert_eq!(r.write_latency.events(), 1);
        assert_eq!(r.write_latency.mean(), 80.0);
        assert_eq!(r.read_latency.mean(), 60.0);
        assert_eq!(r.issue_to_home.events(), 2);
        assert_eq!(r.home_to_fanout.count(15), 1);
        assert_eq!(r.fanout_to_reply.count(45), 1);
        assert_eq!(r.home_to_reply.count(30), 1);
        assert_eq!(r.retries_per_txn.weight(), 2);
    }

    #[test]
    fn local_completion_without_home_phase() {
        let mut r = MetricsRegistry::new();
        r.record_txn(&TxnTimeline {
            issue: 5,
            home_lookup: None,
            fanout: None,
            end: 12,
            write: false,
            retries: 0,
        });
        assert_eq!(r.read_latency.events(), 1);
        assert_eq!(r.issue_to_home.events(), 0);
    }

    #[test]
    fn json_schema_has_expected_sections() {
        let mut r = MetricsRegistry::new();
        r.record_txn(&TxnTimeline {
            issue: 0,
            home_lookup: Some(20),
            fanout: None,
            end: 60,
            write: false,
            retries: 1,
        });
        r.intervals.push(IntervalSnapshot {
            start: 0,
            end: 1000,
            messages: 5,
            retries: 1,
            nacks: 1,
            occupancy: 2,
            ops_retired: 3,
        });
        let j = r.to_json();
        assert_eq!(
            j.get("schema").and_then(Json::as_str),
            Some("scd-metrics/v1")
        );
        assert_eq!(j.get("transactions").and_then(Json::as_u64), Some(1));
        let lat = j.get("latency").unwrap();
        assert_eq!(
            lat.get("read").unwrap().get("p50").and_then(Json::as_u64),
            Some(60)
        );
        assert_eq!(j.get("intervals").and_then(Json::as_arr).unwrap().len(), 1);
        // Round-trips through the parser.
        let text = j.to_string();
        assert_eq!(Json::parse(&text).unwrap(), j);
    }

    #[test]
    fn interval_table_renders_every_window() {
        let mut r = MetricsRegistry::new();
        for i in 0..3 {
            r.intervals.push(IntervalSnapshot {
                start: i * 100,
                end: (i + 1) * 100,
                ..Default::default()
            });
        }
        let table = r.render_intervals();
        assert_eq!(table.lines().count(), 4);
        assert!(table.contains("[     200,     300)"));
    }
}
