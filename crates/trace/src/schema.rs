//! The versioned schema tags of every machine-readable document the
//! simulator emits.
//!
//! One constant per document family, used by both the emitters and the
//! validators so a tag can never drift between the two sides. The tags
//! are part of the published output surface: bump the `/v1` suffix only
//! with a deliberate, documented format break — adding fields to a
//! document does *not* require a bump (consumers must ignore unknown
//! fields), renaming or removing them does.

/// `scdsim --stats-json` / `BENCH_*.json` run documents.
pub const RUN_STATS_SCHEMA: &str = "scd-run-stats/v1";

/// The metrics-registry section (phase-latency histograms, intervals).
pub const METRICS_SCHEMA: &str = "scd-metrics/v1";

/// The traffic-attribution section (per-class bytes/flits, links).
pub const ATTRIB_SCHEMA: &str = "scd-attrib/v1";

/// `scd-sweep` aggregated grid documents.
pub const SWEEP_SCHEMA: &str = "scd-sweep/v1";

/// `CriticalReport::to_json`: the `scd-telemetry spans --critical` report.
pub const CRITICAL_SCHEMA: &str = "scd-critical/v1";

/// `scdsim --patterns-out` / `scd-telemetry patterns` directory-observatory
/// documents (sharing-pattern classifier + occupancy telemetry).
pub const PATTERNS_SCHEMA: &str = "scd-patterns/v1";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_distinct_and_versioned() {
        let all = [
            RUN_STATS_SCHEMA,
            METRICS_SCHEMA,
            ATTRIB_SCHEMA,
            SWEEP_SCHEMA,
            CRITICAL_SCHEMA,
            PATTERNS_SCHEMA,
        ];
        let set: std::collections::HashSet<_> = all.iter().collect();
        assert_eq!(set.len(), all.len());
        for tag in all {
            assert!(tag.starts_with("scd-") && tag.ends_with("/v1"), "{tag}");
        }
    }
}
