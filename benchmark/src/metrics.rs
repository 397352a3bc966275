//! The metric tables: every name the benchmark can print, with its unit
//! and direction. `BENCHMARK.json` repeats them; a unit test holds the two
//! equal, so a metric cannot be added in one place only.
//!
//! Names starting `sim_` are simulated and repeat exactly for a seed;
//! everything else is host time or a host-side count.

/// An end-to-end metric and the share of the parent's median it may get
/// worse by before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// What a user of the simulator sees, on every workload. A bound is at
/// least three times the spread measured between ten runs at ten seeds
/// (README, "Steadiness").
pub const END_TO_END: [EndToEnd; 4] = [
    // Quiet-host seconds per pass (`stat::quiet_sum`); on `sharded_64c`
    // and `telemetry_stream`, of the pass's serial / observed half.
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    // Work per pass / `wall_s`: events delivered on the simulating
    // workloads, stream lines consumed on `telemetry_replay`, states
    // visited on `check_corpus`.
    EndToEnd {
        name: "events_per_sec",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    // `VmHWM` of the workload's process at exit.
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
    // Quiet-host seconds of one set-up: the committed-baseline comparison,
    // application generation, recording the replay inputs.
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// Every span name the traced pass can record; each yields
/// `<name>.calls` and `<name>.self_ms`.
pub const SPANS: [&str; 30] = [
    "apps.generate",
    "bench.build_config",
    "machine.new",
    "machine.run",
    "machine.run_plain",
    "machine.run_observed",
    "machine.shard_new",
    "machine.shard_run",
    "machine.attach_stream",
    "machine.attribution_json",
    "machine.stats_document",
    "machine.occupancy_json",
    "machine.drop",
    "bench.sweep_document",
    "trace.json_render",
    "trace.validate_stream",
    "trace.extract_trace_lines",
    "trace.validate_trace",
    "trace.patterns_from_trace",
    "trace.span_tree",
    "trace.to_folded",
    "trace.critical_analyze",
    "trace.to_perfetto",
    "trace.validate_perfetto",
    "trace.attrib_from_events",
    "trace.json_parse",
    "trace.compare_docs",
    "check.litmus_build",
    "check.explore",
    "check.explore_faults",
];

/// Exact counts of one pass: identical between two runs of one seed, and
/// across any change that only makes the simulator faster.
pub const COUNTS: [(&str, &str); 22] = [
    ("sim_cycles", "cycles"),
    ("sim_messages", "count"),
    ("sim.events_delivered", "count"),
    ("machine.shared_refs", "count"),
    ("mem.l2_misses", "count"),
    ("core.sparse_hits", "count"),
    ("core.sparse_misses", "count"),
    ("core.sparse_replacements", "count"),
    ("core.live_dir_entries", "count"),
    ("noc.messages", "count"),
    ("noc.hops", "count"),
    ("protocol.invalidations", "count"),
    ("protocol.forwards", "count"),
    ("protocol.replacement_flushes", "count"),
    ("protocol.sparse_stalls", "count"),
    ("machine.tardis_renewals", "count"),
    ("machine.dls_llc_fills", "count"),
    ("check.states", "count"),
    ("check.leaves", "count"),
    ("trace.sink_lines", "count"),
    ("trace.sink_bytes", "bytes"),
    ("trace.stream_bytes", "bytes"),
];

/// Rates and ratios derived from spans and counts, `(name, unit, better)`.
pub const DERIVED: [(&str, &str, &str); 16] = [
    ("sim_msgs_per_ref", "1/ref", "lower"),
    ("machine.refs_per_sec", "1/s", "higher"),
    ("machine.shard_speedup", "x", "higher"),
    ("trace.telemetry_slowdown", "x", "lower"),
    ("machine.run_ns_per_event", "ns", "lower"),
    ("machine.run_ns_per_ref", "ns", "lower"),
    ("machine.events_per_ref", "1/ref", "lower"),
    ("trace.observed_ns_per_line", "ns", "lower"),
    ("trace.validate_stream_mb_per_s", "MB/s", "higher"),
    ("check.ns_per_state", "ns", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
    ("bench.span_coverage_pct", "%", "higher"),
    ("bench.wall_median_s", "s", "lower"),
    ("bench.host_speed", "x", "higher"),
    ("bench.passes", "count", "higher"),
    ("bench.fail_share", "1", "lower"),
];

/// Layer probes, nanoseconds per operation.
pub const PROBES: [&str; 9] = [
    "sim.wheel_ns_per_event",
    "core.entry_ns_per_op",
    "core.store_ns_per_access",
    "core.sparse_ns_per_lookup",
    "mem.cache_ns_per_access",
    "noc.send_ns_per_msg",
    "protocol.arena_ns_per_msg",
    "trace.event_line_ns_per_event",
    "trace.patterns_observe_ns_per_event",
];

/// Estimated shares of `machine.run` self time: probe cost × count.
pub const SHARES: [&str; 6] = [
    "sim.wheel_share_est",
    "core.dir_share_est",
    "mem.cache_share_est",
    "noc.send_share_est",
    "protocol.arena_share_est",
    "machine.handler_share_est",
];

/// Every per-layer metric as `(name, unit, better)`, in the order
/// `BENCHMARK.json` lists them.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out = Vec::new();
    for span in SPANS {
        out.push((format!("{span}.calls"), "count", "lower"));
        out.push((format!("{span}.self_ms"), "ms", "lower"));
    }
    out.extend(COUNTS.map(|(name, unit)| (name.to_string(), unit, "lower")));
    out.extend(DERIVED.map(|(name, unit, better)| (name.to_string(), unit, better)));
    out.extend(PROBES.map(|name| (name.to_string(), "ns", "lower")));
    out.extend(SHARES.map(|name| (name.to_string(), "1", "lower")));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;
    use scd_trace::Json;
    use std::collections::BTreeSet;

    fn valid_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    fn valid_unit(unit: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
    }

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json parses")
    }

    fn str_field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry
            .get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("`{key}` in {entry}"))
    }

    #[test]
    fn names_and_units_fit_the_manifest_rules_and_are_used_once() {
        let mut seen = BTreeSet::new();
        let layer = per_layer();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .chain(END_TO_END.iter().map(|m| m.name.to_string()))
            .chain(layer.iter().map(|m| m.0.clone()));
        for name in names {
            assert!(valid_name(&name), "bad name `{name}`");
            assert!(seen.insert(name.clone()), "`{name}` is used twice");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(layer.iter().map(|m| m.1));
        for unit in units {
            assert!(valid_unit(unit), "bad unit `{unit}`");
        }
        assert!(layer.len() <= 128 && END_TO_END.len() <= 16 && WORKLOADS.len() <= 8);
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    #[test]
    fn manifest_lists_exactly_these_workloads_and_metrics() {
        let doc = manifest();
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key).to_vec();

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (str_field(w, "name").into(), str_field(w, "why").into()))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.into(), w.why.into()))
            .collect();
        assert_eq!(workloads, ours);

        let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                (
                    str_field(m, "name").into(),
                    str_field(m, "unit").into(),
                    str_field(m, "better").into(),
                    m.get("bound").and_then(Json::as_f64).expect("bound"),
                )
            })
            .collect();
        let ours: Vec<(String, String, String, f64)> = END_TO_END
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
            .collect();
        assert_eq!(end_to_end, ours);

        let layer: Vec<(String, String, String)> = list("per_layer")
            .iter()
            .map(|m| {
                (
                    str_field(m, "name").into(),
                    str_field(m, "unit").into(),
                    str_field(m, "better").into(),
                )
            })
            .collect();
        let ours: Vec<(String, String, String)> = per_layer()
            .into_iter()
            .map(|(n, u, b)| (n, u.into(), b.into()))
            .collect();
        assert_eq!(layer, ours);

        let seconds = doc
            .get("run_seconds")
            .and_then(Json::as_u64)
            .expect("run_seconds");
        assert_eq!(seconds as f64, crate::DEFAULT_SECONDS);
    }
}
