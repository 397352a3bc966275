//! Per-layer metrics of a traced run: span totals, exact counts, probe
//! costs, and the ratios and estimated shares derived from them.

use std::collections::BTreeMap;

use crate::metrics::{self, SHARES, SPANS};
use crate::spans::{self, Span};
use crate::workloads::Pass;
use crate::{Metric, PASS_ROOT};

/// What a traced run measured.
pub struct Run<'a> {
    /// The reference pass: its counts are every pass's counts.
    pub first: &'a Pass,
    /// Every span of the set-up and the traced passes.
    pub spans: &'a [Span],
    /// Probe costs, nanoseconds per operation.
    pub probes: &'a BTreeMap<&'static str, f64>,
    /// Quiet-host seconds of the untraced passes' headline half.
    pub wall_s: f64,
    /// Quiet-host seconds of their other half (0 when there is none).
    pub other_s: f64,
    /// Median over the traced passes' segments of traced ÷ untraced
    /// seconds, minus 1.
    pub trace_overhead: f64,
    /// Median over untraced passes of the headline half's seconds, as the
    /// clock read them.
    pub wall_median_s: f64,
    /// The factor from clocked seconds to quiet-host seconds.
    pub host_speed: f64,
    /// Untraced timed passes.
    pub passes: usize,
    /// Failed ÷ attempted operations.
    pub fail_share: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order; 0 where a metric
/// does not apply to the workload.
pub fn metrics(run: &Run) -> Vec<Metric> {
    let totals = spans::by_name(run.spans, PASS_ROOT);
    let self_ns = |name: &str| totals.get(name).map_or(0.0, |t| t.self_ns);
    let count = |name: &str| run.first.counts.get(name).copied().unwrap_or(0) as f64;
    let probe = |name: &str| run.probes.get(name).copied().unwrap_or(0.0);
    let mut values: BTreeMap<String, f64> = BTreeMap::new();

    for span in SPANS {
        let t = totals.get(span).copied().unwrap_or_default();
        values.insert(format!("{span}.calls"), t.calls);
        values.insert(format!("{span}.self_ms"), t.self_ns / 1e6);
    }
    for (name, n) in &run.first.counts {
        values.insert(name.to_string(), *n as f64);
    }
    for (name, ns) in run.probes {
        values.insert(name.to_string(), *ns);
    }
    let mut set = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };

    // The runs the counts were taken from: every run of a grid (the serial
    // half on `sharded_64c`), the plain half on `telemetry_stream`.
    let run_ns = self_ns("machine.run") + self_ns("machine.run_plain");
    let (events, refs) = (count("sim.events_delivered"), count("machine.shared_refs"));
    let sharded = totals.contains_key("machine.shard_run");
    let streamed = totals.contains_key("machine.run_plain");
    set("sim_msgs_per_ref", ratio(count("sim_messages"), refs));
    set("machine.refs_per_sec", ratio(refs, run.wall_s));
    // Headline half ÷ other half: serial ÷ shards = 2, observed ÷ plain.
    let halves = ratio(run.wall_s, run.other_s);
    set("machine.shard_speedup", if sharded { halves } else { 0.0 });
    set(
        "trace.telemetry_slowdown",
        if streamed { halves } else { 0.0 },
    );
    set("machine.run_ns_per_event", ratio(run_ns, events));
    set("machine.run_ns_per_ref", ratio(run_ns, refs));
    set("machine.events_per_ref", ratio(events, refs));
    set(
        "trace.observed_ns_per_line",
        ratio(
            self_ns("machine.run_observed") - self_ns("machine.run_plain"),
            count("trace.sink_lines"),
        ),
    );
    set(
        "trace.validate_stream_mb_per_s",
        ratio(
            count("trace.stream_bytes") / 1e6,
            self_ns("trace.validate_stream") / 1e9,
        ),
    );
    set(
        "check.ns_per_state",
        ratio(
            self_ns("check.explore") + self_ns("check.explore_faults"),
            count("check.states"),
        ),
    );
    set("bench.trace_overhead_pct", run.trace_overhead * 100.0);
    // The share of the traced passes' time that some span below the pass
    // root accounts for.
    let own = spans::self_ns(run.spans);
    let (uncovered, total) = run
        .spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == PASS_ROOT)
        .fold((0.0, 0.0), |(u, t), s| {
            (u + own[s.id as usize] as f64, t + s.duration_ns() as f64)
        });
    set(
        "bench.span_coverage_pct",
        (1.0 - ratio(uncovered, total)) * 100.0,
    );
    set("bench.wall_median_s", run.wall_median_s);
    set("bench.host_speed", run.host_speed);
    set("bench.passes", run.passes as f64);
    set("bench.fail_share", run.fail_share);

    // Shares of `machine.run`: what each layer's operations would cost if
    // each cost what its probe measured.
    if run_ns > 0.0 {
        let lookups = count("core.sparse_hits") + count("core.sparse_misses");
        let (dir_ns, dir_accesses) =
            if count("machine.tardis_renewals") + count("machine.dls_llc_fills") > 0.0 {
                (0.0, 0.0) // Tardis and DLS bypass the directory.
            } else if lookups > 0.0 {
                (probe("core.sparse_ns_per_lookup"), lookups)
            } else {
                // A complete directory is consulted once per secondary miss.
                (probe("core.store_ns_per_access"), count("mem.l2_misses"))
            };
        let shares = [
            probe("sim.wheel_ns_per_event") * events,
            (dir_ns + probe("core.entry_ns_per_op")) * dir_accesses,
            probe("mem.cache_ns_per_access") * refs,
            probe("noc.send_ns_per_msg") * count("noc.messages"),
            probe("protocol.arena_ns_per_msg") * count("noc.messages"),
        ]
        .map(|ns| ns / run_ns);
        for (name, share) in SHARES.iter().zip(shares) {
            set(name, share);
        }
        set(
            "machine.handler_share_est",
            1.0 - shares.iter().sum::<f64>(),
        );
    }

    metrics::per_layer()
        .into_iter()
        .map(|(name, unit, _)| {
            let v = values.get(&name).copied().unwrap_or(0.0);
            (name, v, unit)
        })
        .collect()
}
